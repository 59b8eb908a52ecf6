"""Adaptive integration of the RBK system in its three charts.

One explicit Dormand-Prince 5(4) embedded pair with PI step-size control
drives everything: plain t-chart runs, long-time runs in s = log t, and
finite-y blowup runs of the phi-chart.  Auxiliary accumulators (the chart
changes y = int c_N, tau = int c_1 = int phi_1 dy, and int nu) are appended to
the state vector and integrated under the same error control.

The system is non-stiff in every chart at desk scale: the nonlinearity is a
decaying quadratic in t and a polynomially growing one in tau, so an explicit
pair with local error control is the right tool.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import checked_factorial, rbk_field

__all__ = [
    "BlowupEstimate",
    "IntegrationError",
    "IntegratorSettings",
    "Trajectory",
    "autonomous",
    "chart_map_t_to_phi",
    "density_aux_fields",
    "estimate_omega",
    "geometric_grid",
    "integrate_adaptive",
    "integrate_logtime",
    "integrate_phi_to_blowup",
    "integrate_rbk",
]


class IntegrationError(RuntimeError):
    """Numerical failure: step underflow, step budget exhausted, or a
    non-finite state that error control could not avoid."""


@dataclass(frozen=True)
class IntegratorSettings:
    """Error-control knobs of the embedded pair.

    negativity_guard: densities dipping below -guard reject the step; values
    in (-guard, 0) are clamped to exact zero.  Defaults to atol.
    """

    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 1_000_000
    negativity_guard: float | None = None

    def __post_init__(self):
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be finite and positive")
        if not isinstance(self.max_steps, numbers.Integral) or self.max_steps <= 0:
            raise ValueError("max_steps must be a positive integer")
        if self.negativity_guard is None:
            object.__setattr__(self, "negativity_guard", self.atol)
        elif not 0 <= self.negativity_guard < math.inf:
            raise ValueError("negativity_guard must be finite and nonnegative")


@dataclass(frozen=True)
class Trajectory:
    """Immutable ordered samples of one chart.

    chart is one of {"t", "log-t", "phi-y", "psi-tau"}; abscissae are reported
    in t for both t-charts and in y for the phi chart.  aux maps accumulator
    names to per-sample values integrated alongside the state.
    """

    CHARTS = ("t", "log-t", "phi-y", "psi-tau")

    chart: str
    abscissae: np.ndarray
    states: np.ndarray
    aux: dict[str, np.ndarray] = field(default_factory=dict)
    settings: IntegratorSettings = field(default_factory=IntegratorSettings)

    def __post_init__(self):
        if self.chart not in self.CHARTS:
            raise ValueError(f"unknown chart {self.chart!r}; expected one of {self.CHARTS}")
        x = np.asarray(self.abscissae, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if x.ndim != 1 or s.ndim != 2 or s.shape[0] != x.size:
            raise ValueError("need matching 1-D abscissae and (n, dim) states")
        if np.any(np.diff(x) <= 0):
            raise ValueError("abscissae must be strictly increasing")
        x = x.copy()
        s = s.copy()
        x.setflags(write=False)
        s.setflags(write=False)
        aux = {}
        slack = 1e-9 * max(1.0, float(np.max(np.abs(s))) if s.size else 1.0)
        for name, series in self.aux.items():
            a = np.asarray(series, dtype=float).copy()
            if a.shape != x.shape:
                raise ValueError(f"aux series {name!r} length mismatch")
            if np.any(np.diff(a) < -slack):
                raise ValueError(f"aux accumulator {name!r} must be nondecreasing")
            a.setflags(write=False)
            aux[name] = a
        object.__setattr__(self, "abscissae", x)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "aux", aux)

    @property
    def n_samples(self) -> int:
        return self.abscissae.size

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def final_abscissa(self) -> float:
        return float(self.abscissae[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def aux_series(self, name: str) -> np.ndarray:
        if name not in self.aux:
            raise KeyError(f"trajectory has no {name!r} accumulator")
        return self.aux[name]


@dataclass(frozen=True)
class BlowupEstimate:
    """Estimated blowup point omega of the phi-chart with a heuristic
    (spread-based) uncertainty; no rigorous error bar is claimed."""

    omega: float
    uncertainty: float
    method: str = "tauy-extrapolation"

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and positive, got {self.omega}")
        if not (np.isfinite(self.uncertainty) and self.uncertainty >= 0):
            raise ValueError("uncertainty must be finite and nonnegative")
        if self.method not in ("tauy-extrapolation", "richardson"):
            raise ValueError(f"unknown method tag {self.method!r}")


def autonomous(fn):
    """Adapt a state-only rate function to the (t, x) driver signature."""

    def wrapped(t, x):
        return fn(x)

    return wrapped


def geometric_grid(lo: float, hi: float, points_per_decade: int = 64) -> np.ndarray:
    """Log-uniform grid over [lo, hi] with the given per-decade density."""
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    decades = math.log10(hi / lo)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.geomspace(lo, hi, n)


_DENSITY_AUX = ("y", "tau", "nu_int")


def density_aux_fields():
    """Accumulators carried along density-chart runs: y = int c_N dt,
    tau = int c_1 dt, and nu_int = int nu dt."""
    rates = (lambda t, c: c[-1], lambda t, c: c[0], lambda t, c: c.sum())
    return tuple(zip(_DENSITY_AUX, rates))


def _density_rate(dim: int, log_time: bool):
    """Packed rate of the density charts: the RBK field of c = z[:dim], then
    the rates c_N, c_1 and nu of the accumulators in _DENSITY_AUX order, all
    times e^s in the log-time chart.  Same floating-point operations as
    integrating autonomous(rbk_field) with density_aux_fields()."""
    n = dim + 3

    def rate(t, z):
        c = z[:dim]
        out = np.empty(n)
        # looked up at call time, so a wrapper installed on the module
        # attribute (the benchmark's traced run) sees every field call
        out[:dim] = rbk_field(c)
        out[dim] = c[-1]
        out[dim + 1] = c[0]
        out[dim + 2] = c.sum()
        if log_time:
            out *= math.exp(t)
        return out

    return rate


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) pair with PI control
# ---------------------------------------------------------------------------

# (node, row of the Butcher matrix) of stages 2..6, then the 5th-order weights
_STAGES = (
    (1 / 5, np.array([1 / 5])),
    (3 / 10, np.array([3 / 40, 9 / 40])),
    (4 / 5, np.array([44 / 45, -56 / 15, 32 / 9])),
    (8 / 9, np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729])),
    (1.0, np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656])),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI exponents for a 5th-order propagating pair (Gustafsson-style control)
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
# smallest step relative to |t|; below it the step has underflowed
_H_FLOOR = 16 * np.finfo(float).eps


def _initial_step(rhs, t0, z0, f0, t_span, scale_of):
    """Standard two-probe heuristic for the first trial step."""
    scale = scale_of(z0)
    d0 = np.sqrt(np.mean((z0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * t_span)
    z1 = z0 + h0 * f0
    try:
        f1 = rhs(t0 + h0, z1)
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    except (ValueError, FloatingPointError, OverflowError):
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_span)


def _compose_rate(field_fn, aux_fields, dim: int):
    """The rate of the whole vector z = (x, accumulators) and the accumulator
    names.  Bare names in aux_fields mean field_fn already is that rate."""
    if aux_fields and all(isinstance(entry, str) for entry in aux_fields):
        return field_fn, list(aux_fields)
    names = [name for name, _ in aux_fields]
    aux_rates = [fn for _, fn in aux_fields]
    n = dim + len(aux_rates)

    def rate(t, z):
        x = z[:dim]
        out = np.empty(n)
        out[:dim] = field_fn(t, x)
        for i, fn in enumerate(aux_rates, dim):
            out[i] = fn(t, x)
        return out

    return rate, names


def integrate_adaptive(
    field_fn,
    x0,
    span,
    settings: IntegratorSettings | None = None,
    *,
    grid=None,
    aux_fields=(),
    aux0=None,
    nonneg_guard: bool = True,
    stop_when=None,
    chart: str = "t",
) -> Trajectory:
    """Adaptive embedded-pair integration of dx/dt = field_fn(t, x).

    Each aux_fields entry (name, fn) appends an accumulator with rate
    fn(t, x).  An entry that is a bare name instead says that field_fn
    already returns that accumulator's rate: field_fn then takes the whole
    vector (x, accumulators in aux_fields order) and returns its rate.  The
    chart drivers use this form to evaluate field and accumulators in one
    call.

    Local error per step is bounded by atol + rtol*|z| componentwise (RMS
    norm), with the auxiliary accumulators part of the controlled vector.
    Samples are recorded at every accepted step; caller-supplied grid points
    are hit exactly (the step is clipped onto them) and recorded too.  State
    components that are exactly zero with a structurally zero rate stay
    exactly zero, bitwise.

    nonneg_guard enforces the density invariant: a component below
    -negativity_guard rejects the step, and accepted values in (-guard, 0)
    are clamped to exact zero.  stop_when(t, x), checked after each accepted
    step, ends the run early (used for blowup caps).
    """
    if settings is None:
        settings = IntegratorSettings()
    t0, t_end = float(span[0]), float(span[1])
    if not t_end > t0:
        raise ValueError(f"span must satisfy start < end, got {span}")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or not np.isfinite(x0).all():
        raise IntegrationError("non-finite or non-vector initial state")
    dim = x0.size

    rate, aux_names = _compose_rate(field_fn, aux_fields, dim)
    if aux0 is None:
        aux0 = np.zeros(len(aux_names))
    z0 = np.concatenate([x0, np.asarray(aux0, dtype=float)])

    rtol, atol, guard = settings.rtol, settings.atol, settings.negativity_guard

    def scale_of(z):
        return atol + rtol * np.abs(z)

    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        grid = grid[(grid > t0) & (grid <= t_end)]
        if (np.diff(grid) <= 0).any():
            raise ValueError("grid must be strictly increasing")
        grid = grid.tolist()

    # k[0] always holds the rate at the current (t, z): FSAL after an
    # accepted step, untouched by a rejected one
    k = np.empty((7, z0.size))
    t, z = t0, z0
    k[0] = rate(t, z)
    h = _initial_step(rate, t, z, k[0], t_end - t0, scale_of)

    # accepted vectors are fresh arrays never written again, so no copies
    ts = [t]
    zs = [z]
    grid_idx = 0
    err_prev = 1.0
    n_attempts = 0
    stopped = False

    while t < t_end:
        if n_attempts >= settings.max_steps:
            raise IntegrationError(
                f"max_steps={settings.max_steps} exhausted at t={t:.6g} "
                "(settings too tight for the requested span)"
            )
        h_min = _H_FLOOR * max(abs(t), 1e-30)
        if not h >= h_min:  # also catches a NaN step
            raise IntegrationError(f"step size underflow at t={t:.6g}")

        # clip onto the next grid point / span end so samples land exactly
        t_target = t_end
        if grid is not None and grid_idx < len(grid):
            t_target = min(t_target, grid[grid_idx])
        h_step = min(h, t_target - t)
        on_target = h_step >= t_target - t
        t_new = t_target if on_target else t + h_step

        n_attempts += 1
        try:
            for i, (node, a_row) in enumerate(_STAGES, 1):
                k[i] = rate(t + node * h_step, z + h_step * (a_row @ k[:i]))
            z_new = z + h_step * (_B @ k[:6])
            k[6] = rate(t_new, z_new)
            err_vec = h_step * (_E @ k)
        except (ValueError, FloatingPointError, OverflowError):
            h = max(0.1 * h_step, 0.5 * h_min)
            continue

        if not np.isfinite(z_new).all():
            h = max(0.1 * h_step, 0.5 * h_min)
            continue

        q = err_vec / (atol + rtol * np.maximum(np.abs(z), np.abs(z_new)))
        err = math.sqrt(float((q * q).sum()) / q.size)
        if not math.isfinite(err):
            h = max(0.1 * h_step, 0.5 * h_min)
            continue

        clamp = nonneg_guard and (z_new[:dim] < 0.0).any()
        if clamp and (z_new[:dim] < -guard).any():
            err = max(err, 2.0)

        if err > 1.0:
            h = h_step * max(_MIN_FACTOR, _SAFETY * err**-0.2)
            continue

        # accepted
        t, z = t_new, z_new
        if clamp:
            x = z[:dim]
            x[x < 0.0] = 0.0
            k[0] = rate(t, z)
        else:
            k[0] = k[6]
        ts.append(t)
        zs.append(z)

        if grid is not None:
            while grid_idx < len(grid) and grid[grid_idx] <= t:
                grid_idx += 1

        if stop_when is not None and stop_when(t, z[:dim]):
            stopped = True
            break

        err = max(err, 1e-10)
        factor = min(_MAX_FACTOR, _SAFETY * err**-_PI_ALPHA * err_prev**_PI_BETA)
        h = max(h_step * max(factor, _MIN_FACTOR), 0.0)
        err_prev = err

    zs_arr = np.asarray(zs)
    aux = {name: zs_arr[:, dim + i] for i, name in enumerate(aux_names)}
    traj = Trajectory(
        chart=chart,
        abscissae=np.asarray(ts),
        states=zs_arr[:, :dim],
        aux=aux,
        settings=settings,
    )
    if stop_when is not None and not stopped and t < t_end:
        raise IntegrationError("integration ended before the stop condition")
    return traj


# ---------------------------------------------------------------------------
# Chart-specific drivers
# ---------------------------------------------------------------------------


def integrate_rbk(
    c0,
    t_end: float,
    settings: IntegratorSettings | None = None,
    *,
    points_per_decade: int = 64,
    decades: float = 6.0,
) -> Trajectory:
    """t-chart run of the RBK system over [0, t_end] with a geometric sample
    grid covering the trailing `decades` decades of time."""
    c0 = np.asarray(c0, dtype=float)
    grid = None
    if t_end > 0 and points_per_decade > 0:
        lo = t_end * 10.0 ** (-decades)
        grid = geometric_grid(lo, t_end, points_per_decade)
    return integrate_adaptive(
        _density_rate(c0.size, log_time=False),
        c0,
        (0.0, t_end),
        settings,
        grid=grid,
        aux_fields=_DENSITY_AUX,
        nonneg_guard=True,
        chart="t",
    )


def integrate_logtime(
    c0,
    t_end: float,
    settings: IntegratorSettings | None = None,
    *,
    points_per_decade: int = 64,
) -> Trajectory:
    """Long-time run: t-chart on [0, 1], then s = log t with
    dc/ds = e^s * field(c) up to s = log t_end.  Abscissae are reported in t
    and the accumulators run continuously across the chart switch.

    The switch point t = 1 avoids log(0) while keeping the early phase cheap.
    """
    if settings is None:
        settings = IntegratorSettings()
    if t_end <= 1.0:
        raise ValueError(f"log-time chart needs t_end > 1, got {t_end}")
    c0 = np.asarray(c0, dtype=float)

    first = integrate_adaptive(
        _density_rate(c0.size, log_time=False),
        c0,
        (0.0, 1.0),
        settings,
        aux_fields=_DENSITY_AUX,
        nonneg_guard=True,
        chart="t",
    )

    s_end = math.log(t_end)
    s_grid = np.log(geometric_grid(1.0, t_end, points_per_decade))[1:]
    second = integrate_adaptive(
        _density_rate(c0.size, log_time=True),
        first.final_state,
        (0.0, s_end),
        settings,
        grid=s_grid,
        aux_fields=_DENSITY_AUX,
        aux0=[first.aux_series(name)[-1] for name in _DENSITY_AUX],
        nonneg_guard=True,
        chart="t",
    )

    abscissae = np.concatenate([first.abscissae, np.exp(second.abscissae[1:])])
    states = np.vstack([first.states, second.states[1:]])
    aux = {
        name: np.concatenate([first.aux_series(name), second.aux_series(name)[1:]])
        for name in _DENSITY_AUX
    }
    return Trajectory(
        chart="log-t", abscissae=abscissae, states=states, aux=aux, settings=settings
    )


def integrate_phi_to_blowup(
    phi0,
    cap: float = 1e10,
    settings: IntegratorSettings | None = None,
) -> tuple[Trajectory, BlowupEstimate]:
    """Integrate the phi-chart until phi_1 >= cap and extrapolate the blowup
    point omega from the terminal (y, tau) samples.

    phi_1 dominates every other component near blowup, so capping it bounds
    the whole state; the default 1e10 keeps the quadratic rates (~1e20) far
    inside double range.  Every component is validated strictly increasing
    across samples.
    """
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.ndim != 1 or phi0.size < 2:
        raise ValueError("phi0 must be a vector of length N-1 >= 2")
    if np.any(phi0 <= 0):
        raise ValueError("phi chart requires strictly positive initial data")
    if not (math.isfinite(cap) and cap > phi0[0]):
        raise ValueError(f"cap {cap} must be finite and exceed phi_1(0) = {phi0[0]}")

    dim = phi0.size

    def rate(y, z):
        # (phi', tau') with tau' = phi_1; core.phi_field is looked up at call
        # time, like rbk_field in _density_rate
        phi = z[:dim]
        out = np.empty(dim + 1)
        out[:dim] = core.phi_field(phi)
        out[dim] = phi[0]
        return out

    try:
        traj = integrate_adaptive(
            rate,
            phi0,
            (0.0, np.inf),
            settings,
            aux_fields=("tau",),
            nonneg_guard=False,
            stop_when=lambda y, phi: phi[0] >= cap,
            chart="phi-y",
        )
    except IntegrationError as exc:
        raise IntegrationError(f"cap not reached within max_steps: {exc}") from exc
    if traj.final_state[0] < cap:
        raise IntegrationError("cap not reached within max_steps")
    if np.any(np.diff(traj.states, axis=0) <= 0):
        raise IntegrationError("phi components failed to increase strictly")

    n = phi0.size + 1
    samples = np.column_stack([traj.abscissae, traj.aux_series("tau")])
    estimate = estimate_omega(samples[1:], n)  # drop y=0 where tau=0
    return traj, estimate


def estimate_omega(samples, N: int) -> BlowupEstimate:
    """Blowup point from (y, tau) pairs via the terminal relation
    tau(y) = [(N-2)/(N-1)! * (omega - y)]^(-1/(N-2)) inverted with the
    correction term dropped:

        omega_hat(y) = y + (N-1)!/(N-2) * tau(y)^(2-N).

    The final per-sample estimate is refined by a Richardson-style (Aitken)
    extrapolation over three log-spaced points spanning the last decade of
    the gap omega_hat - y; the uncertainty is the spread of the last three
    per-sample estimates.  The correction decay rate is unknown, so the
    uncertainty is heuristic.
    """
    if int(N) != N or N < 3:
        raise ValueError(f"omega estimation needs N >= 3, got {N}")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("need at least 3 (y, tau) samples")
    y, tau = arr[:, 0], arr[:, 1]
    if np.any(np.diff(tau) <= 0):
        raise ValueError("tau samples must be strictly increasing")
    if np.any(tau <= 0):
        raise ValueError("tau samples must be positive")

    fac = checked_factorial(N - 1) / (N - 2)
    w = y + fac * tau ** (2.0 - N)
    w_last = float(w[-1])
    uncertainty = float(np.max(w[-3:]) - np.min(w[-3:]))

    omega = w_last
    gap = w_last - y
    g_min = float(gap[-1])
    if g_min > 0 and gap[0] >= 10.0 * g_min:
        log_gap = np.log(gap)
        idx = [
            int(np.argmin(np.abs(log_gap - math.log(target))))
            for target in (10.0 * g_min, math.sqrt(10.0) * g_min, g_min)
        ]
        if idx[0] < idx[1] < idx[2]:
            w1, w2, w3 = (float(w[i]) for i in idx)
            d1, d2 = w2 - w1, w3 - w2
            denom = d2 - d1
            if denom != 0.0:
                correction = d2 * d2 / denom
                # distrust a refinement larger than the window it came from
                if abs(correction) <= 10.0 * abs(w3 - w1):
                    omega = w3 - correction
    if not (np.isfinite(omega) and omega > y[-1]):
        omega = w_last
    return BlowupEstimate(omega=omega, uncertainty=uncertainty, method="tauy-extrapolation")


def chart_map_t_to_phi(traj: Trajectory) -> Trajectory:
    """Map a t-chart trajectory into the phi-chart: abscissa y(t) (from the
    accumulator), state phi_j = c_j / c_N.  Fails where c_N = 0 (chart
    breakdown); the tau accumulator carries over since tau = int c_1 dt."""
    if traj.chart not in ("t", "log-t"):
        raise ValueError(f"expected a t-chart trajectory, got {traj.chart!r}")
    y = traj.aux_series("y")
    c_last = traj.states[:, -1]
    if np.any(c_last <= 0):
        raise ValueError("chart breakdown: c_N = 0 on the trajectory")
    phi = traj.states[:, :-1] / c_last[:, None]
    aux = {}
    if "tau" in traj.aux:
        aux["tau"] = traj.aux_series("tau")
    return Trajectory(
        chart="phi-y", abscissae=y, states=phi, aux=aux, settings=traj.settings
    )
