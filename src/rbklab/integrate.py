"""Adaptive integration of the RBK system in its three charts.

One explicit Dormand-Prince 5(4) embedded pair with PI step-size control
drives everything: density runs of u = (1 + t) c in s = log(1 + t), which
serve both time charts and differ only in their sample grids, and finite-y
blowup runs of the phi chart in s = log(1 + tau).  Auxiliary accumulators (the
chart changes y = int c_N, tau = int c_1 = int phi_1 dy, and int nu) are
appended to the state vector and integrated under the same error control.

The system is non-stiff in every chart at desk scale: the nonlinearity is a
decaying quadratic in t and a polynomially growing one in tau, so an explicit
pair with local error control is the right tool.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import core
from .core import checked_factorial, rbk_field

__all__ = [
    "BlowupEstimate",
    "IntegrationError",
    "IntegrationStats",
    "IntegratorSettings",
    "Trajectory",
    "geometric_grid",
    "grid_times",
    "integrate_adaptive",
    "integrate_logtime",
    "integrate_phi_to_blowup",
    "integrate_rbk",
]


class IntegrationError(RuntimeError):
    """Numerical failure: step underflow, step budget exhausted, a
    non-finite state that error control could not avoid, or a phi-chart run
    whose y stopped resolving before phi_1 reached the cap."""


@dataclass(frozen=True)
class IntegratorSettings:
    """Error-control knobs of the embedded pair.

    atol is also the negativity guard of the density charts: a density below
    -atol rejects the step, and values in (-atol, 0) are clamped to exact zero.
    """

    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be finite and positive")
        if not isinstance(self.max_steps, numbers.Integral) or self.max_steps <= 0:
            raise ValueError("max_steps must be a positive integer")


@dataclass(frozen=True)
class IntegrationStats:
    """What the integrator did on one run.

    accepted counts accepted steps; rejected_error, rejected_guard and
    rejected_nonfinite count rejected attempts by cause: the local error
    test, a density below -atol, and a stage rate that raised or
    a non-finite new state or error.  clamped counts accepted steps whose
    densities were clamped to zero, rhs_evals the calls of the rate function,
    and h_min/h_max bound the accepted step sizes in the chart's own
    abscissa.
    """

    accepted: int = 0
    rejected_error: int = 0
    rejected_guard: int = 0
    rejected_nonfinite: int = 0
    clamped: int = 0
    rhs_evals: int = 0
    h_min: float = math.inf
    h_max: float = 0.0

    @property
    def rejected(self) -> int:
        return self.rejected_error + self.rejected_guard + self.rejected_nonfinite


@dataclass(frozen=True)
class Trajectory:
    """Immutable ordered samples of one chart.

    chart is one of {"t", "log-t", "phi-y"}; abscissae are reported in t for
    both time charts, which differ only in their sample grids, and in y for
    the phi chart.  aux maps accumulator names to per-sample values
    integrated alongside the state.  stats holds the integrator's counters
    when the trajectory came out of a run.
    """

    # chart -> the abscissa integrate_adaptive integrates in: t for a generic
    # run, s = log(1 + t) for the density runs of both time charts (tagged
    # log-t while they integrate) and s = log(1 + tau) for phi-y
    CHARTS = {"t": "t", "log-t": "s", "phi-y": "s"}

    chart: str
    abscissae: np.ndarray
    states: np.ndarray
    aux: dict[str, np.ndarray] = field(default_factory=dict)
    settings: IntegratorSettings = field(default_factory=IntegratorSettings)
    stats: IntegrationStats | None = None

    def __post_init__(self):
        if self.chart not in self.CHARTS:
            raise ValueError(f"unknown chart {self.chart!r}; expected one of {tuple(self.CHARTS)}")
        x = np.asarray(self.abscissae, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if x.ndim != 1 or s.ndim != 2 or s.shape[0] != x.size:
            raise ValueError("need matching 1-D abscissae and (n, dim) states")
        if not (np.diff(x) > 0).all():  # NaN fails it too
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
            if not (np.diff(a) >= -slack).all():
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


@dataclass(frozen=True)
class BlowupEstimate:
    """Blowup point omega of the phi chart with its error bar, as
    integrate_phi_to_blowup finds them."""

    omega: float
    uncertainty: float


def geometric_grid(lo: float, hi: float, points_per_decade: int = 64) -> np.ndarray:
    """Log-uniform grid over [lo, hi] with the given per-decade density."""
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    decades = math.log10(hi / lo)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.geomspace(lo, hi, n)


# the t chart samples the trailing six decades of [0, t_end]
_T_GRID_DECADES = 6.0


def _sample_grid(chart: str, t_end: float, points_per_decade: int):
    """(s, t) of the sample grid of a "t" or "log-t" run to t_end: both start
    at 0 and end on the run's span end in s = log(1 + t).  The log-t grid is
    uniform in s, the logs of a geometric grid over [1, 1 + t_end], reported
    at t = e^s - 1.  The t grid is geometric in t over the trailing six
    decades (only t_end when points_per_decade is 0), taken at s = log1p(t)
    and reported at its own t, so the run lands on every grid point and ends
    on t_end."""
    if chart == "log-t":
        s = np.log(geometric_grid(1.0, 1.0 + t_end, max(points_per_decade, 1)))
        return s, np.expm1(s)
    t = [t_end]
    if points_per_decade > 0:
        t = geometric_grid(t_end * 10.0 ** (-_T_GRID_DECADES), t_end, points_per_decade)
    t = np.concatenate(([0.0], t))
    return np.log1p(t), t


def grid_times(chart: str, t_end: float, points_per_decade: int):
    """The t of every sample that a "t" or "log-t" run to t_end with
    points_per_decade > 0 reports, the start t = 0 first (see _sample_grid)."""
    return _sample_grid(chart, t_end, points_per_decade)[1]


# accumulators of the density charts: y = int c_N dt, tau = int c_1 dt and
# nu_int = int nu dt, packed after c in this order
_DENSITY_AUX = ("y", "tau", "nu_int")


def _density_rate(dim: int):
    """Packed rate of every density run, which integrates u = (1 + t) c in
    s = log(1 + t): the field is quadratic, so du/ds = u + field(u) for
    u = z[:dim], then the rates u_N, u_1 and sum u of the accumulators in
    _DENSITY_AUX order, the t-chart rates of y, tau and nu_int because
    int c dt = int u ds."""
    n = dim + 3

    def rate(s, z):
        u = z[:dim]
        out = np.empty(n)
        # looked up at call time, so a wrapper installed on the module
        # attribute (the benchmark's traced run) sees every field call
        out[:dim] = rbk_field(u)
        out[:dim] += u
        out[dim] = u[-1]
        out[dim + 1] = u[0]
        out[dim + 2] = u.sum()
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
# free 4th-order continuous extension of the pair (Hairer-Norsett-Wanner,
# Solving ODEs I, II.6; Shampine, Math. Comp. 46, 1986):
# z(t + theta*h) = z + h * [theta, theta^2, theta^3, theta^4] @ (_P.T @ k)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_POWERS = np.arange(1, 5)

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


def _where(var: str, t: float, h_last) -> str:
    """Where a run failed: the chart's own abscissa and the last accepted h."""
    last = "no step accepted" if h_last is None else f"last accepted h={h_last:.6g}"
    return f"{var}={t:.6g} ({last})"


# a trial stage that overflows, divides by zero or turns NaN is rejected by
# the step loop below, so numpy need not also warn about it
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def integrate_adaptive(
    rate,
    z0,
    span,
    settings: IntegratorSettings | None = None,
    *,
    grid=None,
    aux_names=(),
    nonneg_guard: bool = True,
    stop_when=None,
    chart: str = "t",
) -> Trajectory:
    """Adaptive embedded-pair integration of dz/dt = rate(t, z).

    z = (x, accumulators): the last len(aux_names) components of z are the
    named accumulators, reported in Trajectory.aux, and the leading ones the
    state x.  rate maps the whole vector, so a chart driver evaluates its
    field and its accumulator rates in one call.

    Local error per step is bounded by atol + rtol*|z| componentwise (RMS
    norm), with the accumulators part of the controlled vector.
    Steps are clipped only onto the span end, so the step sequence does not
    depend on the grid.  Without a grid every accepted step is a sample.  With
    one, the samples are the start, every grid point in (start, end] and the
    last point (the span end, or the step that met stop_when); grid points
    inside a step are filled from the pair's 4th-order continuous extension.
    State components that are exactly zero with a structurally zero rate stay
    exactly zero, bitwise, at steps and interpolated samples alike.

    nonneg_guard enforces the density invariant on x: a component below
    -atol rejects the step, and accepted or interpolated values below 0 are
    clamped to exact zero (undershoot beyond the guard cannot be accepted).
    stop_when(t, z), checked on the whole vector after each accepted step,
    ends the run early (used for blowup runs).  chart tags the trajectory,
    whose abscissae stay in the variable integrated over (the drivers map s
    back to t or y), and a failure names that abscissa (Trajectory.CHARTS)
    and the last accepted h.
    The returned trajectory carries the run's IntegrationStats.
    """
    if settings is None:
        settings = IntegratorSettings()
    t0, t_end = float(span[0]), float(span[1])
    if not t_end > t0:
        raise ValueError(f"span must satisfy start < end, got {span}")
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim != 1 or not np.isfinite(z0).all():
        raise IntegrationError("non-finite or non-vector initial state")
    dim = z0.size - len(aux_names)
    if dim < 1:
        raise ValueError("z0 needs state components ahead of the accumulators")
    var = Trajectory.CHARTS[chart]

    rtol, atol = settings.rtol, settings.atol

    def scale_of(z):
        return atol + rtol * np.abs(z)

    # the grid points in (t0, t_end]; grid_idx indexes the first still ahead
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        grid = grid[(grid > t0) & (grid <= t_end)]
        if (np.diff(grid) <= 0).any():
            raise ValueError("grid must be strictly increasing")

    # k[0] always holds the rate at the current (t, z): FSAL after an
    # accepted step, untouched by a rejected one
    k = np.empty((7, z0.size))
    t, z = t0, z0
    k[0] = rate(t, z)
    h = _initial_step(rate, t, z, k[0], t_end - t0, scale_of)
    n_evals = 2  # k[0] and the probe of _initial_step

    # accepted vectors are fresh arrays never written again, so no copies
    ts = [t]
    zs = [z]
    grid_idx = 0
    err_prev = 1.0
    n_attempts = n_accepted = n_clamped = 0
    n_rej_error = n_rej_guard = n_rej_nonfinite = 0
    h_lo, h_hi, h_last = math.inf, 0.0, None
    stopped = False

    while t < t_end:
        if n_attempts >= settings.max_steps:
            raise IntegrationError(
                f"max_steps={settings.max_steps} exhausted at {_where(var, t, h_last)}: "
                "settings too tight for the requested span"
            )
        h_min = _H_FLOOR * max(abs(t), 1e-30)
        if not h >= h_min:  # also catches a NaN step
            raise IntegrationError(f"step size underflow at {_where(var, t, h_last)}")

        # clip onto the span end
        h_step = min(h, t_end - t)
        t_new = t_end if h_step >= t_end - t else t + h_step

        n_attempts += 1
        # a stage rate that raises, a non-finite new state and a non-finite
        # error norm all leave err non-finite and reject the step
        stage, err = 0, math.nan
        try:
            for stage, (node, a_row) in enumerate(_STAGES, 1):
                k[stage] = rate(t + node * h_step, z + h_step * (a_row @ k[:stage]))
            z_new = z + h_step * (_B @ k[:6])
            stage = 6
            k[6] = rate(t_new, z_new)
            if np.isfinite(z_new).all():
                q = h_step * (_E @ k) / (atol + rtol * np.maximum(np.abs(z), np.abs(z_new)))
                err = math.sqrt(float((q * q).sum()) / q.size)
        except (ValueError, FloatingPointError, OverflowError):
            pass
        n_evals += stage
        if not math.isfinite(err):
            n_rej_nonfinite += 1
            h = max(0.1 * h_step, 0.5 * h_min)
            continue

        clamp = nonneg_guard and (z_new[:dim] < 0.0).any()
        guard_hit = clamp and (z_new[:dim] < -atol).any()
        if guard_hit:
            err = max(err, 2.0)

        if err > 1.0:
            if guard_hit:
                n_rej_guard += 1
            else:
                n_rej_error += 1
            h = h_step * max(_MIN_FACTOR, _SAFETY * err**-0.2)
            continue

        # accepted: fill the grid points inside (t, t_new) from the stage
        # rates of this step, before k[0] moves on; a strictly increasing
        # grid holds at most one point at t_new itself
        on_grid = False
        if grid is not None:
            j = int(grid.searchsorted(t_new))
            if j > grid_idx:
                theta = (grid[grid_idx:j] - t) / h_step
                block = z + h_step * (theta[:, None] ** _POWERS @ (_P.T @ k))
                if nonneg_guard:
                    x = block[:, :dim]
                    x[x < 0.0] = 0.0
                ts.extend(grid[grid_idx:j])
                zs.extend(block)
            on_grid = j < grid.size and grid[j] == t_new
            grid_idx = j + 1 if on_grid else j

        t, z = t_new, z_new
        n_accepted += 1
        h_lo = min(h_lo, h_step)
        h_hi = max(h_hi, h_step)
        h_last = h_step
        if clamp:
            n_clamped += 1
            x = z[:dim]
            x[x < 0.0] = 0.0
            k[0] = rate(t, z)
            n_evals += 1
        else:
            k[0] = k[6]

        if stop_when is not None and stop_when(t, z):
            stopped = True
        if grid is None or on_grid or stopped or t >= t_end:
            ts.append(t)
            zs.append(z)
        if stopped:
            break

        err = max(err, 1e-10)
        factor = min(_MAX_FACTOR, _SAFETY * err**-_PI_ALPHA * err_prev**_PI_BETA)
        h = max(h_step * max(factor, _MIN_FACTOR), 0.0)
        err_prev = err

    zs_arr = np.asarray(zs)
    aux = {name: zs_arr[:, dim + i] for i, name in enumerate(aux_names)}
    stats = IntegrationStats(
        accepted=n_accepted,
        rejected_error=n_rej_error,
        rejected_guard=n_rej_guard,
        rejected_nonfinite=n_rej_nonfinite,
        clamped=n_clamped,
        rhs_evals=n_evals,
        h_min=float(h_lo),
        h_max=float(h_hi),
    )
    return Trajectory(
        chart=chart,
        abscissae=np.asarray(ts),
        states=zs_arr[:, :dim],
        aux=aux,
        settings=settings,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Chart-specific drivers
# ---------------------------------------------------------------------------


def _density_run(chart: str, c0, t_end, settings, points_per_decade) -> Trajectory:
    """Both time charts are this one run of u = (1 + t) c in s = log(1 + t),
    where du/ds = u + field(u), from s = 0 to the end of the chart's sample
    grid (_sample_grid).  By the long-time law c_j ~ A_j / (t (log t)^(j-1)),
    u stays O(1), so error control keeps its relative meaning as c decays.

    The run is sampled on the grid and reported at the grid's t or, when
    points_per_decade is 0, at every accepted step, reported at t = e^s - 1
    and the last at the grid's end.  States are reported as c = e^-s u, and a
    failure names s.
    """
    s_grid, t_grid = _sample_grid(chart, t_end, points_per_decade)
    c0 = np.asarray(c0, dtype=float)
    run = integrate_adaptive(
        _density_rate(c0.size),
        np.concatenate([c0, np.zeros(len(_DENSITY_AUX))]),
        (0.0, s_grid[-1]),
        settings,
        grid=s_grid if points_per_decade > 0 else None,
        aux_names=_DENSITY_AUX,
        nonneg_guard=True,
        chart="log-t",
    )
    s = run.abscissae
    t = t_grid if points_per_decade > 0 else np.append(np.expm1(s[:-1]), t_grid[-1])
    return replace(run, chart=chart, abscissae=t, states=np.exp(-s)[:, None] * run.states)


def integrate_rbk(
    c0,
    t_end: float,
    settings: IntegratorSettings | None = None,
    *,
    points_per_decade: int = 64,
) -> Trajectory:
    """t-chart run of the RBK system over [0, t_end], sampled on a geometric
    grid over the trailing six decades of t (see _density_run)."""
    return _density_run("t", c0, t_end, settings, points_per_decade)


def integrate_logtime(
    c0,
    t_end: float,
    settings: IntegratorSettings | None = None,
    *,
    points_per_decade: int = 64,
) -> Trajectory:
    """Long-time run of the RBK system over [0, t_end], sampled uniformly in
    s = log(1 + t) (see _density_run)."""
    return _density_run("log-t", c0, t_end, settings, points_per_decade)


def integrate_phi_to_blowup(
    phi0,
    cap: float = 1e10,
    settings: IntegratorSettings | None = None,
) -> tuple[Trajectory, BlowupEstimate]:
    """Run the phi chart past phi_1 = cap and find its blowup point omega.

    The run is made in the twice-rescaled chart psi_j(tau) = phi_j(y(tau)),
    tau = int phi_1 dy, over s = log(1 + tau).  Its states are w_j = log psi_j
    for j = 1..N-2 and the accumulator y:

        dw_j/ds = (1 + tau) F_j(psi) / (psi_1 psi_j),   dy/ds = (1 + tau) / psi_1,

    with F = core.phi_field.  psi_{N-1} has rate 1 in tau, so it is
    tau + phi_{N-1}(0) exactly and is not integrated.  Near blowup
    psi_j ~ tau^(N-j)/(N-j)!, so w is asymptotically linear in s and the
    pair's steps grow.

    Since psi_j >= tau^(N-j)/(N-j)!, the tail omega - y = int dtau/psi_1 past
    tau is at most (N-1)!/(N-2) tau^(2-N).  The run stops once psi_1 >= cap
    and that bound is below eps*y; omega is y plus the bound, and its
    uncertainty rtol*omega plus the bound.

    The trajectory is reported in the phi chart, up to the first sample with
    phi_1 >= cap: abscissae y, states phi (its first row phi0 itself) and the
    tau accumulator.  It carries the run's IntegrationStats, and a failure
    names s.  Across those rows the integrated log psi_j must not decrease
    and y must increase strictly, so a run whose y reaches omega to double
    precision before phi_1 reaches the cap fails.
    """
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.ndim != 1 or phi0.size < 2:
        raise ValueError("phi0 must be a vector of length N-1 >= 2")
    if np.any(phi0 <= 0):
        raise ValueError("phi chart requires strictly positive initial data")
    if not (math.isfinite(cap) and cap > phi0[0]):
        raise ValueError(f"cap {cap} must be finite and exceed phi_1(0) = {phi0[0]}")
    if settings is None:
        settings = IntegratorSettings()

    n = phi0.size + 1
    dim = n - 2
    last0 = float(phi0[-1])
    tail_factor = checked_factorial(n - 1) / (n - 2)
    eps = float(np.finfo(float).eps)

    def rate(s, z):
        tau = math.expm1(s)
        psi = np.empty(n - 1)
        psi[:dim] = np.exp(z[:dim])
        psi[dim] = tau + last0
        # core.phi_field is looked up at call time, like rbk_field in
        # _density_rate.  It runs before the divisions: a trial stage that
        # drives some exp(w_j) to 0 makes it raise ValueError, which rejects
        # the stage, so psi_1 = 0 is never divided by
        f = core.phi_field(psi)
        g = (1.0 + tau) / psi[0]
        out = np.empty(dim + 1)
        out[:dim] = g * f[:dim] / psi[:dim]
        out[dim] = g
        return out

    def converged(s, z):
        # np.exp as for the reported phi, so the last row is past the cap;
        # the tail bound is compared without dividing by a small tau
        return np.exp(z[0]) >= cap and tail_factor < eps * z[dim] * math.expm1(s) ** (n - 2)

    try:
        run = integrate_adaptive(
            rate,
            np.append(np.log(phi0[:dim]), 0.0),
            (0.0, np.inf),
            settings,
            aux_names=("y",),
            nonneg_guard=False,
            stop_when=converged,
            chart="phi-y",
        )
    except IntegrationError as exc:
        raise IntegrationError(
            f"cap not reached, or the tail bound not below eps*y: {exc}"
        ) from exc

    y = run.aux["y"]
    tau = np.expm1(run.abscissae)
    phi = np.column_stack([np.exp(run.states), tau + last0])
    phi[0] = phi0
    rows = int(np.argmax(phi[:, 0] >= cap)) + 1
    if np.any(np.diff(run.states[:rows], axis=0) < 0):
        raise IntegrationError("log psi components decreased before phi_1 reached the cap")
    if np.any(np.diff(y[:rows]) <= 0):
        raise IntegrationError(
            f"y stopped increasing before phi_1 reached the cap {cap:g}: omega - y fell "
            "below y's double-precision resolution; lower the cap"
        )
    traj = Trajectory(
        chart="phi-y",
        abscissae=y[:rows],
        states=phi[:rows],
        aux={"tau": tau[:rows]},
        settings=settings,
        stats=run.stats,
    )

    tail = tail_factor * float(tau[-1]) ** (2 - n)
    omega = float(y[-1]) + tail
    return traj, BlowupEstimate(omega=omega, uncertainty=settings.rtol * omega + tail)
