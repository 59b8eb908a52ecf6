"""Independent oracles and identity suites.

This module imports nothing from the integrator it is used to validate, and
from core only two closed forms.  Both fields are quadratic, so one
Cauchy-product recurrence gives their Taylor series exactly: state_reference
steps the RBK system in t with it, and omega_reference steps the phi chart
and reads omega off phi_1's coefficients, not off the adaptive log-psi run.
The identity checks compare a trajectory they are handed against closed forms
and finite differences only.  Oracles return plain arrays and floats.

Fixture protocol: every oracle-derived expected value used by the test suite
is generated here, stored in a versioned JSON file together with its
generation parameters, and loaded back at test time.  The RBK_FIXTURES
environment variable overrides the file path.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .core import nu_odd_closed, self_similar

__all__ = [
    "DEFAULT_FIXTURES_PATH",
    "fixtures_path",
    "generate_fixtures",
    "identity_suite",
    "load_fixtures",
    "omega_reference",
    "self_similar_residual",
    "state_reference",
]

DEFAULT_FIXTURES_PATH = Path(__file__).parent / "data" / "fixtures.json"


# ---------------------------------------------------------------------------
# Taylor-series oracles
# ---------------------------------------------------------------------------

# (order, step as a fraction of the radius of convergence) of the run that
# gives an oracle's value, then of the run its error estimate compares with
_RUNS = ((40, 0.4), (56, 0.3))
_PHI1_STOP = 1e30  # where the omega run stops: omega - y <= 1e-15 * omega there
_MAX_STEPS = 10_000  # bound on a run's steps and on one expansion's rescalings
_EPS = float(np.finfo(float).eps)


def _expand(x, order: int, scale: float, rbk: bool):
    """(b, scale, radius): b_n = a_n * scale^n, n <= order, for the Taylor
    coefficients a_n at x of x' = B(x, x) by the Cauchy-product recurrence
    a_{n+1} = sum_m B(a_m, a_{n-m}) / (n + 1), with the scale moved to within
    a factor 2 of the radius of convergence read off b, so nothing overflows.
    B(u, v)_j = sum_k u_{j+k} v_k - [rbk] u_j sum_k v_k (1-based, j + k <= N)
    is the RBK field, or without the loss term the phi field when x_N == 1 (an
    empty sum, so that series stays 1)."""
    rows, cols = np.tril_indices(x.size, -1)  # u_{j+k} v_k: 0-based rows - cols = j
    for _ in range(_MAX_STEPS):
        b = np.vstack([x, np.zeros((order, x.size))])
        for m in range(order):
            products = b[: m + 1].T @ b[m::-1]  # [i, k] = sum_l b_l[i] b_{m-l}[k]
            rate = np.bincount(rows - cols - 1, products[rows, cols], x.size)
            if rbk:  # not in place: at N = 1 the empty bincount is integer
                rate = rate - products.sum(axis=1)
            b[m + 1] = rate * (scale / (m + 1))
        if rbk:  # mixed signs: Cauchy-Hadamard root test on the last two orders
            norms = np.abs(b).max(axis=1)
            radius = scale * min((norms[0] / norms[k]) ** (1.0 / k) for k in (order - 1, order))
        else:  # Domb-Sykes: phi_1 ~ (omega - y)^-alpha, a_n/a_{n-1} = (n - 1 + alpha)/(n radius)
            alpha = (x.size - 1) / (x.size - 2)
            radius = scale * (order - 1 + alpha) / order * b[order - 1, 0] / b[order, 0]
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"no radius of convergence from the coefficients at {x}")
        if scale / 2 <= radius <= 2 * scale:
            return b, scale, radius
        scale = radius
    raise RuntimeError("rescaling the Taylor coefficients did not settle")


def _state_run(c0, t_end: float, order: int, fraction: float):
    # at N = 1, c = 1/(1/c0 + t) has radius 1/c0 + t: start the scale at 1/nu
    x, t, radius = c0, 0.0, 1.0 / c0.sum()
    for steps in range(_MAX_STEPS):
        if t >= t_end:
            return x, steps
        b, scale, radius = _expand(x, order, radius, True)
        h = min(fraction * radius, t_end - t)
        x = (h / scale) ** np.arange(order + 1) @ b
        t = t_end if h == t_end - t else t + h
    raise RuntimeError(f"state run did not reach t = {t_end} in {_MAX_STEPS} steps")


def _omega_run(phi0, order: int, fraction: float):
    # the rate of sum(x) is at most sum(x)^2 / 2, so omega >= 2 / sum(x)
    x = np.append(phi0, 1.0)
    y, radius = 0.0, 2.0 / x.sum()
    for steps in range(_MAX_STEPS):
        b, scale, radius = _expand(x, order, radius, False)
        if x[0] >= _PHI1_STOP:
            return y + radius, steps
        x = (fraction * radius / scale) ** np.arange(order + 1) @ b
        y += fraction * radius
    raise RuntimeError(f"phi_1 did not reach {_PHI1_STOP:g} in {_MAX_STEPS} steps")


def _data(x, name: str, positive: bool) -> np.ndarray:
    x = np.array(x, dtype=float)
    sign = "positive" if positive else "nonnegative"
    if x.ndim != 1 or x.size < 1 or not (np.isfinite(x) & (x > 0 if positive else x >= 0)).all():
        raise ValueError(f"{name} must be a nonempty 1-D vector of finite {sign} numbers")
    return x


def state_reference(c0, t_end) -> tuple[np.ndarray, float]:
    """(c_final, error_estimate): the RBK state at t_end from c0 >= 0, by Taylor
    steps of a fixed fraction of the radius of convergence.  The estimate is
    the largest change from a second run at higher order and shorter steps,
    plus eps * max|c_final| per step.  Meant for t_end up to ~100: far out the
    field's mixed signs cost accuracy."""
    c0, t_end = _data(c0, "c0", False), float(t_end)
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not c0.any():
        return c0, 0.0  # zero data stays zero
    (value, steps), (check, _) = (_state_run(c0, t_end, *run) for run in _RUNS)
    return value, float(np.abs(value - check).max() + steps * _EPS * np.abs(value).max())


def omega_reference(phi0) -> tuple[float, float]:
    """(omega, error_estimate): the phi chart's blowup point from phi0 > 0
    (N >= 3), by Taylor steps of a fixed fraction of the radius omega - y,
    which phi_1's positive coefficients give (Pringsheim, Domb-Sykes); once
    phi_1 >= 1e30, omega = y + radius.  The estimate is the change from a
    second run at higher order and shorter steps, plus eps * omega per step."""
    phi0 = _data(phi0, "phi0", True)
    if phi0.size < 2:
        raise ValueError("the phi chart blows up only for N >= 3")
    (omega, steps), (check, _) = (_omega_run(phi0, *run) for run in _RUNS)
    return float(omega), float(abs(omega - check) + steps * _EPS * omega)


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


def _rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def _within(err: np.ndarray, tol: float) -> dict:
    worst = float(np.max(err, initial=0.0))
    return {"max_rel_err": worst, "tol": tol, "ok": worst <= tol}


def identity_suite(traj) -> dict:
    """Check the bundled exact identities on a time-chart trajectory carrying
    a nu accumulator, per sample:

    (a) nu_odd: odd-subscript density vs its closed form 1/(nu_odd(0)^-1 + t),
    (b) c_last: c_N vs c_N(0) * exp(-int nu),
    (c) dissipation: d(nu)/dt vs -(nu^2 + sum c_j^2)/2 at interior samples.
        The derivative is taken in the density runs' own abscissa
        s = log(1 + t), by np.gradient's second-order differences on the
        nonuniform grid, as d(nu)/ds / (1 + t).  A row whose right-hand side
        underflows to 0 while nu > 0, or whose difference is not finite (the
        products of tiny spacings underflow), cannot be checked in double
        precision: its error reads inf, so the identity does not hold.

    Returns {name: {"max_rel_err", "tol", "ok"}} for the three identities and
    "passed", true when all three hold.  The closed forms (a) and (b) are held
    to 100*rtol of the run's settings, the dissipation identity (c) to 1e-4."""
    if "nu_int" not in traj.aux:
        raise ValueError("trajectory lacks the nu accumulator required here")
    t = traj.abscissae
    c = traj.states

    nu_odd = c[:, 0::2].sum(axis=1)
    err_a = _rel_err(nu_odd, nu_odd_closed(nu_odd[0], t))

    predicted = c[0, -1] * np.exp(-traj.aux["nu_int"])
    err_b = _rel_err(c[:, -1], predicted)

    nu = c.sum(axis=1)
    rhs = -(nu[1:-1] ** 2 + (c[1:-1] ** 2).sum(axis=1)) / 2.0
    # np.gradient needs two samples; a single one has no interior row
    with np.errstate(divide="ignore", invalid="ignore"):
        fd = np.gradient(nu, np.log1p(t))[1:-1] / (1.0 + t[1:-1]) if t.size > 1 else rhs
        err_c = _rel_err(fd, rhs)
    err_c[((rhs == 0.0) & (nu[1:-1] > 0.0)) | ~np.isfinite(err_c)] = np.inf

    tol_closed = 100.0 * traj.settings.rtol
    report = {
        "nu_odd": _within(err_a, tol_closed),
        "c_last": _within(err_b, tol_closed),
        "dissipation": _within(err_c, 1e-4),
    }
    report["passed"] = all(entry["ok"] for entry in report.values())
    return report


def self_similar_residual(traj, alpha: float, kappa: float) -> float:
    """Maximal relative deviation of a t-chart run of the N-truncated system,
    started from the truncated self-similar profile
    self_similar(alpha, kappa, 0, N), from that profile for
    j <= max(1, N//3), where truncation effects are smallest, at every
    sample, with N = traj.dim.

    Requires alpha^N < 1e-8 so truncation is genuinely negligible; the
    reported deviation is observational, not a proven bound.
    """
    N = traj.dim
    if alpha**N >= 1e-8:
        raise ValueError(
            f"truncation guard violated: alpha^N = {alpha**N:.3g} >= 1e-8"
        )
    j_max = max(1, N // 3)
    profile = np.array(
        [self_similar(alpha, kappa, ti, N)[:j_max] for ti in traj.abscissae]
    )
    dev = _rel_err(traj.states[:, :j_max], profile)
    return float(dev.max())


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def fixtures_path() -> Path:
    """Fixture file location; RBK_FIXTURES overrides the packaged default."""
    override = os.environ.get("RBK_FIXTURES")
    return Path(override) if override else DEFAULT_FIXTURES_PATH


def load_fixtures(path: Path | None = None) -> dict:
    with open(path or fixtures_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


# valid steep c0 on which the lab's log-psi run rejects a stage that underflows
# psi_1 (N = 4), or reports phi_j that tie or dip by an ulp (N = 10, a and b)
_STEEP = {
    "N4_steep": [1.0, 1e-6, 1.0, 1.0],
    "N10_steep_a": [1.73e-06, 3.1e-09, 1.58e-09, 5.74, 89.8, 0.019, 0.567, 0.00334, 166.0, 6.17],
    "N10_steep_b": [8.289645634394048e-06, 0.0009987579952211159, 1.3223645615681375e-08,
                    71.85365603058607, 753.0676834190988, 5.0678366760074e-09,
                    1.989640548063328e-05, 0.5764676408316274, 5.900075574866867e-06,
                    0.006376716369163426],
}


def generate_fixtures(path: Path | None = None) -> dict:
    """Regenerate the oracle fixture file (a few seconds): final states from
    state_reference, blowup points from omega_reference.  Every entry records
    the (order, step fraction) pairs of the two runs behind its oracle."""
    fixtures: dict = {}
    for N in (3, 4, 5):
        c0 = np.random.default_rng(100 + N).uniform(0.1, 1.0, N)
        c_final, error_estimate = state_reference(c0, 10.0)
        fixtures[f"adaptive_oracle/N{N}"] = {
            "inputs": {"N": N, "seed": 100 + N, "c0": list(c0), "t_end": 10.0},
            "oracle": {"c_final": list(c_final), "error_estimate": error_estimate},
        }
    omega_inputs = {f"N{N}_ones": {"N": N} for N in (3, 4, 5, 8, 12, 16)}
    for N in (6, 10, 16):
        c0 = 10.0 ** np.random.default_rng(200 + N).uniform(-6.0, 3.0, N)
        omega_inputs[f"N{N}_random"] = {"N": N, "seed": 200 + N, "c0": list(c0)}
    omega_inputs.update((name, {"N": len(c0), "c0": c0}) for name, c0 in _STEEP.items())
    for name, inputs in omega_inputs.items():
        c0 = np.array(inputs.get("c0", [1.0] * inputs["N"]))
        phi0 = c0[:-1] / c0[-1]
        omega, error_estimate = omega_reference(phi0)
        fixtures[f"omega/{name}"] = {
            "inputs": {**inputs, "phi0": list(phi0)},
            "oracle": {"omega": omega, "error_estimate": error_estimate},
        }
    for entry in fixtures.values():
        entry.update(order=[run[0] for run in _RUNS],
                     step_fraction=[run[1] for run in _RUNS], tolerance=1e-6)
    doc = {"version": 2, "generator": "Taylor-series recurrence", "fixtures": fixtures}
    target = path or fixtures_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
