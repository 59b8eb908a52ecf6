"""Independent oracles and identity suites.

This module imports nothing from the integrator it is used to validate, only
the closed forms and fields of core: the reference integrator is classical
fixed-step RK4, blowup points come from a fixed-step run in the log(phi_1)
chart rather than from the adaptive log-psi run, and the identity checks
compare a trajectory they are handed against closed forms and finite
differences only.  Oracles return plain arrays and floats.

Fixture protocol: every oracle-derived expected value used by the test suite
is generated here (RK4 with h-halving Richardson extrapolation), stored in a
versioned JSON file together with its generation parameters, and loaded back
at test time.  The RBK_FIXTURES environment variable overrides the file path.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import nu_odd_closed, phi_field, rbk_field, self_similar

__all__ = [
    "DEFAULT_FIXTURES_PATH",
    "SelfSimilarReport",
    "fixtures_path",
    "generate_fixtures",
    "identity_suite",
    "load_fixtures",
    "omega_reference",
    "richardson_extrapolate",
    "rk4_reference",
    "self_similar_residual",
]

DEFAULT_FIXTURES_PATH = Path(__file__).parent / "data" / "fixtures.json"


# ---------------------------------------------------------------------------
# Reference integration
# ---------------------------------------------------------------------------


def rk4_reference(field_fn, x0, h: float, span) -> np.ndarray:
    """Final state of classical fixed-step 4th-order integration of
    dx/dt = field_fn(t, x) over span.

    Deterministic: a fixed h reproduces results bitwise.  The final step is
    clipped onto the span end.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise ValueError(f"span must satisfy start < end, got {span}")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("non-finite initial state")

    def rhs(t, z):
        return np.asarray(field_fn(t, z), dtype=float)

    z = x0
    t = t0
    while t < t1:
        hs = min(h, t1 - t)
        k1 = rhs(t, z)
        k2 = rhs(t + 0.5 * hs, z + 0.5 * hs * k1)
        k3 = rhs(t + 0.5 * hs, z + 0.5 * hs * k2)
        k4 = rhs(t + hs, z + hs * k3)
        z = z + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            raise ValueError(f"non-finite state at t={t + hs:.6g}")
        t = t1 if hs >= t1 - t else t + hs
    return z


def richardson_extrapolate(values, order: int, ratio: float = 2.0):
    """Richardson extrapolation of a coarse-to-fine sequence of approximations
    whose leading error term is O(h^order), with step size shrinking by
    `ratio` between entries.  Returns the extrapolated value."""
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values to extrapolate")
    vals = [np.asarray(v, dtype=float) for v in values]
    for j in range(1, n):
        factor = ratio ** (order + (j - 1))
        for i in range(n - 1, j - 1, -1):
            vals[i] = (factor * vals[i] - vals[i - 1]) / (factor - 1.0)
    out = vals[-1]
    return float(out) if out.ndim == 0 else out


def omega_reference(
    phi0,
    *,
    phi1_stop: float = 1e40,
    h: float = 0.02,
    halvings: int = 4,
) -> tuple[float, float]:
    """Blowup point of the phi-chart by an independent route: fixed-step RK4
    in the chart u = log(phi_1), where the run never hits a singularity.

    With u as independent variable, dy/du = phi_1/phi_1' and
    dphi_j/du = phi_j' * phi_1/phi_1'; y(u) converges to omega and the
    remaining tail at phi_1 = 1e40 is far below double precision.  Returns
    (omega, error_estimate), the error estimate being the change contributed
    by the finest h-halving level.
    """
    phi0 = np.asarray(phi0, dtype=float)
    if np.any(phi0 <= 0):
        raise ValueError("phi0 must be strictly positive")
    u0 = math.log(phi0[0])
    u1 = math.log(phi1_stop)

    def u_field(u, z):
        phi = np.concatenate([[math.exp(u)], z[1:]])
        rates = phi_field(phi)
        dy_du = phi[0] / rates[0]
        return np.concatenate([[dy_du], rates[1:] * dy_du])

    z0 = np.concatenate([[0.0], phi0[1:]])
    finals = []
    for k in range(halvings + 1):
        finals.append(rk4_reference(u_field, z0, h / 2**k, (u0, u1))[0])
    omega = richardson_extrapolate(finals, order=4)
    reference = (
        richardson_extrapolate(finals[:-1], order=4) if len(finals) > 2 else finals[-1]
    )
    return float(omega), abs(float(omega) - float(reference))


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
        underflows to 0 while nu > 0 cannot be checked in double precision:
        its error reads inf, so the identity does not hold.

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
    fd = np.gradient(nu, np.log1p(t))[1:-1] / (1.0 + t[1:-1]) if t.size > 1 else rhs
    err_c = _rel_err(fd, rhs)
    err_c[(rhs == 0.0) & (nu[1:-1] > 0.0)] = np.inf

    tol_closed = 100.0 * traj.settings.rtol
    report = {
        "nu_odd": _within(err_a, tol_closed),
        "c_last": _within(err_b, tol_closed),
        "dissipation": _within(err_c, 1e-4),
    }
    report["passed"] = all(entry["ok"] for entry in report.values())
    return report


@dataclass(frozen=True)
class SelfSimilarReport:
    """Deviation of an N-truncated run from the self-similar profile of the
    infinite system, over j <= N//3 where truncation effects are smallest."""

    max_rel_deviation: float
    j_max: int


def self_similar_residual(traj, alpha: float, kappa: float) -> SelfSimilarReport:
    """Maximal relative deviation of a t-chart run of the N-truncated system,
    started from the truncated self-similar profile
    self_similar(alpha, kappa, 0, N), from that profile for j <= N//3 at
    every sample, with N = traj.dim.

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
    return SelfSimilarReport(max_rel_deviation=float(dev.max()), j_max=j_max)


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


def _oracle_state_fixture(N: int, seed: int, t_end: float, h0: float, halvings: int) -> dict:
    rng = np.random.default_rng(seed)
    c0 = rng.uniform(0.1, 1.0, N)
    h_sequence = [h0 / 2**k for k in range(halvings + 1)]
    finals = []
    for h in h_sequence:
        finals.append(rk4_reference(lambda t, x: rbk_field(x), c0, h, (0.0, t_end)))
    value = richardson_extrapolate(finals, order=4)
    err = float(np.max(np.abs(value - richardson_extrapolate(finals[:-1], order=4))))
    return {
        "inputs": {"N": N, "seed": seed, "c0": list(c0), "t_end": t_end},
        "h_sequence": h_sequence,
        "oracle": {"c_final": list(value), "error_estimate": err},
        "tolerance": 1e-6,
    }


def generate_fixtures(path: Path | None = None) -> dict:
    """Regenerate the oracle fixture file (slow; minutes of fixed-step RK4).

    All derived expected values used by the test suite come from here:
    RK4 h-halving Richardson extrapolation for final states, and the
    log(phi_1)-chart run for blowup points.
    """
    fixtures: dict = {}

    # bit-exact reproducibility anchor: fixed h, no extrapolation
    c_final = rk4_reference(lambda t, x: rbk_field(x), [1.0, 1.0, 1.0], 1e-3, (0.0, 1.0))
    fixtures["rk4_bitexact/N3_uniform_t1"] = {
        "inputs": {"N": 3, "c0": [1.0, 1.0, 1.0], "h": 1e-3, "t_end": 1.0},
        "oracle": {"c_final": list(c_final)},
        "tolerance": 0.0,
    }

    for N in (3, 4, 5):
        fixtures[f"adaptive_oracle/N{N}"] = _oracle_state_fixture(
            N, seed=100 + N, t_end=10.0, h0=1e-4, halvings=4
        )

    for N in (3, 4, 5, 8, 12, 16):
        omega, error_estimate = omega_reference(np.ones(N - 1))
        fixtures[f"omega/N{N}_ones"] = {
            "inputs": {"N": N, "phi0": [1.0] * (N - 1), "phi1_stop": 1e40},
            "h_sequence": [0.02 / 2**k for k in range(5)],
            "oracle": {"omega": omega, "error_estimate": error_estimate},
            "tolerance": 1e-6,
        }

    doc = {
        "version": 1,
        "generator": "rk4_reference with h-halving Richardson extrapolation",
        "fixtures": fixtures,
    }
    target = path or fixtures_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
