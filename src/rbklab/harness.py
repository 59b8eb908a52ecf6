"""Independent oracles and identity suites.

Everything here deliberately avoids the adaptive machinery it is used to
validate: the reference integrator is classical fixed-step RK4, blowup points
come from a fixed-step run in the log(phi_1) chart rather than from the
adaptive log-psi run, and the identity checks compare trajectories against
closed forms and finite differences only.

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
from .integrate import (
    BlowupEstimate,
    Trajectory,
    integrate_rbk,
)

__all__ = [
    "DEFAULT_FIXTURES_PATH",
    "IdentityReport",
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


def rk4_reference(
    field_fn,
    x0,
    h: float,
    span,
    *,
    record_every: int = 1,
) -> Trajectory:
    """Classical fixed-step 4th-order integration of dx/dt = field_fn(t, x).

    Deterministic: a fixed h reproduces results bitwise.  The final step is
    clipped onto the span end.  record_every thins the stored samples (the
    endpoint is always kept).  The trajectory is tagged as the "t" chart
    whatever the abscissa is; callers read its states.
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
    ts = [t]
    zs = [z.copy()]
    step = 0
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
        step += 1
        if step % record_every == 0 or t >= t1:
            ts.append(t)
            zs.append(z.copy())
    return Trajectory(chart="t", abscissae=np.asarray(ts), states=np.asarray(zs))


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
) -> BlowupEstimate:
    """Blowup point of the phi-chart by an independent route: fixed-step RK4
    in the chart u = log(phi_1), where the run never hits a singularity.

    With u as independent variable, dy/du = phi_1/phi_1' and
    dphi_j/du = phi_j' * phi_1/phi_1'; y(u) converges to omega and the
    remaining tail at phi_1 = 1e40 is far below double precision.  The
    uncertainty is the change contributed by the finest h-halving level.
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
        traj = rk4_reference(u_field, z0, h / 2**k, (u0, u1), record_every=10**9)
        finals.append(traj.final_state[0])
    omega = richardson_extrapolate(finals, order=4)
    reference = (
        richardson_extrapolate(finals[:-1], order=4) if len(finals) > 2 else finals[-1]
    )
    return BlowupEstimate(
        omega=float(omega),
        uncertainty=abs(float(omega) - float(reference)),
        method="richardson",
    )


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Per-sample relative errors of the exact identities of a t-chart run:

    (a) odd-subscript density vs its closed form 1/(nu_odd(0)^-1 + t),
    (b) c_N vs c_N(0) * exp(-int nu),
    (c) finite-difference d(nu)/dt vs -(nu^2 + sum c_j^2)/2 at interior
        samples (central differences on the nonuniform grid; the FD error
        scales with grid spacing squared).
    """

    nu_odd_err: np.ndarray
    c_last_err: np.ndarray
    dissipation_err: np.ndarray
    tol_closed: float
    tol_dissipation: float

    @property
    def nu_odd_ok(self) -> bool:
        return bool(np.all(self.nu_odd_err <= self.tol_closed))

    @property
    def c_last_ok(self) -> bool:
        return bool(np.all(self.c_last_err <= self.tol_closed))

    @property
    def dissipation_ok(self) -> bool:
        return bool(np.all(self.dissipation_err <= self.tol_dissipation))

    @property
    def passed(self) -> bool:
        return self.nu_odd_ok and self.c_last_ok and self.dissipation_ok

    def summary(self) -> dict:
        return {
            "nu_odd": {"max_rel_err": float(np.max(self.nu_odd_err, initial=0.0)),
                       "tol": self.tol_closed, "ok": self.nu_odd_ok},
            "c_last": {"max_rel_err": float(np.max(self.c_last_err, initial=0.0)),
                       "tol": self.tol_closed, "ok": self.c_last_ok},
            "dissipation": {"max_rel_err": float(np.max(self.dissipation_err, initial=0.0)),
                            "tol": self.tol_dissipation, "ok": self.dissipation_ok},
            "passed": self.passed,
        }


def _rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def identity_suite(traj: Trajectory) -> IdentityReport:
    """Check the bundled exact identities on a t-chart trajectory carrying a
    nu accumulator.  The closed forms (a) and (b) are held to 100*rtol of the
    run's settings, the dissipation identity (c) to 1e-4."""
    if "nu_int" not in traj.aux:
        raise ValueError("trajectory lacks the nu accumulator required here")
    t = traj.abscissae
    c = traj.states

    nu_odd = c[:, 0::2].sum(axis=1)
    closed = np.array([nu_odd_closed(nu_odd[0], ti) for ti in t])
    err_a = _rel_err(nu_odd, closed)

    predicted = c[0, -1] * np.exp(-traj.aux_series("nu_int"))
    err_b = _rel_err(c[:, -1], predicted)

    nu = c.sum(axis=1)
    if t.size >= 3:
        h1 = t[1:-1] - t[:-2]
        h2 = t[2:] - t[1:-1]
        fd = (
            -h2 / (h1 * (h1 + h2)) * nu[:-2]
            + (h2 - h1) / (h1 * h2) * nu[1:-1]
            + h1 / (h2 * (h1 + h2)) * nu[2:]
        )
        rhs = -(nu[1:-1] ** 2 + (c[1:-1] ** 2).sum(axis=1)) / 2.0
        err_c = _rel_err(fd, rhs)
    else:
        err_c = np.zeros(0)

    return IdentityReport(
        nu_odd_err=err_a,
        c_last_err=err_b,
        dissipation_err=err_c,
        tol_closed=100.0 * traj.settings.rtol,
        tol_dissipation=1e-4,
    )


@dataclass(frozen=True)
class SelfSimilarReport:
    """Deviation of an N-truncated run from the self-similar profile of the
    infinite system, over j <= N//3 where truncation effects are smallest."""

    max_rel_deviation: float
    j_max: int


def self_similar_residual(N: int, alpha: float, kappa: float, t_end: float) -> SelfSimilarReport:
    """Integrate the N-truncated system from the truncated self-similar
    profile, at the default settings and sampling of integrate_rbk, and report
    the maximal relative deviation from the profile for j <= N//3 over
    [0, t_end].

    Requires alpha^N < 1e-8 so truncation is genuinely negligible; the
    reported deviation is observational, not a proven bound.
    """
    if alpha**N >= 1e-8:
        raise ValueError(
            f"truncation guard violated: alpha^N = {alpha**N:.3g} >= 1e-8"
        )
    c0 = self_similar(alpha, kappa, 0.0, N)
    traj = integrate_rbk(c0, t_end)
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
        traj = rk4_reference(
            lambda t, x: rbk_field(x), c0, h, (0.0, t_end), record_every=10**9
        )
        finals.append(traj.final_state)
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
    traj = rk4_reference(
        lambda t, x: rbk_field(x), [1.0, 1.0, 1.0], 1e-3, (0.0, 1.0), record_every=10**9
    )
    fixtures["rk4_bitexact/N3_uniform_t1"] = {
        "inputs": {"N": 3, "c0": [1.0, 1.0, 1.0], "h": 1e-3, "t_end": 1.0},
        "oracle": {"c_final": list(traj.final_state)},
        "tolerance": 0.0,
    }

    for N in (3, 4, 5):
        fixtures[f"adaptive_oracle/N{N}"] = _oracle_state_fixture(
            N, seed=100 + N, t_end=10.0, h0=1e-4, halvings=4
        )

    for N in (3, 4, 5, 8, 12, 16):
        est = omega_reference(np.ones(N - 1))
        fixtures[f"omega/N{N}_ones"] = {
            "inputs": {"N": N, "phi0": [1.0] * (N - 1), "phi1_stop": 1e40},
            "h_sequence": [0.02 / 2**k for k in range(5)],
            "oracle": {"omega": est.omega, "error_estimate": est.uncertainty},
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
