"""Empirical exponents, prefactors, and convergence diagnostics.

Each diagnostic measures the residual of a trajectory against the known
asymptotic law of its chart and reports it as a series: the residual of an
exact-law trajectory vanishes identically, and on real runs the series should
decay toward zero.  Convergence is reported as a trend (magnitude decreasing
across decades) plus a final-window threshold, since no decay rates are
available.  Fits use unweighted least squares in log-log space, in closed
form, matching the multiplicative (1 + residual) error model, over the
terminal two decades of the independent variable where the corrections are
smallest.

Each diagnostic reads N and the support lattice off the run it checks and
takes only what the run cannot tell it (omega as a float, the prefactor
convention); only core is imported, so no check shares the integrator's code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    blowup_laws,
    checked_factorial,
    longtime_laws,
    longtime_laws_ambient,
    support_profile,
)

__all__ = [
    "PSI_RESIDUAL_TOL",
    "RATIO_THRESHOLD",
    "BlowupReport",
    "PowerLawFit",
    "blowup_diagnostic",
    "fit_power_law",
    "longtime_diagnostic",
    "psi_diagnostic",
    "ratio_divergence",
]


# |rho^_j| at the last sample of a blowup run below which its laws count as
# converged (psi_diagnostic)
PSI_RESIDUAL_TOL = 0.1

# value every ratio phi_j/phi_{j+1} must end above near blowup (ratio_divergence)
RATIO_THRESHOLD = 10.0


class PowerLawFit(NamedTuple):
    exponent: float
    prefactor: float
    residual: float


def fit_power_law(x, v) -> PowerLawFit:
    """Least-squares fit of v ~ prefactor * x^(-exponent) on (log x, log v).

    Needs >= 3 strictly monotone positive abscissae and positive values; the
    residual is the RMS of the log-misfit.  Scale-equivariant: scaling v by
    s > 0 multiplies the prefactor by s and leaves the exponent unchanged.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.shape != v.shape:
        raise ValueError("x and v must be 1-D arrays of equal length")
    return _fit_columns(x, v[:, None])[0]


def _fit_columns(x, v) -> list[PowerLawFit]:
    """fit_power_law of each column of v (shape (x.size, k)) against x, all
    in one pass of closed-form least squares on the centred logs:

        slope = sum(dx dv) / sum(dx^2),  intercept = mean(log v) - slope mean(log x)

    with dx, dv the logs less their means, and the residual the RMS of
    dv - slope dx.  Plain ufuncs and reductions, so no LAPACK call."""
    if x.size < 3:
        raise ValueError(f"need at least 3 pairs to fit, got {x.size}")
    for name, data in (("x", x), ("v", v)):
        if not np.isfinite(data).all():
            raise ValueError(f"power-law fitting requires finite data; {name} has NaN or inf")
    if np.any(x <= 0) or np.any(v <= 0):
        raise ValueError("power-law fitting requires positive data")
    dx = np.diff(x)
    if not (np.all(dx > 0) or np.all(dx < 0)):
        raise ValueError("abscissae must be strictly monotone")
    lx, lv = np.log(x), np.log(v)
    mx, mv = lx.mean(), lv.mean(axis=0)
    dx, dv = (lx - mx)[:, None], lv - mv
    slope = (dx * dv).sum(axis=0) / (dx * dx).sum()
    intercept = mv - slope * mx
    misfit = dv - dx * slope
    residual = np.sqrt((misfit * misfit).mean(axis=0))
    return [
        PowerLawFit(exponent=float(-a), prefactor=math.exp(b), residual=float(r))
        for a, b, r in zip(slope, intercept, residual)
    ]


@dataclass(frozen=True)
class BlowupReport:
    """Residuals and window fits of a phi-chart run against the blowup laws
    phi_j ~ A_j / (omega - y)^alpha_j; residuals[j] is sampled on the run's
    abscissae."""

    residuals: dict[int, np.ndarray]
    fitted: dict[int, PowerLawFit]
    window: tuple[float, float]  # y-range of the fit window


def blowup_diagnostic(traj, omega: float) -> BlowupReport:
    """Per-component residuals rho_j(y) = phi_j (omega - y)^alpha_j / A_j - 1
    and power-law fits of phi_j against (omega - y) over the terminal window
    (top two decades of phi_1); omega is the blowup point as a finite number."""
    if traj.chart != "y":
        raise ValueError(f"expected a trajectory in y, got chart {traj.chart!r}")
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    y = traj.abscissae
    if omega <= y[-1]:
        raise ValueError(f"omega={omega} does not exceed the last sampled y={y[-1]}")
    n = traj.dim + 1
    laws = blowup_laws(n)
    gap = omega - y
    phi1 = traj.states[:, 0]
    window = phi1 >= phi1[-1] / 100.0
    if window.sum() < 3:
        window = np.ones_like(phi1, dtype=bool)

    residuals = {
        j: traj.states[:, j - 1] * gap**law.exponent / law.prefactor - 1.0
        for j, law in laws.items()
    }
    fitted = dict(enumerate(_fit_columns(gap[window], traj.states[window]), start=1))
    y_win = y[window]
    return BlowupReport(
        residuals=residuals,
        fitted=fitted,
        window=(float(y_win[0]), float(y_win[-1])),
    )


def psi_diagnostic(traj) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Residuals of the polynomial laws of the twice-rescaled chart,
    rho^_j(tau) = psi_j(tau) (N-j)! / tau^(N-j) - 1, with psi_j(tau(y)) read
    off as phi_j(y).  Returns (tau, {j: rho^_j}) over the samples with
    tau > 0, for j = 1 .. N-1.

    For j = N-1 the chart is exactly linear, psi_{N-1}(tau) = tau + psi_{N-1}(0),
    so that residual equals psi_{N-1}(0)/tau up to rounding.
    """
    if traj.chart != "y":
        raise ValueError(f"expected a trajectory in y, got chart {traj.chart!r}")
    if "tau" not in traj.aux:
        raise ValueError("trajectory lacks the tau accumulator")
    mask = traj.aux["tau"] > 0
    if mask.sum() < 2:
        raise ValueError("need at least 2 samples with tau > 0")
    tau = traj.aux["tau"][mask]
    states = traj.states[mask]
    n = traj.dim + 1
    return tau, {
        j: states[:, j - 1] * checked_factorial(n - j) / tau ** (n - j) - 1.0
        for j in range(1, n)
    }


def longtime_diagnostic(
    traj, *, variant: str = "reduction"
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Residuals e_j(t) = c_j t (log t)^(j/m - 1) / A~_j - 1 on the support
    lattice of the run's first sample; samples with t <= 1 are excluded.
    Returns (t, {j: e_j}) over the samples with t > 1.

    Off-lattice components must be exactly zero at every sample (the support
    lattice is invariant; anything else falsifies the run).  variant selects
    the prefactor convention: "reduction" uses the effective dimension p/m,
    "ambient" the as-printed convention in the run's own dimension N.
    """
    if traj.chart != "t":
        raise ValueError(f"expected a trajectory in t, got chart {traj.chart!r}")
    profile = support_profile(traj.states[0])
    m, p = profile.m, profile.p
    lattice = [j for j in range(m, p + 1, m)]
    off = [j for j in range(1, traj.dim + 1) if j not in lattice]
    if off and np.any(traj.states[:, [j - 1 for j in off]] != 0.0):
        raise ValueError("lattice mismatch: nonzero density off the support lattice")
    if variant == "reduction":
        laws = longtime_laws(profile.n_eff, m)
    elif variant == "ambient":
        laws = longtime_laws_ambient(traj.dim, m, p)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    mask = traj.abscissae > 1.0
    if mask.sum() < 2:
        raise ValueError("need samples beyond t = 1 for long-time residuals")
    t = traj.abscissae[mask]
    states = traj.states[mask]
    logt = np.log(t)
    return t, {
        j: states[:, j - 1] * t * logt ** laws[j].exponent / laws[j].prefactor - 1.0
        for j in lattice
    }


def ratio_divergence(traj) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Ratio series phi_j/phi_{j+1} (phi_N == 1) of a phi-chart run over the
    last decade of phi_1, or over every sample when fewer than two lie
    there.  Returns (y, {j: phi_j/phi_{j+1}}) for j = 1 .. N-1.  Near blowup
    every ratio diverges, so each series should increase and end above
    RATIO_THRESHOLD."""
    if traj.chart != "y":
        raise ValueError(f"expected a trajectory in y, got chart {traj.chart!r}")
    phi1 = traj.states[:, 0]
    last_decade = phi1 >= phi1[-1] / 10.0
    if last_decade.sum() < 2:
        last_decade = np.ones_like(phi1, dtype=bool)
    phi = traj.states[last_decade]
    ratios = phi / np.column_stack([phi[:, 1:], np.ones(len(phi))])
    return traj.abscissae[last_decade], {j: ratios[:, j - 1] for j in range(1, traj.dim + 1)}
