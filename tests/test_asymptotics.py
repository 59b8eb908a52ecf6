"""Power-law fitting and the per-chart convergence diagnostics: exact
synthetic laws must produce vanishing residuals and perfectly recovered
parameters; real runs must show decaying residual trends."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rbklab.asymptotics import (
    blowup_diagnostic,
    fit_power_law,
    longtime_diagnostic,
    psi_diagnostic,
    ratio_divergence,
)
from rbklab.core import blowup_laws
from rbklab.integrate import Trajectory, integrate_phi_to_blowup


# ---------------------------------------------------------------------------
# fit_power_law
# ---------------------------------------------------------------------------


def test_fit_exact_law():
    x = np.geomspace(1e-1, 1e-6, 40)
    fit = fit_power_law(x, 2.0 * x**-1.5)
    assert fit.exponent == pytest.approx(1.5, abs=1e-9)
    assert fit.prefactor == pytest.approx(2.0, rel=1e-9)
    assert fit.residual < 1e-12
    # orientation-independent
    flipped = fit_power_law(x[::-1], (2.0 * x**-1.5)[::-1])
    assert flipped.exponent == pytest.approx(fit.exponent, rel=1e-12)


def test_fit_perturbed_law():
    x = np.geomspace(1e-1, 1e-6, 60)
    fit = fit_power_law(x, 2.0 * x**-1.5 * (1.0 + 0.01 * x))
    assert fit.exponent == pytest.approx(1.5, abs=1e-3)


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 3.0, 2.0], [1.0, 2.0, 3.0])  # not monotone


def test_fit_scale_equivariance():
    rng = np.random.default_rng(31)
    x = np.geomspace(1.0, 1e-4, 25)
    v = 3.1 * x**-0.7 * np.exp(rng.normal(0, 0.01, x.size))
    base = fit_power_law(x, v)
    scaled = fit_power_law(x, 10.0 * v)
    assert scaled.exponent == pytest.approx(base.exponent, rel=1e-12)
    assert scaled.prefactor == pytest.approx(10.0 * base.prefactor, rel=1e-12)


# ---------------------------------------------------------------------------
# blowup diagnostics
# ---------------------------------------------------------------------------


def _synthetic_blowup(n, omega, y):
    laws = blowup_laws(n)
    states = np.column_stack(
        [laws[j].prefactor / (omega - y) ** laws[j].exponent for j in range(1, n)]
    )
    return Trajectory(chart="phi-y", abscissae=y, states=states)


def test_blowup_diagnostic_exact_law():
    omega = 2.0
    y = omega - np.geomspace(1.0, 1e-6, 80)
    traj = _synthetic_blowup(4, omega, y)
    rep = blowup_diagnostic(traj, omega)
    for j, diag in rep.diagnostics.items():
        assert np.max(np.abs(diag.residuals)) < 1e-9
        assert rep.fitted[j].exponent == pytest.approx(
            rep.theoretical[j].exponent, abs=1e-9
        )
        assert rep.fitted[j].prefactor == pytest.approx(
            rep.theoretical[j].prefactor, rel=1e-9
        )


def test_blowup_diagnostic_rejects_low_omega():
    y = 2.0 - np.geomspace(1.0, 1e-6, 30)
    traj = _synthetic_blowup(4, 2.0, y)
    with pytest.raises(ValueError, match="omega"):
        blowup_diagnostic(traj, y[-1] - 0.1)


def test_blowup_diagnostic_real_run(blowup_n4):
    traj, estimate = blowup_n4
    rep = blowup_diagnostic(traj, estimate.omega)
    for j in rep.fitted:
        assert abs(rep.fitted[j].exponent / rep.theoretical[j].exponent - 1) < 0.05
        assert abs(rep.fitted[j].prefactor / rep.theoretical[j].prefactor - 1) < 0.20
    # residual magnitude shrinks across the final decade
    phi1 = traj.states[:, 0]
    for j, diag in rep.diagnostics.items():
        i_decade = int(np.argmin(np.abs(phi1 - phi1[-1] / 10.0)))
        assert abs(diag.residuals[-1]) < abs(diag.residuals[i_decade])


# ---------------------------------------------------------------------------
# psi diagnostics
# ---------------------------------------------------------------------------


def test_psi_diagnostic_exact_polynomial():
    n = 4
    tau = np.geomspace(1e-2, 1e4, 120)
    states = np.column_stack(
        [tau ** (n - j) / math.factorial(n - j) for j in range(1, n)]
    )
    traj = Trajectory(
        chart="phi-y", abscissae=np.linspace(0, 1, tau.size), states=states,
        aux={"tau": tau},
    )
    for diag in psi_diagnostic(traj).values():
        assert np.max(np.abs(diag.residuals)) < 1e-12


def test_psi_diagnostic_requires_tau():
    traj = Trajectory("phi-y", [0.0, 1.0], [[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="tau"):
        psi_diagnostic(traj)


def test_psi_last_component_closed_form(blowup_n4):
    """psi_{N-1}(tau) = tau + psi_{N-1}(0) exactly, so its residual is
    psi_{N-1}(0)/tau."""
    traj, _ = blowup_n4
    diags = psi_diagnostic(traj)
    last = diags[traj.dim]
    psi0 = traj.states[0, -1]
    expected = psi0 / last.abscissae
    assert np.max(np.abs(last.residuals - expected)) < 1e-9


def test_psi_residuals_decay_on_real_run(blowup_n4):
    traj, _ = blowup_n4
    for diag in psi_diagnostic(traj).values():
        tau = diag.abscissae
        i3 = int(np.argmin(np.abs(tau - 1e3)))
        assert abs(diag.residuals[-1]) < abs(diag.residuals[i3])
        assert abs(diag.final_residual) < 0.1


# ---------------------------------------------------------------------------
# long-time diagnostics
# ---------------------------------------------------------------------------


def test_longtime_diagnostic_real_run(logtime_n3):
    traj = logtime_n3
    diags = longtime_diagnostic(traj)
    e1 = diags[1]
    t = e1.abscissae

    def at(series, target):
        return abs(series.residuals[int(np.argmin(np.abs(series.abscissae - target)))])

    assert at(e1, 1e8) < 0.2
    assert at(e1, 1e8) < at(e1, 1e4)


def test_longtime_diagnostic_lattice_mismatch():
    """The first row lies on the m = 2 lattice; a later row that leaves it
    falsifies the run."""
    states = np.array([[0.0, 1.0, 0.0, 1.0], [0.1, 0.5, 0.0, 0.5]])
    traj = Trajectory("log-t", [2.0, 4.0], states)
    with pytest.raises(ValueError, match="lattice mismatch"):
        longtime_diagnostic(traj)


def test_longtime_diagnostic_synthetic_exact():
    n = 3
    t = np.geomspace(10.0, 1e8, 200)
    prefs = {1: 1.0, 2: 2.0, 3: 2.0}
    states = np.column_stack(
        [prefs[j] / (t * np.log(t) ** (j - 1)) for j in (1, 2, 3)]
    )
    traj = Trajectory("log-t", t, states)
    diags = longtime_diagnostic(traj)
    for diag in diags.values():
        assert np.max(np.abs(diag.residuals)) < 1e-12


def test_longtime_diagnostic_ambient_variant(logtime_n3):
    """The ambient-N prefactors coincide with the reduction ones at m=1, p=N."""
    traj = logtime_n3
    red = longtime_diagnostic(traj, variant="reduction")
    amb = longtime_diagnostic(traj, variant="ambient")
    for j in red:
        assert_allclose(red[j].residuals, amb[j].residuals, rtol=0)


# ---------------------------------------------------------------------------
# ratio divergence
# ---------------------------------------------------------------------------


def test_ratio_divergence_real_run(blowup_n4):
    traj, _ = blowup_n4
    trends = ratio_divergence(traj)
    assert set(trends) == {1, 2, 3}
    for trend in trends.values():
        assert trend.increasing
        assert trend.exceeds_threshold


def test_ratio_divergence_constant_series():
    y = np.linspace(0.0, 1.0, 20)
    states = np.ones((20, 2))
    traj = Trajectory("phi-y", y, states)
    trends = ratio_divergence(traj)
    assert not trends[1].increasing
    assert not trends[1].exceeds_threshold


def test_ratio_divergence_last_ratio_is_phi_itself():
    traj, _ = integrate_phi_to_blowup(np.ones(2), cap=1e8)
    trends = ratio_divergence(traj)
    assert trends[2].final_value == traj.final_state[1]

