"""Power-law fitting and the per-chart convergence diagnostics: exact
synthetic laws must produce vanishing residuals and perfectly recovered
parameters; real runs must show decaying residual trends."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rbklab.asymptotics import (
    RATIO_THRESHOLD,
    blowup_diagnostic,
    fit_power_law,
    longtime_diagnostic,
    psi_diagnostic,
    ratio_divergence,
)
from rbklab.core import blowup_laws
from rbklab.integrate import Trajectory, integrate_phi_to_blowup, integrate_rbk


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
    # NaN passes a positivity test (NaN <= 0 is false) and inf makes the
    # centred logs NaN; either, in x or in v, is refused by name
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="x has NaN or inf"):
            fit_power_law([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="v has NaN or inf"):
            fit_power_law([1.0, 2.0, 3.0], [1.0, bad, 3.0])


def test_fit_recovers_exact_power_laws():
    """Data exact to rounding gives back its exponent and prefactor to 1e-13,
    in either orientation and over ten decades."""
    x = np.geomspace(1e-10, 1.0, 23)
    for exponent, prefactor in [(1.5, 2.0), (0.25, 1e-3), (14.0, 7.5e4), (-2.0, 0.3)]:
        v = prefactor * x**-exponent
        for xs, vs in [(x, v), (x[::-1], v[::-1])]:
            fit = fit_power_law(xs, vs)
            assert abs(fit.exponent - exponent) <= 1e-13 * max(1.0, abs(exponent))
            assert abs(fit.prefactor / prefactor - 1.0) <= 1e-13
            assert fit.residual <= 1e-13


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
    return Trajectory(chart="y", abscissae=y, states=states)


def test_blowup_diagnostic_exact_law():
    omega = 2.0
    y = omega - np.geomspace(1.0, 1e-6, 80)
    traj = _synthetic_blowup(4, omega, y)
    rep = blowup_diagnostic(traj, omega)
    laws = blowup_laws(4)
    for j, rho in rep.residuals.items():
        assert np.max(np.abs(rho)) < 1e-9
        assert rep.fitted[j].exponent == pytest.approx(laws[j].exponent, abs=1e-9)
        assert rep.fitted[j].prefactor == pytest.approx(laws[j].prefactor, rel=1e-9)


def test_blowup_diagnostic_fits_every_component_exactly():
    """All N - 1 components are fitted in one pass, each to 1e-13, on laws
    sampled where omega - y is exact (powers of two)."""
    n, omega = 6, 1.0
    y = omega - 2.0 ** -np.arange(1.0, 40.0)
    rep = blowup_diagnostic(_synthetic_blowup(n, omega, y), omega)
    assert sorted(rep.fitted) == list(range(1, n))
    laws = blowup_laws(n)
    for j, fit in rep.fitted.items():
        law = laws[j]
        assert abs(fit.exponent / law.exponent - 1.0) <= 1e-13
        assert abs(fit.prefactor / law.prefactor - 1.0) <= 1e-13


def _workload_runs():
    """The benchmark's blowup runs: N = 3..16, c0 uniform and seeded random."""
    rng = np.random.default_rng(5)
    for n in range(3, 17):
        for c0 in (np.ones(n), rng.uniform(0.1, 1.0, n)):
            yield n, integrate_phi_to_blowup(c0, 1e10)


def test_blowup_fits_agree_with_polyfit():
    """The closed-form fits agree with numpy's SVD least squares (np.polyfit,
    kept here as the independent reference) within 1e-12 on every law of the
    28 blowup runs."""
    count = 0
    for n, (traj, omega, _) in _workload_runs():
        rep = blowup_diagnostic(traj, omega)
        y = traj.abscissae
        window = (y >= rep.window[0]) & (y <= rep.window[1])
        lx = np.log(omega - y[window])
        for j, fit in rep.fitted.items():
            lv = np.log(traj.states[window, j - 1])
            slope, intercept = np.polyfit(lx, lv, 1)
            residual = np.sqrt(np.mean((lv - (intercept + slope * lx)) ** 2))
            assert fit.exponent == pytest.approx(-slope, rel=1e-12, abs=0.0), (n, j)
            assert fit.prefactor == pytest.approx(math.exp(intercept), rel=1e-12, abs=0.0), (n, j)
            assert fit.residual == pytest.approx(residual, rel=1e-6, abs=0.0), (n, j)
            count += 1
    assert count == 238


def test_fits_make_no_lapack_call(monkeypatch, blowup_n4):
    """The fits are closed-form: with numpy's least-squares routes disabled
    they still return, so a blowup run never calls LAPACK."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    x = np.geomspace(1e-6, 1e-1, 40)
    assert fit_power_law(x, 2.0 * x**-1.5).exponent == pytest.approx(1.5, rel=1e-13)
    traj, omega, _ = blowup_n4
    assert sorted(blowup_diagnostic(traj, omega).fitted) == [1, 2, 3]


def test_blowup_diagnostic_rejects_low_omega():
    y = 2.0 - np.geomspace(1.0, 1e-6, 30)
    traj = _synthetic_blowup(4, 2.0, y)
    with pytest.raises(ValueError, match="omega"):
        blowup_diagnostic(traj, y[-1] - 0.1)


@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_blowup_diagnostic_rejects_non_finite_omega(omega):
    y = 2.0 - np.geomspace(1.0, 1e-6, 30)
    traj = _synthetic_blowup(4, 2.0, y)
    with pytest.raises(ValueError, match="omega must be finite"):
        blowup_diagnostic(traj, omega)


def test_blowup_diagnostic_real_run(blowup_n4):
    traj, omega, _ = blowup_n4
    rep = blowup_diagnostic(traj, omega)
    laws = blowup_laws(4)
    for j in rep.fitted:
        assert abs(rep.fitted[j].exponent / laws[j].exponent - 1) < 0.05
        assert abs(rep.fitted[j].prefactor / laws[j].prefactor - 1) < 0.20
    # residual magnitude shrinks across the final decade
    phi1 = traj.states[:, 0]
    for j, rho in rep.residuals.items():
        i_decade = int(np.argmin(np.abs(phi1 - phi1[-1] / 10.0)))
        assert abs(rho[-1]) < abs(rho[i_decade])


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
        chart="y", abscissae=np.linspace(0, 1, tau.size), states=states,
        aux={"tau": tau},
    )
    for rho in psi_diagnostic(traj)[1].values():
        assert np.max(np.abs(rho)) < 1e-12


def test_psi_diagnostic_requires_tau():
    traj = Trajectory("y", [0.0, 1.0], [[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="tau"):
        psi_diagnostic(traj)


def test_psi_diagnostic_computes_past_the_law_dimension():
    """The psi laws have no dimension limit of their own: an exact
    polynomial run at N = 23 gives residuals at rounding level."""
    n = 23
    tau = np.geomspace(1e-2, 1e4, 50)
    states = np.column_stack([tau ** (n - j) / math.factorial(n - j) for j in range(1, n)])
    traj = Trajectory("y", np.linspace(0, 1, tau.size), states, aux={"tau": tau})
    _, rho = psi_diagnostic(traj)
    assert list(rho) == list(range(1, n))
    assert max(np.max(np.abs(r)) for r in rho.values()) < 1e-14


def test_psi_diagnostic_refuses_a_two_row_run():
    """The run stops at the cap after its first step: one sample with tau > 0."""
    traj, _, _ = integrate_phi_to_blowup(np.ones(4), 1.5)
    assert traj.n_samples == 2
    with pytest.raises(ValueError, match="need at least 2 samples with tau > 0"):
        psi_diagnostic(traj)


def test_psi_last_component_closed_form(blowup_n4):
    """psi_{N-1}(tau) = tau + psi_{N-1}(0) exactly, so its residual is
    psi_{N-1}(0)/tau."""
    traj, _, _ = blowup_n4
    tau, residuals = psi_diagnostic(traj)
    psi0 = traj.states[0, -1]
    expected = psi0 / tau
    assert np.max(np.abs(residuals[traj.dim] - expected)) < 1e-9


def test_psi_residuals_decay_on_real_run(blowup_n4):
    traj, _, _ = blowup_n4
    tau, residuals = psi_diagnostic(traj)
    i3 = int(np.argmin(np.abs(tau - 1e3)))
    for rho in residuals.values():
        assert abs(rho[-1]) < abs(rho[i3])
        assert abs(rho[-1]) < 0.1


# ---------------------------------------------------------------------------
# long-time diagnostics
# ---------------------------------------------------------------------------


def test_longtime_diagnostic_real_run(logtime_n3):
    traj = logtime_n3
    t, residuals = longtime_diagnostic(traj)
    e1 = residuals[1]

    def at(e, target):
        return abs(e[int(np.argmin(np.abs(t - target)))])

    assert at(e1, 1e8) < 0.2
    assert at(e1, 1e8) < at(e1, 1e4)


def test_longtime_diagnostic_lattice_mismatch():
    """The first row lies on the m = 2 lattice; a later row that leaves it
    falsifies the run."""
    states = np.array([[0.0, 1.0, 0.0, 1.0], [0.1, 0.5, 0.0, 0.5]])
    traj = Trajectory("t", [2.0, 4.0], states)
    with pytest.raises(ValueError, match="lattice mismatch"):
        longtime_diagnostic(traj)


def test_longtime_diagnostic_refuses_an_unknown_variant():
    traj = Trajectory("t", [2.0, 4.0], np.ones((2, 3)))
    with pytest.raises(ValueError, match="unknown variant 'x'"):
        longtime_diagnostic(traj, variant="x")


def test_longtime_diagnostic_needs_samples_beyond_t_one():
    traj = integrate_rbk(np.ones(3), 0.5)
    with pytest.raises(ValueError, match="need samples beyond t = 1"):
        longtime_diagnostic(traj)


def test_longtime_diagnostic_synthetic_exact():
    n = 3
    t = np.geomspace(10.0, 1e8, 200)
    prefs = {1: 1.0, 2: 2.0, 3: 2.0}
    states = np.column_stack(
        [prefs[j] / (t * np.log(t) ** (j - 1)) for j in (1, 2, 3)]
    )
    traj = Trajectory("t", t, states)
    for e in longtime_diagnostic(traj)[1].values():
        assert np.max(np.abs(e)) < 1e-12


def test_longtime_diagnostic_lattice_exact():
    """Exact laws c_{2i} = A_i / (t (log t)^(i-1)) on the lattice {2, 4, 6}
    at N = 6, with the reduction prefactors A = (1, 2, 2) of the effective
    N = 3 system, behind a leading sample at t = 0.5 that the diagnostic drops.
    The reduction residuals vanish; the as-printed (ambient N = 6) ones equal
    A_red/A_amb - 1 = (0, -0.6, -0.9)."""
    t = np.geomspace(10.0, 1e8, 50)
    states = np.zeros((t.size, 6))
    for i, pref in zip((1, 2, 3), (1.0, 2.0, 2.0)):
        states[:, 2 * i - 1] = pref / (t * np.log(t) ** (i - 1))
    leading = np.array([[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]])
    traj = Trajectory("t", np.concatenate([[0.5], t]), np.vstack([leading, states]))
    t_red, red = longtime_diagnostic(traj, variant="reduction")
    t_amb, amb = longtime_diagnostic(traj, variant="ambient")
    assert list(red) == list(amb) == [2, 4, 6]
    assert t_red.tolist() == t_amb.tolist() == t.tolist()
    for e in red.values():
        assert np.max(np.abs(e)) < 1e-12
    for j, expected in zip((2, 4, 6), (0.0, -0.6, -0.9)):
        assert np.max(np.abs(amb[j] - expected)) < 1e-12


def test_longtime_diagnostic_ambient_variant(logtime_n3):
    """The ambient-N prefactors coincide with the reduction ones at m=1, p=N."""
    traj = logtime_n3
    _, red = longtime_diagnostic(traj, variant="reduction")
    _, amb = longtime_diagnostic(traj, variant="ambient")
    for j in red:
        assert_allclose(red[j], amb[j], rtol=0)


# ---------------------------------------------------------------------------
# ratio divergence
# ---------------------------------------------------------------------------


def test_ratio_divergence_real_run(blowup_n4):
    traj, _, _ = blowup_n4
    y, ratios = ratio_divergence(traj)
    assert set(ratios) == {1, 2, 3}
    # the window is the last decade of phi_1, and it ends on the last sample
    phi1 = traj.states[:, 0]
    assert y.tolist() == traj.abscissae[phi1 >= phi1[-1] / 10.0].tolist()
    for r in ratios.values():
        assert r.shape == y.shape
        assert np.all(np.diff(r) > 0)
        assert r[-1] > RATIO_THRESHOLD


def test_ratio_divergence_constant_series():
    y = np.linspace(0.0, 1.0, 20)
    states = np.ones((20, 2))
    traj = Trajectory("y", y, states)
    _, ratios = ratio_divergence(traj)
    assert not np.all(np.diff(ratios[1]) > 0)
    assert not ratios[1][-1] > RATIO_THRESHOLD


def test_ratio_divergence_falls_back_to_every_sample():
    """When phi_1 grows more than tenfold in the last step, the last decade
    holds one sample, so every sample is used."""
    y = np.array([0.0, 0.5, 0.9, 0.95])
    phi1 = np.array([1.0, 2.0, 4.0, 100.0])
    traj = Trajectory("y", y, np.column_stack([phi1, np.ones(4)]))
    window, ratios = ratio_divergence(traj)
    assert window.tolist() == y.tolist()
    assert ratios[1].tolist() == phi1.tolist()
    assert ratios[2].tolist() == [1.0] * 4


def test_ratio_divergence_last_ratio_is_phi_itself():
    traj, _, _ = integrate_phi_to_blowup(np.ones(3), cap=1e8)
    _, ratios = ratio_divergence(traj)
    assert ratios[2][-1] == traj.final_state[1]


def test_diagnostics_check_the_chart():
    """The phi-chart diagnostics take a run in y, the long-time one a run in t."""
    phi_run = Trajectory("y", [0.0, 1.0, 2.0], np.ones((3, 2)), aux={"tau": [0.0, 1.0, 2.0]})
    time_run = Trajectory("t", [2.0, 3.0, 4.0], np.ones((3, 2)))
    for check in (ratio_divergence, psi_diagnostic, lambda traj: blowup_diagnostic(traj, 9.0)):
        with pytest.raises(ValueError, match="expected a trajectory in y"):
            check(time_run)
    with pytest.raises(ValueError, match="expected a trajectory in t"):
        longtime_diagnostic(phi_run)
