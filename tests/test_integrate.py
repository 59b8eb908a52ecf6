"""Adaptive integrator against closed forms, chart consistency, and blowup
runs with their omega error bars against the frozen oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rbklab import integrate
from rbklab.core import phi_field, rbk_field
from rbklab.integrate import (
    BlowupEstimate,
    IntegrationError,
    IntegratorSettings,
    Trajectory,
    chart_map_t_to_phi,
    geometric_grid,
    integrate_adaptive,
    integrate_logtime,
    integrate_phi_to_blowup,
    integrate_rbk,
)

RTOL = IntegratorSettings().rtol
DENSITY_AUX = ("y", "tau", "nu_int")


def density_rate(t, z):
    """Packed t-chart rate of z = (c, y, tau, nu_int), written apart from the
    drivers' own."""
    c = z[:-3]
    return np.concatenate([rbk_field(c), [c[-1], c[0], c.sum()]])


def phi_rate(y, phi):
    return phi_field(phi)


def packed(c0):
    return np.concatenate([c0, np.zeros(3)])


def log_psi_rate(s, z, last0):
    """Packed rate of the blowup run's z = (log psi_1..psi_{N-2}, y) in
    s = log(1 + tau), with psi_{N-1} = tau + last0, written apart from the
    driver's own."""
    tau = math.expm1(s)
    psi = np.concatenate([np.exp(z[:-1]), [tau + last0]])
    g = (1.0 + tau) / psi[0]
    return np.concatenate([g * phi_field(psi)[:-1] / psi[:-1], [g]])


# ---------------------------------------------------------------------------
# t-chart against closed forms
# ---------------------------------------------------------------------------


def test_monodisperse_closed_form():
    """Monodisperse data decays by c_N' = -c_N^2, so c_N(t) = 1/(1 + t)."""
    traj = integrate_rbk([0.0, 0.0, 1.0], 9.0)
    assert traj.final_state[-1] == pytest.approx(0.1, rel=10 * RTOL)


def test_zero_initial_data_constant():
    traj = integrate_rbk(np.zeros(4), 5.0)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.aux["y"] == 0.0)


def test_odd_density_closed_form_n5():
    traj = integrate_rbk([1.0, 0.0, 1.0, 0.0, 0.0], 4.0)
    odd_sum = traj.states[-1, 0::2].sum()
    assert odd_sum == pytest.approx(2.0 / 9.0, rel=10 * RTOL)


def test_exact_zero_preservation_bitwise():
    traj = integrate_rbk([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], 50.0)
    assert np.all(traj.states[:, 0::2] == 0.0)


def test_states_stay_nonnegative():
    rng = np.random.default_rng(9)
    traj = integrate_rbk(rng.uniform(0.0, 1.0, 6), 200.0)
    assert np.all(traj.states >= 0.0)


def test_nu_monotone_and_half_rate_bound():
    rng = np.random.default_rng(13)
    c0 = rng.uniform(0.1, 1.0, 5)
    traj = integrate_rbk(c0, 100.0)
    nu = traj.states.sum(axis=1)
    assert np.all(np.diff(nu) < 0)
    bound = 1.0 / (1.0 / nu[0] + traj.abscissae / 2.0)
    assert np.all(nu <= bound * (1 + 1e-12))


def test_cn_integrating_factor_identity():
    rng = np.random.default_rng(17)
    c0 = rng.uniform(0.1, 1.0, 4)
    traj = integrate_rbk(c0, 50.0)
    predicted = c0[-1] * np.exp(-traj.aux["nu_int"])
    assert_allclose(traj.states[:, -1], predicted, rtol=100 * RTOL)


def test_grid_points_hit_exactly():
    grid = geometric_grid(0.1, 10.0, 8)
    traj = integrate_adaptive(
        density_rate, packed(np.ones(3)), (0.0, 10.0), grid=grid, aux_names=DENSITY_AUX
    )
    sampled = set(traj.abscissae.tolist())
    assert all(g in sampled for g in grid.tolist())


def test_negativity_guard_rejects_then_clamps():
    """A component driven through zero settles at exact zero: overshoots past
    -guard reject the step, values inside (-guard, 0) clamp to 0."""

    def field(t, x):
        return np.array([-1.0 if x[0] > 0 else 0.0, 0.0])

    settings = IntegratorSettings(atol=1e-6)
    traj = integrate_adaptive(field, [0.5, 1.0], (0.0, 1.0), settings)
    assert np.all(traj.states[:, 0] >= 0.0)
    assert traj.states[-1, 0] == 0.0
    assert np.all(traj.states[:, 1] == 1.0)


# ---------------------------------------------------------------------------
# sample grids through the continuous extension
# ---------------------------------------------------------------------------

_DENSE_C0 = np.random.default_rng(20240809).uniform(0.1, 1.0, 5)


@pytest.mark.parametrize("points_per_decade", [0, 64, 320])
def test_step_sequence_independent_of_grid(points_per_decade):
    free = integrate_rbk(_DENSE_C0, 100.0, points_per_decade=0)
    traj = integrate_rbk(_DENSE_C0, 100.0, points_per_decade=points_per_decade)
    assert traj.final_state.tobytes() == free.final_state.tobytes()
    assert traj.stats.accepted == free.stats.accepted
    assert free.n_samples == free.stats.accepted + 1


def test_grid_samples_are_start_grid_points_and_end():
    grid = geometric_grid(100.0 * 10.0 ** -6.0, 100.0, 320)
    traj = integrate_rbk(_DENSE_C0, 100.0, points_per_decade=320)
    assert traj.abscissae.tolist() == [0.0, *grid.tolist()]
    assert traj.stats.accepted < grid.size
    # a grid that stops short of the span end still ends on the span end
    traj = integrate_rbk(_DENSE_C0, 100.0, points_per_decade=16, decades=2.0)
    assert traj.abscissae.tolist()[-1] == 100.0
    assert np.all(np.isin(geometric_grid(1.0, 100.0, 16), traj.abscissae))


def test_grid_samples_end_at_stop_point():
    kwargs = dict(nonneg_guard=False, stop_when=lambda y, phi: phi[0] >= 1e6, chart="phi-y")
    free = integrate_adaptive(phi_rate, np.ones(3), (0.0, np.inf), **kwargs)
    grid = np.linspace(0.0, 2.0 * free.final_abscissa, 41)[1:]
    traj = integrate_adaptive(phi_rate, np.ones(3), (0.0, np.inf), grid=grid, **kwargs)
    inside = grid[grid < free.final_abscissa].tolist()
    assert traj.abscissae.tolist() == [0.0, *inside, free.final_abscissa]
    assert traj.final_state.tobytes() == free.final_state.tobytes()


def test_interpolated_samples_match_landed_steps():
    """The continuous extension agrees, to the integrator's own tolerance,
    with runs whose span ends on the same grid points (a step is clipped
    onto the span end)."""
    grid = geometric_grid(1e-4, 100.0, 64)
    dense = integrate_adaptive(
        density_rate, packed(_DENSE_C0), (0.0, 100.0), grid=grid, aux_names=DENSITY_AUX
    )
    assert dense.abscissae.tolist() == [0.0, *grid.tolist()]
    for i in range(3, grid.size, 8):
        landed = integrate_adaptive(
            density_rate, packed(_DENSE_C0), (0.0, grid[i]), aux_names=DENSITY_AUX
        )
        assert landed.final_abscissa == grid[i]
        assert_allclose(dense.states[i + 1], landed.final_state, rtol=100 * RTOL, atol=0.0)
        for name in dense.aux:
            assert_allclose(
                dense.aux[name][i + 1], landed.aux[name][-1],
                rtol=100 * RTOL, atol=0.0,
            )


def test_interpolated_zeros_stay_positive_zero():
    traj = integrate_rbk([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], 100.0, points_per_decade=320)
    off = traj.states[:, 0::2]
    assert np.all(off == 0.0)
    assert not np.signbit(off).any()
    assert np.all(traj.states >= 0.0)


def test_integration_stats_count_rejections_and_evaluations():
    calls = []

    def field(t, x):
        calls.append(t)
        return np.array([-1.0 if x[0] > 0 else 0.0, 0.0])

    settings = IntegratorSettings(atol=1e-6)
    stats = integrate_adaptive(field, [0.5, 1.0], (0.0, 1.0), settings).stats
    assert stats.rejected_guard > 0 and stats.clamped > 0
    assert stats.rejected == stats.rejected_error + stats.rejected_guard
    # k[0], the initial-step probe, six stages per attempt, one per clamp
    assert stats.rhs_evals == len(calls)
    assert stats.rhs_evals == 2 + 6 * (stats.accepted + stats.rejected) + stats.clamped
    assert 0.0 < stats.h_min <= stats.h_max <= 1.0


def test_integration_stats_count_failed_stages():
    calls = []

    def field(t, x):
        calls.append(t)
        if len(calls) == 5:  # third stage of the first attempt
            raise ValueError("stage outside the domain")
        return -x

    stats = integrate_adaptive(field, [1.0], (0.0, 1.0)).stats
    assert stats.rejected_nonfinite == 1
    assert stats.rhs_evals == len(calls)


# a NaN from the third stage makes the new state non-finite; one from the
# last stage leaves the new state finite and its error estimate not
@pytest.mark.parametrize("bad_call", [5, 8])
def test_integration_stats_count_non_finite_attempts(bad_call):
    calls = []

    def field(t, x):
        calls.append(t)
        return np.full_like(x, np.nan) if len(calls) == bad_call else -x

    stats = integrate_adaptive(field, [1.0], (0.0, 1.0)).stats
    assert stats.rejected_nonfinite == 1
    assert stats.rhs_evals == len(calls)


def test_max_steps_exhaustion():
    """The message names the chart's own abscissa and the last accepted h."""
    tight = IntegratorSettings(max_steps=10)
    with pytest.raises(IntegrationError,
                       match=r"max_steps=10 exhausted at t=\S+ \(last accepted h="):
        integrate_rbk(np.ones(3), 1e6, tight)
    with pytest.raises(IntegrationError, match=r"exhausted at s=\S+ \(last accepted h="):
        integrate_logtime(np.ones(3), 1e6, tight)
    with pytest.raises(IntegrationError, match=r"exhausted at s=\S+ \(last accepted h="):
        integrate_phi_to_blowup(np.ones(3), cap=1e10, settings=tight)


def test_span_validation():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda t, c: rbk_field(c), np.ones(3), (1.0, 1.0))
    with pytest.raises(ValueError, match="ahead of the accumulators"):
        integrate_adaptive(density_rate, np.ones(3), (0.0, 1.0), aux_names=DENSITY_AUX)


def test_nan_step_size_fails_fast():
    """A NaN trial step (here from a NaN rate) raises at once instead of
    spinning through the attempt budget."""

    def field(t, x):
        return np.full(2, np.nan)

    with pytest.raises(IntegrationError, match=r"underflow at t=0 \(no step accepted\)"):
        integrate_adaptive(field, [1.0, 1.0], (0.0, 1.0), IntegratorSettings(max_steps=1000))


# ---------------------------------------------------------------------------
# log-time chart
# ---------------------------------------------------------------------------


def test_logtime_matches_t_chart_at_e():
    c0 = np.array([1.0, 1.0, 1.0])
    a = integrate_logtime(c0, np.e)
    b = integrate_rbk(c0, np.e)
    assert_allclose(a.final_state, b.final_state, rtol=100 * RTOL)


def test_logtime_monodisperse_to_1e6():
    settings = IntegratorSettings(atol=1e-30)
    traj = integrate_logtime([0.0, 0.0, 1.0], 1e6, settings)
    closed = 1.0 / (1.0 + traj.abscissae)
    assert_allclose(traj.states[:, -1], closed, rtol=100 * RTOL)


def test_logtime_monodisperse_is_a_fixed_point():
    """Monodisperse data has u = (1 + t) c_N = 1 for all t, a fixed point of
    du/ds = u + field(u): the reported c_N is 1/(1 + t) to a few ulp at the
    default atol."""
    traj = integrate_logtime([0.0, 0.0, 1.0], 1e6)
    u = (1.0 + traj.abscissae) * traj.states[:, -1]
    assert np.all(np.abs(u - 1.0) <= 4 * np.spacing(1.0))


@pytest.mark.parametrize("points_per_decade", [0, 64])
@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("t_end", [1e-3, 0.5, 1.0])
def test_logtime_short_span_matches_t_chart(t_end, n, points_per_decade):
    """Any t_end > 0 runs in the log-t chart: every sample, accumulators
    included, agrees with a t-chart run at rtol 1e-12 sampled at the same t."""
    c0 = np.random.default_rng(n).uniform(0.1, 1.0, n)
    traj = integrate_logtime(c0, t_end, points_per_decade=points_per_decade)
    ref = integrate_adaptive(
        density_rate, packed(c0), (0.0, traj.final_abscissa),
        IntegratorSettings(rtol=1e-12, atol=1e-15), grid=traj.abscissae,
        aux_names=DENSITY_AUX,
    )
    assert_allclose(ref.abscissae, traj.abscissae, rtol=0.0, atol=0.0)
    assert_allclose(traj.states, ref.states, rtol=100 * RTOL, atol=0.0)
    for name in DENSITY_AUX:
        assert_allclose(traj.aux[name], ref.aux[name], rtol=100 * RTOL, atol=0.0)


def test_logtime_tc1_approaches_one(logtime_n3):
    traj = logtime_n3
    t_c1 = traj.final_abscissa * traj.final_state[0]
    assert abs(t_c1 - 1.0) < 0.2


def test_logtime_zero_lattice_preserved():
    traj = integrate_logtime([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], 1e4)
    assert np.all(traj.states[:, 0::2] == 0.0)
    # the samples are s = 0 and the s-grid, uniform in s = log(1 + t)
    s_grid = np.log(geometric_grid(1.0, 1.0 + 1e4, 64))
    assert traj.abscissae.tobytes() == np.expm1(s_grid).tobytes()
    assert traj.stats.accepted < traj.n_samples - 1


# ---------------------------------------------------------------------------
# phi chart and blowup
# ---------------------------------------------------------------------------


def test_blowup_terminates_with_monotone_components(blowup_n4):
    traj, estimate = blowup_n4
    assert traj.final_state[0] >= 1e10
    assert np.all(np.diff(traj.states, axis=0) > 0)
    assert estimate.omega > traj.final_abscissa
    assert np.isfinite(traj.aux["tau"][-1])


def test_blowup_ratio_divergence_n3():
    traj, _ = integrate_phi_to_blowup(np.ones(2), cap=1e10)
    assert traj.final_state[0] / traj.final_state[1] > 10.0


def test_blowup_omega_matches_reference_fixture(oracle_fixtures):
    for n in (3, 4, 5, 8, 12, 16):
        fx = oracle_fixtures[f"omega/N{n}_ones"]
        _, estimate = integrate_phi_to_blowup(np.ones(n - 1), cap=1e10)
        rel = abs(estimate.omega / fx["oracle"]["omega"] - 1.0)
        assert rel < fx["tolerance"], f"N={n}: omega off by {rel:.2e}"


_COVERAGE = [
    *((n, cap, rtol) for n in (3, 4, 5) for cap in (1e6, 1e8, 1e10) for rtol in (1e-9, 1e-11)),
    *((n, 1e10, rtol) for n in (8, 12, 16) for rtol in (1e-9, 1e-11)),
]


@pytest.mark.parametrize("n, cap, rtol", _COVERAGE)
def test_blowup_error_bar_covers_the_oracle(oracle_fixtures, n, cap, rtol):
    """|omega - oracle| <= uncertainty + the oracle's own error estimate."""
    oracle = oracle_fixtures[f"omega/N{n}_ones"]["oracle"]
    _, estimate = integrate_phi_to_blowup(np.ones(n - 1), cap, IntegratorSettings(rtol=rtol))
    error = abs(estimate.omega - oracle["omega"])
    assert error <= estimate.uncertainty + oracle["error_estimate"]
    # the bar is rtol*omega plus a tail below eps*omega
    assert estimate.uncertainty <= (rtol + 4 * np.finfo(float).eps) * estimate.omega


def test_blowup_trajectory_rows_stop_at_the_cap():
    """The run goes past the cap to resolve omega; the rows end at the first
    sample with phi_1 >= cap, start at phi0 bitwise, and keep
    phi_{N-1} = tau + phi_{N-1}(0)."""
    phi0 = np.array([0.7, 1.3, 2.1])
    traj, _ = integrate_phi_to_blowup(phi0, cap=1e6)
    phi1 = traj.states[:, 0]
    assert phi1[-1] >= 1e6 and np.all(phi1[:-1] < 1e6)
    assert traj.states[0].tobytes() == phi0.tobytes()
    tau = traj.aux["tau"]
    assert tau[0] == 0.0 and traj.abscissae[0] == 0.0
    assert traj.states[:, -1].tobytes() == (tau + phi0[-1]).tobytes()
    assert traj.stats.accepted > traj.n_samples - 1


def test_blowup_rejects_bad_initial_data():
    with pytest.raises(ValueError):
        integrate_phi_to_blowup([1.0, -1.0])
    for cap in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            integrate_phi_to_blowup([1.0, 1.0], cap=cap)


def test_blowup_cap_unreachable_with_tight_budget():
    with pytest.raises(IntegrationError, match="cap not reached.* at s="):
        integrate_phi_to_blowup(np.ones(3), cap=1e10, settings=IntegratorSettings(max_steps=20))


# ---------------------------------------------------------------------------
# each chart driver: one integrate_adaptive run of one packed rate
# ---------------------------------------------------------------------------

_STATES = (
    np.ones(4),
    np.random.default_rng(31).uniform(0.1, 1.0, 5),
    np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]),  # off-lattice zeros
    np.array([0.0, 0.0, 2.5]),
)


def _only_run(monkeypatch, driver, *args):
    """The (rate, z0, aux_names, chart) of the single integrate_adaptive call
    the driver makes; the driver reaches it through the module attribute."""
    calls = []
    real = integrate.integrate_adaptive

    def spy(rate, z0, span, *rest, **kwargs):
        calls.append((rate, np.array(z0), kwargs["aux_names"], kwargs["chart"]))
        return real(rate, z0, span, *rest, **kwargs)

    monkeypatch.setattr(integrate, "integrate_adaptive", spy)
    driver(*args)
    assert len(calls) == 1
    return calls[0]


@pytest.mark.parametrize("chart", ["t", "log-t", "phi-y"])
def test_driver_packed_rate_is_field_plus_accumulators_bitwise(monkeypatch, chart):
    for c0 in _STATES:
        if chart == "phi-y":
            if (c0 <= 0).any():
                continue
            phi0 = c0[:-1] / c0[-1]
            rate, z0, names, tag = _only_run(
                monkeypatch, integrate_phi_to_blowup, phi0, 1e6
            )
            assert (names, tag) == (("y",), "phi-y")
            w0 = np.log(phi0[:-1])
            assert z0.tobytes() == np.append(w0, 0.0).tobytes()
            for s, w in ((0.0, w0), (0.3, 2.0 * w0 + 1.0), (9.0, w0 + 20.0)):
                z = np.append(w, 0.7)
                assert rate(s, z).tobytes() == log_psi_rate(s, z, phi0[-1]).tobytes()
            continue
        driver = integrate_rbk if chart == "t" else integrate_logtime
        rate, z0, names, tag = _only_run(monkeypatch, driver, c0, 50.0)
        assert (names, tag) == (DENSITY_AUX, chart)
        assert z0.tobytes() == packed(c0).tobytes()
        for x, c in ((0.0, c0), (1.5, 0.5 * c0), (12.0, c0 * 1e-4)):
            z = np.concatenate([c, [0.1, 0.2, 0.3]])
            expected = density_rate(x, z)
            if chart == "log-t":  # du/ds = u + field(u) for u = (1 + t) c
                expected = expected + np.concatenate([c, np.zeros(3)])
            assert rate(x, z).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# chart drivers against a generic integrate_adaptive run of the packed rate
# ---------------------------------------------------------------------------

_REFERENCE_C0 = _STATES[:3]


def _assert_same_bits(traj, ref, abscissae):
    assert traj.abscissae.tobytes() == np.asarray(abscissae).tobytes()
    assert traj.states.shape == ref.states.shape
    assert traj.states.tobytes() == ref.states.tobytes()
    assert list(traj.aux) == list(ref.aux)
    for name in ref.aux:
        assert traj.aux[name].tobytes() == ref.aux[name].tobytes()


@pytest.mark.parametrize("c0", _REFERENCE_C0)
def test_t_driver_matches_generic_path_bitwise(c0):
    t_end = 50.0
    traj = integrate_rbk(c0, t_end)
    ref = integrate_adaptive(
        density_rate,
        packed(c0),
        (0.0, t_end),
        grid=geometric_grid(t_end * 10.0 ** (-6.0), t_end, 64),
        aux_names=DENSITY_AUX,
        chart="t",
    )
    _assert_same_bits(traj, ref, ref.abscissae)


@pytest.mark.parametrize("c0", _REFERENCE_C0)
def test_logtime_driver_matches_generic_path_bitwise(c0):
    t_end = 1e5
    traj = integrate_logtime(c0, t_end)
    s_grid = np.log(geometric_grid(1.0, 1.0 + t_end, 64))
    ref = integrate_adaptive(
        lambda s, z: density_rate(s, z) + np.concatenate([z[:-3], np.zeros(3)]),
        packed(c0),
        (0.0, s_grid[-1]),
        grid=s_grid,
        aux_names=DENSITY_AUX,
        chart="log-t",
    )
    s = ref.abscissae
    ref = replace(ref, states=np.exp(-s)[:, None] * ref.states)
    _assert_same_bits(traj, ref, np.expm1(s))


@pytest.mark.parametrize("c0", _REFERENCE_C0[:2])
def test_phi_driver_matches_generic_path_bitwise(c0):
    cap = 1e10
    phi0 = c0[:-1] / c0[-1]
    n = c0.size
    traj, estimate = integrate_phi_to_blowup(phi0, cap)
    tail_factor = math.factorial(n - 1) / (n - 2)
    eps = np.finfo(float).eps
    run = integrate_adaptive(
        lambda s, z: log_psi_rate(s, z, phi0[-1]),
        np.append(np.log(phi0[:-1]), 0.0),
        (0.0, np.inf),
        aux_names=("y",),
        nonneg_guard=False,
        stop_when=lambda s, z: (
            np.exp(z[0]) >= cap and tail_factor < eps * z[-1] * math.expm1(s) ** (n - 2)
        ),
        chart="phi-y",
    )
    # back to the phi chart: rows up to the cap, the first one phi0 itself
    tau = np.expm1(run.abscissae)
    phi = np.column_stack([np.exp(run.states), tau + phi0[-1]])
    phi[0] = phi0
    rows = int(np.argmax(phi[:, 0] >= cap)) + 1
    y = run.aux["y"]
    ref = Trajectory("phi-y", y[:rows], phi[:rows], aux={"tau": tau[:rows]})
    _assert_same_bits(traj, ref, y[:rows])
    assert traj.stats == run.stats
    tail = tail_factor * float(tau[-1]) ** (2 - n)
    omega = float(y[-1]) + tail
    assert estimate == BlowupEstimate(omega, RTOL * omega + tail)


# ---------------------------------------------------------------------------
# chart map
# ---------------------------------------------------------------------------


def test_chart_map_monodisperse():
    q = 2.0
    traj = integrate_rbk([0.0, 0.0, q], 5.0)
    mapped = chart_map_t_to_phi(traj)
    assert np.all(mapped.states == 0.0)
    # y(t) = log(1 + q t) for monodisperse decay
    expected = np.log(1.0 + q * traj.abscissae[1:])
    assert_allclose(mapped.abscissae[1:], expected, rtol=100 * RTOL)


def test_chart_map_round_trip_algebraic():
    rng = np.random.default_rng(23)
    c0 = rng.uniform(0.1, 1.0, 4)
    traj = integrate_rbk(c0, 3.0)
    mapped = chart_map_t_to_phi(traj)
    rebuilt = mapped.states * traj.states[:, -1][:, None]
    assert_allclose(rebuilt, traj.states[:, :-1], rtol=4e-16, atol=0)


def test_chart_map_requires_positive_cn():
    traj = integrate_rbk([1.0, 0.0, 0.0], 1.0)  # c_3 identically zero
    with pytest.raises(ValueError, match="chart breakdown"):
        chart_map_t_to_phi(traj)


def test_phi_chart_consistency_with_mapped_trajectory():
    """Mapping a t-run into the phi chart agrees with integrating the
    phi-system directly at the matched y values."""
    c0 = np.array([1.0, 1.0, 1.0])
    traj = integrate_rbk(c0, 3.0, points_per_decade=16)
    mapped = chart_map_t_to_phi(traj)
    y = mapped.abscissae
    direct = integrate_adaptive(
        phi_rate,
        c0[:-1] / c0[-1],
        (0.0, y[-1]),
        grid=y[1:-1],
        nonneg_guard=False,
        chart="phi-y",
    )
    idx = np.searchsorted(direct.abscissae, y[1:-1])
    assert np.all(direct.abscissae[idx] == y[1:-1])
    assert_allclose(direct.states[idx], mapped.states[1:-1], rtol=100 * RTOL)


# ---------------------------------------------------------------------------
# settings / trajectory plumbing
# ---------------------------------------------------------------------------


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(max_steps=0)
    with pytest.raises(ValueError):
        IntegratorSettings(max_steps=2.5)
    for bad in (math.nan, math.inf):
        for name in ("rtol", "atol"):
            with pytest.raises(ValueError):
                IntegratorSettings(**{name: bad})


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory("t", [0.0, 0.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        Trajectory("t", [0.0, 1.0], [[1.0]])
    with pytest.raises(ValueError):
        Trajectory("t", [0.0, 1.0], [[1.0], [1.0]], aux={"y": [1.0, 0.0]})
    # NaN is neither increasing nor nondecreasing
    with pytest.raises(ValueError, match="abscissae"):
        Trajectory("t", [0.0, math.nan, 2.0], [[1.0], [1.0], [1.0]],
                   aux={"y": [0.0, math.nan, 0.1]})
    with pytest.raises(ValueError, match="'y'"):
        Trajectory("t", [0.0, 1.0, 2.0], [[1.0], [1.0], [1.0]],
                   aux={"y": [0.0, math.nan, 0.1]})
    traj = Trajectory("t", [0.0, 1.0], [[1.0], [0.5]], aux={"y": [0.0, 0.7]})
    assert traj.n_samples == 2 and traj.dim == 1


def test_blowup_estimate_validation():
    assert BlowupEstimate(1.0, 0.0) == BlowupEstimate(omega=1.0, uncertainty=0.0)
    with pytest.raises(TypeError):  # the method tag is gone
        BlowupEstimate(1.0, 0.0, "log-psi-tail")
