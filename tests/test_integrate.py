"""Adaptive integrator against closed forms, chart consistency, and blowup
runs with their omega error bars against the frozen oracle."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rbklab import asymptotics, integrate
from rbklab.core import nu_odd_closed, phi_field, rbk_field
from rbklab.harness import load_fixtures
from rbklab.integrate import (
    IntegrationError,
    IntegratorSettings,
    Trajectory,
    density_start,
    integrate_adaptive,
    integrate_logtime,
    integrate_phi_to_blowup,
    integrate_rbk,
    phi_start,
    sample_grid,
)

RTOL = IntegratorSettings().rtol
EPS = np.finfo(float).eps
DENSITY_AUX = ("y", "tau", "nu_int")


def density_rate(t, z):
    """Packed t-chart rate of z = (c, y, tau, nu_int), written apart from the
    drivers' own."""
    c = z[:-3]
    return np.concatenate([rbk_field(c), [c[-1], c[0], c.sum()]])


def log_density_rate(s, z):
    """Packed rate of z = (u, y, tau, nu_int) for u = (1 + t) c in
    s = log(1 + t): du/ds = u + field(u), the accumulators as in t."""
    return density_rate(s, z) + np.concatenate([z[:-3], np.zeros(3)])


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
# the DOP853 tableau, checked without a reference implementation
# ---------------------------------------------------------------------------

_NODES = np.array([0.0, *(node for node, _ in integrate._STAGES)])


def _near_zero(value, weights):
    """|value| within the rounding of a sum of the given terms."""
    return abs(value) <= 4 * EPS * np.abs(weights).sum()


def test_tableau_rows_sum_to_their_nodes():
    for node, row in integrate._STAGES + integrate._DENSE_STAGES:
        assert _near_zero(row.sum() - node, row), node


def test_tableau_weights_meet_the_quadrature_conditions_to_order_8():
    for q in range(1, 9):
        terms = integrate._B * _NODES ** (q - 1)
        assert _near_zero(terms.sum() - 1.0 / q, terms), q


def test_error_weights_sum_to_zero():
    for weights in integrate._ERR:
        assert _near_zero(weights.sum(), weights)


def test_continuous_extension_meets_the_step_ends():
    rng = np.random.default_rng(5)
    z, z_new = rng.uniform(-2.0, 2.0, (2, 4))
    k = rng.standard_normal((16, 4))
    ends = integrate._dense_output(z, z_new, 0.3, k, np.array([0.0, 1.0]))
    assert ends[0].tobytes() == z.tobytes()
    assert np.all(np.abs(ends[1] - z_new) <= np.spacing(np.maximum(abs(z), abs(z_new))))


def _fixed_steps(rate, y0, t_end, n):
    """n equal steps of the 8th-order weights of the pair."""
    h = t_end / n
    y = np.array([y0])
    k = np.empty((12, 1))
    for i in range(n):
        t = i * h
        k[0] = rate(t, y)
        for stage, (node, a_row) in enumerate(integrate._STAGES, 1):
            k[stage] = rate(t + node * h, y + h * (a_row @ k[:stage]))
        y = y + h * (integrate._B @ k)
    return float(y[0])


def test_pair_converges_with_order_8():
    """y' = 1 + y^2, y(0) = 0 has y = tan(t): halving the step on [0, 1.2]
    divides the error by at least 2^7.5."""
    errors = [abs(_fixed_steps(lambda t, y: 1.0 + y * y, 0.0, 1.2, n) - math.tan(1.2))
              for n in (20, 40)]
    assert math.log2(errors[0] / errors[1]) >= 7.5


def test_first_step_is_the_textbook_step_and_its_continuous_extension_bitwise():
    """From t0 = 0 a run without a grid samples t1 = h exactly.  Its state is
    the textbook DOP853 step z0 + h (b @ k) over the stages
    k_i = f(c_i h, z0 + h (a_i @ k)), and grid points inside that step are
    contd8 of those stages, Hairer's nested form in theta and 1 - theta.
    c_1 and c_3 start at zero with a positive rate, so their stage inputs
    are h (a_i @ k) exactly and no rounding of the stages is absorbed."""
    z0 = packed(np.array([0.0, 0.7, 0.0, 1.1, 0.4]))
    span = (0.0, math.log1p(100.0))
    kwargs = dict(aux_names=DENSITY_AUX)
    free = integrate_adaptive(log_density_rate, z0, span, **kwargs)
    h = free.abscissae[1]

    k = np.empty((16, z0.size))
    k[0] = log_density_rate(0.0, z0)
    for i, (node, a_row) in enumerate(integrate._STAGES, 1):
        k[i] = log_density_rate(node * h, z0 + h * (a_row @ k[:i]))
    z1 = z0 + h * (integrate._B @ k[:12])
    assert free.states[1].tobytes() == z1[:-3].tobytes()
    for i, name in enumerate(DENSITY_AUX):
        assert free.aux[name][1] == z1[-3 + i]

    k[12] = log_density_rate(h, z1)
    for i, (node, a_row) in enumerate(integrate._DENSE_STAGES, 13):
        k[i] = log_density_rate(node * h, z0 + h * (a_row @ k[:i]))
    dz = z1 - z0
    bspl = h * k[0] - dz
    r4 = dz - h * k[12] - bspl
    d = h * (integrate._D @ k)
    grid = h * np.array([0.3, 0.7])
    traj = integrate_adaptive(log_density_rate, z0, span, grid=grid, **kwargs)
    assert traj.abscissae[1:3].tobytes() == grid.tobytes()
    for row, point in enumerate(grid, 1):
        s = point / h
        s1 = 1.0 - s
        contd8 = z0 + s * (dz + s1 * (bspl + s * (r4 + s1 * (
            d[0] + s * (d[1] + s1 * (d[2] + s * d[3]))))))
        assert traj.states[row].tobytes() == contd8[:-3].tobytes()
        for i, name in enumerate(DENSITY_AUX):
            assert traj.aux[name][row] == contd8[-3 + i]


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
    grid = np.geomspace(0.1, 10.0, 17)  # 8 per decade
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
    # every step is a sample, from the start to exactly the span end
    assert (free.abscissae[0], free.abscissae[-1]) == (0.0, 100.0)


def test_grid_samples_are_start_grid_points_and_end():
    grid = sample_grid("t", 100.0, 320)[1]
    traj = integrate_rbk(_DENSE_C0, 100.0, points_per_decade=320)
    assert traj.abscissae.tolist() == grid.tolist()
    assert traj.stats.accepted < grid.size
    # a coarser grid over the same six decades also ends on the span end
    traj = integrate_rbk(_DENSE_C0, 100.0, points_per_decade=16)
    assert traj.abscissae.tolist()[-1] == 100.0
    assert np.all(np.isin(sample_grid("t", 100.0, 16)[1], traj.abscissae))


def test_grid_samples_end_at_stop_point():
    kwargs = dict(nonneg_guard=False, stop_when=lambda y, phi: phi[0] >= 1e6)
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
    grid = np.geomspace(1e-4, 100.0, 385)  # 64 per decade
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


@pytest.mark.parametrize("midpoints", [False, True])
def test_grid_points_at_step_ends_are_the_steps_bitwise(midpoints):
    """A step that ends on a grid point reports its own state there, not an
    interpolated one: on a grid of a free run's step ends, with or without
    their midpoints, the samples at step ends equal the free run's bitwise."""
    span = (0.0, math.log1p(100.0))
    kwargs = dict(aux_names=DENSITY_AUX)
    free = integrate_adaptive(log_density_rate, packed(_DENSE_C0), span, **kwargs)
    grid = free.abscissae[1:]
    if midpoints:
        grid = np.sort(np.concatenate([grid, (free.abscissae[:-1] + grid) / 2]))
    traj = integrate_adaptive(log_density_rate, packed(_DENSE_C0), span, grid=grid, **kwargs)
    assert traj.abscissae.tolist() == [0.0, *grid.tolist()]
    at_ends = np.isin(traj.abscissae, free.abscissae)
    assert traj.states[at_ends].tobytes() == free.states.tobytes()
    for name in free.aux:
        assert traj.aux[name][at_ends].tobytes() == free.aux[name].tobytes()
    # a midpoint costs its step the three stages of the continuous extension
    dense_evals = 3 * free.stats.accepted if midpoints else 0
    assert traj.stats == replace(free.stats, rhs_evals=free.stats.rhs_evals + dense_evals)


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
    # k[0], the initial-step probe, twelve stages per attempt, one per clamp
    assert stats.rhs_evals == len(calls)
    assert stats.rhs_evals == 2 + 12 * (stats.accepted + stats.rejected) + stats.clamped
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


# a NaN from the fourth or the seventh stage makes the new state non-finite;
# one from the rate at the new point (call 14) leaves the new state and the
# error estimate finite, and rejects the step all the same
@pytest.mark.parametrize("bad_call", [5, 8, 14])
def test_integration_stats_count_non_finite_attempts(bad_call):
    calls = []

    def field(t, x):
        calls.append(t)
        return np.full_like(x, np.nan) if len(calls) == bad_call else -x

    stats = integrate_adaptive(field, [1.0], (0.0, 1.0)).stats
    assert stats.rejected_nonfinite == 1
    assert stats.rhs_evals == len(calls)


# the first step, about 0.04 long, passes the error test and holds the grid
# point 0.01: calls 15..17 are the stages of its continuous extension
@pytest.mark.parametrize("bad_call, bad", [(15, "raise"), (17, "nan")])
def test_failed_dense_output_rejects_the_step(bad_call, bad):
    """A dense-output stage that raises or returns NaN rejects its step like
    a failed stage: the run goes on, and the rejection and calls count."""
    calls = []

    def field(t, x):
        calls.append(t)
        if len(calls) == bad_call:
            if bad == "raise":
                raise ValueError("stage outside the domain")
            return np.full_like(x, np.nan)
        return -x

    traj = integrate_adaptive(field, [1.0], (0.0, 1.0), grid=[0.01, 0.5])
    assert traj.stats.rejected_nonfinite == 1
    assert traj.stats.rhs_evals == len(calls)
    assert traj.abscissae.tolist() == [0.0, 0.01, 0.5, 1.0]
    assert_allclose(traj.states[:, 0], np.exp(-traj.abscissae), rtol=100 * RTOL, atol=0.0)


def test_max_steps_exhaustion():
    """The message names the abscissa the run integrates in, s for both time
    charts, and the last accepted h."""
    tight = IntegratorSettings(max_steps=10)
    with pytest.raises(IntegrationError,
                       match=r"max_steps=10 exhausted at s=\S+ \(last accepted h="):
        integrate_rbk(np.ones(3), 1e6, tight)
    with pytest.raises(IntegrationError, match=r"exhausted at s=\S+ \(last accepted h="):
        integrate_logtime(np.ones(3), 1e6, tight)
    with pytest.raises(IntegrationError, match=r"exhausted at s=\S+ \(last accepted h="):
        integrate_phi_to_blowup(np.ones(4), cap=1e10, settings=tight)


def test_span_validation():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda t, c: rbk_field(c), np.ones(3), (1.0, 1.0))
    with pytest.raises(ValueError, match="ahead of the accumulators"):
        integrate_adaptive(density_rate, np.ones(3), (0.0, 1.0), aux_names=DENSITY_AUX)


def test_nan_step_size_fails_fast():
    """A NaN rate at the initial state raises after that one call, naming
    it, instead of spinning through the attempt budget on NaN trial steps."""
    calls = []

    def field(t, x):
        calls.append(t)
        return np.full(2, np.nan)

    with pytest.raises(IntegrationError,
                       match=r"non-finite rate at the initial state at s=0 \(no step accepted\)"):
        integrate_adaptive(field, [1.0, 1.0], (0.0, 1.0), IntegratorSettings(max_steps=1000))
    assert calls == [0.0]


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
    assert traj.abscissae.tobytes() == sample_grid("log-t", 1e4, 64)[1].tobytes()
    assert traj.stats.accepted < traj.n_samples - 1


# ---------------------------------------------------------------------------
# phi chart and blowup
# ---------------------------------------------------------------------------


def test_blowup_terminates_with_monotone_components(blowup_n4):
    traj, omega, _ = blowup_n4
    assert traj.final_state[0] >= 1e10
    assert np.all(np.diff(traj.states, axis=0) > 0)
    assert omega > traj.final_abscissa
    assert np.isfinite(traj.aux["tau"][-1])


def test_blowup_ratio_divergence_n3():
    traj, _, _ = integrate_phi_to_blowup(np.ones(3), cap=1e10)
    assert traj.final_state[0] / traj.final_state[1] > 10.0


def test_blowup_omega_matches_reference_fixture(oracle_fixtures):
    for n in (3, 4, 5, 8, 12, 16):
        fx = oracle_fixtures[f"omega/N{n}_ones"]
        _, omega, _ = integrate_phi_to_blowup(np.ones(n), cap=1e10)
        rel = abs(omega / fx["oracle"]["omega"] - 1.0)
        assert rel < fx["tolerance"], f"N={n}: omega off by {rel:.2e}"


def _coverage():
    """Every omega fixture at cap 1e10, and phi0 = ones at N = 3, 4, 5 also at
    caps 1e6 and 1e8, each at rtol 1e-9 and 1e-11."""
    keys = sorted(k for k in load_fixtures()["fixtures"] if k.startswith("omega/"))
    for key in keys:
        name = key.removeprefix("omega/")
        ones = name.endswith("_ones")
        label = name.removeprefix("N").removesuffix("_ones") if ones else name
        caps = (1e6, 1e8, 1e10) if name in ("N3_ones", "N4_ones", "N5_ones") else (1e10,)
        for cap in caps:
            for rtol in (1e-9, 1e-11):
                yield pytest.param(key, cap, rtol, id=f"{label}-{cap}-{rtol}")


@pytest.mark.parametrize("key, cap, rtol", _coverage())
def test_blowup_error_bar_covers_the_oracle(oracle_fixtures, key, cap, rtol):
    """|omega - oracle| <= uncertainty + the oracle's own error estimate, where
    that estimate is at most 1e-2 of the bar, so a wide oracle cannot pass."""
    fx = oracle_fixtures[key]
    oracle = fx["oracle"]
    c0 = np.append(fx["inputs"]["phi0"], 1.0)
    _, omega, uncertainty = integrate_phi_to_blowup(c0, cap, IntegratorSettings(rtol=rtol))
    error = abs(omega - oracle["omega"])
    assert error <= uncertainty + oracle["error_estimate"]
    assert oracle["error_estimate"] <= 1e-2 * uncertainty
    # the bar is rtol*omega plus a tail below eps*omega
    assert uncertainty <= (rtol + 4 * np.finfo(float).eps) * omega


def test_blowup_trajectory_rows_stop_at_the_cap(monkeypatch):
    """The run goes past the cap to resolve omega; the rows end at the first
    sample with phi_1 >= cap, start at phi0 bitwise, and keep
    phi_{N-1} = tau + phi_{N-1}(0)."""
    runs = []
    real = integrate.integrate_adaptive

    def spy(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(integrate, "integrate_adaptive", spy)
    phi0 = np.array([0.7, 1.3, 2.1])
    traj, _, _ = integrate_phi_to_blowup(np.append(phi0, 1.0), cap=1e6)
    phi1 = traj.states[:, 0]
    assert phi1[-1] >= 1e6 and np.all(phi1[:-1] < 1e6)
    assert traj.states[0].tobytes() == phi0.tobytes()
    tau = traj.aux["tau"]
    assert tau[0] == 0.0 and traj.abscissae[0] == 0.0
    assert traj.states[:, -1].tobytes() == (tau + phi0[-1]).tobytes()
    # the integration itself ended beyond the last row, in s = log(1 + tau)
    (run,) = runs
    assert run.final_abscissa > math.log1p(tau[-1])
    assert run.aux["y"][-1] > traj.abscissae[-1]


def test_blowup_fit_window_holds_eight_rows():
    """The sample grid puts at least 8 rows in the top two decades of phi_1,
    the window of the blowup fits, so they never fall back to the whole run."""
    for n in range(3, 17):
        for c0 in (np.ones(n), np.random.default_rng(n).uniform(0.1, 1.0, n)):
            traj, omega, _ = integrate_phi_to_blowup(c0, 1e10)
            lo, hi = asymptotics.blowup_diagnostic(traj, omega).window
            y = traj.abscissae
            assert lo > y[0] and hi == y[-1]
            assert ((y >= lo) & (y <= hi)).sum() >= 8, (n, c0)


def test_blowup_rejects_bad_initial_data():
    with pytest.raises(ValueError):
        integrate_phi_to_blowup([1.0, -1.0, 1.0])
    for cap in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            integrate_phi_to_blowup([1.0, 1.0, 1.0], cap=cap)


@pytest.mark.parametrize("c0", [
    [-1.0, 1.0],
    [1.0, -1e-3, 1.0],
    [1.0, -1e-13, 1.0],  # within atol: ran before
    [1.0, math.nan, 1.0],
    [math.inf, 1.0],
    [[1.0, 1.0]],
    [],
])
def test_density_drivers_refuse_bad_c0_before_the_first_field_call(monkeypatch, c0):
    """Negative, non-finite or non-vector c0 raise ValueError naming c0 with
    no field call, instead of spending the step budget or failing as an
    IntegrationError."""
    calls = []
    monkeypatch.setattr(integrate, "rbk_field", lambda c: calls.append(c) or rbk_field(c))
    for driver in (integrate_rbk, integrate_logtime):
        with pytest.raises(ValueError, match="c0 must be a nonempty 1-D vector|c0 has non-finite "
                           "components|initial densities must be nonnegative"):
            driver(c0, 10.0)
    assert calls == []


@pytest.mark.parametrize("t_end, points_per_decade, match", [
    (math.nan, 64, "t_end must be finite and positive, got nan"),
    (math.inf, 64, "t_end must be finite and positive, got inf"),
    (0.0, 64, "t_end must be finite and positive, got 0.0"),
    (-1.0, 64, "t_end must be finite and positive, got -1.0"),
    (10.0, -5, "points_per_decade must be a nonnegative integer, got -5"),
    (10.0, 2.5, "points_per_decade must be a nonnegative integer, got 2.5"),
    (10.0, True, "points_per_decade must be a nonnegative integer, got True"),
], ids=["t_end-nan", "t_end-inf", "t_end-zero", "t_end-negative",
        "points_per_decade-negative", "points_per_decade-fraction", "points_per_decade-bool"])
def test_density_drivers_refuse_bad_span_before_building_a_grid(
    monkeypatch, t_end, points_per_decade, match
):
    """A t_end that is not finite and positive, or a points_per_decade that
    is not a nonnegative integer (a bool included), raises ValueError naming
    it before any grid array is built or the field called."""
    calls = []
    monkeypatch.setattr(integrate, "rbk_field", lambda c: calls.append(c) or rbk_field(c))
    for name in ("geomspace", "concatenate"):  # the builders of every grid array
        monkeypatch.setattr(np, name, lambda *a, **k: calls.append(a))
    for driver in (integrate_rbk, integrate_logtime):
        with pytest.raises(ValueError, match=re.escape(match)):
            driver(np.ones(3), t_end, points_per_decade=points_per_decade)
    assert calls == []


@pytest.mark.parametrize("t_end", [1e-45, 1e-100, 1e-200, 1e-310])
def test_t_chart_spans_below_the_step_floor_run_in_one_step(t_end):
    """A span shorter than the step floor relative to 1e-30 still runs: the
    floor is taken relative to the span, and nu_odd meets its closed form."""
    traj = integrate_rbk(np.ones(3), t_end)
    assert traj.stats.accepted == 1
    assert traj.final_abscissa == t_end
    nu_odd = traj.states[:, 0::2].sum(axis=1)
    assert np.array_equal(nu_odd, nu_odd_closed(nu_odd[0], traj.abscissae))


def test_a_span_whose_tenth_rounds_to_zero_runs_in_one_step():
    """From t_end = 5e-324 to 5e-323 a tenth of the span rounds to 0 or to
    the smallest subnormal: the first trial step is then the span itself, so
    the run ends on t_end in one step and nu_odd meets its closed form."""
    for t_end in (5e-324, 1e-323, 1.5e-323, 2e-323, 3e-323, 5e-323):
        traj = integrate_rbk(np.ones(3), t_end, points_per_decade=0)
        assert traj.stats.accepted == 1
        assert traj.final_abscissa == t_end
        nu_odd = traj.states[:, 0::2].sum(axis=1)
        assert np.array_equal(nu_odd, nu_odd_closed(nu_odd[0], traj.abscissae))


@pytest.mark.parametrize("chart, t_end, why", [
    ("log-t", 1e-17, "1 + t_end rounds to 1"),
    ("t", 5e-324, "its start underflows to 0"),
    ("t", 1e-320, "its start underflows to 0"),
])
def test_sample_grid_names_t_end_when_no_grid_exists(chart, t_end, why):
    with pytest.raises(ValueError, match=re.escape(f"no sample grid to t_end={t_end}: {why}")):
        sample_grid(chart, t_end, 64)


def test_sample_grid_too_large_to_allocate_names_t_end():
    with pytest.raises(ValueError, match=re.escape("no sample grid to t_end=1.0: ")):
        sample_grid("t", 1.0, 10**13)


@pytest.mark.parametrize("phi0, cap, match", [
    (np.ones(1), 1e10, "need N in 3..20, got N=2"),
    (np.ones(20), 1e10, "need N in 3..20, got N=21"),
    (np.ones(0), 1e10, "need N in 3..20, got N=1"),
    (np.ones(2), 0.5, "cap 0.5 must exceed phi_1(0) = 1.0"),
    (np.ones(2), math.inf, "cap inf must exceed phi_1(0) = 1.0 and be finite"),
])
def test_phi_start_refuses_before_the_first_field_call(monkeypatch, phi0, cap, match):
    """The phi chart's rule: N = len(c0) in 3..MAX_LAW_DIMENSION, here with
    c0 = (phi0, 1), and a finite cap above phi_1(0)."""
    calls = []
    monkeypatch.setattr(integrate.core, "phi_field", lambda p: calls.append(p) or phi_field(p))
    c0 = np.append(phi0, 1.0) if phi0.ndim == 1 else phi0
    with pytest.raises(ValueError, match=re.escape(match)):
        integrate_phi_to_blowup(c0, cap)
    assert calls == []


@pytest.mark.parametrize("c0", [np.ones((2, 2)), np.ones((1, 4)), np.ones(()), np.ones(0)])
def test_phi_start_refuses_a_c0_that_is_not_a_vector_by_its_shape(c0):
    """Before the N test, and in density_start's words: a 2x2 c0 is not
    named N=4, which lies inside 3..20."""
    match = re.escape(f"c0 must be a nonempty 1-D vector, got shape {c0.shape}")
    for start in (density_start, lambda c0: phi_start(c0, 1e10)):
        with pytest.raises(ValueError, match=match):
            start(c0)


@pytest.mark.parametrize("c0, match", [
    ([1.0, 1.0, 0.0], "the phi chart needs a finite c_N > 0, got c_N = 0.0"),
    ([1.0, 1.0, -2.0], "the phi chart needs a finite c_N > 0, got c_N = -2.0"),
    ([1.0, 1.0, math.inf], "the phi chart needs a finite c_N > 0, got c_N = inf"),
    ([1.0, 1.0, math.nan], "the phi chart needs a finite c_N > 0, got c_N = nan"),
    ([1.0, 1.0, 1e-320], "phi0 must have finite entries (phi0 = c0[:-1]/c_N)"),
    ([1e300, 1.0, 1e-300], "phi0 must have finite entries (phi0 = c0[:-1]/c_N)"),
    ([1.0, -1.0, 1.0], "the phi chart needs strictly positive initial densities"),
])
def test_phi_start_names_the_c0_it_refuses(c0, match):
    """phi_start forms phi0 = c0[:-1]/c_N itself: a c_N that is not finite and
    positive is refused before the division, and a ratio that overflows by
    name, with no numpy warning (the suite turns warnings into errors)."""
    with pytest.raises(ValueError, match=re.escape(match)):
        phi_start(c0, 1e10)


def test_phi_start_returns_the_ratio_bitwise():
    """phi0 is c0[:-1]/c_N bitwise, so a phi0 extended by c_N = 1 comes back
    as itself."""
    c0 = np.random.default_rng(7).uniform(0.1, 1.0, 6)
    assert phi_start(c0, 1e10).tobytes() == (c0[:-1] / c0[-1]).tobytes()
    phi0 = c0[:-1]
    assert phi_start(np.append(phi0, 1.0), 1e10).tobytes() == phi0.tobytes()


@pytest.mark.parametrize("phi0, match", [
    ([1.0, math.nan, 1.0], "phi0 must have finite entries"),
    ([math.nan, 1.0], "phi0 must have finite entries"),
    ([1.0, math.inf], "phi0 must have finite entries"),
    ([1.0, 0.0], "strictly positive"),
])
def test_blowup_refuses_bad_phi0_before_the_first_field_call(monkeypatch, phi0, match):
    """A NaN or inf phi0 is blamed on phi0, not on the cap or the tail."""
    calls = []
    monkeypatch.setattr(integrate.core, "phi_field", lambda p: calls.append(p) or phi_field(p))
    with pytest.raises(ValueError, match=match):
        integrate_phi_to_blowup(np.append(phi0, 1.0))
    assert calls == []


def test_blowup_cap_unreachable_with_tight_budget():
    with pytest.raises(IntegrationError, match="cap not reached.* at s="):
        integrate_phi_to_blowup(np.ones(4), cap=1e10, settings=IntegratorSettings(max_steps=20))


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
    """The (rate, z0, aux_names) of the single integrate_adaptive call the
    driver makes; the driver reaches it through the module attribute."""
    calls = []
    real = integrate.integrate_adaptive

    def spy(rate, z0, span, *rest, **kwargs):
        calls.append((rate, np.array(z0), kwargs["aux_names"]))
        return real(rate, z0, span, *rest, **kwargs)

    monkeypatch.setattr(integrate, "integrate_adaptive", spy)
    driver(*args)
    assert len(calls) == 1
    return calls[0]


@pytest.mark.parametrize("chart", ["t", "log-t", "phi"])
def test_driver_packed_rate_is_field_plus_accumulators_bitwise(monkeypatch, chart):
    for c0 in _STATES:
        if chart == "phi":
            if (c0 <= 0).any():
                continue
            phi0 = c0[:-1] / c0[-1]
            rate, z0, names = _only_run(monkeypatch, integrate_phi_to_blowup, c0, 1e6)
            assert names == ("y",)
            w0 = np.log(phi0[:-1])
            assert z0.tobytes() == np.append(w0, 0.0).tobytes()
            for s, w in ((0.0, w0), (0.3, 2.0 * w0 + 1.0), (9.0, w0 + 20.0)):
                z = np.append(w, 0.7)
                assert rate(s, z).tobytes() == log_psi_rate(s, z, phi0[-1]).tobytes()
            continue
        # both time charts are one density run in s = log(1 + t)
        driver = integrate_rbk if chart == "t" else integrate_logtime
        rate, z0, names = _only_run(monkeypatch, driver, c0, 50.0)
        assert names == DENSITY_AUX
        assert z0.tobytes() == packed(c0).tobytes()
        for x, c in ((0.0, c0), (1.5, 0.5 * c0), (12.0, c0 * 1e-4)):
            z = np.concatenate([c, [0.1, 0.2, 0.3]])
            assert rate(x, z).tobytes() == log_density_rate(x, z).tobytes()


def test_each_run_is_named_by_its_abscissa(blowup_n4):
    """Both time drivers report in t, the phi driver in y, and a generic run
    in the s it integrated over."""
    assert integrate_rbk(np.ones(3), 10.0).chart == "t"
    assert integrate_logtime(np.ones(3), 10.0).chart == "t"
    assert blowup_n4[0].chart == "y"
    run = integrate_adaptive(log_density_rate, packed(np.ones(3)), (0.0, 1.0),
                             aux_names=DENSITY_AUX)
    assert run.chart == "s"
    assert Trajectory.CHARTS == ("t", "s", "y")
    with pytest.raises(ValueError, match="unknown chart 'x'"):
        Trajectory("x", [0.0, 1.0], [[1.0], [1.0]])


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
    """The t chart is the log-t run sampled at log1p of its t grid, and
    reported at that grid's own t."""
    t_end = 50.0
    traj = integrate_rbk(c0, t_end)
    s_grid, t_grid = sample_grid("t", t_end, 64)
    ref = integrate_adaptive(
        log_density_rate,
        packed(c0),
        (0.0, s_grid[-1]),
        grid=s_grid,
        aux_names=DENSITY_AUX,
    )
    assert ref.abscissae.tobytes() == s_grid.tobytes()
    ref = replace(ref, states=np.exp(-s_grid)[:, None] * ref.states)
    _assert_same_bits(traj, ref, t_grid)
    assert traj.stats == ref.stats
    assert traj.chart == "t"


@pytest.mark.parametrize("c0", _REFERENCE_C0)
def test_logtime_driver_matches_generic_path_bitwise(c0):
    t_end = 1e5
    traj = integrate_logtime(c0, t_end)
    s_grid = sample_grid("log-t", t_end, 64)[0]
    ref = integrate_adaptive(
        log_density_rate,
        packed(c0),
        (0.0, s_grid[-1]),
        grid=s_grid,
        aux_names=DENSITY_AUX,
    )
    s = ref.abscissae
    ref = replace(ref, states=np.exp(-s)[:, None] * ref.states)
    _assert_same_bits(traj, ref, np.expm1(s))
    assert traj.stats == ref.stats


@pytest.mark.parametrize("c0", _REFERENCE_C0[:2])
def test_phi_driver_matches_generic_path_bitwise(c0):
    cap = 1e10
    phi0 = c0[:-1] / c0[-1]
    n = c0.size
    traj, omega, uncertainty = integrate_phi_to_blowup(c0, cap)
    tail_factor = math.factorial(n - 1) / (n - 2)
    eps = np.finfo(float).eps
    # 4 rows per decade of phi_1 ~ tau^(N-1)/(N-1)!, to just past the s where
    # that lower bound of psi_1 reaches the cap
    ds = math.log(10.0) / ((n - 1) * 4)
    s_cap = math.log1p((math.factorial(n - 1) * cap) ** (1.0 / (n - 1)))
    grid = ds * np.arange(1, int(s_cap / ds) + 2)
    assert grid[-2] <= s_cap < grid[-1]
    run = integrate_adaptive(
        lambda s, z: log_psi_rate(s, z, phi0[-1]),
        np.append(np.log(phi0[:-1]), 0.0),
        (0.0, np.inf),
        grid=grid,
        aux_names=("y",),
        nonneg_guard=False,
        stop_when=lambda s, z: (
            np.exp(z[0]) >= cap and tail_factor < eps * z[-1] * math.expm1(s) ** (n - 2)
        ),
    )
    # back to the phi chart: rows up to the cap, the first one phi0 itself
    tau = np.expm1(run.abscissae)
    phi = np.column_stack([np.exp(run.states), tau + phi0[-1]])
    phi[0] = phi0
    rows = int(np.argmax(phi[:, 0] >= cap)) + 1
    y = run.aux["y"]
    ref = Trajectory("y", y[:rows], phi[:rows], aux={"tau": tau[:rows]})
    _assert_same_bits(traj, ref, y[:rows])
    assert traj.stats == run.stats
    tail = tail_factor * float(tau[-1]) ** (2 - n)
    expected = float(y[-1]) + tail
    assert (omega, uncertainty) == (expected, RTOL * expected + tail)


# ---------------------------------------------------------------------------
# chart map: y = int c_N dt and phi_j = c_j / c_N of a t-run
# ---------------------------------------------------------------------------


def test_chart_map_monodisperse():
    q = 2.0
    traj = integrate_rbk([0.0, 0.0, q], 5.0)
    assert np.all(traj.states[:, :-1] == 0.0)
    # y(t) = log(1 + q t) for monodisperse decay
    expected = np.log(1.0 + q * traj.abscissae[1:])
    assert_allclose(traj.aux["y"][1:], expected, rtol=100 * RTOL)


def test_phi_chart_consistency_with_mapped_trajectory():
    """Mapping a t-run into the phi chart agrees with integrating the
    phi-system directly at the matched y values."""
    c0 = np.array([1.0, 1.0, 1.0])
    traj = integrate_rbk(c0, 3.0, points_per_decade=16)
    y = traj.aux["y"]
    phi = traj.states[:, :-1] / traj.states[:, -1:]
    direct = integrate_adaptive(
        phi_rate,
        c0[:-1] / c0[-1],
        (0.0, y[-1]),
        grid=y[1:-1],
        nonneg_guard=False,
    )
    idx = np.searchsorted(direct.abscissae, y[1:-1])
    assert np.all(direct.abscissae[idx] == y[1:-1])
    assert_allclose(direct.states[idx], phi[1:-1], rtol=100 * RTOL)


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
    # a bool is no tolerance and no step budget
    for name, match in (("rtol", "rtol and atol"), ("atol", "rtol and atol"),
                        ("max_steps", "max_steps")):
        for flag in (True, False):
            with pytest.raises(ValueError, match=match):
                IntegratorSettings(**{name: flag})


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

