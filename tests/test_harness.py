"""Reference integrator, identity suites (including the negative control),
the self-similar truncated oracle, and the fixture protocol."""

import json
import shutil

import numpy as np
import pytest

from rbklab.core import rbk_field
from rbklab.harness import (
    DEFAULT_FIXTURES_PATH,
    fixtures_path,
    identity_suite,
    load_fixtures,
    omega_reference,
    richardson_extrapolate,
    rk4_reference,
    self_similar_residual,
)
from rbklab.integrate import Trajectory, integrate_rbk


# ---------------------------------------------------------------------------
# rk4 reference
# ---------------------------------------------------------------------------


def test_rk4_quadratic_decay_closed_form():
    traj = rk4_reference(lambda t, x: -x * x, [1.0], 1e-4, (0.0, 9.0), record_every=10**9)
    assert abs(traj.final_state[0] - 0.1) < 1e-12


def test_rk4_zero_field_constant():
    traj = rk4_reference(lambda t, x: np.zeros_like(x), [2.0, 3.0], 0.1, (0.0, 1.0))
    assert np.all(traj.states == traj.states[0])


def test_rk4_reproduces_bitexact_fixture(oracle_fixtures):
    fx = oracle_fixtures["rk4_bitexact/N3_uniform_t1"]
    traj = rk4_reference(
        lambda t, x: rbk_field(x),
        fx["inputs"]["c0"],
        fx["inputs"]["h"],
        (0.0, fx["inputs"]["t_end"]),
        record_every=10**9,
    )
    assert np.all(traj.final_state == np.array(fx["oracle"]["c_final"]))


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_reference(lambda t, x: -x, [1.0], 0.0, (0.0, 1.0))


def test_richardson_removes_leading_order():
    truth = 2.5
    values = [truth + 0.3 * (0.1 / 2**k) ** 4 for k in range(3)]
    assert richardson_extrapolate(values, order=4) == pytest.approx(truth, abs=1e-12)
    with pytest.raises(ValueError):
        richardson_extrapolate([1.0], order=4)


def test_omega_reference_stability():
    est_a = omega_reference(np.ones(2), h=0.08, halvings=1, phi1_stop=1e30)
    est_b = omega_reference(np.ones(2), h=0.04, halvings=1, phi1_stop=1e30)
    assert abs(est_a.omega - est_b.omega) < 1e-8
    assert est_a.method == "richardson"


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def identity_run():
    rng = np.random.default_rng(71)
    c0 = rng.uniform(0.1, 1.0, 5)
    return integrate_rbk(c0, 100.0, points_per_decade=320)


def test_identity_suite_passes_on_standard_run(identity_run):
    report = identity_suite(identity_run)
    assert report.passed, report.summary()


def test_identity_suite_monodisperse_trivial():
    traj = integrate_rbk([0.0, 0.0, 1.0], 50.0, points_per_decade=320)
    report = identity_suite(traj)
    assert report.passed
    # the only positive component is odd-subscripted, so (a) is the closed form
    assert np.max(report.nu_odd_err) < 100 * traj.settings.rtol


def test_identity_suite_zero_data():
    traj = integrate_rbk(np.zeros(4), 10.0)
    report = identity_suite(traj)
    assert report.passed
    assert np.max(report.nu_odd_err, initial=0.0) == 0.0


def test_identity_suite_negative_control(identity_run):
    """A deliberately corrupted trajectory must fail the suite."""
    traj = identity_run
    states = traj.states.copy()
    mid = traj.n_samples // 2
    states[mid, -1] *= 1.0 + 1e-3
    corrupted = Trajectory(
        chart=traj.chart,
        abscissae=traj.abscissae,
        states=states,
        aux=dict(traj.aux),
        settings=traj.settings,
    )
    report = identity_suite(corrupted)
    assert not report.passed
    assert not (report.c_last_ok and report.dissipation_ok)


def test_identity_suite_requires_accumulator():
    traj = Trajectory("t", [0.0, 1.0], [[1.0], [0.5]])
    with pytest.raises(ValueError, match="accumulator"):
        identity_suite(traj)


# ---------------------------------------------------------------------------
# self-similar truncated oracle
# ---------------------------------------------------------------------------


def test_self_similar_residual_guard():
    with pytest.raises(ValueError, match="guard"):
        self_similar_residual(10, 0.9, 1.0, 10.0)


def test_self_similar_small_alpha_single_cluster_limit():
    """As alpha -> 0 only c_1 survives and decays like a single cluster."""
    report = self_similar_residual(40, 1e-4, 1.0, 10.0)
    assert report.max_rel_deviation < 1e-7
    assert report.j_max == 13


def test_self_similar_residual_at_zero_time():
    report = self_similar_residual(30, 0.4, 2.0, 1e-6)
    assert report.max_rel_deviation < 1e-10


# ---------------------------------------------------------------------------
# fixtures protocol
# ---------------------------------------------------------------------------


def test_fixtures_file_structure(oracle_fixtures):
    for key in ("rk4_bitexact/N3_uniform_t1", "adaptive_oracle/N4", "omega/N5_ones"):
        assert key in oracle_fixtures
        assert "inputs" in oracle_fixtures[key]
        assert "oracle" in oracle_fixtures[key]
    doc = load_fixtures()
    assert doc["version"] == 1
    assert "Richardson" in doc["generator"]


def test_fixtures_env_override(tmp_path, monkeypatch):
    target = tmp_path / "fx.json"
    shutil.copy(DEFAULT_FIXTURES_PATH, target)
    doc = json.loads(target.read_text())
    doc["version"] = 99
    target.write_text(json.dumps(doc))
    monkeypatch.setenv("RBK_FIXTURES", str(target))
    assert fixtures_path() == target
    assert load_fixtures()["version"] == 99
