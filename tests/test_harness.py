"""Reference integrator, identity suites (including the negative control),
the self-similar truncated oracle, and the fixture protocol."""

import ast
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from rbklab import asymptotics, harness, integrate
from rbklab.core import rbk_field, self_similar
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


@pytest.mark.parametrize("module", [integrate, asymptotics, harness],
                         ids=lambda m: m.__name__.removeprefix("rbklab."))
def test_module_imports_core_only(module):
    """integrate imports no rbklab module but core, and neither do the
    diagnostics and oracles that check it, so they share none of its code."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rbklab")):
            module = node.module or ".".join(alias.name for alias in node.names)
            imported.add(module.removeprefix("rbklab."))
        elif isinstance(node, ast.Import):
            imported |= {a.name.removeprefix("rbklab.") for a in node.names
                         if a.name.startswith("rbklab")}
    assert imported == {"core"}


def test_no_module_imports_scipy():
    """The integrator's tables are typed in, not taken from scipy, which the
    package does not depend on."""
    for path in Path(integrate.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name


def test_rk4_quadratic_decay_closed_form():
    final = rk4_reference(lambda t, x: -x * x, [1.0], 1e-4, (0.0, 9.0))
    assert abs(final[0] - 0.1) < 1e-12


def test_rk4_zero_field_constant():
    final = rk4_reference(lambda t, x: np.zeros_like(x), [2.0, 3.0], 0.1, (0.0, 1.0))
    assert np.array_equal(final, [2.0, 3.0])


def test_rk4_reproduces_bitexact_fixture(oracle_fixtures):
    fx = oracle_fixtures["rk4_bitexact/N3_uniform_t1"]
    final = rk4_reference(
        lambda t, x: rbk_field(x),
        fx["inputs"]["c0"],
        fx["inputs"]["h"],
        (0.0, fx["inputs"]["t_end"]),
    )
    assert np.all(final == np.array(fx["oracle"]["c_final"]))


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
    omega_a, error_a = omega_reference(np.ones(2), h=0.08, halvings=1, phi1_stop=1e30)
    omega_b, _ = omega_reference(np.ones(2), h=0.04, halvings=1, phi1_stop=1e30)
    assert abs(omega_a - omega_b) < 1e-8
    assert error_a >= 0.0


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
    assert report["passed"], report


def test_identity_suite_monodisperse_trivial():
    traj = integrate_rbk([0.0, 0.0, 1.0], 50.0, points_per_decade=320)
    report = identity_suite(traj)
    assert report["passed"]
    # the only positive component is odd-subscripted, so (a) is the closed form
    assert report["nu_odd"]["max_rel_err"] < 100 * traj.settings.rtol


def test_identity_suite_zero_data():
    traj = integrate_rbk(np.zeros(4), 10.0)
    report = identity_suite(traj)
    assert report["passed"]
    assert report["nu_odd"]["max_rel_err"] == 0.0


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
    assert not report["passed"]
    assert not (report["c_last"]["ok"] and report["dissipation"]["ok"])


@pytest.mark.parametrize("driver", [integrate_rbk, integrate.integrate_logtime])
def test_identity_suite_to_1e300_raises_no_warning_and_fails_dissipation(driver):
    """Far out, nu^2 + sum c^2 underflows to 0 while nu > 0: the dissipation
    identity cannot be checked there, so it does not hold.  Its derivative,
    taken in s = log(1 + t), overflows nowhere."""
    traj = driver(np.ones(3), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = identity_suite(traj)
    assert report["dissipation"]["max_rel_err"] == np.inf
    assert not report["dissipation"]["ok"]
    assert not report["passed"]


def test_identity_suite_underflowed_dissipation_is_not_ok():
    """nu = 1e-170 squares to 0, so every row reads 0 = 0 and checks nothing:
    the identity must not pass vacuously."""
    traj = Trajectory(
        "t", [0.0, 1.0, 2.0, 3.0], [[1e-170]] * 4,
        aux={"nu_int": [0.0, 1e-170, 2e-170, 3e-170]},
    )
    report = identity_suite(traj)
    assert report["nu_odd"]["ok"] and report["c_last"]["ok"]
    assert not report["dissipation"]["ok"]


def test_identity_suite_requires_accumulator():
    traj = Trajectory("t", [0.0, 1.0], [[1.0], [0.5]])
    with pytest.raises(ValueError, match="accumulator"):
        identity_suite(traj)


# ---------------------------------------------------------------------------
# self-similar truncated oracle
# ---------------------------------------------------------------------------


def _self_similar_run(N, alpha, kappa, t_end):
    return integrate_rbk(self_similar(alpha, kappa, 0.0, N), t_end)


def test_self_similar_residual_guard():
    with pytest.raises(ValueError, match="guard"):
        self_similar_residual(_self_similar_run(10, 0.9, 1.0, 10.0), 0.9, 1.0)


def test_self_similar_small_alpha_single_cluster_limit():
    """As alpha -> 0 only c_1 survives and decays like a single cluster."""
    report = self_similar_residual(_self_similar_run(40, 1e-4, 1.0, 10.0), 1e-4, 1.0)
    assert report.max_rel_deviation < 1e-7
    assert report.j_max == 13


def test_self_similar_residual_at_zero_time():
    report = self_similar_residual(_self_similar_run(30, 0.4, 2.0, 1e-6), 0.4, 2.0)
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
