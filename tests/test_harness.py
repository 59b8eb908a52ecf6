"""Taylor-series oracles, identity suites (including the negative control),
the self-similar truncated oracle, and the fixture protocol."""

import ast
import json
import shutil
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rbklab import asymptotics, harness, integrate
from rbklab.core import nu_odd_closed, self_similar
from rbklab.harness import (
    DEFAULT_FIXTURES_PATH,
    fixtures_path,
    identity_suite,
    load_fixtures,
    omega_reference,
    self_similar_residual,
    state_reference,
)
from rbklab.integrate import Trajectory, integrate_rbk


# ---------------------------------------------------------------------------
# Taylor-series oracles
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


@pytest.mark.parametrize("t", [0.5, 9.0, 100.0])
def test_state_reference_single_cluster_closed_form(t):
    """At N = 1 the system is c' = -c^2, so c(t) = 1/(1/c0 + t)."""
    c_final, error = state_reference([0.7], t)
    assert abs(c_final[0] - 1.0 / (1.0 / 0.7 + t)) <= error
    assert error < 1e-15


def test_state_reference_keeps_nu_odd_closed_form():
    """The odd-subscript density nu_odd solves nu' = -nu^2 on its own, so at
    N = 5 it follows core.nu_odd_closed along the oracle's states, to the
    oracle's error in each of its three terms plus the rounding of the sum and
    of the closed form."""
    c0 = np.random.default_rng(5).uniform(0.1, 1.0, 5)
    for t in (0.1, 1.0, 10.0, 50.0):
        c_final, error = state_reference(c0, t)
        expected = nu_odd_closed(c0[0::2].sum(), t)
        slack = 3 * error + 4 * np.finfo(float).eps * expected
        assert abs(c_final[0::2].sum() - expected) <= slack


@pytest.mark.parametrize("lam", [2.0, 1e3])
def test_state_reference_scaling_symmetry(lam):
    """c(t) solves the system iff lam * c(lam * t) does, so
    state(lam * c0, t / lam) = lam * state(c0, t)."""
    c0 = np.random.default_rng(4).uniform(0.1, 1.0, 4)
    c_final, error = state_reference(c0, 10.0)
    scaled, scaled_error = state_reference(lam * c0, 10.0 / lam)
    assert np.max(np.abs(scaled / lam - c_final)) <= error + scaled_error / lam


def test_state_reference_zero_data_stays_zero():
    c_final, error = state_reference(np.zeros(3), 5.0)
    assert not c_final.any() and error == 0.0


@pytest.mark.parametrize("phi0", [[1.0, 0.0], [1.0, -1.0], [np.nan, 1.0], [1.0, np.inf],
                                  [1.0], [[1.0, 1.0]]])
def test_omega_reference_refuses_bad_phi0(phi0):
    """phi0 must be a finite, strictly positive vector of N - 1 >= 2 entries."""
    with pytest.raises(ValueError):
        omega_reference(phi0)


@pytest.mark.parametrize("c0, t_end", [([1.0, -1e-9], 1.0), ([np.nan, 1.0], 1.0),
                                       ([np.inf, 1.0], 1.0), ([], 1.0), ([1.0], 0.0),
                                       ([1.0], np.inf), ([1.0], np.nan)])
def test_state_reference_refuses_bad_data(c0, t_end):
    """c0 must be a finite nonnegative vector, t_end positive and finite."""
    with pytest.raises(ValueError):
        state_reference(c0, t_end)


def test_oracles_reproduce_their_packaged_fixtures(oracle_fixtures):
    """The packaged values are what the code makes, within their estimates
    (CI regenerates the whole file and checks every entry the same way)."""
    fx = oracle_fixtures["adaptive_oracle/N3"]
    c_final, _ = state_reference(fx["inputs"]["c0"], fx["inputs"]["t_end"])
    oracle = fx["oracle"]
    assert np.max(np.abs(c_final - oracle["c_final"])) <= oracle["error_estimate"]
    oracle = oracle_fixtures["omega/N3_ones"]["oracle"]
    assert abs(omega_reference([1.0, 1.0])[0] - oracle["omega"]) <= oracle["error_estimate"]


def test_oracle_runs_are_bounded(monkeypatch):
    """A run that does not reach its end within the step budget raises
    instead of spinning."""
    monkeypatch.setattr(harness, "_MAX_STEPS", 5)
    with pytest.raises(RuntimeError, match="did not reach"):
        omega_reference(np.ones(2))
    with pytest.raises(RuntimeError, match="did not reach"):
        state_reference(np.ones(3), 1e6)


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
    assert self_similar_residual(_self_similar_run(40, 1e-4, 1.0, 10.0), 1e-4, 1.0) < 1e-7


def test_self_similar_residual_at_zero_time():
    assert self_similar_residual(_self_similar_run(30, 0.4, 2.0, 1e-6), 0.4, 2.0) < 1e-10


def test_self_similar_residual_window():
    """Only j <= max(1, N//3) is compared: corrupting component N//3 + 1
    leaves the residual unchanged, corrupting component N//3 does not."""
    traj = _self_similar_run(40, 0.5, 1.0, 10.0)
    base = self_similar_residual(traj, 0.5, 1.0)

    def corrupted(j):
        states = traj.states.copy()
        states[:, j - 1] *= 2.0
        return replace(traj, states=states)

    assert self_similar_residual(corrupted(14), 0.5, 1.0) == base
    assert self_similar_residual(corrupted(13), 0.5, 1.0) > 0.9


# ---------------------------------------------------------------------------
# fixtures protocol
# ---------------------------------------------------------------------------


def test_fixtures_file_structure(oracle_fixtures):
    for key in ("adaptive_oracle/N4", "omega/N5_ones", "omega/N10_random"):
        assert key in oracle_fixtures
    assert not any(key.startswith("rk4_bitexact") for key in oracle_fixtures)
    for entry in oracle_fixtures.values():
        assert {"inputs", "oracle", "order", "step_fraction"} <= set(entry)
        assert entry["tolerance"] == 1e-6 and entry["oracle"]["error_estimate"] >= 0
    doc = load_fixtures()
    assert doc["version"] == 2
    assert "Taylor" in doc["generator"] and "Richardson" not in doc["generator"]


def test_fixtures_env_override(tmp_path, monkeypatch):
    target = tmp_path / "fx.json"
    shutil.copy(DEFAULT_FIXTURES_PATH, target)
    doc = json.loads(target.read_text())
    doc["version"] = 99
    target.write_text(json.dumps(doc))
    monkeypatch.setenv("RBK_FIXTURES", str(target))
    assert fixtures_path() == target
    assert load_fixtures()["version"] == 99
