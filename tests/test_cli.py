"""CLI surface: config handling, exit codes, CSV/JSON round trips,
determinism, verification suites, and sweeps."""

import json
import subprocess
import sys

import numpy as np
import pytest

from rbklab.cli import main, read_trajectory_csv


def write_config(tmp_path, name="config.json", **doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_monodisperse_csv(tmp_path):
    cfg = write_config(tmp_path, N=3, c0={"monodisperse": {}}, t_end=9.0)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, data = read_trajectory_csv(out)
    assert header[:4] == ["t", "c_1", "c_2", "c_3"]
    assert data[-1, 3] == pytest.approx(1.0 / 10.0, rel=1e-8)


def test_simulate_csv_round_trip_lossless(tmp_path):
    cfg = write_config(tmp_path, N=4, c0={"random": {}}, seed=5, t_end=5.0)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    from rbklab.cli import load_config, resolve_run, _simulate_trajectory

    traj = _simulate_trajectory(resolve_run(load_config(cfg)))
    _, data = read_trajectory_csv(out)
    assert np.all(data[:, 0] == traj.abscissae)
    assert np.all(data[:, 1 : 1 + traj.dim] == traj.states)


def test_simulate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, N=4, c0={"random": {}}, seed=11, t_end=3.0)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_negative_c0_exits_3(tmp_path):
    cfg = write_config(tmp_path, N=3, c0=[-1.0, 0.0, 1.0])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3


def test_simulate_single_component_theorem_request_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, N=1, c0=[1.0], verify_theorem=True)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert "closed form" in capsys.readouterr().err


def test_simulate_logtime_chart_flag(tmp_path):
    cfg = write_config(tmp_path, N=3, c0={"uniform": {}}, t_end=100.0)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--chart", "log-t"]) == 0
    _, data = read_trajectory_csv(out)
    assert data[-1, 0] == pytest.approx(100.0)


def test_simulate_malformed_config_exits_3(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 3


def test_simulate_numerical_failure_exits_2(tmp_path):
    cfg = write_config(tmp_path, N=3, c0={"uniform": {}}, t_end=1e6, max_steps=10)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize(
    "setting", [{"rtol": float("nan")}, {"atol": float("inf")}, {"max_steps": float("inf")}]
)
def test_simulate_non_finite_setting_exits_3_before_integrating(tmp_path, setting):
    cfg = write_config(tmp_path, **{"N": 3, "t_end": 10.0, "max_steps": 20000, **setting})
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"N": 25, "t_end": 1.0}, "factorial guard"),
        ({"N": 3, "chart": "phi", "cap": 1e4}, "t or log-t chart"),
    ],
)
def test_simulate_bad_theorem_request_exits_3_before_writing(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, verify_theorem=True, **doc)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


# ---------------------------------------------------------------------------
# blowup
# ---------------------------------------------------------------------------


def test_blowup_report(tmp_path):
    cfg = write_config(tmp_path, N=4, c0={"uniform": {}}, cap=1e8)
    out = tmp_path / "blowup.csv"
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    header, data = read_trajectory_csv(out)
    assert header[:2] == ["y", "phi_1"]
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert not report["flags"]["window_too_short"]
    for j, expected in (("1", 1.5), ("2", 1.0), ("3", 0.5)):
        assert abs(report["fitted_laws"][j]["exponent"] / expected - 1) < 0.05
    assert report["omega"] > data[-1, 0]


def test_blowup_small_cap_flags_short_window(tmp_path):
    cfg = write_config(tmp_path, N=4, c0={"uniform": {}}, cap=1e2)
    out = tmp_path / "blowup.csv"
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["flags"]["window_too_short"]
    assert report["fitted_laws"] is None


@pytest.mark.parametrize("cap", [float("nan"), float("inf")])
def test_blowup_non_finite_cap_exits_3_before_integrating(tmp_path, cap):
    cfg = write_config(tmp_path, N=4, c0={"uniform": {}}, cap=cap)
    assert main(["blowup", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_blowup_n2_exits_3(tmp_path):
    cfg = write_config(tmp_path, N=2, c0={"uniform": {}})
    assert main(["blowup", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_identities_passes(capsys):
    assert main(["verify", "identities"]) == 0
    out = capsys.readouterr().out
    assert "PASS nu_odd closed form" in out
    assert "FAIL" not in out


def test_verify_support_passes(capsys):
    assert main(["verify", "support"]) == 0
    out = capsys.readouterr().out
    assert "PASS off-lattice components bitwise zero" in out


def test_verify_asymptotics_passes(capsys):
    assert main(["verify", "asymptotics"]) == 0
    assert "blowup exponents" in capsys.readouterr().out


def test_verify_unknown_suite_exits_1():
    assert main(["verify", "nonsense"]) == 1


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_table_n3(capsys):
    assert main(["constants", "--N", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    red = doc["longtime"]["reduction"]
    assert [red[j]["prefactor"] for j in ("1", "2", "3")] == [1.0, 2.0, 2.0]
    blow = doc["blowup"]
    assert [blow[j]["exponent"] for j in ("1", "2")] == [2.0, 1.0]
    assert [blow[j]["prefactor"] for j in ("1", "2")] == [2.0, 2.0]


def test_constants_both_variants_n6_m2(capsys):
    assert main(["constants", "--N", "6", "--m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    as_printed = doc["longtime"]["as_printed"]
    reduction = doc["longtime"]["reduction"]
    assert [reduction[j]["prefactor"] for j in ("2", "4", "6")] == [1.0, 2.0, 2.0]
    assert [as_printed[j]["prefactor"] for j in ("2", "4", "6")] == [1.0, 5.0, 20.0]


def test_constants_invalid_combinations():
    assert main(["constants", "--N", "6", "--m", "2", "--p", "5"]) == 1
    assert main(["constants", "--N", "21"]) == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_grid(tmp_path):
    cfg = write_config(
        tmp_path,
        base={"c0": {"uniform": {}}, "t_end": 2.0},
        grid={"N": [3, 4], "rtol": [1e-8, 1e-9]},
    )
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert len(manifest["cells"]) == 4
    assert all(cell["status"] == "ok" for cell in manifest["cells"])
    for cell in manifest["cells"]:
        assert (outdir / cell["csv"]).exists()
        assert (outdir / cell["report"]).exists()


def test_sweep_cell_matches_single_run_bitwise(tmp_path):
    base = {"c0": {"uniform": {}}, "t_end": 2.0}
    cfg = write_config(tmp_path, base=base, grid={"N": [3]})
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 0
    single_cfg = write_config(tmp_path, name="single.json", N=3, **base)
    single_out = tmp_path / "single.csv"
    assert main(["simulate", "--config", single_cfg, "--out", str(single_out)]) == 0
    cell_csv = outdir / "cell000" / "trajectory.csv"
    assert cell_csv.read_bytes() == single_out.read_bytes()


def test_sweep_empty_grid_exits_1(tmp_path):
    cfg = write_config(tmp_path, base={"c0": {"uniform": {}}}, grid={})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 1


def test_sweep_partial_failure_recorded(tmp_path):
    cfg = write_config(
        tmp_path,
        base={"c0": [1.0, 1.0, 1.0], "t_end": 2.0},
        grid={"N": [3, 4]},  # N=4 mismatches the explicit c0 -> cell fails
    )
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 2
    manifest = json.loads((outdir / "manifest.json").read_text())
    statuses = {c["id"]: c["status"] for c in manifest["cells"]}
    assert statuses["cell000"] == "ok"
    assert statuses["cell001"] == "failed"


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def test_module_invocation_smoke(tmp_path):
    cfg = write_config(tmp_path, N=3, c0={"monodisperse": {}}, t_end=1.0)
    out = tmp_path / "run.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "rbklab", "simulate", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
