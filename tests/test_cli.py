"""CLI surface: config handling, exit codes, CSV/JSON round trips,
determinism, verification suites, and sweeps."""

import dataclasses
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbklab import asymptotics, cli, core, csvtext, harness
from rbklab.cli import (
    ConfigError,
    main,
    resolve_run,
    write_json,
    write_trajectory_csv,
)
from rbklab.integrate import (
    IntegratorSettings,
    Trajectory,
    integrate_logtime,
    integrate_phi_to_blowup,
    integrate_rbk,
)


def write_config(tmp_path, name="config.json", **doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    """(header, data) of a CSV the commands wrote."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_monodisperse_csv(tmp_path):
    cfg = write_config(tmp_path, N=3, c0={"monodisperse": {}}, t_end=9.0)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header[:4] == ["t", "c_1", "c_2", "c_3"]
    assert data[-1, 3] == pytest.approx(1.0 / 10.0, rel=1e-8)


def test_simulate_csv_round_trip_lossless(tmp_path):
    cfg = write_config(tmp_path, N=4, c0={"random": {}}, seed=5, t_end=5.0)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    from rbklab.cli import load_config, resolve_run, _simulate_trajectory

    traj = _simulate_trajectory(resolve_run(load_config(cfg)))
    _, data = read_csv(out)
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


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"N": 0}, "N must be a positive integer, got 0"),
        ({"N": -1}, "N must be a positive integer, got -1"),
        ({"N": 2, "c0": [-1, 1]}, "initial densities must be nonnegative"),
        ({"N": 3, "c0": [1, 2]}, "c0 has length 2, expected N=3"),
        ({"N": 2, "c0": [True, 1]}, "c0[0] must be a number, got True"),
        ({"N": 3, "c0": {"self_similar": {"kappa": 1e-320}}}, "c0 has non-finite components"),
    ],
    ids=["N-zero", "N-negative", "negative-entry", "length", "bool-entry",
         "self-similar-overflow"],
)
def test_initial_data_rules_exit_3_before_writing(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, **doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"N": 2, "c0": [1, 10**400]}, "c0[1] must be finite, got 1000"),
        ({"N": "3" * 400}, "N must be an integer, got '333"),
        ({"N": 3, "sampling": [0] * 400}, "sampling must be a JSON object, got [0, 0"),
        ({"N": 3, "c0": {"monodisperse": {"index": 1e300}}}, "monodisperse index 1000"),
    ],
    ids=["finite", "integer", "object", "monodisperse-index"],
)
def test_rejected_value_is_echoed_abbreviated(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, **doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert message in err and len(err) < 100


@pytest.mark.parametrize("command", ["simulate", "blowup"])
def test_out_naming_a_directory_exits_2_with_one_line(tmp_path, capsys, command):
    """The message names --out, not the temporary written beside it, and
    the temporary is removed."""
    cfg = write_config(tmp_path, N=3, t_end=2.0)
    out = tmp_path / "taken.csv"
    out.mkdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and err.endswith(f": {str(out)!r}\n")
    assert err.count("\n") == 1 and ".tmp" not in err
    assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json", out]
    assert list(out.iterdir()) == []


def test_sweep_out_naming_a_file_exits_2_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path, base={"N": 3, "t_end": 2.0}, grid={"rtol": [1e-8]})
    out = tmp_path / "taken"
    out.write_text("kept")
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and err.endswith(f": {str(out)!r}\n")
    assert err.count("\n") == 1
    assert out.read_text() == "kept"


def test_simulate_single_component_theorem_request_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, N=1, c0=[1.0], verify_theorem=True)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert "closed form" in capsys.readouterr().err


def test_simulate_logtime_chart_flag(tmp_path):
    cfg = write_config(tmp_path, N=3, c0={"uniform": {}}, t_end=100.0)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--chart", "log-t"]) == 0
    _, data = read_csv(out)
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


# (path to a numeric field, base config holding it); every command reads the
# field through load_config and resolve_run before it integrates or writes
_NUMERIC_FIELDS = [
    (("N",), {"N": 3}),
    (("t_end",), {"N": 3}),
    (("cap",), {"N": 3}),
    (("rtol",), {"N": 3}),
    (("atol",), {"N": 3}),
    (("max_steps",), {"N": 3}),
    (("seed",), {"N": 3, "c0": {"random": {}}, "seed": 1}),
    (("sampling", "points_per_decade"), {"N": 3, "sampling": {}}),
    (("c0", 1), {"N": 3, "c0": [1.0, 1.0, 1.0]}),
    (("c0", "uniform", "value"), {"N": 3, "c0": {"uniform": {}}}),
    (("c0", "monodisperse", "index"), {"N": 3, "c0": {"monodisperse": {}}}),
    (("c0", "self_similar", "alpha"), {"N": 3, "c0": {"self_similar": {}}}),
    (("c0", "random", "high"), {"N": 3, "c0": {"random": {}}, "seed": 1}),
]


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(_NUMERIC_FIELDS),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    command=st.sampled_from(
        [["simulate"], ["simulate", "--chart", "log-t"], ["simulate", "--chart", "phi"],
         ["blowup"]]
    ),
)
def test_non_finite_config_field_exits_3_and_writes_nothing(field, value, command):
    path, base = field
    doc = json.loads(json.dumps(base))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = write_config(tmp, **doc)
        out = tmp / "out" / "run.csv"
        assert main([*command, "--config", cfg, "--out", str(out)]) == 3
        assert list(tmp.iterdir()) == [tmp / "config.json"]


@pytest.mark.parametrize(
    "doc",
    [
        {"t_end": math.nan},
        {"cap": -math.inf},
        {"sampling": {"points_per_decade": math.inf}},
        {"c0": {"self_similar": {"kappa": math.inf}}},
        {"t_end": 10**400},
    ],
)
def test_resolve_run_rejects_non_finite_numbers(doc):
    with pytest.raises(ConfigError):
        resolve_run({"N": 3, **doc})


@pytest.mark.parametrize(
    "doc",
    [
        {"N": 3.7},
        {"N": True},
        {"N": "3"},
        {"max_steps": 1000.5},
        {"sampling": {"points_per_decade": 2.5}},
        {"c0": {"random": {}}, "seed": 1.5},
        {"c0": {"monodisperse": {"index": 2.5}}},
        {"verify_theorem": "false"},
        {"verify_theorem": 0},
        {"t_end": True},
        {"rtol": "1e-9"},
        {"c0": {"uniform": {"value": [1.0]}}},
        {"c0": {"random": {"low": None}}, "seed": 1},
        {"N": 2, "c0": [1, 10**400]},  # an integer beyond double range
        {"N": 2, "c0": [True, 1]},
        {"N": 2, "c0": ["1.5", 1]},
    ],
)
def test_resolve_run_rejects_values_of_the_wrong_type(doc):
    with pytest.raises(ConfigError):
        resolve_run({"N": 3, **doc})


def test_resolve_run_leaves_the_phi_start_to_the_driver():
    """A phi-chart run resolves to the same c0 as a density run and carries
    no phi0: the driver forms it from c0 (phi_start)."""
    doc = {"N": 4, "c0": [2.0, 1.0, 3.0, 0.5]}
    run = resolve_run({**doc, "chart": "phi"})
    assert "phi0" not in run
    assert run["c0"].tobytes() == resolve_run(doc)["c0"].tobytes()


def test_resolve_run_accepts_integral_floats():
    run = resolve_run({"N": 3.0, "max_steps": 1e3, "sampling": {"points_per_decade": 8.0}})
    assert run["c0"].size == 3
    assert run["settings"].max_steps == 1000
    assert run["points_per_decade"] == 8


_WRONG_SHAPE = [
    ({"sampling": 5}, "must be a JSON object"),
    ({"c0": {"uniform": 5}}, "must be a JSON object"),
    ({"sampling": [64]}, "must be a JSON object"),
    ({"c0": "ones"}, "c0 must be an array or a one-key family object"),
    ({"c0": {"gaussian": {}}}, "unknown initial-condition family 'gaussian'"),
    ({"c0": {"monodisperse": {"index": 4}}}, "monodisperse index 4 outside 1..3"),
    ({"c0": {"random": {}}}, "random initial conditions require a seed"),
    ({"c0": {"random": {"low": 1.0, "high": 0.5}}, "seed": 1}, "0 < low < high"),
    ({"chart": "s"}, "unknown chart 's'"),
    ({"c0": {"self_similar": {"alpha": 1.5}}}, "alpha must lie in (0, 1)"),
]


@pytest.mark.parametrize(
    "doc, message", _WRONG_SHAPE, ids=[f"doc{i}" for i in range(len(_WRONG_SHAPE))]
)
def test_config_of_the_wrong_shape_exits_3(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, N=3, **doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"N": 3, "t_end": 1e400}', "config holds the non-finite number 1e400"),
        ("[3]", "config root must be a JSON object"),
        (None, "cannot read config"),
        ('{"t_end": 1.0}', "config requires an integer N"),
    ],
    ids=["overflowing-literal", "array-root", "missing-file", "missing-N"],
)
def test_unusable_config_document_exits_3(tmp_path, capsys, text, message):
    cfg = tmp_path / "config.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_self_similar_family_is_the_core_profile():
    run = resolve_run({"N": 7, "c0": {"self_similar": {"alpha": 0.3, "kappa": 2.0}}})
    assert run["c0"].tobytes() == core.self_similar(0.3, 2.0, 0.0, 7).tobytes()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"N": 25, "t_end": 1.0}, "need N in 2..20"),
        ({"N": 3, "chart": "phi", "cap": 1e4}, "t or log-t chart"),
        ({"N": 3, "t_end": 1.0}, "need samples beyond t = 1"),
        ({"N": 3, "t_end": 1.0, "chart": "log-t"}, "need samples beyond t = 1"),
        ({"N": 3, "t_end": 1.0, "sampling": {"points_per_decade": 0}},
         "needs sampling.points_per_decade > 0"),
    ],
)
def test_simulate_bad_theorem_request_exits_3_before_writing(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, verify_theorem=True, **doc)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize(
    "command, doc",
    [
        (["blowup"], {"N": 4, "phi0": [2, 1, 1], "cap": 1e4}),  # the retired key
        (["simulate"], {"N": 3, "t_ned": 1e6}),
        (["simulate"], {"N": 3, "sampling": {"point_per_decade": 8}}),
        (["simulate"], {"N": 3, "c0": {"uniform": {"valeu": 2.0}}}),
        (["verify", "theorem-constants", "--N", "3"], {"t_ned": 1e6}),
        (["simulate"], {"N": 3, "sampling": {"decades": 6}}),  # the retired key
    ],
)
def test_unknown_config_key_exits_3_before_writing(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, **doc)
    out = [] if command[0] == "verify" else ["--out", str(tmp_path / "x.csv")]
    assert main([*command, "--config", cfg, *out]) == 3
    assert "unknown" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("chart", ["t", "log-t", "phi"])
def test_negative_points_per_decade_exits_3_in_every_chart(tmp_path, capsys, chart):
    cfg = write_config(tmp_path, N=3, t_end=10.0, cap=1e4, chart=chart,
                       sampling={"points_per_decade": -5})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert "points_per_decade must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("t_end", [0, -1])
@pytest.mark.parametrize("chart", ["t", "log-t"])
def test_non_positive_t_end_exits_3_in_both_t_charts(tmp_path, capsys, chart, t_end):
    cfg = write_config(tmp_path, N=3, t_end=t_end, chart=chart)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert f"t_end must be finite and positive, got {float(t_end)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_logtime_zero_points_per_decade_samples_every_step(tmp_path):
    cfg = write_config(tmp_path, N=3, t_end=1e4, chart="log-t",
                       sampling={"points_per_decade": 0})
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, data = read_csv(out)
    traj = integrate_logtime(np.ones(3), 1e4)
    assert data.shape[0] == traj.stats.accepted + 1
    assert data[-1, 0] == traj.final_abscissa


def test_t_chart_reaches_the_top_of_the_double_range_on_a_small_budget(tmp_path):
    """The t chart integrates in s = log(1 + t), so a span to t = 1e308 takes
    a few hundred steps, and its rows still run from (0, c0) to t_end."""
    cfg = write_config(tmp_path, N=3, t_end=1e308, max_steps=5000)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert data[0, :4].tolist() == [0.0, 1.0, 1.0, 1.0]
    assert data[-1, 0] == 1e308


def _reference_csv(header, table) -> bytes:
    """The CSV contract written out value by value."""
    lines = [",".join(header)]
    lines += [",".join(format(float(x), ".17g") for x in row) for row in table]
    return ("\n".join(lines) + "\n").encode()


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
            1e300, -1e300, 1.7976931348623157e308, math.inf, 0.1, 1 / 3, -2.0]


@pytest.mark.parametrize("chart", ["t", "y"])
def test_csv_bytes_match_a_per_value_reference(tmp_path, chart):
    """Over more rows than one block, with zeros, -0.0, subnormals and values
    near 1e+-300, the writer's bytes are format(x, ".17g") per value, and the
    reader gives the table back bitwise."""
    rng = np.random.default_rng(11)
    dim = 4
    n = 2 * (csvtext.BLOCK_VALUES // (dim + 3)) + 37  # the x, c and aux columns
    states = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 301, (n, dim))
    states.flat[: 3 * len(_SPECIAL) : 3] = _SPECIAL
    x = np.concatenate(([0.0, 5e-324, 1e-300], np.cumsum(rng.uniform(0.5, 1.5, n - 3))))
    # aux series are nondecreasing; given out of name order, written sorted
    aux = {"zeta": np.sort(rng.uniform(-1e300, 1e300, n)), "tau": np.arange(n, dtype=float)}
    aux["tau"][:3] = [-0.0, 0.0, 5e-324]
    traj = Trajectory(chart, x, states, aux)
    out = tmp_path / "run.csv"
    write_trajectory_csv(traj, out)
    name = "phi" if chart == "y" else "c"
    header = [chart, *(f"{name}_{j}" for j in range(1, dim + 1)), "tau", "zeta"]
    table = np.column_stack([x, states, aux["tau"], aux["zeta"]])
    assert out.read_bytes() == _reference_csv(header, table)
    got_header, data = read_csv(out)
    assert got_header == header
    assert data.tobytes() == table.tobytes()


def _hard_values(rng) -> np.ndarray:
    """Values that probe every branch of '%.17g': random 64-bit patterns over
    all exponents (subnormals and nan among them), 10^k and both neighbours
    for k in -300..300, integers, short decimals, exact ties at the 17th
    digit, 0, -0, +-inf and nan."""
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False).view(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    decimals = np.concatenate([np.round(rng.uniform(-1e3, 1e3, 500), d) for d in range(7)])
    # x = 1 + r/2^52 scales to x 10^16 = (2^52 + r) 5^16 / 2^36, whose fraction
    # is 1/2 - j 2^-36 for r = (2^35 - j) / 5^16 mod 2^36: an exact tie at
    # j = 0, fractions within 1e-9 of 1/2 and fractions just outside
    inverse = pow(5**16, -1, 2**36)
    near_ties = [1 + (2**35 - j) * inverse % 2**36 / 2**52
                 for j in (0, 1, -1, 50, -50, 1000, -1000, 6000, -6000)]
    return np.concatenate([
        bits, powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf), -powers,
        rng.integers(-10**6, 10**6, 2000).astype(float), rng.integers(0, 2**53, 2000).astype(float),
        decimals, near_ties, [1234567890123456.75, 9999999999999999.5, 0.5, 99999999999999999.0],
        [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, 1e-200, 1e200],
        np.nextafter([1e-200, 1e200], [0.0, math.inf]),
    ])


def _per_value_reference(table) -> str:
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in table)


def _write_table(tmp_path, table) -> bytes:
    """The bytes write_trajectory_csv gives table's columns, as states."""
    traj = Trajectory("t", np.arange(len(table), dtype=float), table)
    out = tmp_path / "run.csv"
    write_trajectory_csv(traj, out)
    return out.read_bytes()


def _spy_per_value(monkeypatch) -> list:
    """The values the writer formats one at a time, as it formats them."""
    calls = []
    per_value = csvtext._per_value
    monkeypatch.setattr(csvtext, "_per_value", lambda x: calls.append(x) or per_value(x))
    return calls


@pytest.mark.parametrize("seed", [3, 4])
def test_vector_formatting_matches_format_per_value(seed):
    """A seeded property: every block's text is format(x, '.17g') per value."""
    rng = np.random.default_rng(seed)
    values = _hard_values(rng)
    values = rng.permutation(np.append(values, np.zeros(-values.size % 8)))
    table = values.reshape(-1, 8)
    seps = np.array([ord(",")] * 7 + [ord("\n")], csvtext._WORD)
    for start in range(0, len(table), 300):
        block = table[start : start + 300]
        assert csvtext._format_block(block, seps) == _per_value_reference(block)


_BLOCK_OF_8 = csvtext.BLOCK_VALUES // 8  # rows in a block of 8 columns


@pytest.mark.parametrize("rows, cols", [
    (0, 3), (1, 1), (1, 30), (7, 24), (2, 1), (_BLOCK_OF_8, 7), (2 * _BLOCK_OF_8 + 1, 7),
])
def test_csv_tables_of_any_shape(tmp_path, rows, cols):
    """Header-only, one-row and wide tables, and tables of exactly one block
    and one row past two (8 columns); the widest value field
    (-1.2345678901234567e-308) in every other column."""
    table = np.full((rows, cols), -1.2345678901234567e-308)
    table[:, ::2] = np.random.default_rng(rows + cols).standard_normal((rows, (cols + 1) // 2))
    header = ["t", *(f"c_{j}" for j in range(1, cols + 1))]
    got = _write_table(tmp_path, table).decode()
    with_x = np.column_stack([np.arange(rows, dtype=float), table])
    assert got == ",".join(header) + "\n" + _per_value_reference(with_x)


def test_zero_lattice_columns_stay_on_the_vector_path(tmp_path, monkeypatch):
    """The off-lattice columns of c0 = (0, 1, 0, 1) are zeros in every row:
    they are written as 0 with no value formatted alone."""
    calls = _spy_per_value(monkeypatch)
    traj = integrate_rbk(np.array([0.0, 1.0, 0.0, 1.0]), 10.0)
    out = tmp_path / "run.csv"
    write_trajectory_csv(traj, out)
    assert calls == []
    rows = out.read_text().splitlines()[1:]
    assert {(r.split(",")[1], r.split(",")[3]) for r in rows} == {("0", "0")}
    table = np.column_stack([traj.abscissae, traj.states, *(traj.aux[k] for k in sorted(traj.aux))])
    assert "\n".join(rows) + "\n" == _per_value_reference(table)


def test_forced_per_value_fallback_gives_the_same_bytes(tmp_path, monkeypatch):
    """With no rounding certified, every finite nonzero value is formatted
    alone, and the bytes are those of the vector path."""
    rng = np.random.default_rng(6)
    values = _hard_values(rng)
    values = values[np.isfinite(values) & (values != 0)][:4000]
    table = values[: values.size // 8 * 8].reshape(-1, 8)
    expected = _write_table(tmp_path, table)
    calls = _spy_per_value(monkeypatch)
    monkeypatch.setattr(csvtext, "_TIE_MARGIN", 0.5)  # |fraction - 1/2| <= 1/2 always
    assert _write_table(tmp_path, table) == expected
    x = np.arange(len(table), dtype=float)
    assert len(calls) == table.size + np.count_nonzero(x)  # the abscissa column too


def test_write_failing_part_way_leaves_no_file(tmp_path):
    out = tmp_path / "sub" / "report.json"
    with pytest.raises(TypeError):  # "a" is written before "b" fails
        write_json({"a": 1.0, "b": object()}, out)
    assert list(out.parent.iterdir()) == []


def test_write_failing_part_way_keeps_previous_file(tmp_path, monkeypatch):
    traj = integrate_rbk(np.ones(3), 1.0, points_per_decade=4)
    out = tmp_path / "run.csv"
    write_trajectory_csv(traj, out)
    before = out.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError):
        write_trajectory_csv(integrate_rbk(np.ones(3), 2.0), out)
    with pytest.raises(TypeError):
        write_json({"a": 1.0, "b": object()}, out)
    assert out.read_bytes() == before
    assert list(tmp_path.iterdir()) == [out]


# ---------------------------------------------------------------------------
# blowup
# ---------------------------------------------------------------------------


def test_blowup_report(tmp_path):
    cfg = write_config(tmp_path, N=4, c0={"uniform": {}}, cap=1e8)
    out = tmp_path / "blowup.csv"
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header[:2] == ["y", "phi_1"]
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert not report["flags"]["laws_unconverged"]
    for j, expected in (("1", 1.5), ("2", 1.0), ("3", 0.5)):
        assert abs(report["fitted_laws"][j]["exponent"] / expected - 1) < 0.05
    assert report["omega"] > data[-1, 0]
    assert report["method"] == "log-psi-tail"
    assert report["uncertainty"] <= 1.01e-9 * report["omega"]
    # the rows end at the first one past the cap
    assert data[-1, 1] >= 1e8 and np.all(data[:-1, 1] < 1e8)


def test_blowup_report_holds_the_integrator_stats(tmp_path):
    """The report names what the integrator did on the run, counter for
    counter, and repeats byte for byte."""
    cfg = write_config(tmp_path, N=5, c0={"uniform": {}})
    out = tmp_path / "blowup.csv"
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    first = out.with_suffix(".report.json").read_bytes()
    stats = integrate_phi_to_blowup(np.ones(5), 1e10)[0].stats
    got = json.loads(first)["integrator"]
    assert (got["accepted"], got["rhs_evals"]) == (stats.accepted, stats.rhs_evals)
    assert got == dataclasses.asdict(stats)
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    assert out.with_suffix(".report.json").read_bytes() == first


def test_blowup_small_cap_flags_short_window(tmp_path):
    """A window too short for the laws is flagged by the psi residuals at the
    last row; the fits are reported all the same."""
    cfg = write_config(tmp_path, N=4, c0={"uniform": {}}, cap=1e2)
    out = tmp_path / "blowup.csv"
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["flags"] == {"laws_unconverged": True}
    assert sorted(report["fitted_laws"]) == ["1", "2", "3"]


def test_blowup_cap_crossed_in_one_step_reports_no_fits(tmp_path):
    """A cap crossed before the first grid row leaves two rows: omega is
    still resolved, and there is nothing to fit."""
    cfg = write_config(tmp_path, N=4, c0={"uniform": {}}, cap=1.0000001)
    out = tmp_path / "blowup.csv"
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert data.shape[0] == 2
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["flags"] == {"laws_unconverged": True}
    assert report["fitted_laws"] is None and report["omega"] > data[-1, 0]


def test_blowup_n16_omega_within_its_bar_of_the_packaged_oracle(tmp_path, oracle_fixtures):
    """At N = 16 and cap 1e10 omega's error bar covers its distance to the
    packaged oracle, while the laws are flagged as not yet converged."""
    cfg = write_config(tmp_path, N=16)
    out = tmp_path / "blowup.csv"
    assert main(["blowup", "--config", cfg, "--out", str(out), "--cap", "1e10"]) == 0
    report = json.loads(out.with_suffix(".report.json").read_text())
    reference = oracle_fixtures["omega/N16_ones"]["oracle"]["omega"]
    assert abs(report["omega"] - reference) <= report["uncertainty"]
    assert report["flags"] == {"laws_unconverged": True}


def test_blowup_rejects_a_stage_that_underflows_psi_1_without_a_warning(tmp_path,
                                                                        oracle_fixtures):
    """On this c0 one trial stage drives exp(w_1) to 0; the stage is rejected
    before any division by it, so no numpy warning is raised (pytest turns
    warnings into errors), and omega's bar still covers the packaged oracle."""
    fx = oracle_fixtures["omega/N4_steep"]
    c0 = fx["inputs"]["c0"]
    assert c0 == [1.0, 1e-6, 1.0, 1.0]
    cfg = write_config(tmp_path, N=4, c0=c0)
    out = tmp_path / "blowup.csv"
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert abs(report["omega"] - fx["oracle"]["omega"]) <= report["uncertainty"]
    assert integrate_phi_to_blowup(c0, 1e10)[0].stats.rejected_nonfinite == 1


# valid steep c0 at N = 10 whose first steps move some phi_j by less than an
# ulp (case a) or whose first stepped row of phi_j lands 2 ulps below the
# exact phi0 (case b), packaged with their oracle omegas
@pytest.mark.parametrize("key", ["omega/N10_steep_a", "omega/N10_steep_b"])
def test_blowup_accepts_phi_components_that_tie_in_double_precision(tmp_path, oracle_fixtures,
                                                                    key):
    """The run checks the log psi_j it integrated, which never decrease, not
    the reported phi_j, which tie or dip by an ulp on this data; the numpy
    overflow of rejected trial stages raises no warning (pytest turns
    warnings into errors)."""
    fx = oracle_fixtures[key]
    cfg = write_config(tmp_path, N=10, c0=fx["inputs"]["c0"])
    out = tmp_path / "blowup.csv"
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert abs(report["omega"] - fx["oracle"]["omega"]) <= report["uncertainty"]


def test_blowup_overflowing_trial_stage_raises_no_warning(tmp_path):
    """A trial stage of this run overflows exp(w_j); the step loop rejects
    it, and numpy prints no warning."""
    cfg = write_config(tmp_path, N=4, c0=[1.0, 1e-12, 1e-12, 1.0])
    assert main(["blowup", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0


def test_simulate_overflowing_initial_data_exits_2_without_a_warning(
    tmp_path, capsys, monkeypatch
):
    """The field of c0 = 1e160 overflows at the initial state: the run fails
    after that one rate call, naming the non-finite rate and s = 0, and exits
    2, with no numpy warning on the way.  The density rate forms its field
    from one np.correlate per call, so that counts the rate calls."""
    calls = []
    correlate = np.correlate

    def counted(*args, **kwargs):
        calls.append(args)
        return correlate(*args, **kwargs)

    monkeypatch.setattr(np, "correlate", counted)
    cfg = write_config(tmp_path, N=3, c0=[1e160, 1e160, 1e160])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "non-finite rate at the initial state at s=0 (no step accepted)" in err
    assert len(calls) == 1


def test_blowup_flags_unconverged_laws_at_large_n(tmp_path):
    """At N = 12 and cap 1e10 tau is still too small for the laws: the flag
    is set even though phi_1 spans ten decades."""
    cfg = write_config(tmp_path, N=12, c0={"uniform": {}})
    out = tmp_path / "blowup.csv"
    assert main(["blowup", "--config", cfg, "--out", str(out), "--cap", "1e10"]) == 0
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["flags"] == {"laws_unconverged": True}
    assert sorted(report["fitted_laws"], key=int) == [str(j) for j in range(1, 12)]


@pytest.mark.parametrize("cap", [float("nan"), float("inf")])
def test_blowup_non_finite_cap_exits_3_before_integrating(tmp_path, cap):
    cfg = write_config(tmp_path, N=4, c0={"uniform": {}}, cap=cap)
    assert main(["blowup", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_blowup_n2_exits_3(tmp_path):
    cfg = write_config(tmp_path, N=2, c0={"uniform": {}})
    assert main(["blowup", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3


@pytest.mark.parametrize("command", [["blowup", "--cap", "1e30"], ["simulate", "--chart", "phi"]])
def test_cap_beyond_the_resolution_of_y_exits_2_and_writes_nothing(tmp_path, capsys, command):
    """At N = 5, y reaches omega to double precision before phi_1 reaches
    1e30.  The cap is a valid input, so this is a numerical verdict."""
    cfg = write_config(tmp_path, N=5, cap=1e30)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "double-precision resolution" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("N, below, ceiling", [(3, "1e30", "1e31"), (5, "1e21", "1e22"),
                                             (16, "1e17", "1e18")])
def test_blowup_cap_ceiling_of_y_resolution(tmp_path, capsys, N, below, ceiling):
    """With c0 = ones, y's resolution ceiling starts at the caps README names:
    one decade below, blowup runs; at the ceiling it exits 2 and names the
    cause."""
    cfg = write_config(tmp_path, N=N, c0={"uniform": {}})
    out = ["--out", str(tmp_path / "x.csv")]
    assert main(["blowup", "--config", cfg, "--cap", below, *out]) == 0
    capsys.readouterr()
    assert main(["blowup", "--config", cfg, "--cap", ceiling, *out]) == 2
    assert "double-precision resolution" in capsys.readouterr().err


def test_blowup_value_error_after_the_inputs_passed_exits_2(tmp_path, capsys, monkeypatch):
    """Only input validation exits 3: a ValueError raised once the run has
    started is a numerical failure, and the command writes nothing."""

    def broken(traj, omega):
        raise ValueError("diagnostic failed")

    monkeypatch.setattr(asymptotics, "blowup_diagnostic", broken)
    cfg = write_config(tmp_path, N=4)
    assert main(["blowup", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "numerical failure: diagnostic failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (["simulate"], {"N": 3, "t_end": 1e-320}, "no sample grid"),  # the grid start underflows
        (["simulate", "--chart", "log-t"], {"N": 3, "t_end": 1e-17}, "no sample grid"),
        (["simulate", "--chart", "phi"], {"N": 21}, "need N in 3..20"),
        (["blowup"], {"N": 25}, "need N in 3..20"),
        (["verify", "support"], {"N": 3, "c0": [0.0, 0.0, 0.0]}, "empty support"),
        (["verify", "theorem-constants", "--N", "4"], {"t_end": 0.5},
         "need samples beyond t = 1"),
        # a grid larger than the address space fails to allocate at once
        (["simulate"], {"N": 3, "sampling": {"points_per_decade": 10**13}}, "no sample grid"),
        # so do the densities of N = 10**15 (7.11 PiB), in each c0 family
        (["simulate"], {"N": 10**15}, "Unable to allocate 7.11 PiB"),
        (["simulate"], {"N": 10**15, "c0": {"monodisperse": {}}}, "Unable to allocate 7.11 PiB"),
        (["blowup"], {"N": 10**15, "c0": {"self_similar": {}}}, "Unable to allocate 7.11 PiB"),
        (["blowup"], {"N": 10**15, "c0": {"random": {}}, "seed": 1}, "Unable to allocate 7.11 PiB"),
    ],
)
def test_unusable_input_exits_3_before_writing(tmp_path, capsys, command, doc, message):
    cfg = write_config(tmp_path, **doc)
    out = [] if command[0] == "verify" else ["--out", str(tmp_path / "x.csv")]
    assert main([*command, "--config", cfg, *out]) == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def _tiny_kappa_c0():
    """The c0 of {"self_similar": {"kappa": 1e-320}} at N = 3: its entries
    overflow to inf."""
    with np.errstate(over="ignore"):
        return core.self_similar(0.5, 1e-320, 0.0, 3)


@pytest.mark.parametrize(
    "call, command, doc",
    [
        (lambda: integrate_rbk(np.ones(3), 0.0), ["simulate"], {"N": 3, "t_end": 0}),
        (lambda: integrate_rbk(np.ones(3), -1.0), ["simulate"], {"N": 3, "t_end": -1}),
        (lambda: integrate_logtime(np.ones(3), 1e-17), ["simulate", "--chart", "log-t"],
         {"N": 3, "t_end": 1e-17}),
        (lambda: integrate_rbk(np.ones(3), 5e-324), ["simulate"], {"N": 3, "t_end": 5e-324}),
        (lambda: integrate_phi_to_blowup(np.ones(2)), ["blowup"], {"N": 2}),
        (lambda: integrate_phi_to_blowup(np.ones(21)), ["blowup"], {"N": 21}),
        (lambda: integrate_phi_to_blowup([1.0, 0.0, 1.0]), ["blowup"], {"N": 3, "c0": [1, 0, 1]}),
        (lambda: integrate_phi_to_blowup(np.ones(3), 0.5), ["blowup"], {"N": 3, "cap": 0.5}),
        (lambda: integrate_rbk([1.0, -1.0, 1.0], 10.0), ["simulate"], {"N": 3, "c0": [1, -1, 1]}),
        (lambda: integrate_logtime([1.0, -1.0, 1.0], 10.0), ["simulate", "--chart", "log-t"],
         {"N": 3, "c0": [1, -1, 1]}),
        (lambda: integrate_rbk(_tiny_kappa_c0(), 10.0), ["simulate"],
         {"N": 3, "c0": {"self_similar": {"kappa": 1e-320}}}),
        (lambda: integrate_phi_to_blowup([1.0, 1.0, 0.0]), ["blowup"], {"N": 3, "c0": [1, 1, 0]}),
        (lambda: integrate_phi_to_blowup([1.0, 1.0, 1e-320]), ["blowup"],
         {"N": 3, "c0": [1, 1, 1e-320]}),
    ],
    ids=["t_end-zero", "t_end-negative", "log-t-no-grid", "t-no-grid", "phi-N2", "phi-N21",
         "phi-zero-entry", "phi-low-cap", "t-negative-entry", "log-t-negative-entry",
         "t-non-finite-entry", "phi-c_N-zero", "phi-ratio-overflow"],
)
def test_each_input_rule_has_one_owner(tmp_path, capsys, call, command, doc):
    """The library driver and the command refuse the same input with the
    same message: the command exits 3, writes nothing, and prints the
    driver's ValueError."""
    with pytest.raises(ValueError) as refused:
        call()
    cfg = write_config(tmp_path, **doc)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert str(refused.value) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_blowup_refuses_an_overflowing_phi0_without_a_warning(tmp_path, capsys):
    """phi0 = c0[:-1]/c_N overflows on this c0: the command refuses it by name
    (exit 3) and numpy warns of nothing, so it exits 3 under -W error too."""
    cfg = write_config(tmp_path, N=3, c0=[1, 1, 1e-320])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["blowup", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == (
        "invalid config: phi0 must have finite entries (phi0 = c0[:-1]/c_N)\n"
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize(
    "command",
    [["simulate", "--chart", "phi", "--out", "x.csv"], ["blowup", "--out", "x.csv"],
     ["verify", "asymptotics"]],
)
def test_phi_chart_commands_refuse_a_zero_density_alike(tmp_path, capsys, command):
    cfg = write_config(tmp_path, N=3, c0=[1.0, 0.0, 1.0])
    argv = [a if a != "x.csv" else str(tmp_path / a) for a in command]
    assert main([*argv, "--config", cfg]) == 3
    assert "strictly positive initial densities" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize(
    "command",
    [["simulate", "--chart", "phi", "--out", "x.csv"], ["blowup", "--out", "x.csv"],
     ["verify", "asymptotics"]],
)
def test_phi_chart_commands_refuse_a_theorem_request_alike(tmp_path, capsys, command):
    cfg = write_config(tmp_path, N=3, cap=1e4, verify_theorem=True)
    argv = [a if a != "x.csv" else str(tmp_path / a) for a in command]
    assert main([*argv, "--config", cfg]) == 3
    assert "needs the t or log-t chart" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_identities_passes(capsys):
    assert main(["verify", "identities"]) == 0
    out = capsys.readouterr().out
    assert "PASS nu_odd closed form" in out
    assert "FAIL" not in out


def test_verify_identities_past_the_underflow_of_nu_squared_exits_2(tmp_path, capsys):
    """At t = 1e200 the dissipation identity underflows: a numerical verdict
    (exit 2) that names it, not an overflow warning (exit 1)."""
    cfg = write_config(tmp_path, N=3, t_end=1e200)
    assert main(["verify", "identities", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "PASS nu_odd closed form" in out
    assert "FAIL density dissipation identity: max rel err inf" in out


@pytest.mark.parametrize("t_end", [1e-200, 1e-300, 1e-310])
def test_verify_identities_on_tiny_spacings_fails_without_a_warning(tmp_path, capsys, t_end):
    """Spans this short run (one step each), and their grid spacings are so
    small that the dissipation differences divide by zero: that row reads inf
    and fails (exit 2), with no numpy warning (exit 1 under -W error)."""
    cfg = write_config(tmp_path, N=3, t_end=t_end)
    assert main(["verify", "identities", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "PASS nu_odd closed form" in out
    assert "FAIL density dissipation identity: max rel err inf" in out


def test_simulate_a_span_below_the_step_floor_exits_0(tmp_path):
    """t_end = 1e-310 is a valid span: its run ends on t_end."""
    cfg = write_config(tmp_path, N=3, t_end=1e-310)
    out = tmp_path / "tiny.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert (data[0, 0], data[-1, 0]) == (0.0, 1e-310)


def test_verify_support_passes(capsys):
    assert main(["verify", "support"]) == 0
    out = capsys.readouterr().out
    assert "PASS off-lattice components bitwise zero" in out


def test_verify_asymptotics_passes(capsys):
    assert main(["verify", "asymptotics"]) == 0
    assert "blowup exponents" in capsys.readouterr().out


def test_verify_asymptotics_on_a_run_too_short_to_fit(tmp_path, capsys):
    """At N = 4 with cap 1.5 the run has 2 rows up to the cap: blowup reports
    no fits, and verify asymptotics fails each law row by its row count while
    both omega rows still print and pass."""
    cfg = write_config(tmp_path, N=4, cap=1.5)
    assert main(["blowup", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
    report = json.loads((tmp_path / "b.report.json").read_text())
    assert report["fitted_laws"] is None and report["flags"]["laws_unconverged"]
    capsys.readouterr()
    assert main(["verify", "asymptotics", "--config", cfg]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("FAIL ") and line.endswith(": 2 rows up to the cap, need 3")
               for line in lines[:4])
    assert lines[4].startswith("PASS omega uncertainty: omega = 0.758286377")
    assert lines[5].startswith("PASS omega matches reference fixture")


def test_verify_asymptotics_unreadable_fixture_file_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RBK_FIXTURES", str(tmp_path / "missing.json"))
    assert main(["verify", "asymptotics"]) == 3
    assert "cannot read the fixture file" in capsys.readouterr().err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json")
    monkeypatch.setenv("RBK_FIXTURES", str(garbled))
    assert main(["verify", "asymptotics"]) == 3
    assert "invalid config" in capsys.readouterr().err
    # a readable file of the wrong shape is a rejected input too
    entry = ('{"fixtures": {"omega/N4_ones": {"inputs": {"phi0": [1, 1, 1]}, '
             '"oracle": {"omega": %s, "error_estimate": 0}, "tolerance": 1e-6}}}')
    for name, text in [("list", "[]"), ("empty_entry", '{"fixtures": {"omega/N4_ones": {}}}'),
                       ("string_omega", entry % '"0.75"'), ("zero_omega", entry % "0")]:
        shaped = tmp_path / f"{name}.json"
        shaped.write_text(text)
        monkeypatch.setenv("RBK_FIXTURES", str(shaped))
        assert main(["verify", "asymptotics"]) == 3, name
        assert "invalid config: fixture" in capsys.readouterr().err
    # a readable file without the matching entry still just omits the row
    empty = tmp_path / "empty.json"
    empty.write_text('{"fixtures": {}}')
    monkeypatch.setenv("RBK_FIXTURES", str(empty))
    assert main(["verify", "asymptotics"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "reference fixture" not in out
    assert "omega uncertainty" not in out


def test_verify_asymptotics_looks_the_fixture_up_by_the_exact_phi0(tmp_path, capsys,
                                                                   oracle_fixtures):
    """Every omega fixture is found from its own c0, not only the _ones ones,
    and both omega rows pass on each; a uniform c0 of any value finds _ones."""
    for key, fx in sorted(oracle_fixtures.items()):
        if not key.startswith("omega/"):
            continue
        inputs = fx["inputs"]
        c0 = inputs.get("c0", inputs["phi0"] + [1.0])
        main(["verify", "asymptotics", "--config", write_config(tmp_path, N=len(c0), c0=c0)])
        out = capsys.readouterr().out
        assert "PASS omega uncertainty: " in out, key
        assert "PASS omega matches reference fixture: " in out, key
    steep = write_config(tmp_path, N=4, c0=[1, 1e-6, 1, 1])
    assert main(["verify", "asymptotics", "--config", steep]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out
    assert "omega = 1.003417409 +/- " in out
    uniform = write_config(tmp_path, N=5, c0={"uniform": {"value": 2.5}})
    assert main(["verify", "asymptotics", "--config", uniform]) == 0
    assert "omega = 0.541259553 +/- " in capsys.readouterr().out


def test_verify_asymptotics_refuses_a_malformed_fixture_phi0(tmp_path, capsys, monkeypatch):
    """Every omega fixture's inputs.phi0 is checked, matching or not: one
    that is not a list of finite numbers exits 3 and names the fixture."""
    doc = harness.load_fixtures()
    for bad in (None, "1, 1, 1", [1, "1", 1], [1, True, 1]):
        doc["fixtures"]["omega/N16_random"]["inputs"]["phi0"] = bad
        shaped = tmp_path / "fixtures.json"
        shaped.write_text(json.dumps(doc))
        monkeypatch.setenv("RBK_FIXTURES", str(shaped))
        assert main(["verify", "asymptotics"]) == 3, bad
        assert "invalid config: fixture omega/N16_random: inputs.phi0" in capsys.readouterr().err


def test_verify_asymptotics_fails_when_the_bar_misses_the_fixture(tmp_path, capsys,
                                                                  monkeypatch):
    """The omega uncertainty row holds omega's error bar against the fixture:
    an oracle shifted by 1e-6 relative lies far outside it."""
    doc = harness.load_fixtures()
    cfg = write_config(tmp_path, N=4)
    fixtures = tmp_path / "fixtures.json"
    fixtures.write_text(json.dumps(doc))
    monkeypatch.setenv("RBK_FIXTURES", str(fixtures))
    assert main(["verify", "asymptotics", "--config", cfg]) == 0
    assert "PASS omega uncertainty: omega = 0.758286377 +/- " in capsys.readouterr().out
    doc["fixtures"]["omega/N4_ones"]["oracle"]["omega"] *= 1.0 + 1e-6
    fixtures.write_text(json.dumps(doc))
    assert main(["verify", "asymptotics", "--config", cfg]) == 2
    assert "FAIL omega uncertainty: omega = 0.758286377 +/- " in capsys.readouterr().out


def test_verify_unknown_suite_exits_1():
    assert main(["verify", "nonsense"]) == 1


@pytest.mark.parametrize(
    "argv",
    [["support", "--N", "9", "--m", "3"], ["identities", "--m", "1"], ["asymptotics", "--p", "4"]],
)
def test_lattice_flags_outside_theorem_constants_exit_1(capsys, argv):
    """--N, --m and --p set only the theorem-constants lattice; another suite
    refuses them rather than run its default config."""
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "apply only to verify theorem-constants" in captured.err


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


@pytest.mark.parametrize("command", [["constants"], ["verify", "theorem-constants"]])
@pytest.mark.parametrize(
    "lattice",
    [["--N", "6", "--m", "0"], ["--N", "0", "--m", "0"], ["--N", "6", "--p", "-6"],
     ["--N", "1"], ["--N", "6", "--p", "0"], ["--N", "6", "--m", "4"], ["--N", "0"]],
)
def test_lattice_arguments_rejected_alike(capsys, command, lattice):
    """The lattice rule is longtime_laws_ambient's: both commands print its
    message, with no traceback, and exit 1 (--m 0 before any p // m)."""
    flags = dict(zip(lattice[::2], map(int, lattice[1::2])))
    N = flags["--N"]
    with pytest.raises(ValueError) as refusal:
        core.longtime_laws_ambient(N, flags.get("--m", 1), flags.get("--p", N))
    assert main([*command, *lattice]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {refusal.value}\n")


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
    # each cell's report names what the integrator did on its run
    cell = manifest["cells"][-1]
    assert cell["params"]["N"] == 4 and cell["params"]["rtol"] == 1e-9
    got = json.loads((outdir / cell["report"]).read_text())["integrator"]
    stats = integrate_rbk(np.ones(4), 2.0, IntegratorSettings(rtol=1e-9)).stats
    assert (got["accepted"], got["rhs_evals"]) == (stats.accepted, stats.rhs_evals)
    assert got == dataclasses.asdict(stats)


def test_sweep_cell_matches_single_run_bitwise(tmp_path):
    base = {"c0": {"uniform": {}}, "t_end": 2.0, "verify_theorem": True}
    cfg = write_config(tmp_path, base=base, grid={"N": [3]})
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 0
    single_cfg = write_config(tmp_path, name="single.json", N=3, **base)
    single_out = tmp_path / "single.csv"
    assert main(["simulate", "--config", single_cfg, "--out", str(single_out)]) == 0
    cell_csv = outdir / "cell000" / "trajectory.csv"
    assert cell_csv.read_bytes() == single_out.read_bytes()
    # the theorem report lands beside the CSV, as simulate writes it
    cell_report = outdir / "cell000" / "trajectory.report.json"
    assert cell_report.read_bytes() == single_out.with_suffix(".report.json").read_bytes()


def test_sweep_to_1e300_runs_every_cell_and_flags_the_dissipation_identity(tmp_path):
    cfg = write_config(tmp_path, base={"N": 3, "t_end": 1e300},
                       grid={"N": [3, 16], "chart": ["t", "log-t"]})
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert [cell["status"] for cell in manifest["cells"]] == ["ok"] * 4
    for cell in manifest["cells"]:
        identities = json.loads((outdir / cell["report"]).read_text())["identities"]
        assert not identities["dissipation"]["ok"] and not identities["passed"]


def test_sweep_logtime_runs_a_t_end_below_one(tmp_path):
    cfg = write_config(tmp_path, base={"chart": "log-t", "t_end": 0.5}, grid={"N": [3]})
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert [cell["status"] for cell in manifest["cells"]] == ["ok"]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"base": 5, "grid": {"N": [3]}}, "a 'base' object and a non-empty 'grid' object"),
        ({"base": {"c0": {"uniform": {}}}, "grid": {}},
         "a 'base' object and a non-empty 'grid' object"),
        ({"grid": {"N": 3}}, "a 'base' object and a non-empty 'grid' object"),
        ({"base": {}, "grid": {"N": 3}}, "every grid entry must be a non-empty list"),
    ],
    ids=["base-not-object", "empty-grid", "no-base", "entry-not-list"],
)
def test_sweep_root_of_the_wrong_shape_exits_3(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, **doc)
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 3
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "base, grid, root",
    [
        ({"c0": {"uniform": {}}, "t_ned": 2.0}, {"N": [3]}, {}),
        ({"c0": {"uniform": {}}, "t_end": 2.0}, {"N": [3], "rtl": [1e-8]}, {}),
        ({"c0": {"uniform": {}}, "t_end": 2.0}, {"N": [3]}, {"bsae": {}}),
    ],
    ids=["base0-grid0", "base1-grid1", "root"],
)
def test_sweep_unknown_key_exits_3_before_running(tmp_path, capsys, base, grid, root):
    cfg = write_config(tmp_path, base=base, grid=grid, **root)
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 3
    assert "unknown" in capsys.readouterr().err
    assert not outdir.exists()


def test_sweep_nested_unknown_key_exits_3_before_running(tmp_path, capsys):
    cfg = write_config(tmp_path, base={"sampling": {"point_per_decade": 8}},
                       grid={"N": [3, 4]})
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 3
    assert "cell000: unknown sampling key(s)" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "base, grid, message",
    [
        # N=4 mismatches the explicit c0
        ({"c0": [1.0, 1.0, 1.0], "t_end": 2.0}, {"N": [3, 4]}, "cell001: c0 has length 3"),
        ({"chart": "phi"}, {"N": [3, 2]}, "cell001: need N in 3..20, got N=2"),
        ({"chart": "phi", "N": 3}, {"cap": [1e4, 0.5]}, "cell001: cap 0.5 must exceed phi_1(0)"),
        ({"chart": "t", "N": 3}, {"t_end": [2.0, -1]},
         "cell001: t_end must be finite and positive"),
        ({"chart": "log-t", "N": 3}, {"t_end": [0]}, "cell000: t_end must be finite and positive"),
        ({"t_end": 2.0}, {"N": [3, 10**15]}, "cell001: Unable to allocate 7.11 PiB"),
    ],
    ids=["c0-length", "phi-N", "phi-cap", "t-t_end", "log-t-t_end", "N-too-large"],
)
def test_sweep_bad_value_in_any_cell_exits_3_before_running(tmp_path, capsys, base, grid,
                                                            message):
    cfg = write_config(tmp_path, base=base, grid=grid)
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 3
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_sweep_too_short_theorem_cell_exits_3_before_running(tmp_path, capsys):
    """A cell whose sample grid has fewer than two points beyond t = 1 is
    refused up front, as simulate refuses it."""
    base = {"N": 3, "verify_theorem": True, "chart": "log-t"}
    cfg = write_config(tmp_path, base=base, grid={"t_end": [1e4, 1.0]})
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 3
    assert "cell001: verify_theorem: need samples beyond t = 1" in capsys.readouterr().err
    assert not outdir.exists()


def test_sweep_partial_failure_recorded(tmp_path):
    cfg = write_config(
        tmp_path,
        base={"N": 3, "c0": [1.0, 1.0, 1.0], "t_end": 2.0},
        grid={"max_steps": [1000, 5]},  # 5 steps cannot reach t_end -> cell fails
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
