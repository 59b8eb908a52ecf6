"""The benchmark's workloads: the rbklab commands each one runs, the inputs
generated for them from the workload seed, and the check of every output.

Inputs reach the program as JSON config files holding explicit c0 arrays
drawn here from numpy's PCG64 seeded with the workload seed; the program
never sees the seed.  The one exception is the sweep, whose grid varies N
and so cannot carry a fixed-length array: its base config uses the uniform
family with a seeded value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("grid-dense", "blowup", "longtime")


@dataclass
class Command:
    """One rbklab invocation.  `check(stdout, files)` returns the problems
    found in its outputs; `outputs` are the files and directories it writes,
    hashed after every execution to show that repeated passes agree."""

    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[str, dict[Path, bytes]], list[str]]


def read_outputs(outputs) -> dict[Path, bytes]:
    files = {}
    for path in outputs:
        if path.is_dir():
            files.update((p, p.read_bytes()) for p in sorted(path.rglob("*")) if p.is_file())
        else:
            files[path] = path.read_bytes()
    return files


def _write_config(configs: Path, name: str, doc: dict) -> str:
    path = configs / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _random_c0(rng, n: int) -> list[float]:
    return [float(v) for v in rng.uniform(0.1, 1.0, n)]


def build(workload: str, seed: int, outdir: Path, fixtures: dict) -> list[Command]:
    """Generate the inputs of `workload` for `seed` under `outdir` and return
    its commands in execution order."""
    rng = np.random.default_rng(seed)
    configs = outdir / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    make = {"grid-dense": _grid_dense, "blowup": _blowup, "longtime": _longtime}[workload]
    return make(rng, outdir, configs, fixtures)


def _grid_dense(rng, outdir, configs, fixtures) -> list[Command]:
    """t-chart runs on a 320-per-decade sample grid: every grid point clips a
    step, so grid-landed steps and 17-digit CSV rows dominate."""
    ppd, rtol = 320, 1e-9
    commands = []
    for n in (5, 20):
        c0, t_end = _random_c0(rng, n), 100.0
        config = _write_config(configs, f"random_N{n}", {
            "N": n, "c0": c0, "t_end": t_end, "rtol": rtol,
            "sampling": {"points_per_decade": ppd}, "verify_theorem": True,
        })
        csv = outdir / f"simulate_N{n}.csv"
        report = csv.with_suffix(".report.json")

        def check_simulate(stdout, files, csv=csv, report=report, c0=c0, t_end=t_end, n=n):
            table = checks.parse_csv(files[csv].decode())
            return checks.t_chart_problems(table, c0, t_end, rtol, ppd) + \
                checks.theorem_report_problems(table, json.loads(files[report]), n)

        commands.append(Command(f"simulate/random_N{n}",
                                ["simulate", "--config", config, "--out", str(csv)],
                                [csv, report], check_simulate))
        commands.append(Command(f"verify-identities/random_N{n}",
                                ["verify", "identities", "--config", config], [],
                                lambda stdout, files: checks.verdict_problems(stdout, 3)))
    for n in (3, 4, 5):
        fx = fixtures[f"adaptive_oracle/N{n}"]
        c0, t_end = fx["inputs"]["c0"], fx["inputs"]["t_end"]
        config = _write_config(configs, f"oracle_N{n}", {
            "N": n, "c0": c0, "t_end": t_end, "rtol": rtol,
            "sampling": {"points_per_decade": ppd},
        })
        csv = outdir / f"oracle_N{n}.csv"

        def check_oracle(stdout, files, csv=csv, c0=c0, t_end=t_end, fx=fx):
            table = checks.parse_csv(files[csv].decode())
            return checks.t_chart_problems(table, c0, t_end, rtol, ppd) + \
                checks.final_state_problems(table, fx["oracle"]["c_final"], fx["tolerance"])

        commands.append(Command(f"simulate/oracle_N{n}",
                                ["simulate", "--config", config, "--out", str(csv)],
                                [csv], check_oracle))
    return commands


def _omega_oracle(fixtures, n):
    """omega of phi0 = ones from the log(phi_1)-chart fixture, if there is one."""
    fx = fixtures.get(f"omega/N{n}_ones")
    return fx and {"omega": fx["oracle"]["omega"], "tolerance": fx["tolerance"]}


def _blowup(rng, outdir, configs, fixtures) -> list[Command]:
    """phi-chart runs to the cap with no sample grid and small outputs: field
    evaluation, per-step overhead, the stop test and the omega
    extrapolation dominate."""
    cap = 1e10
    commands = []
    for n in range(3, 17):
        for kind in ("uniform", "random"):
            c0 = [1.0] * n if kind == "uniform" else _random_c0(rng, n)
            phi0 = [v / c0[-1] for v in c0[:-1]]
            config = _write_config(configs, f"{kind}_N{n}", {"N": n, "c0": c0})
            csv = outdir / f"blowup_{kind}_N{n}.csv"
            report = csv.with_suffix(".report.json")
            oracle = _omega_oracle(fixtures, n) if kind == "uniform" else None

            def check_blowup(stdout, files, csv=csv, report=report, phi0=phi0, n=n, oracle=oracle):
                table = checks.parse_csv(files[csv].decode())
                return checks.blowup_csv_problems(table, phi0, cap) + \
                    checks.blowup_report_problems(json.loads(files[report]), n,
                                                  table[1][-1, 0], oracle)

            commands.append(Command(f"blowup/{kind}_N{n}",
                                    ["blowup", "--config", config, "--out", str(csv),
                                     "--cap", repr(cap)],
                                    [csv, report], check_blowup))
    for n in (3, 4, 5):
        config = _write_config(configs, f"asymptotics_N{n}", {"N": n, "c0": [1.0] * n})
        oracle = _omega_oracle(fixtures, n)

        def check_asymptotics(stdout, files, oracle=oracle):
            return checks.verdict_problems(stdout, 6) + checks.printed_omega_problems(stdout, oracle)

        commands.append(Command(f"verify-asymptotics/uniform_N{n}",
                                ["verify", "asymptotics", "--config", config], [],
                                check_asymptotics))
    return commands


def _longtime(rng, outdir, configs, fixtures) -> list[Command]:
    """Two-phase log-time runs to t = 1e8: an 8-cell sweep on the program's
    thread pool with the identity suite per cell, plus the theorem-constants
    probe in the reduced and the plain lattice."""
    t_end = 1e8
    # c0 = v * ones(N); v in [0.8, 1.25] shifts the t = 1e8 residuals by
    # well under the 0.35 threshold (log v << log t).
    value = float(rng.uniform(0.8, 1.25))
    grid = {"N": [3, 4, 5, 6], "rtol": [1e-8, 1e-9]}
    config = _write_config(configs, "sweep", {
        "base": {"chart": "log-t", "t_end": t_end, "c0": {"uniform": {"value": value}}},
        "grid": grid,
    })
    sweep_dir = outdir / "sweep"
    cells = [(n, rtol) for n in grid["N"] for rtol in grid["rtol"]]

    def check_sweep(stdout, files):
        manifest = json.loads(files[sweep_dir / "manifest.json"])
        entries = manifest["cells"]
        if len(entries) != len(cells):
            return [f"{len(entries)} sweep cells, expected {len(cells)}"]
        problems = []
        for entry, (n, rtol) in zip(entries, cells):
            if entry["status"] != "ok":
                problems.append(f"{entry['id']}: {entry.get('error')}")
                continue
            if (entry["params"]["N"], entry["params"]["rtol"]) != (n, rtol):
                problems.append(f"{entry['id']}: params {entry['params']}")
                continue
            table = checks.parse_csv(files[sweep_dir / entry["csv"]].decode())
            report = json.loads(files[sweep_dir / entry["report"]])
            problems += [f"{entry['id']}: {p}" for p in checks.longtime_csv_problems(
                table, n, rtol, t_end, report["final_state"])]
        return problems

    commands = [Command("sweep/log-t_8cells",
                        ["sweep", "--config", config, "--out", str(sweep_dir)],
                        [sweep_dir], check_sweep)]
    for n, m, verdicts in ((6, 2, 2), (4, 1, 1)):
        def check_constants(stdout, files, n=n, m=m, verdicts=verdicts):
            return checks.verdict_problems(stdout, verdicts) + \
                checks.theorem_constants_problems(stdout, n, m)

        commands.append(Command(f"verify-theorem-constants/N{n}_m{m}",
                                ["verify", "theorem-constants", "--N", str(n), "--m", str(m)],
                                [], check_constants))
    return commands


def digest(stdout: str, files: dict[Path, bytes]) -> str:
    """Fingerprint of one execution's outputs, for the repeat-pass comparison."""
    h = hashlib.sha256(stdout.encode())
    for path in sorted(files):
        h.update(str(path).encode() + b"\0" + files[path])
    return h.hexdigest()
