"""Command-line front end: simulations, blowup runs, verification suites,
constants tables, and parameter sweeps, with machine-readable outputs.

Exit codes: 0 success, 1 usage/argument error, 2 numerical failure (any
failure once the inputs were accepted), 3 invalid configuration (inputs
rejected before anything ran).  Identical configurations produce
byte-identical CSV and JSON outputs; floats are written with 17 significant
digits so the files round-trip losslessly.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import reprlib
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, core, csvtext, harness
from .core import (
    blowup_laws,
    embed_reduced,
    longtime_laws,
    longtime_laws_ambient,
    self_similar,
    support_profile,
)
from .integrate import (
    IntegrationError,
    IntegratorSettings,
    Trajectory,
    density_start,
    integrate_logtime,
    integrate_phi_to_blowup,
    integrate_rbk,
    phi_start,
    sample_grid,
)

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    """Invalid configuration document (exit code 3)."""


class UsageError(ValueError):
    """Bad command-line arguments (exit code 1)."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# the keys a run config, its sampling object and each c0 family may hold
_RUN_KEYS = ("N", "c0", "seed", "chart", "t_end", "cap", "rtol", "atol", "max_steps",
             "sampling", "verify_theorem")
_SAMPLING_KEYS = ("points_per_decade",)
_FAMILIES = {
    "monodisperse": ("value", "index"),
    "uniform": ("value",),
    "self_similar": ("alpha", "kappa"),
    "random": ("low", "high"),
}


def _build_c0(entry, N: int, seed) -> np.ndarray:
    """Initial densities from an explicit array or a named family."""
    if isinstance(entry, (list, tuple)):
        c0 = np.array([_finite(f"c0[{i}]", v) for i, v in enumerate(entry)])
        if c0.size != N:
            raise ConfigError(f"c0 has length {c0.size}, expected N={N}")
        return c0
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ConfigError("c0 must be an array or a one-key family object")
    family, params = next(iter(entry.items()))
    if family not in _FAMILIES:
        raise ConfigError(f"unknown initial-condition family {family!r}")
    params = _known(f"c0.{family}", _object(f"c0.{family}", params), _FAMILIES[family])
    if family == "monodisperse":
        value = _finite("c0.monodisperse.value", params.get("value", 1.0))
        index = _integer("monodisperse index", params.get("index", N))
        if not 1 <= index <= N:
            raise ConfigError(f"monodisperse index {reprlib.repr(index)} outside 1..{N}")
        c0 = np.zeros(N)
        c0[index - 1] = value
        return c0
    if family == "uniform":
        return np.full(N, _finite("c0.uniform.value", params.get("value", 1.0)))
    if family == "self_similar":
        alpha = _finite("c0.self_similar.alpha", params.get("alpha", 0.5))
        kappa = _finite("c0.self_similar.kappa", params.get("kappa", 1.0))
        with np.errstate(over="ignore"):  # the chart's start refuses the inf a tiny kappa gives
            return self_similar(alpha, kappa, 0.0, N)
    # random: seed-fixed uniform positive densities
    if seed is None:
        raise ConfigError("random initial conditions require a seed")
    low = _finite("c0.random.low", params.get("low", 0.1))
    high = _finite("c0.random.high", params.get("high", 1.0))
    if not 0 < low < high:
        raise ConfigError("random family requires 0 < low < high")
    return np.random.default_rng(_integer("seed", seed)).uniform(low, high, N)


def _non_finite(text):
    raise ConfigError(f"config holds the non-finite number {text}")


def _finite_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):  # 1e400 parses to inf
        _non_finite(text)
    return value


def load_config(path) -> dict:
    """Parse and validate a run configuration document.  NaN, Infinity and
    numbers beyond double range are rejected wherever they appear."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_non_finite, parse_float=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def _finite(name: str, value) -> float:
    """A finite JSON number as a float; true, "1e-9" and NaN are refused.
    The rejected value is echoed through reprlib.repr, which abbreviates a
    long one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {reprlib.repr(value)}")
    try:
        value = float(value)
    except OverflowError as exc:  # an integer beyond double range
        raise ConfigError(f"{name} must be finite, got {reprlib.repr(value)}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _integer(name: str, value) -> int:
    """An integral JSON number (3 or 3.0); 3.7, true, "3" and NaN are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {reprlib.repr(value)}")


def _object(name: str, value) -> dict:
    """A JSON object, or {} when the value is absent or null."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {reprlib.repr(value)}")
    return value


def _known(name: str, obj: dict, keys) -> dict:
    """obj, once each of its keys is one of keys: a misspelt or retired key
    must not silently run the default."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {name} key(s) {unknown}; expected some of {list(keys)}")
    return obj


def resolve_run(raw: dict) -> dict:
    """Turn a raw config document into validated driver inputs, the chart's
    own included: a command refuses a bad run before it integrates or writes.
    Each command writes the chart it runs into raw first."""
    _known("config", raw, _RUN_KEYS)
    if "N" not in raw:
        raise ConfigError("config requires an integer N")
    N = _integer("N", raw["N"])
    if N < 1:
        raise ConfigError(f"N must be a positive integer, got {N}")
    sampling = _known("sampling", _object("sampling", raw.get("sampling")), _SAMPLING_KEYS)
    points_per_decade = _integer(
        "sampling.points_per_decade", sampling.get("points_per_decade", 64)
    )
    if points_per_decade < 0:  # 0 samples every accepted step, in every chart
        raise ConfigError(f"sampling.points_per_decade must be >= 0, got {points_per_decade}")
    chart = raw.get("chart", "t")
    if chart not in ("t", "log-t", "phi"):
        raise ConfigError(f"unknown chart {chart!r}")
    t_end = _finite("t_end", raw.get("t_end", 10.0))
    cap = _finite("cap", raw.get("cap", 1e10))
    verify_theorem = raw.get("verify_theorem", False)
    if not isinstance(verify_theorem, bool):
        raise ConfigError(f"verify_theorem must be true or false, got {verify_theorem!r}")
    if verify_theorem and chart == "phi":
        raise ConfigError("long-time law verification needs the t or log-t chart")
    # the drivers' own rules in their order: a library caller builds the
    # settings first, then the driver calls phi_start, or density_start and sample_grid
    try:
        settings = IntegratorSettings(
            rtol=_finite("rtol", raw.get("rtol", 1e-9)),
            atol=_finite("atol", raw.get("atol", 1e-12)),
            max_steps=_integer("max_steps", raw.get("max_steps", 1_000_000)),
        )
        c0 = _build_c0(raw.get("c0", {"uniform": {}}), N, raw.get("seed"))
        if chart == "phi":
            phi_start(c0, cap)
        else:
            density_start(c0)
            grid = sample_grid(chart, t_end, points_per_decade)[1]
        if verify_theorem:
            profile = support_profile(c0)
            longtime_laws(profile.n_eff, profile.m)  # a support with no long-time law
            # the long-time residuals are taken on the sample grid, at least
            # two of its samples beyond t = 1
            if points_per_decade == 0:
                raise ConfigError("verify_theorem needs sampling.points_per_decade > 0")
            if (beyond := int((grid > 1.0).sum())) < 2:
                raise ConfigError(
                    f"verify_theorem: need samples beyond t = 1 (at least 2, the grid has {beyond})"
                )
    except (ValueError, MemoryError) as exc:  # MemoryError: an N too large to allocate
        raise ConfigError(str(exc)) from exc
    return {
        "c0": c0,
        "settings": settings,
        "chart": chart,
        "t_end": t_end,
        "cap": cap,
        "points_per_decade": points_per_decade,
        "verify_theorem": verify_theorem,
    }


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_atomic(path, write) -> None:
    """Run write(fh) on a temporary file beside path, then rename it onto
    path: a write that fails part-way leaves path as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name path, not the temporary beside it
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with 17-significant-digit values; header names the chart columns.

    Columns: the abscissa, the states, then the aux series in sorted name
    order.  Every value is written as '%.17g' % x (format(x, '.17g')) writes
    it, by csvtext.write_rows."""
    name = "phi" if traj.chart == "y" else "c"
    header = [traj.chart] + [f"{name}_{j}" for j in range(1, traj.dim + 1)]
    aux_names = sorted(traj.aux)
    header += aux_names
    table = np.column_stack(
        [traj.abscissae, traj.states, *(traj.aux[name] for name in aux_names)]
    )

    def write(fh):
        fh.write(",".join(header) + "\n")
        csvtext.write_rows(fh, table)

    _write_atomic(path, write)


def write_json(doc: dict, path) -> None:
    def dump(fh):
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_atomic(path, dump)


def _law_table(laws) -> dict:
    return {
        str(j): {"exponent": law.exponent, "prefactor": law.prefactor}
        for j, law in sorted(laws.items())
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _simulate_trajectory(run: dict) -> Trajectory:
    if run["chart"] == "phi":
        return integrate_phi_to_blowup(run["c0"], run["cap"], run["settings"])[0]
    driver = integrate_rbk if run["chart"] == "t" else integrate_logtime
    return driver(run["c0"], run["t_end"], run["settings"],
                  points_per_decade=run["points_per_decade"])


def _simulate_and_write(run: dict, csv_path) -> Trajectory:
    """Integrate a resolved run and write its CSV, plus the long-time residual
    report at *.report.json when the run verifies the theorem."""
    traj = _simulate_trajectory(run)
    if run["verify_theorem"]:
        # diagnosed before anything is written: a failing diagnostic leaves no file
        _, residuals = asymptotics.longtime_diagnostic(traj)
        report = {str(j): {"final_residual": float(e[-1])} for j, e in residuals.items()}
    write_trajectory_csv(traj, csv_path)
    if run["verify_theorem"]:
        write_json(report, Path(csv_path).with_suffix(".report.json"))
    return traj


def cmd_simulate(args) -> int:
    raw = load_config(args.config)
    if args.chart:
        raw["chart"] = args.chart
    _simulate_and_write(resolve_run(raw), args.out)
    return EXIT_OK


def _blowup_run(run: dict):
    """(traj, omega, uncertainty, psi_final, fits) of a resolved phi-chart
    run: the worst |psi residual| at its last row and the window fits are
    None on a run of fewer than 3 rows, too short to fit."""
    traj, omega, uncertainty = integrate_phi_to_blowup(run["c0"], run["cap"], run["settings"])
    if traj.n_samples < 3:
        return traj, omega, uncertainty, None, None
    _, psi = asymptotics.psi_diagnostic(traj)
    psi_final = max(abs(rho[-1]) for rho in psi.values())
    return traj, omega, uncertainty, psi_final, asymptotics.blowup_diagnostic(traj, omega)


def cmd_blowup(args) -> int:
    raw = load_config(args.config)
    raw["chart"] = "phi"
    if args.cap is not None:
        raw["cap"] = args.cap
    run = resolve_run(raw)
    N = run["c0"].size
    traj, omega, uncertainty, psi_final, fits = _blowup_run(run)
    report = {
        "N": N,
        "cap": run["cap"],
        "omega": omega,
        "uncertainty": uncertainty,
        "method": "log-psi-tail",
        "flags": {"laws_unconverged": True},
        "fitted_laws": None,  # stays None only on a run of fewer than 3 rows
        "theoretical_laws": _law_table(blowup_laws(N)),
        "integrator": dataclasses.asdict(traj.stats),
    }
    if fits is not None:
        report["flags"]["laws_unconverged"] = bool(psi_final >= asymptotics.PSI_RESIDUAL_TOL)
        report["fitted_laws"] = {
            str(j): {
                "exponent": f.exponent,
                "prefactor": f.prefactor,
                "residual": f.residual,
            }
            for j, f in sorted(fits.fitted.items())
        }
        report["fit_window_y"] = list(fits.window)
    # diagnosed before anything is written: a failing diagnostic leaves no file
    write_trajectory_csv(traj, args.out)
    write_json(report, Path(args.out).with_suffix(".report.json"))
    return EXIT_OK


def _emit(checks) -> int:
    ok_all = True
    for name, ok, measured in checks:
        ok_all &= bool(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {measured}")
    return EXIT_OK if ok_all else EXIT_NUMERICAL


def _identity_checks(run: dict) -> list:
    s = harness.identity_suite(_simulate_trajectory(run))
    return [
        ("nu_odd closed form", s["nu_odd"]["ok"],
         f"max rel err {s['nu_odd']['max_rel_err']:.3e} (tol {s['nu_odd']['tol']:.1e})"),
        ("c_N integrating factor", s["c_last"]["ok"],
         f"max rel err {s['c_last']['max_rel_err']:.3e} (tol {s['c_last']['tol']:.1e})"),
        ("density dissipation identity", s["dissipation"]["ok"],
         f"max rel err {s['dissipation']['max_rel_err']:.3e} (tol {s['dissipation']['tol']:.1e})"),
    ]


def _support_checks(run: dict) -> list:
    c0 = run["c0"]
    N = c0.size
    try:
        reduced, profile = core.gcd_reduce(c0)
    except ValueError as exc:  # an all-zero c0 has no support to check
        raise ConfigError(str(exc)) from exc
    traj = _simulate_trajectory(run)
    lattice = set(range(profile.m, profile.p + 1, profile.m))
    off = [j - 1 for j in range(1, N + 1) if j not in lattice]
    off_zero = bool(np.all(traj.states[:, off] == 0.0)) if off else True
    round_trip = embed_reduced(reduced, profile.m, N)
    rt_exact = bool(np.all(round_trip == c0))
    emb = embed_reduced(core.rbk_field(reduced), profile.m, N)
    commute_err = float(np.max(np.abs(core.rbk_field(round_trip) - emb)))
    return [
        ("off-lattice components bitwise zero", off_zero,
         f"lattice m={profile.m}, p={profile.p}"),
        ("reduce/embed round trip exact", rt_exact, "bitwise"),
        ("field commutes with embedding", commute_err < 1e-14,
         f"max abs defect {commute_err:.3e}"),
    ]


def _omega_fixture(phi0):
    """(omega, error_estimate, tolerance) of the first omega/ fixture, in key
    order, whose inputs.phi0 equals phi0 bitwise, or None.  The file's
    location honours RBK_FIXTURES; every omega/ entry's inputs.phi0 must be a
    list of finite numbers, and a matching entry's oracle must be valid."""
    try:
        fixtures = harness.load_fixtures()
    except (OSError, ValueError) as exc:  # unreadable or not JSON: must not drop the rows
        raise ConfigError(f"cannot read the fixture file: {exc}") from exc
    entries = _object("fixture file: fixtures", _object("fixture file", fixtures).get("fixtures"))
    match = None
    for key in sorted(entries):
        if not key.startswith("omega/"):
            continue
        where = f"fixture {key}:"
        fx = _object(where, entries[key])
        listed = _object(f"{where} inputs", fx.get("inputs")).get("phi0")
        if not isinstance(listed, list):
            raise ConfigError(f"{where} inputs.phi0 must be a list, got {reprlib.repr(listed)}")
        values = [_finite(f"{where} inputs.phi0[{i}]", v) for i, v in enumerate(listed)]
        if match is None and values == phi0.tolist():
            match = where, fx
    if match is None:
        return None
    where, fx = match
    oracle = _object(f"{where} oracle", fx.get("oracle"))
    omega = _finite(f"{where} oracle.omega", oracle.get("omega"))
    if not omega > 0:
        raise ConfigError(f"{where} oracle.omega must be positive, got {omega}")
    bar = _finite(f"{where} oracle.error_estimate", oracle.get("error_estimate"))
    return omega, bar, _finite(f"{where} tolerance", fx.get("tolerance"))


def _asymptotics_checks(run: dict) -> list:
    traj, omega, uncertainty, psi_final, rep = _blowup_run(run)
    tol = asymptotics.PSI_RESIDUAL_TOL
    names = ("blowup exponents within 5%", "blowup prefactors within 20%",
             f"psi polynomial residuals < {tol}", "ratio divergence")
    if rep is None:  # too short a run to fit: each law row fails
        oks, measured = (False,) * 4, (f"{traj.n_samples} rows up to the cap, need 3",) * 4
    else:
        laws = blowup_laws(run["c0"].size)
        exp_err = max(abs(rep.fitted[j].exponent / laws[j].exponent - 1.0) for j in rep.fitted)
        pre_err = max(abs(rep.fitted[j].prefactor / laws[j].prefactor - 1.0) for j in rep.fitted)
        _, ratios = asymptotics.ratio_divergence(traj)
        ratios_ok = all(
            np.all(np.diff(r) > 0) and r[-1] > asymptotics.RATIO_THRESHOLD for r in ratios.values()
        )
        oks = (exp_err < 0.05, pre_err < 0.20, psi_final < tol, ratios_ok)
        measured = (f"max rel err {exp_err:.3e}", f"max rel err {pre_err:.3e}",
                    f"max |rho^| {psi_final:.3e}", f"final phi_1/phi_2 = {ratios[1][-1]:.3e}")
    checks = list(zip(names, oks, measured))
    # without a fixture of this phi0 (the run's first row) there is nothing
    # to hold omega's error bar against, so neither omega row is printed
    reference = _omega_fixture(traj.states[0])
    if reference is not None:
        expected, bar, tol = reference
        # the bar must cover the error, up to the oracle's own error
        covered = abs(omega - expected) <= uncertainty + bar
        rel = abs(omega / expected - 1.0)
        checks += [
            ("omega uncertainty", covered,
             f"omega = {omega:.9f} +/- {uncertainty:.2e}"),
            ("omega matches reference fixture", rel < tol,
             f"rel dev {rel:.3e} (tol {tol:.0e})"),
        ]
    return checks


# suite name -> (checks of a resolved run, its chart, config used without --config)
_SUITES = {
    "identities": (_identity_checks, "t", {
        "N": 5, "c0": {"random": {}}, "seed": 20240809, "t_end": 100.0,
        "sampling": {"points_per_decade": 320},
    }),
    "support": (_support_checks, "t", {
        "N": 6, "c0": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0], "t_end": 100.0,
    }),
    "asymptotics": (_asymptotics_checks, "phi", {"N": 4, "c0": {"uniform": {}}}),
}


def _lattice_laws(args):
    """--N/--m/--p as (N, m, p) with the reduction and as-printed long-time
    laws of that lattice; --N defaults to 6 (under verify), --m to 1 and --p
    to N."""
    N = 6 if args.N is None else args.N
    m = 1 if args.m is None else args.m
    p = N if args.p is None else args.p
    try:
        ambient = longtime_laws_ambient(N, m, p)  # the lattice rule, before p // m
        return (N, m, p), longtime_laws(p // m, m), ambient
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# Final-residual threshold separating the matching prefactor convention from
# the rejected one; calibrated against the reduction-variant residuals (~0.08
# at t = 1e8) and the ambient-variant ones (>= 0.6) for the standard probe.
_VERDICT_THRESHOLD = 0.35


def _theorem_constants_checks(args) -> list:
    (N, m, p), reduction, ambient = _lattice_laws(args)
    print("prefactors (reduction, n_eff = p/m):",
          [reduction[j].prefactor for j in sorted(reduction)])
    print("prefactors (as-printed, ambient N): ",
          [ambient[j].prefactor for j in sorted(ambient)])

    raw = load_config(args.config) if args.config else {}
    _known("config", raw, ("t_end", "rtol", "atol", "max_steps"))
    c0 = embed_reduced(np.ones(p // m), m, N)
    run = resolve_run({"t_end": 1e8, **raw, "N": N, "c0": list(c0), "chart": "log-t",
                       "verify_theorem": True})
    traj = _simulate_trajectory(run)

    def final_decades(t, residuals):
        # max |e_j| four and two decades before t_end and at t_end
        rows = [int(np.argmin(np.abs(t - run["t_end"] * frac))) for frac in (1e-4, 1e-2, 1.0)]
        return np.abs([e[rows] for e in residuals.values()]).max(axis=0).tolist()

    red = final_decades(*asymptotics.longtime_diagnostic(traj, variant="reduction"))
    amb = final_decades(*asymptotics.longtime_diagnostic(traj, variant="ambient"))
    red_matches = red[-1] < _VERDICT_THRESHOLD and red[0] > red[1] > red[2]
    variants_differ = any(
        reduction[j].prefactor != ambient[j].prefactor for j in reduction
    )
    amb_rejected = (not variants_differ) or amb[-1] >= _VERDICT_THRESHOLD
    print(f"verdict: reduction prefactors {'MATCH' if red_matches else 'DO NOT MATCH'} "
          f"the simulation; as-printed variant "
          f"{'coincides' if not variants_differ else ('REJECTED' if amb_rejected else 'matches')}")
    checks = [
        ("reduction prefactors match simulation", red_matches,
         f"max |e_j| across decades {red[0]:.3f} > {red[1]:.3f} > {red[2]:.3f}"),
    ]
    if variants_differ:
        checks.append(
            ("as-printed prefactors rejected", amb_rejected,
             f"max |e_j| at t_end {amb[-1]:.3f} (threshold {_VERDICT_THRESHOLD})")
        )
    return checks


def cmd_verify(args) -> int:
    if args.suite == "theorem-constants":
        return _emit(_theorem_constants_checks(args))
    if (args.N, args.m, args.p) != (None, None, None):
        raise UsageError("--N, --m and --p apply only to verify theorem-constants")
    checks, chart, default = _SUITES[args.suite]
    raw = load_config(args.config) if args.config else default
    return _emit(checks(resolve_run({**raw, "chart": chart})))


def cmd_constants(args) -> int:
    (N, m, p), reduction, ambient = _lattice_laws(args)
    doc = {
        "N": N,
        "m": m,
        "p": p,
        "n_eff": p // m,
        "longtime": {
            "reduction": _law_table(reduction),
            "as_printed": _law_table(ambient),
        },
        "blowup": _law_table(blowup_laws(N)) if N >= 3 else None,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _sweep_cell(cell_id: str, raw: dict, run: dict, outdir: Path) -> dict:
    entry = {"id": cell_id, "params": raw, "status": "ok"}
    try:
        csv_path = outdir / cell_id / "trajectory.csv"
        traj = _simulate_and_write(run, csv_path)
        report = {
            "final_abscissa": traj.final_abscissa,
            "final_state": list(traj.final_state),
            "n_samples": traj.n_samples,
            "integrator": dataclasses.asdict(traj.stats),
        }
        if run["chart"] in ("t", "log-t"):
            report["identities"] = harness.identity_suite(traj)
        report_path = outdir / cell_id / "report.json"
        write_json(report, report_path)
        entry["csv"] = str(csv_path.relative_to(outdir))
        entry["report"] = str(report_path.relative_to(outdir))
    except Exception as exc:  # cell failures land in the manifest
        entry["status"] = "failed"
        entry["error"] = f"{type(exc).__name__}: {exc}"
    return entry


def cmd_sweep(args) -> int:
    raw = _known("sweep config", load_config(args.config), ("base", "grid"))
    base = raw.get("base")
    grid = raw.get("grid")
    if not isinstance(base, dict) or not isinstance(grid, dict) or not grid:
        raise ConfigError("sweep config requires a 'base' object and a non-empty 'grid' object")
    keys = sorted(grid)
    values = [grid[k] for k in keys]
    if any(not isinstance(v, list) or not v for v in values):
        raise ConfigError("every grid entry must be a non-empty list")

    # every cell is resolved before anything is written: a bad key or value
    # in any cell exits 3 and leaves no output directory
    cells = []
    for i, combo in enumerate(itertools.product(*values)):
        cell_id = f"cell{i:03d}"
        cell_raw = {**json.loads(json.dumps(base)), **dict(zip(keys, combo))}
        try:
            cells.append((cell_id, cell_raw, resolve_run(cell_raw)))
        except ConfigError as exc:
            raise ConfigError(f"{cell_id}: {exc}") from exc
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    # serial on purpose: stepping holds the interpreter lock, so threads
    # only add contention
    entries = [_sweep_cell(*cell, outdir) for cell in cells]
    write_json({"grid_keys": keys, "cells": entries}, outdir / "manifest.json")
    return EXIT_NUMERICAL if any(e["status"] != "ok" for e in entries) else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbklab",
        description="Simulation and verification lab for the finite-dimensional "
        "constant-kernel RBK coagulation system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a configuration and write a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--chart", choices=["t", "log-t", "phi"])
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("blowup", help="phi-chart blowup run with omega report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV path; report lands at *.report.json")
    p.add_argument("--cap", type=float, help="override the phi_1 cap")
    p.set_defaults(fn=cmd_blowup)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=[*_SUITES, "theorem-constants"])
    p.add_argument("--config")
    p.add_argument("--N", type=int, help="theorem-constants lattice; defaults to 6")
    p.add_argument("--m", type=int, help="defaults to 1")
    p.add_argument("--p", type=int, help="defaults to N")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("constants", help="print the asymptotic-constant tables")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, help="defaults to 1")
    p.add_argument("--p", type=int, help="defaults to N")
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("sweep", help="run a parameter grid of simulations")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, ValueError) as exc:  # anything that fails once the inputs passed
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # an output that cannot be written
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())
