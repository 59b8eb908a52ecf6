"""Correctness checks for the outputs of rbklab commands.

Each check takes an output as the program wrote it (a CSV table from
`parse_csv`, a parsed JSON report, captured stdout) plus the inputs the
benchmark generated, and returns
a list of problems; an empty list means the output passed.  The expected
values come from computations made here, apart from the adaptive
integrator: closed forms, the asymptotic constants written out from their
formulas, the frozen RK4 oracle fixtures, and invariants the method must
keep.  Nothing is compared with a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import re

import numpy as np

# The phi_{N-1} - tau invariant is kept to rounding (<= 1.1e-15 relative at
# N = 3..16); 1e-12 leaves headroom for step-count changes and still rejects a
# 1e-6 perturbation of either column by six orders of magnitude.
INVARIANT_TOL = 1e-12
# Long-time prefactor verdict threshold of `verify theorem-constants`.
PREFACTOR_TOL = 0.35
BLOWUP_EXPONENT_TOL = 0.05


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and rows of a trajectory CSV, parsed with Python's float so
    that 17-digit values round-trip exactly."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def _header_problems(header, expected) -> list[str]:
    if header != expected:
        return [f"header {header[:4]}... != expected {expected[:4]}..."]
    return []


def _increasing(name, x) -> list[str]:
    if x.size > 1 and not np.all(np.diff(x) > 0):
        return [f"{name} not strictly increasing"]
    return []


def t_grid(t_end: float, points_per_decade: int, decades: float) -> np.ndarray:
    """The geometric sample grid a t-chart run must land on exactly:
    log-uniform over the trailing `decades` decades of [0, t_end]."""
    lo = t_end * 10.0 ** (-decades)
    n = max(2, int(round(math.log10(t_end / lo) * points_per_decade)) + 1)
    return np.geomspace(lo, t_end, n)


def nu_odd_problems(t, c, rtol) -> list[str]:
    """nu_odd = sum of odd-subscript densities solves nu' = -nu^2, so
    nu_odd(t) = 1/(1/nu_odd(0) + t); required within 100*rtol everywhere."""
    nu_odd = c[:, 0::2].sum(axis=1)
    closed = 1.0 / (1.0 / nu_odd[0] + t)
    err = float(np.max(np.abs(nu_odd - closed) / closed))
    if not err <= 100.0 * rtol:
        return [f"nu_odd closed form off by {err:.3e} > {100.0 * rtol:.1e}"]
    return []


def longtime_residuals(t: float, c_row, n_eff: int) -> np.ndarray:
    """e_j = c_j t (log t)^(j-1) / A_j - 1 with A_j = (n_eff-1)!/(n_eff-j)!
    for data supported on every subscript 1..n_eff."""
    j = np.arange(1, n_eff + 1)
    prefactor = np.array([float(math.perm(n_eff - 1, k - 1)) for k in j])
    return c_row * t * math.log(t) ** (j - 1.0) / prefactor - 1.0


def t_chart_problems(table, c0, t_end, rtol, points_per_decade, decades=6.0) -> list[str]:
    """A t-chart CSV: starts at (0, c0), ends at t_end, lands on every grid
    point, keeps densities nonnegative and the nu_odd closed form."""
    header, data = table
    n = len(c0)
    problems = _header_problems(
        header, ["t"] + [f"c_{j}" for j in range(1, n + 1)] + ["nu_int", "tau", "y"]
    )
    if problems:
        return problems
    t, c = data[:, 0], data[:, 1 : n + 1]
    if t[0] != 0.0 or not np.array_equal(c[0], np.asarray(c0, dtype=float)):
        problems.append("first row is not (0, c0)")
    if t[-1] != t_end:
        problems.append(f"last t {t[-1]!r} != t_end {t_end!r}")
    problems += _increasing("t", t)
    missing = np.setdiff1d(t_grid(t_end, points_per_decade, decades), t)
    if missing.size:
        problems.append(f"{missing.size} grid points missing, first at t={float(missing[0])!r}")
    if np.any(c < 0):
        problems.append("negative density")
    return problems + nu_odd_problems(t, c, rtol)


def final_state_problems(table, c_final, tolerance) -> list[str]:
    """Final state against the RK4 + Richardson oracle, componentwise."""
    _, data = table
    n = len(c_final)
    rel = float(np.max(np.abs(data[-1, 1 : n + 1] / np.asarray(c_final) - 1.0)))
    if not rel < tolerance:
        return [f"final state off the oracle by {rel:.3e} (tol {tolerance:.0e})"]
    return []


def theorem_report_problems(table, report, n) -> list[str]:
    """The simulate report's final long-time residuals against the ones
    computed here from the CSV's last row."""
    _, data = table
    expected = longtime_residuals(data[-1, 0], data[-1, 1 : n + 1], n)
    if sorted(report, key=int) != [str(j) for j in range(1, n + 1)]:
        return [f"report keys {sorted(report)} do not cover j = 1..{n}"]
    got = np.array([report[str(j)]["final_residual"] for j in range(1, n + 1)])
    dev = float(np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))))
    if not dev <= 1e-12:
        return [f"reported long-time residuals off by {dev:.3e}"]
    return []


def blowup_csv_problems(table, phi0, cap) -> list[str]:
    """A phi-chart CSV: starts at (0, phi0), every component increases
    strictly, phi_1 reaches the cap, and phi_{N-1} - tau keeps its initial
    value to rounding (both have rate phi_1, so the difference is exact)."""
    header, data = table
    n1 = len(phi0)
    problems = _header_problems(
        header, ["y"] + [f"phi_{j}" for j in range(1, n1 + 1)] + ["tau"]
    )
    if problems:
        return problems
    y, phi, tau = data[:, 0], data[:, 1 : n1 + 1], data[:, n1 + 1]
    if y[0] != 0.0 or tau[0] != 0.0 or not np.array_equal(phi[0], np.asarray(phi0)):
        problems.append("first row is not (0, phi0, 0)")
    problems += _increasing("y", y)
    if np.any(np.diff(phi, axis=0) <= 0):
        problems.append("a phi component fails to increase strictly")
    if not phi[-1, 0] >= cap:
        problems.append(f"phi_1 ends at {phi[-1, 0]:.6g} below the cap {cap:.6g}")
    last = phi[:, -1]
    scale = np.maximum(np.abs(last), np.abs(tau))
    dev = float(np.max(np.abs(last - tau - last[0]) / scale))
    if not dev <= INVARIANT_TOL:
        problems.append(f"phi_{n1} - tau drifts by {dev:.3e} relative")
    return problems


def blowup_report_problems(report, n, last_y, omega_oracle=None) -> list[str]:
    """The blowup report: omega beyond the last y, the theoretical exponents
    (N-j)/(N-2), the fitted ones within 5% for N <= 6, and omega against the
    independent log(phi_1)-chart oracle when one exists."""
    problems = []
    omega = report["omega"]
    if report["N"] != n:
        problems.append(f"report N {report['N']} != {n}")
    if not (math.isfinite(omega) and omega > last_y):
        problems.append(f"omega {omega!r} does not exceed the last y {last_y!r}")
    theory = {j: (n - j) / (n - 2) for j in range(1, n)}
    got = report["theoretical_laws"]
    if {int(j): law["exponent"] for j, law in got.items()} != theory:
        problems.append("theoretical exponents differ from (N-j)/(N-2)")
    if n <= 6:
        fitted = report["fitted_laws"] or {}
        if sorted(int(j) for j in fitted) != list(theory):
            problems.append("fitted laws missing")
        else:
            err = max(abs(fitted[str(j)]["exponent"] / a - 1.0) for j, a in theory.items())
            if not err < BLOWUP_EXPONENT_TOL:
                problems.append(f"fitted exponents off by {err:.3e}")
    if omega_oracle is not None:
        rel = abs(omega / omega_oracle["omega"] - 1.0)
        if not rel < omega_oracle["tolerance"]:
            problems.append(f"omega off the oracle by {rel:.3e}")
    return problems


def verdict_problems(stdout: str, passes: int) -> list[str]:
    """A verify suite prints one PASS or FAIL line per criterion."""
    lines = [s for s in stdout.splitlines() if s.startswith(("PASS ", "FAIL "))]
    problems = [f"failed: {s}" for s in lines if s.startswith("FAIL ")]
    if len(lines) != passes:
        problems.append(f"{len(lines)} verdict lines, expected {passes}")
    return problems


def printed_omega_problems(stdout: str, omega_oracle) -> list[str]:
    """`verify asymptotics` prints omega to 9 decimals; compare it with the
    oracle, allowing the half unit of the last printed digit."""
    match = re.search(r"omega = ([0-9.]+) \+/-", stdout)
    if match is None:
        return ["no omega line"]
    omega, ref = float(match.group(1)), omega_oracle["omega"]
    if not abs(omega - ref) <= omega_oracle["tolerance"] * ref + 5e-10:
        return [f"printed omega {omega!r} off the oracle {ref!r}"]
    return []


def theorem_constants_problems(stdout: str, n: int, m: int) -> list[str]:
    """`verify theorem-constants`: the printed prefactor tables against
    (n_eff-1)!/(n_eff-i)! and (N-1)!/(N-i)!, the MATCH verdict, and the final
    residual below the verdict threshold."""
    n_eff = n // m
    reduction = [float(math.perm(n_eff - 1, i - 1)) for i in range(1, n_eff + 1)]
    ambient = [float(math.perm(n - 1, i - 1)) for i in range(1, n_eff + 1)]
    problems = []
    for label, want in (("reduction", reduction), ("as-printed", ambient)):
        match = re.search(rf"prefactors \({label}[^)]*\):\s*\[([^\]]*)\]", stdout)
        got = [float(v) for v in match.group(1).split(",")] if match else None
        if got != want:
            problems.append(f"{label} prefactors {got} != {want}")
    if "verdict: reduction prefactors MATCH" not in stdout:
        problems.append("reduction prefactors not matched")
    match = re.search(r"across decades ([0-9.]+) > ([0-9.]+) > ([0-9.]+)", stdout)
    if match is None or not float(match.group(3)) < PREFACTOR_TOL:
        problems.append("final long-time residual not below the threshold")
    return problems


def longtime_csv_problems(table, n, rtol, t_end, final_state) -> list[str]:
    """A log-t sweep cell: ends at t_end in the reported final state, keeps
    the nu_odd closed form and nonnegative densities, and its last row is
    within the verdict threshold of the long-time laws
    c_j ~ A_j / (t (log t)^(j-1))."""
    header, data = table
    problems = _header_problems(
        header, ["t"] + [f"c_{j}" for j in range(1, n + 1)] + ["nu_int", "tau", "y"]
    )
    if problems:
        return problems
    t, c = data[:, 0], data[:, 1 : n + 1]
    problems += _increasing("t", t)
    if not abs(t[-1] / t_end - 1.0) <= 1e-12:
        problems.append(f"last t {t[-1]!r} != t_end {t_end!r}")
    if c[-1].tolist() != final_state:
        problems.append("reported final state differs from the last row")
    if np.any(c < 0):
        problems.append("negative density")
    worst = float(np.max(np.abs(longtime_residuals(t[-1], c[-1], n))))
    if not worst < PREFACTOR_TOL:
        problems.append(f"long-time residual {worst:.3f} >= {PREFACTOR_TOL}")
    return problems + nu_odd_problems(t, c, rtol)
