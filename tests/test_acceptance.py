"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured value against its pinned tolerance.

Derived expected values come from the versioned oracle fixtures (Taylor-series
runs of the fields' quadratic recurrence, for final states and for blowup
points); everything else is a closed form or a pinned threshold.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import numpy as np

from rbklab.asymptotics import (
    blowup_diagnostic,
    longtime_diagnostic,
    psi_diagnostic,
)
from rbklab.cli import main
from rbklab.core import (
    blowup_laws,
    embed_reduced,
    gcd_reduce,
    nu_odd_closed,
    self_similar,
)
from rbklab.harness import self_similar_residual
from rbklab.integrate import (
    IntegratorSettings,
    integrate_logtime,
    integrate_phi_to_blowup,
    integrate_rbk,
)


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_nu_odd_closed_form():
    """nu_odd(t) = 1/(nu_odd(0)^-1 + t) for N=5 over ten seed-fixed random
    positive initial conditions, t in [0, 100], max rel err < 1e-7."""
    worst = 0.0
    for seed in range(10):
        c0 = np.random.default_rng(1000 + seed).uniform(0.1, 1.0, 5)
        traj = integrate_rbk(c0, 100.0, IntegratorSettings(rtol=1e-9))
        nu_odd = traj.states[:, 0::2].sum(axis=1)
        closed = np.array([nu_odd_closed(nu_odd[0], t) for t in traj.abscissae])
        worst = max(worst, float(np.max(np.abs(nu_odd / closed - 1.0))))
    _report(
        "criterion 1 (odd-density closed form)",
        worst < 1e-7,
        f"max rel err {worst:.3e} < 1e-7 over 10 seeds",
    )


def test_criterion_2_monodisperse_exact_decay():
    """Monodisperse c_N(t) = 1/(c_N(0)^-1 + t) matched to < 1e-7 relative over
    t in [0, 1e6] via the log-time chart."""
    traj = integrate_logtime([0.0, 0.0, 1.0], 1e6, IntegratorSettings(atol=1e-30))
    closed = 1.0 / (1.0 + traj.abscissae)
    worst = float(np.max(np.abs(traj.states[:, -1] / closed - 1.0)))
    _report(
        "criterion 2 (monodisperse exact decay)",
        worst < 1e-7,
        f"max rel err {worst:.3e} < 1e-7 over t in [0, 1e6]",
    )


def test_criterion_3_support_lattice_invariance():
    """N=6 data on {2,4,6}: odd components stay bitwise zero; the
    reduce/embed round trip is exact."""
    c0 = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    traj = integrate_rbk(c0, 100.0)
    odd_zero = bool(np.all(traj.states[:, 0::2] == 0.0))
    reduced, profile = gcd_reduce(c0)
    back = embed_reduced(reduced, profile.m, 6)
    round_trip = bool(np.all(back == c0))
    _report(
        "criterion 3 (support-lattice invariance)",
        odd_zero and round_trip,
        f"odd components bitwise zero: {odd_zero}; round trip exact: {round_trip}",
    )


def test_criterion_4_blowup_exponents(blowup_n4):
    """N=4, phi0=(1,1,1), cap=1e10: fitted exponents within 5% of
    (3/2, 1, 1/2), prefactors within 20%, residuals shrinking over the final
    two decades."""
    traj, omega, _ = blowup_n4
    rep = blowup_diagnostic(traj, omega)
    laws = blowup_laws(traj.dim + 1)
    exp_err = max(
        abs(rep.fitted[j].exponent / laws[j].exponent - 1.0)
        for j in rep.fitted
    )
    pre_err = max(
        abs(rep.fitted[j].prefactor / laws[j].prefactor - 1.0)
        for j in rep.fitted
    )
    phi1 = traj.states[:, 0]
    i_start = int(np.argmin(np.abs(phi1 - phi1[-1] / 100.0)))
    shrinking = all(
        abs(rho[-1]) < abs(rho[i_start])
        for rho in rep.residuals.values()
    )
    _report(
        "criterion 4 (blowup-law exponents)",
        exp_err < 0.05 and pre_err < 0.20 and shrinking,
        f"exponent err {exp_err:.2e} < 5%; prefactor err {pre_err:.2e} < 20%; "
        f"residuals shrinking: {shrinking}",
    )


def test_criterion_5_psi_polynomial_law(blowup_n4):
    """Same run: |rho^_j(tau_max)| < 0.1 for all j, and the j=N-1 residual
    equals psi_{N-1}(0)/tau to 1e-9."""
    traj, _, _ = blowup_n4
    tau, residuals = psi_diagnostic(traj)
    worst = max(abs(float(rho[-1])) for rho in residuals.values())
    closed_dev = float(
        np.max(np.abs(residuals[traj.dim] - traj.states[0, -1] / tau))
    )
    _report(
        "criterion 5 (psi polynomial law)",
        worst < 0.1 and closed_dev < 1e-9,
        f"max |rho^_j(tau_max)| {worst:.3e} < 0.1; "
        f"j=N-1 closed-form deviation {closed_dev:.2e} < 1e-9",
    )


def test_criterion_6_omega_consistency(oracle_fixtures):
    """At caps 1e8 and 1e10, omega_hat lies within its reported uncertainty,
    plus the oracle's own error estimate, of the omega/N{N}_ones fixture for
    N in {3,4,5}."""
    details = []
    ok = True
    for n in (3, 4, 5):
        oracle = oracle_fixtures[f"omega/N{n}_ones"]["oracle"]
        for cap in (1e8, 1e10):
            _, omega, uncertainty = integrate_phi_to_blowup(np.ones(n), cap=cap)
            error = abs(omega - oracle["omega"])
            bar = uncertainty + oracle["error_estimate"]
            ok &= error <= bar
            details.append(f"N={n}, cap {cap:.0e}: |error| {error:.2e} <= {bar:.2e}")
    _report("criterion 6 (omega estimation consistency)", ok, "; ".join(details))


def test_criterion_7_longtime_trend_suite(logtime_n3):
    """N=3, c0=(1,1,1) to t=1e8: t*c_1 in [0.8, 1.2]; |e_1| strictly
    decreasing across t in {1e4, 1e6, 1e8}; the t (log t)^2 c_3 / 2 ratio
    strictly approaches 1 and lands within 35% at 1e8."""
    traj = logtime_n3
    t, residuals = longtime_diagnostic(traj)

    def at(e, target):
        return abs(float(e[int(np.argmin(np.abs(t - target)))]))

    e1 = [at(residuals[1], target) for target in (1e4, 1e6, 1e8)]
    e3 = [at(residuals[3], target) for target in (1e4, 1e6, 1e8)]
    t_c1 = traj.final_abscissa * traj.final_state[0]
    ok = (
        0.8 < t_c1 < 1.2
        and e1[0] > e1[1] > e1[2]
        and e3[0] > e3[1] > e3[2]
        and e3[2] < 0.35
    )
    _report(
        "criterion 7 (long-time trend suite)",
        ok,
        f"t*c_1 = {t_c1:.4f} in [0.8, 1.2]; |e_1| {e1[0]:.3f} > {e1[1]:.3f} > {e1[2]:.3f}; "
        f"|e_3| {e3[0]:.3f} > {e3[1]:.3f} > {e3[2]:.3f} with final < 0.35",
    )


def test_criterion_8_constants_discrepancy_probe(capsys):
    """`verify theorem-constants --N 6 --m 2` reports the reduction-based
    prefactors (1,2,2) as matching simulation and the as-printed variant
    (1,5,20) as rejected."""
    rc = main(["verify", "theorem-constants", "--N", "6", "--m", "2"])
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = (
            rc == 0
            and "[1.0, 2.0, 2.0]" in out
            and "[1.0, 5.0, 20.0]" in out
            and "reduction prefactors MATCH" in out
            and "REJECTED" in out
        )
        _report(
            "criterion 8 (constants discrepancy probe)",
            ok,
            "reduction (1,2,2) matches, as-printed (1,5,20) rejected, exit 0",
        )


def test_criterion_9_oracle_equivalence(oracle_fixtures):
    """Adaptive integration matches the frozen Taylor-series state oracle
    within 1e-6 relative, componentwise, N in {3,4,5}, t in [0,10]."""
    details = []
    ok = True
    for n in (3, 4, 5):
        fx = oracle_fixtures[f"adaptive_oracle/N{n}"]
        traj = integrate_rbk(np.array(fx["inputs"]["c0"]), fx["inputs"]["t_end"])
        rel = float(
            np.max(np.abs(traj.final_state / np.array(fx["oracle"]["c_final"]) - 1.0))
        )
        ok &= rel < fx["tolerance"]
        details.append(f"N={n}: {rel:.2e}")
    _report(
        "criterion 9 (oracle equivalence)",
        ok,
        "max componentwise rel err " + ", ".join(details) + " (tol 1e-6)",
    )


def test_criterion_10_self_similar_oracle():
    """N=40, alpha=0.5, kappa=1, t in [0,100]: for j <= 13 the run deviates
    from the truncated self-similar profile by less than 1e-6 relative."""
    traj = integrate_rbk(self_similar(0.5, 1.0, 0.0, 40), 100.0)
    deviation = self_similar_residual(traj, 0.5, 1.0)
    j_max = max(1, traj.dim // 3)
    _report(
        "criterion 10 (self-similar truncated oracle)",
        j_max == 13 and deviation < 1e-6,
        f"max rel deviation {deviation:.3e} < 1e-6 for j <= {j_max}",
    )
