"""Domain types, vector fields, closed forms, and asymptotic constants for the
finite-dimensional Redner--Ben-Avraham--Kahng (RBK) coagulation system with
constant kernel.

The model: a j-cluster and a k-cluster react at unit rate and produce one
|j-k|-cluster.  With all densities above the cap N initially zero, the system
closes into the N-dimensional ODE

    dc_j/dt = sum_{k=1}^{N-j} c_{j+k} c_k  -  c_j * sum_{k=1}^{N} c_k,

where the production sum is empty for j = N.  Everything in this module is a
pure function of its inputs; no shared mutable state anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "MAX_LAW_DIMENSION",
    "AsymptoticLaw",
    "SupportProfile",
    "blowup_laws",
    "embed_reduced",
    "gcd_reduce",
    "lattice_spacing",
    "law_dimension",
    "longtime_laws",
    "longtime_laws_ambient",
    "nu_odd_closed",
    "phi_field",
    "rbk_field",
    "self_similar",
    "support_profile",
]

# Largest dimension N of the law tables, and so of the phi chart
MAX_LAW_DIMENSION = 20


def law_dimension(n, low: int) -> int:
    """n as an int, once it is an integer in low..MAX_LAW_DIMENSION: the range
    of the blowup laws (low 3) and of the long-time laws (low 2)."""
    if not (low <= n <= MAX_LAW_DIMENSION and n == int(n)):
        raise ValueError(f"need N in {low}..{MAX_LAW_DIMENSION}, got N={n}")
    return int(n)


def lattice_spacing(m) -> int:
    """m as an int, once it is a positive integer: the spacing of a support
    lattice, as embed_reduced, longtime_laws and longtime_laws_ambient take
    it."""
    if not (1 <= m < math.inf and m == int(m)):
        raise ValueError(f"m must be a positive integer, got {m}")
    return int(m)


def _as_vector(c, name: str = "c") -> np.ndarray:
    """Coerce to a finite 1-D float vector."""
    arr = np.asarray(c, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite components")
    return arr


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportProfile:
    """The gcd m and the sup p of the positive-support subscripts
    P = {j : c_j > 0}, and the effective dimension p/m of the reduced system."""

    m: int
    p: int
    n_eff: int


@dataclass(frozen=True)
class AsymptoticLaw:
    """An (exponent, prefactor) pair describing a power-type law."""

    exponent: float
    prefactor: float


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------


def rbk_field(c) -> np.ndarray:
    """Right-hand side of the N-dimensional constant-kernel RBK system.

    Component j (1-based) is  sum_{k=1}^{N-j} c_{j+k} c_k - c_j * nu  with
    nu = sum_k c_k; the production sum is empty for j = N, so the last
    component is exactly -c_N * nu.  c must pass _as_vector; finite data
    whose products overflow gives a non-finite field.
    """
    c = _as_vector(c)
    n = c.size
    # lag-j autocorrelation supplies the production sums for j = 1 .. N-1
    prod = np.zeros(n)
    prod[: n - 1] = np.correlate(c, c, mode="full")[n:]
    return prod - c * c.sum()


def phi_field(phi) -> np.ndarray:
    """Rate of the rescaled phi-system: phi_j' = sum_{k=1}^{N-j} phi_{j+k} phi_k
    with phi_N == 1 appended internally.

    Valid only on strictly positive data; every output component is positive
    (each sum contains the k=1 term phi_{j+1} phi_1 > 0), which is what drives
    the finite-y blowup of this chart.  phi must pass _as_vector, then the
    positivity check; finite data whose products overflow gives a non-finite
    field.
    """
    phi = _as_vector(phi, "phi")
    if (phi <= 0).any():
        raise ValueError("phi chart requires strictly positive components")
    full = np.append(phi, 1.0)
    return np.correlate(full, full, mode="full")[full.size :]


# ---------------------------------------------------------------------------
# Support lattice and reduction
# ---------------------------------------------------------------------------


def support_profile(c) -> SupportProfile:
    """Detect the positive support P = {j : c_j > 0} and its lattice.

    Meant for initial data, where no tolerance is needed: the flow and the
    integrator keep every density off the support lattice bitwise zero.
    """
    c = _as_vector(c)
    subscripts = np.nonzero(c > 0)[0] + 1
    if subscripts.size == 0:
        raise ValueError("empty support")
    m = reduce(math.gcd, subscripts.tolist())
    p = int(subscripts[-1])
    return SupportProfile(m=m, p=p, n_eff=p // m)


def gcd_reduce(c0) -> tuple[np.ndarray, SupportProfile]:
    """Reduce a lattice-supported density vector to effective dimension p/m.

    With m = gcd(P) and p = sup P, the densities on the lattice,
    c~_j := c_{jm} for j = 1..p/m, satisfy the same ODE with N replaced by
    p/m; off-lattice components vanish identically.  Returns c~ and the
    support profile.
    """
    profile = support_profile(c0)
    c0 = np.asarray(c0, dtype=float)
    return c0[profile.m - 1 : profile.p : profile.m].copy(), profile


def embed_reduced(c_reduced, m: int, N: int) -> np.ndarray:
    """Inverse of the lattice reduction: place c~_j at subscript j*m, zeros
    elsewhere.  Requires len(c~) * m <= N."""
    c_reduced = _as_vector(c_reduced, "c_reduced")
    m = lattice_spacing(m)
    if c_reduced.size * m > N:
        raise ValueError(
            f"index overflow: {c_reduced.size} components at spacing m={m} "
            f"do not fit in dimension N={N}"
        )
    out = np.zeros(int(N))
    out[m * np.arange(1, c_reduced.size + 1) - 1] = c_reduced
    return out


# ---------------------------------------------------------------------------
# Asymptotic constants
# ---------------------------------------------------------------------------


def _perm_laws(dim: int, m: int, count: int) -> dict[int, AsymptoticLaw]:
    """c_{im} ~ (dim - 1)!/(dim - i)! / (t (log t)^(i - 1)) for i = 1..count,
    with the prefactor an exact integer before it is rounded to float."""
    dim, m = int(dim), int(m)
    return {
        i * m: AsymptoticLaw(exponent=float(i - 1), prefactor=float(math.perm(dim - 1, i - 1)))
        for i in range(1, int(count) + 1)
    }


def longtime_laws(n_eff: int, m: int = 1) -> dict[int, AsymptoticLaw]:
    """Long-time laws c_j(t) ~ A~_j / (t (log t)^(j/m - 1)) on the support
    lattice, in the reduced-dimension convention.

    Keys are the ambient subscripts j = m, 2m, ..., m*n_eff; the prefactor is
    (n_eff - 1)! / (n_eff - j/m)! with n_eff = p/m the effective dimension.
    The reduction to the lattice is exact, so these are the constants the
    simulation should reproduce; see :func:`longtime_laws_ambient` for the
    alternative convention that keeps the ambient dimension.
    """
    if n_eff < 2:
        raise ValueError(
            "long-time laws need effective dimension >= 2; a single-component "
            "system decays by the exact closed form c(t) = 1/(c(0)^-1 + t)"
        )
    n_eff = law_dimension(n_eff, 2)
    return _perm_laws(n_eff, lattice_spacing(m), n_eff)


def longtime_laws_ambient(N: int, m: int = 1, p: int | None = None) -> dict[int, AsymptoticLaw]:
    """As-printed variant of the long-time prefactors, (N - 1)!/(N - j/m)!,
    keeping the ambient dimension N instead of p/m.

    The two conventions coincide when m = 1 and p = N and disagree otherwise;
    the verification suite probes numerically which one the dynamics follows.
    The lattice must be one: m a positive integer (lattice_spacing) and p
    (default N) a multiple of m with m <= p <= N.
    """
    N = law_dimension(N, 2)
    lattice_spacing(m)
    if p is None:
        p = N
    if not (m <= p <= N and p % m == 0):
        raise ValueError(
            f"inconsistent lattice: need p a multiple of the integer m with "
            f"1 <= m <= p <= N, got m={m}, p={p}, N={N}"
        )
    return _perm_laws(N, m, p // m)


def blowup_laws(N: int) -> dict[int, AsymptoticLaw]:
    """Blowup laws of the phi-chart: phi_j(y) ~ A_j / (omega - y)^alpha_j with

        alpha_j = (N - j)/(N - 2),
        A_j     = ((N-1)!/(N-2))^alpha_j / (N - j)! ,

    for j = 1 .. N-1.  Undefined at N = 2 (the exponent denominator vanishes).
    """
    N = law_dimension(N, 3)
    base = math.factorial(N - 1) / (N - 2)
    laws = {}
    for j in range(1, N):
        alpha = (N - j) / (N - 2)
        laws[j] = AsymptoticLaw(
            exponent=alpha, prefactor=base**alpha / math.factorial(N - j)
        )
    return laws


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def nu_odd_closed(nu0: float, t):
    """Exact decay of the odd-subscript density: nu_odd solves
    d(nu_odd)/dt = -nu_odd^2, hence nu_odd(t) = 1/(nu_odd(0)^-1 + t).  t is
    a time or an array of times; the result is a float or an array of t's
    shape."""
    t = np.asarray(t, dtype=float)
    if nu0 < 0 or (t < 0).any():
        raise ValueError("nu_odd_closed requires nonnegative arguments")
    out = np.zeros_like(t) if nu0 == 0 else 1.0 / (1.0 / nu0 + t)
    return float(out) if out.ndim == 0 else out


def self_similar(alpha: float, kappa: float, t: float, N: int) -> np.ndarray:
    """Truncation to j = 1..N of the self-similar family of the infinite
    system, c_j(t) = (kappa + t)^-1 (1 - alpha^2) alpha^(j-1).

    Exact only for the infinite system; the truncation is an approximate
    oracle with residual controlled by alpha^N.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if int(N) != N or N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    j = np.arange(1, int(N) + 1)
    return (1.0 - alpha * alpha) * alpha ** (j - 1.0) / (kappa + t)
