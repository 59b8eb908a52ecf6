"""Field evaluations against hand-expanded values, support/reduction logic,
constants tables, closed forms, and the algebraic invariants of the fields."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rbklab.core import (
    SupportProfile,
    blowup_laws,
    embed_reduced,
    gcd_reduce,
    longtime_laws,
    longtime_laws_ambient,
    nu_odd_closed,
    phi_field,
    rbk_field,
    self_similar,
    support_profile,
)


# ---------------------------------------------------------------------------
# rbk_field
# ---------------------------------------------------------------------------


def test_rbk_field_hand_values():
    assert_allclose(rbk_field([1.0, 1.0, 1.0]), [-1.0, -2.0, -3.0], rtol=0)
    # the pair (4,1) produces a 3-cluster
    assert_allclose(rbk_field([1.0, 0.0, 0.0, 1.0]), [-2.0, 0.0, 1.0, -2.0], rtol=0)


def test_rbk_field_zero_equilibrium():
    assert np.all(rbk_field(np.zeros(5)) == 0.0)


def test_rbk_field_rejects_nonfinite():
    with pytest.raises(ValueError):
        rbk_field([1.0, np.nan])
    with pytest.raises(ValueError):
        rbk_field([np.inf, 1.0])


def test_rbk_field_single_component():
    # reduced single-cluster systems decay quadratically
    assert rbk_field([2.0]) == pytest.approx([-4.0])


# ---------------------------------------------------------------------------
# phi field
# ---------------------------------------------------------------------------


def test_phi_field_hand_values():
    assert_allclose(phi_field([1.0, 1.0]), [2.0, 1.0], rtol=0)
    assert_allclose(phi_field([1.0, 1.0, 1.0]), [3.0, 2.0, 1.0], rtol=0)
    assert_allclose(phi_field([2.0, 1.0, 1.0]), [4.0, 3.0, 2.0], rtol=0)


def test_phi_field_rejects_nonpositive():
    with pytest.raises(ValueError):
        phi_field([1.0, 0.0])
    with pytest.raises(ValueError):
        phi_field([-1.0, 1.0])


# the fields' full input checks and formulas, written out: the fields may
# skip a check only where it cannot fail
def _checked(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite components")
    return arr


def _reference_rbk_field(c):
    c = _checked(c, "c")
    n = c.size
    prod = np.zeros(n)
    prod[: n - 1] = np.correlate(c, c, mode="full")[n:]
    return prod - c * c.sum()


def _reference_phi_field(phi):
    phi = _checked(phi, "phi")
    if (phi <= 0).any():
        raise ValueError("phi chart requires strictly positive components")
    full = np.append(phi, 1.0)
    return np.correlate(full, full, mode="full")[full.size :]


_FIELDS = ((rbk_field, _reference_rbk_field), (phi_field, _reference_phi_field))


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=0, max_size=12),
    inserts=st.lists(
        st.tuples(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]),
                  st.integers(0, 12)),
        max_size=2,
    ),
)
def test_field_checks_match_the_full_checks(values, inserts):
    """Where the full checks raise, the field raises the same ValueError, and
    warns of nothing first; elsewhere it returns the formula's bits."""
    x = list(values)
    for value, pos in inserts:
        x.insert(pos % (len(x) + 1), value)
    for field, reference in _FIELDS:
        try:
            with np.errstate(all="ignore"):  # finite data may overflow
                expected = reference(x)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                field(x)
            assert str(raised.value) == str(exc)
        else:
            with np.errstate(all="ignore"):
                assert field(x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("x", [[1e200, 1e200], [1e308, 1e308, 1e308], [1e154, 1e155]])
def test_fields_of_finite_data_that_overflows_return(x):
    for field, reference in _FIELDS:
        with np.errstate(all="ignore"):
            got, expected = field(x), reference(x)
        assert not np.isfinite(got).all()
        assert got.tobytes() == expected.tobytes()


@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=10))
def test_phi_field_dominates_leading_product(values):
    """Every phi rate includes its k=1 term, so output_j >= phi_{j+1} phi_1."""
    phi = np.asarray(values)
    full = np.append(phi, 1.0)
    rates = phi_field(phi)
    assert np.all(rates >= full[1:] * phi[0])
    assert np.all(rates > 0)


# ---------------------------------------------------------------------------
# support profile and reduction
# ---------------------------------------------------------------------------


def test_support_profile_examples():
    assert support_profile([0.0, 0.5, 0.0, 0.25, 0.0, 0.0]) == SupportProfile(2, 4, 2)
    assert support_profile([1.0, 1.0, 1.0]) == SupportProfile(1, 3, 3)
    assert support_profile([0.0, 0.0, 1e-20]) == SupportProfile(3, 3, 1)
    assert support_profile([0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0]) == SupportProfile(3, 6, 2)
    assert [f.name for f in dataclasses.fields(SupportProfile)] == ["m", "p", "n_eff"]


def test_gcd_reduce_examples():
    a, b, d = 0.3, 0.7, 0.2
    reduced, profile = gcd_reduce([0.0, a, 0.0, b, 0.0, d])
    assert np.all(reduced == [a, b, d])
    assert (profile.m, profile.p) == (2, 6)

    reduced, profile = gcd_reduce([1.0, 2.0, 3.0])
    assert np.all(reduced == [1.0, 2.0, 3.0])

    reduced, profile = gcd_reduce([0.0, 0.0, 0.0, 5.0])
    assert np.all(reduced == [5.0])
    assert (profile.m, profile.p, profile.n_eff) == (4, 4, 1)


def test_embed_reduced_examples():
    assert np.all(embed_reduced([1.0, 2.0, 3.0], 2, 6) == [0, 1, 0, 2, 0, 3])
    assert np.all(embed_reduced([1.0, 2.0], 1, 2) == [1, 2])
    assert np.all(embed_reduced([7.0], 4, 4) == [0, 0, 0, 7])


def test_embed_reduced_overflow():
    with pytest.raises(ValueError, match="index overflow"):
        embed_reduced([1.0, 2.0], 3, 5)


@given(
    st.integers(1, 3),
    st.lists(st.floats(0.01, 10.0), min_size=1, max_size=5),
    st.integers(0, 3),
)
def test_reduce_embed_round_trip(m, values, extra):
    """gcd_reduce after embed_reduced restores the vector exactly whenever the
    embedded lattice really has gcd m (i.e. values[0] > 0 pins subscript m)."""
    n = m * len(values) + extra
    c = embed_reduced(values, m, n)
    profile = support_profile(c)
    reduced, _ = gcd_reduce(c)
    back = embed_reduced(reduced, profile.m, n)
    assert np.all(back == c)


def test_field_commutes_with_embedding():
    rng = np.random.default_rng(11)
    for m, n_red, N in ((2, 3, 6), (3, 2, 7), (2, 2, 5), (1, 4, 4)):
        c_red = rng.uniform(0.1, 1.0, n_red)
        c = embed_reduced(c_red, m, N)
        direct = rbk_field(c)
        embedded = embed_reduced(rbk_field(c_red), m, N)
        assert_allclose(direct, embedded, rtol=1e-14, atol=1e-30)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_longtime_laws_dimension_three():
    laws = longtime_laws(3)
    assert [laws[j].prefactor for j in (1, 2, 3)] == [1.0, 2.0, 2.0]
    assert [laws[j].exponent for j in (1, 2, 3)] == [0.0, 1.0, 2.0]


def test_longtime_laws_dimension_four():
    assert [law.prefactor for _, law in sorted(longtime_laws(4).items())] == [
        1.0, 3.0, 6.0, 6.0,
    ]


def test_longtime_laws_reduced_lattice():
    # N=6 lattice with m=2: reduction convention vs the as-printed ambient one
    reduction = longtime_laws(3, 2)
    assert sorted(reduction) == [2, 4, 6]
    assert [reduction[j].prefactor for j in (2, 4, 6)] == [1.0, 2.0, 2.0]
    assert [reduction[j].exponent for j in (2, 4, 6)] == [0.0, 1.0, 2.0]
    ambient = longtime_laws_ambient(6, 2)
    assert [ambient[j].prefactor for j in (2, 4, 6)] == [1.0, 5.0, 20.0]


def test_longtime_last_prefactor_is_factorial():
    for n in (3, 4, 5, 8):
        assert longtime_laws(n)[n].prefactor == math.factorial(n - 1)


def test_longtime_laws_rejects_single_component():
    with pytest.raises(ValueError, match="closed form"):
        longtime_laws(1)


def test_longtime_laws_factorial_guard():
    with pytest.raises(ValueError, match="factorial guard"):
        longtime_laws(21)


def test_blowup_laws_values():
    laws = blowup_laws(3)
    assert [laws[j].exponent for j in (1, 2)] == [2.0, 1.0]
    assert [laws[j].prefactor for j in (1, 2)] == [2.0, 2.0]
    laws = blowup_laws(4)
    assert [laws[j].exponent for j in (1, 2, 3)] == [1.5, 1.0, 0.5]
    assert_allclose(
        [laws[j].prefactor for j in (1, 2, 3)],
        [3**1.5 / 6.0, 1.5, math.sqrt(3.0)],
        rtol=1e-15,
    )


def test_blowup_laws_undefined_at_two():
    with pytest.raises(ValueError):
        blowup_laws(2)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_nu_odd_closed():
    assert nu_odd_closed(2.0, 0.0) == 2.0
    assert nu_odd_closed(1.0, 3.0) == 0.25
    assert nu_odd_closed(0.0, 17.0) == 0.0
    with pytest.raises(ValueError):
        nu_odd_closed(-1.0, 0.0)
    with pytest.raises(ValueError):
        nu_odd_closed(1.0, -0.5)


def test_nu_odd_closed_on_an_array_matches_the_scalar_form_bitwise():
    t = np.concatenate([[0.0], np.geomspace(1e-6, 1e300, 97)])
    for nu0 in (0.37, 2.0, np.float64(3.4869)):
        closed = nu_odd_closed(nu0, t)
        assert closed.shape == t.shape
        assert closed.tobytes() == np.array([nu_odd_closed(nu0, ti) for ti in t]).tobytes()
    assert nu_odd_closed(0.0, t).tobytes() == np.zeros_like(t).tobytes()
    with pytest.raises(ValueError):
        nu_odd_closed(1.0, np.array([0.0, 1.0, -1e-300]))


def test_self_similar_values():
    c = self_similar(0.5, 1.0, 0.0, 2)
    assert_allclose(c, [0.75, 0.375], rtol=0)
    assert self_similar(0.5, 1.0, 1.0, 1)[0] == pytest.approx(0.375)
    # t*c_j approaches the profile weights as t grows
    t = 1e12
    scaled = t * self_similar(0.5, 1.0, t, 4)
    assert_allclose(scaled, 0.75 * 0.5 ** np.arange(4), rtol=1e-11)


def test_self_similar_rejects_bad_parameters():
    for alpha, kappa in ((0.0, 1.0), (1.0, 1.0), (0.5, 0.0), (0.5, -2.0)):
        with pytest.raises(ValueError):
            self_similar(alpha, kappa, 0.0, 3)


# ---------------------------------------------------------------------------
# field invariants
# ---------------------------------------------------------------------------

nonneg_vectors = st.integers(2, 9).flatmap(
    lambda n: st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)
)


@given(nonneg_vectors)
def test_parity_closure_bitwise(values):
    """With every odd-subscript density zero, odd field components are exactly
    zero: each odd production term carries exactly one odd factor."""
    c = np.asarray(values)
    c[0::2] = 0.0
    assert np.all(rbk_field(c)[0::2] == 0.0)


@given(nonneg_vectors)
@settings(max_examples=60)
def test_nu_odd_self_consistency(values):
    """The cancellation floor is eps * nu^2, which dominates 1e-12 * nu_odd^2
    when the odd share of the density is tiny."""
    c = np.asarray(values)
    nu_odd = c[0::2].sum()  # 1-based odd subscripts sit at even offsets
    nu = nu_odd + c[1::2].sum()
    odd_rate = rbk_field(c)[0::2].sum()
    assert abs(odd_rate + nu_odd**2) <= 1e-12 * nu_odd**2 + 1e-15 * nu**2 + 1e-30


def test_nu_odd_self_consistency_random_states():
    """On balanced random states the identity holds to 1e-12 relative."""
    rng = np.random.default_rng(37)
    for _ in range(100):
        c = rng.uniform(0.1, 1.0, rng.integers(2, 10))
        nu_odd = c[0::2].sum()
        odd_rate = rbk_field(c)[0::2].sum()
        assert abs(odd_rate + nu_odd**2) <= 1e-12 * nu_odd**2


@given(nonneg_vectors)
@settings(max_examples=60)
def test_total_density_dissipation(values):
    c = np.asarray(values)
    nu = c.sum()
    expected = -(nu**2 + (c**2).sum()) / 2.0
    assert abs(rbk_field(c).sum() - expected) <= 1e-12 * max(abs(expected), 1e-30)


@given(nonneg_vectors)
def test_last_component_exact(values):
    c = np.asarray(values)
    assert rbk_field(c)[-1] == -(c[-1] * c.sum())


def test_support_lattice_closure_bitwise():
    rng = np.random.default_rng(5)
    for m, n_red, N in ((2, 3, 7), (3, 2, 8), (2, 2, 6)):
        c = embed_reduced(rng.uniform(0.1, 1.0, n_red), m, N)
        off = [j for j in range(N) if (j + 1) % m or (j + 1) > m * n_red]
        assert np.all(rbk_field(c)[off] == 0.0)


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------


def test_support_profile_validation():
    for reject in (support_profile, gcd_reduce):
        with pytest.raises(ValueError, match="empty support"):
            reject([0.0, 0.0, 0.0])
