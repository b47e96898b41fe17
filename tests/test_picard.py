import copy
import pickle
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellcover import picard
from ellcover.errors import InvalidInvariants, ParityViolation
from ellcover.invariants import Placement, _integers
from ellcover.picard import (
    DivisorClass,
    TauInvariantClass,
    adjunction_genus,
    canonical_class,
    cover_class,
    exceptional_class,
    fiber_class,
    intersect,
    is_exceptional_first_kind,
    nls_sg_class,
    parity_exceptional_index,
    r_class,
    s_class,
    section_class,
    tilde_genus,
)

coeffs = st.integers(min_value=-9, max_value=9)
classes = st.builds(
    DivisorClass,
    coeffs,
    coeffs,
    st.tuples(coeffs, coeffs, coeffs, coeffs),
    st.tuples(coeffs, coeffs, coeffs, coeffs),
)


# -- intersection form ---------------------------------------------------------


def test_basis_intersections():
    assert intersect(section_class(), fiber_class()) == 1
    assert section_class().self_intersection == 0
    assert fiber_class().self_intersection == 0
    for i in range(4):
        assert s_class(i).self_intersection == -1
        assert r_class(i).self_intersection == -1
        assert intersect(s_class(i), r_class(i)) == 0
        assert intersect(section_class(), s_class(i)) == 0
        assert intersect(fiber_class(), r_class(i)) == 0
    assert intersect(s_class(0), s_class(1)) == 0


def test_cover_class_degree_recovered_from_fiber_pairing():
    d = cover_class(3, 1, 1, (2, 1, 1, 1))
    assert intersect(d, fiber_class()) == 3


@given(classes, classes)
def test_intersect_is_symmetric(d, e):
    assert intersect(d, e) == intersect(e, d)


@given(classes, classes, classes, st.integers(-4, 4), st.integers(-4, 4))
def test_intersect_is_bilinear(d, e, f, x, y):
    lhs = intersect(x * d + y * e, f)
    assert lhs == x * intersect(d, f) + y * intersect(e, f)


# -- canonical class -----------------------------------------------------------


def test_canonical_class_pairings():
    k = canonical_class()
    assert intersect(k, fiber_class()) == -2
    for i in range(4):
        assert intersect(k, s_class(i)) == -1
        assert intersect(k, r_class(i)) == -1
    # expansion oracle: (-2C)^2 = 0, cross terms vanish, eight (+1)^2*(-1) remain
    assert k.self_intersection == -8


def test_adjunction_genus_of_basis_curves():
    assert adjunction_genus(section_class()) == 1  # elliptic zero-section
    assert adjunction_genus(s_class(0)) == 0  # exceptional rational curve
    assert adjunction_genus(fiber_class()) == 0


# -- cover classes ---------------------------------------------------------------


def test_cover_class_coefficients_and_square():
    d = cover_class(3, 1, 1, (2, 1, 1, 1))
    assert d.coefficients() == (3, 1, -1, 0, 0, 0, -2, -1, -1, -1)
    assert d.self_intersection == 2 * 3 * 1 - 1 - 7 == -2


def test_cover_class_square_small_example():
    d = cover_class(1, 1, 1, (0, 1, 1, 1))
    assert d.self_intersection == 2 - 1 - 3 == -2


def test_cover_class_rejects_bad_invariants():
    with pytest.raises(InvalidInvariants):
        cover_class(3, 1, 2, (2, 1, 1, 1))  # even rho
    with pytest.raises(InvalidInvariants):
        cover_class(3, 1, 3, (2, 1, 1, 1))  # rho > 2d-1
    with pytest.raises(InvalidInvariants):
        cover_class(0, 1, 1, (0, 1, 1, 1))
    with pytest.raises(InvalidInvariants):
        cover_class(3, 1, 1, (-1, 1, 1, 1))


def test_adjunction_genus_of_cover_class():
    d = cover_class(3, 1, 1, (2, 1, 1, 1))
    assert adjunction_genus(d) == 2  # equals (gamma1 - 1)/2


def test_divided_by_checks_integrality():
    d = 3 * cover_class(3, 1, 1, (2, 1, 1, 1))
    assert d.divided_by(3) == cover_class(3, 1, 1, (2, 1, 1, 1))
    with pytest.raises(InvalidInvariants):
        d.divided_by(2)


@pytest.mark.parametrize("call", [
    lambda d: d.divided_by(1.5),
    lambda d: d.divided_by(0),
    lambda d: d.divided_by(-3),
    lambda d: nls_sg_class(0, Placement.DISTINCT_GENERIC, (0, 0, 0, 0)),
    lambda d: exceptional_class((1, 0, -1, 0)),
    lambda d: cover_class(3, 0, 1, (2, 1, 1, 1)),
    lambda d: cover_class(3, 1, -1, (2, 1, 1, 1)),
], ids=["divided-half", "divided-0", "divided-neg", "nls-sg-n-0", "exceptional-neg",
        "cover-d-0", "cover-rho-neg"])
def test_integer_inputs_below_their_floor_raise(call):
    with pytest.raises(InvalidInvariants):
        call(3 * cover_class(3, 1, 1, (2, 1, 1, 1)))


# -- descended genus -------------------------------------------------------------


def test_tilde_genus_examples():
    assert tilde_genus(cover_class(3, 1, 1, (2, 1, 1, 1))) == 0
    assert tilde_genus(cover_class(13, 2, 1, (0, 5, 5, 5))) == 0


def test_tilde_genus_closed_form():
    for (n, d, rho, gam) in [
        (3, 1, 1, (2, 1, 1, 1)),
        (13, 2, 1, (0, 5, 5, 5)),
        (5, 2, 3, (0, 3, 1, 1)),
        (8, 3, 1, (1, 2, 2, 4)),
    ]:
        g2 = sum(x * x for x in gam)
        want = Fraction((2 * d - 1) * (2 * n - 2) + 4 - rho * rho - g2, 4)
        assert tilde_genus(cover_class(n, d, rho, gam)) == want


def test_tilde_genus_parity_violation():
    # odd self-intersection: not a pullback from the quotient
    bad = cover_class(3, 1, 1, (1, 1, 1, 1))
    assert bad.self_intersection % 2 == 1
    with pytest.raises(ParityViolation):
        tilde_genus(bad)


def test_tau_invariant_wrapper_halves_pairings():
    d = cover_class(3, 1, 1, (2, 1, 1, 1))
    t = TauInvariantClass(d)
    assert 2 * t.quotient_self_intersection == d.self_intersection
    assert 2 * t.quotient_canonical_pairing == intersect(d, DivisorClass(-2, 0))


# -- two-marked-point classes -----------------------------------------------------


def test_nls_class_boundary_case():
    d = nls_sg_class(4, Placement.DISTINCT_GENERIC, (2, 2, 2, 2))
    assert d.self_intersection == 0
    assert tilde_genus(d) == 0


def test_nls_same_point_negative_genus_flags_inadmissible():
    d = nls_sg_class(4, Placement.SAME_PROJECTION, (2, 2, 2, 2), (0,))
    assert tilde_genus(d) == -1


def test_sg_distinct_half_periods_parity_and_class():
    d = nls_sg_class(3, Placement.DISTINCT_HALF_PERIODS, (2, 2, 3, 3), (0, 1))
    assert d.coefficients() == (3, 2, -1, -1, 0, 0, -2, -2, -3, -3)
    with pytest.raises(ParityViolation):
        nls_sg_class(3, Placement.DISTINCT_HALF_PERIODS, (2, 2, 3, 2), (0, 1))
    with pytest.raises(ParityViolation):
        nls_sg_class(4, Placement.DISTINCT_GENERIC, (2, 1, 2, 2))


def test_nls_genus_formula_matches_placement():
    # generic distinct points: g~ = (4n - gamma2)/4
    for n, gam in [(4, (2, 2, 2, 2)), (5, (1, 1, 1, 3)), (6, (2, 2, 2, 2))]:
        d = nls_sg_class(n, Placement.DISTINCT_GENERIC, gam)
        g2 = sum(x * x for x in gam)
        assert tilde_genus(d) == Fraction(4 * n - g2, 4)
    # same half-period: g~ = (4n - 4 - gamma2)/4
    d = nls_sg_class(6, Placement.SAME_PROJECTION, (2, 0, 0, 4), (2,))
    assert tilde_genus(d) == Fraction(24 - 4 - 20, 4)
    # two half-periods: g~ = (4n - 2 - gamma2)/4
    d = nls_sg_class(3, Placement.DISTINCT_HALF_PERIODS, (2, 2, 3, 3), (0, 1))
    assert tilde_genus(d) == Fraction(12 - 2 - 26, 4)


# -- exceptional curves -----------------------------------------------------------


def test_exceptional_class_rank_zero_example():
    d = exceptional_class((1, 0, 0, 0))
    assert d.a == 0 and d.b == 1
    assert d.self_intersection == -2
    assert is_exceptional_first_kind(d)


def test_exceptional_class_distinguished_index_and_degree():
    d = exceptional_class((2, 1, 1, 1))
    assert d.a == 3  # 2n + 1 = 7
    assert d.s == (-1, 0, 0, 0)
    assert d.dot(DivisorClass(-2, 0)) == -2


def test_exceptional_class_parity_violation():
    with pytest.raises(ParityViolation):
        exceptional_class((1, 1, 0, 0))
    with pytest.raises(ParityViolation):
        exceptional_class((2, 2, 2, 2))


def test_parity_exceptional_index():
    assert parity_exceptional_index((2, 1, 1, 1)) == 0
    assert parity_exceptional_index((1, 2, 1, 1)) == 1
    assert parity_exceptional_index((1, 0, 0, 0)) == 0
    assert parity_exceptional_index((0, 1, 1, 1)) == 0


@given(st.tuples(*(st.integers(0, 6),) * 4))
def test_exceptional_classes_have_square_minus_one_downstairs(alpha):
    sq = sum(x * x for x in alpha)
    odd = [i for i in range(4) if alpha[i] % 2]
    if sq % 2 == 1 and len(odd) in (1, 3):
        d = exceptional_class(alpha)
        assert is_exceptional_first_kind(d)
        t = TauInvariantClass(d)
        assert t.quotient_self_intersection == -1
        assert t.quotient_canonical_pairing == -1
    else:
        with pytest.raises(ParityViolation):
            exceptional_class(alpha)


# -- data plumbing -----------------------------------------------------------------


def test_from_coefficients_roundtrip():
    d = cover_class(5, 2, 3, (1, 2, 0, 4))
    assert DivisorClass.from_coefficients(d.coefficients()) == d
    with pytest.raises(InvalidInvariants):
        DivisorClass.from_coefficients((1, 2, 3))


def test_class_arithmetic():
    d = section_class() + 2 * fiber_class() - s_class(1)
    assert d.coefficients() == (1, 2, 0, -1, 0, 0, 0, 0, 0, 0)
    assert (-d).coefficients() == (-1, -2, 0, 1, 0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("other", [1, 0, (1, 2), None])
def test_class_arithmetic_with_a_non_class_is_a_type_error(other):
    d = section_class()
    for combine in (lambda: d + other, lambda: other + d, lambda: d - other,
                    lambda: other - d, lambda: d * 2):
        with pytest.raises(TypeError):
            combine()


@given(classes)
def test_adjunction_genus_pairs_with_the_canonical_class(d):
    assert adjunction_genus(d) == Fraction(2 + d.self_intersection + d.dot(canonical_class()), 2)


# integers as callers pass them: each kind converts an int, bool only 0 and 1
KINDS = (int, np.int64, np.int32, float, bool)


def _as(kind, values):
    return [kind(x) if kind is not bool or x in (0, 1) else x for x in values]


def _matches_checked(c, coeffs):
    """c equals the checked DivisorClass of coeffs in every observable way."""
    checked = DivisorClass(coeffs[0], coeffs[1], coeffs[2:6], coeffs[6:])
    assert c == checked and hash(c) == hash(checked) and repr(c) == repr(checked)
    assert pickle.loads(pickle.dumps(c)) == c and copy.deepcopy(c) == c
    assert type(c.s) is tuple and type(c.r) is tuple
    assert all(type(x) is int for x in c.coefficients())


@pytest.mark.parametrize("kind", KINDS)
def test_derived_classes_match_checked_ones(kind):
    for n, d, rho, gamma in product((1, 2, 5), (1, 2), (1, 3), ((0, 0, 0, 0), (2, 1, 0, 3))):
        if rho <= 2 * d - 1:
            n_, d_, rho_, *gamma_ = _as(kind, (n, d, rho, *gamma))
            _matches_checked(cover_class(n_, d_, rho_, gamma_),
                             (n, 2 * d - 1, -rho, 0, 0, 0, *(-x for x in gamma)))
    for n, placement, gamma, indices, s in (
        (4, Placement.DISTINCT_GENERIC, (2, 2, 0, 0), (), (0, 0, 0, 0)),
        (4, Placement.SAME_PROJECTION, (2, 0, 2, 2), (1,), (0, -2, 0, 0)),
        (3, Placement.DISTINCT_HALF_PERIODS, (1, 0, 2, 1), (2, 1), (0, -1, -1, 0)),
    ):
        n_, *gamma_ = _as(kind, (n, *gamma))
        _matches_checked(nls_sg_class(n_, placement, gamma_, indices),
                         (n, 2, *s, *(-x for x in gamma)))
    for alpha, coeffs in (((1, 0, 0, 0), (0, 1, -1, 0, 0, 0, -1, 0, 0, 0)),
                          ((2, 1, 0, 0), (2, 1, 0, -1, 0, 0, -2, -1, 0, 0)),
                          ((1, 1, 1, 0), (1, 1, 0, 0, 0, -1, -1, -1, -1, 0))):
        _matches_checked(exceptional_class(_as(kind, alpha)), coeffs)
    coeffs = (2, 4, -2, 0, 6, 0, 0, -4, 2, 0)
    e = DivisorClass.from_coefficients(_as(kind, coeffs))
    _matches_checked(e, coeffs)
    f = cover_class(3, 1, 1, (2, 1, 1, 1))
    fc = f.coefficients()
    (m,) = _as(kind, (2,))
    (k,) = _as(kind, (1,) if kind is bool else (-3,))
    _matches_checked(e.divided_by(m), tuple(x // 2 for x in coeffs))
    _matches_checked(e + f, tuple(x + y for x, y in zip(coeffs, fc)))
    _matches_checked(e - f, tuple(x - y for x, y in zip(coeffs, fc)))
    _matches_checked(-e, tuple(-x for x in coeffs))
    _matches_checked(k * e, tuple(k * x for x in coeffs))


def test_each_input_is_checked_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return _integers(*args, **kwargs)

    monkeypatch.setattr(picard, "_integers", counting)
    d = cover_class(3, 1, 1, (2, 1, 1, 1))
    assert calls == ["n, d, rho", "gamma"]
    for build, names in (
        (lambda: DivisorClass.from_coefficients(range(10)), ["coefficients"]),
        (lambda: nls_sg_class(4, Placement.DISTINCT_GENERIC, (2, 2, 2, 2)), ["n", "gamma"]),
        (lambda: exceptional_class((2, 1, 0, 0)), ["alpha"]),
        (lambda: (2 * d).divided_by(2), ["k", "m"]),
        (lambda: d + d - d, []),
        (lambda: -d, []),
    ):
        calls.clear()
        build()
        assert calls == names


def test_bad_input_fails_loudly():
    d = cover_class(3, 1, 1, (2, 1, 1, 1))  # odd coefficients, so 2.5 * d is not integral
    for build in (
        lambda: s_class(7),
        lambda: r_class(-1),
        lambda: s_class(1.5),
        lambda: DivisorClass(1.7, 0, (1.5, 0, 0, 0)),
        lambda: DivisorClass(0, 0, (0, 0, 0)),
        lambda: DivisorClass.from_coefficients([1.9] * 10),
        lambda: 2.5 * d,
        lambda: cover_class(3, 1.5, 1, (2, 1, 1, 1)),
        lambda: cover_class(3, 1, 1, (2, 1.5, 1, 1)),
        lambda: nls_sg_class(4.5, Placement.DISTINCT_GENERIC, (2, 2, 2, 2)),
        lambda: exceptional_class((1.5, 0, 0, 0)),
    ):
        with pytest.raises(InvalidInvariants):
            build()
    # integers, numpy integers, bools and integral floats are stored as ints
    e = DivisorClass(np.int64(3), True, (np.int32(-1), 0, 0, 0), (-2.0, -1, -1, -1))
    assert e == d and hash(e) == hash(d) and repr(e) == repr(d)
    assert all(type(c) is int for c in e.coefficients())
    assert np.int64(2) * d == d + d and True * d == d
    assert s_class(np.int64(2)) == s_class(2) and r_class(True) == r_class(1)
    assert repr(s_class(2)) == "DivisorClass(a=0, b=0, s=(0, 0, 1, 0), r=(0, 0, 0, 0))"


def test_divisor_class_public_shape():
    d = DivisorClass(0, 0, (0, 0, 1, 0))
    assert repr(d) == "DivisorClass(a=0, b=0, s=(0, 0, 1, 0), r=(0, 0, 0, 0))"
    same = DivisorClass(0.0, False, [0, 0, True, 0])
    assert d == same and hash(d) == hash(same) == hash((0, 0, (0, 0, 1, 0), (0, 0, 0, 0)))
    assert d != r_class(2) and d != d.coefficients() and d.coefficients() != d
    for field in ("a", "s"):
        with pytest.raises(AttributeError):
            setattr(d, field, 1)
        with pytest.raises(AttributeError):
            delattr(d, field)
    assert not hasattr(d, "__dict__")
    assert copy.deepcopy(d) == pickle.loads(pickle.dumps(d)) == d


def test_tau_invariant_class_public_shape():
    d = cover_class(5, 2, 3, (0, 3, 1, 1))
    t = TauInvariantClass(d)
    assert repr(t) == f"TauInvariantClass(divisor={d!r})"
    same = TauInvariantClass(DivisorClass.from_coefficients(d.coefficients()))
    assert t == same and hash(t) == hash(same) == hash((d,))
    assert t != d and d != t and t != TauInvariantClass(2 * d)
    with pytest.raises(AttributeError):
        t.divisor = 2 * d
    with pytest.raises(AttributeError):
        del t.divisor
    assert not hasattr(t, "__dict__")
    assert copy.deepcopy(t) == pickle.loads(pickle.dumps(t)) == t
    with pytest.raises(ParityViolation):
        TauInvariantClass(s_class(0))  # square -1


@pytest.mark.parametrize("alpha,index", [((0, 0, 1, 0), 2), ((1, 1, 1, 0), 3)])
def test_parity_exceptional_index_at_the_last_two_indices(alpha, index):
    assert parity_exceptional_index(alpha) == index


@pytest.mark.parametrize("alpha", [(0, 0, 1, 1), (1, 1, 1, 1)])
def test_parity_exceptional_index_raises_without_a_unique_index(alpha):
    with pytest.raises(ParityViolation):
        parity_exceptional_index(alpha)


def test_tilde_genus_of_a_tau_invariant_class():
    d = cover_class(5, 2, 3, (0, 3, 1, 1))
    t = TauInvariantClass(d)
    assert tilde_genus(t) == t.quotient_genus == tilde_genus(d) == 2  # (3 * 8 + 4 - 9 - 11) / 4


@pytest.mark.parametrize("call,name", [
    (lambda d: d.divided_by(0), "m"),
    (lambda d: cover_class(3, 0, 1, (2, 1, 1, 1)), "n, d, rho"),
    (lambda d: cover_class(3, 1, 1, (-1, 1, 1, 1)), "gamma"),
    (lambda d: nls_sg_class(0, Placement.DISTINCT_GENERIC, (0, 0, 0, 0)), "n"),
    (lambda d: nls_sg_class(4, Placement.DISTINCT_GENERIC, (2, 2, -2, 2)), "gamma"),
    (lambda d: exceptional_class((1, 0, -1, 0)), "alpha"),
    (lambda d: parity_exceptional_index((1.5, 0, 0, 0)), "alpha"),
    (lambda d: DivisorClass(1.7, 0), "a, b"),
    (lambda d: DivisorClass(0, 0, (0, 0, 0)), "s"),
    (lambda d: DivisorClass(0, 0, r=(0.5, 0, 0, 0)), "r"),
    (lambda d: 2.5 * d, "k"),
    (lambda d: DivisorClass.from_coefficients(range(9)), "coefficients"),
    (lambda d: TauInvariantClass((1, 2)), "divisor"),
    (lambda d: nls_sg_class(4, "same-projection", (2, 2, 2, 2), (0,)), "placement"),
    (lambda d: nls_sg_class(4, None, (2, 2, 2, 2)), "placement"),
], ids=["divided-0", "cover-d-0", "cover-gamma-neg", "nls-sg-n-0", "nls-sg-gamma-neg",
        "exceptional-neg", "parity-index-half", "class-a-half", "class-s-short",
        "class-r-half", "times-half", "from-coefficients-short", "tau-not-a-class",
        "nls-sg-placement-str", "nls-sg-placement-none"])
def test_integer_errors_name_their_input(call, name):
    with pytest.raises(InvalidInvariants) as raised:
        call(cover_class(3, 1, 1, (2, 1, 1, 1)))
    assert str(raised.value).startswith(name + ": ")
