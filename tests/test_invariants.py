import copy
import math
import pickle
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellcover.errors import InvalidInvariants, ParityViolation
from ellcover.invariants import (
    CoverInvariants,
    EnumeratedType,
    FamilyParams,
    FamilySpec,
    GeneratedType,
    Placement,
    TypeVector,
    Verdict,
    _epsilon_patterns,
    admissible,
    check_kdv,
    check_nls_toda,
    check_sine_gordon,
    construct_closed_forms,
    construct_types,
    enumerate_types,
    evaluate_kdv,
    evaluate_nls_toda,
    evaluate_sine_gordon,
    family_params,
    half_period_indices,
    type_square_target,
)
from ellcover.picard import nls_sg_class, parity_exceptional_index


def make_inv(n, d, g, rho=1, m=1, gamma=(0, 1, 1, 1)):
    return CoverInvariants(n, d, g, rho, m, TypeVector(gamma))


# -- TypeVector ---------------------------------------------------------------


def test_type_vector_sums():
    t = TypeVector((2, 1, 1, 1))
    assert t.total == 5
    assert t.square_sum == 7
    assert list(t) == [2, 1, 1, 1]
    assert t[0] == 2


def test_type_vector_rejects_negative():
    with pytest.raises(InvalidInvariants):
        TypeVector((-1, 0, 0, 0))


def test_cover_invariants_field_domains():
    with pytest.raises(InvalidInvariants):
        make_inv(0, 1, 0)
    with pytest.raises(InvalidInvariants):
        make_inv(1, 0, 0)
    with pytest.raises(InvalidInvariants):
        make_inv(1, 1, -1)
    # rho = 2 is a *claim*, rejected by the checker rather than the constructor
    assert make_inv(2, 2, 1, rho=2, gamma=(1, 0, 0, 0)).rho == 2


def test_invariant_records_reject_non_integers():
    for build in (
        lambda: TypeVector((1.5, 2, 2, 2)),
        lambda: FamilySpec("6.13", (1.9, 0, 0, 0)),
        lambda: CoverInvariants(3.7, 1, 2, 1, 1, (2, 1, 1, 1)),
        lambda: CoverInvariants(3, 1, 2, 1, 1, (2, 1, 0.5, 1)),
    ):
        with pytest.raises(InvalidInvariants):
            build()
    # integral floats, numpy integers and bools are stored as ints
    record = CoverInvariants(3.0, np.int64(1), True, 1, 1, (2.0, np.int64(1), True, 1))
    assert (record.n, record.d, record.g, record.gamma.gamma) == (3, 1, 1, (2, 1, 1, 1))
    assert all(type(x) is int for x in (record.n, record.d, record.g, *record.gamma))
    assert FamilySpec("6.13", (1.0, 0, 0, 0)).alpha == (1, 0, 0, 0)


@pytest.mark.parametrize("call", [
    lambda: evaluate_nls_toda(4.5, 2, (2, 2, 2, 2), Placement.DISTINCT_GENERIC),
    lambda: evaluate_nls_toda(0, 0, (0, 0, 0, 0), Placement.DISTINCT_GENERIC),
    lambda: evaluate_nls_toda(4, -1, (2, 2, 2, 2), Placement.DISTINCT_GENERIC),
    lambda: evaluate_sine_gordon(-3, 0, (1, 1, 1, 1), Placement.SAME_PROJECTION),
    lambda: evaluate_sine_gordon(4, 2.5, (2, 2, 1, 1), Placement.DISTINCT_HALF_PERIODS),
    lambda: enumerate_types(3, 1.5),
    lambda: enumerate_types(0, 1),
    lambda: construct_closed_forms(2.5, (0, 1, 1, 1)),
    lambda: construct_closed_forms(0, (0, 1, 1, 1)),
    lambda: construct_closed_forms(2, (0, 1, 1, -1)),
    lambda: FamilySpec("6.17", (1, 0, 1, 1), j0=1.5),
    lambda: TypeVector((None, 0, 0, 0)),
    lambda: enumerate_types(3, float("inf")),
    lambda: evaluate_nls_toda(float("nan"), 2, (2, 2, 2, 2), Placement.DISTINCT_GENERIC),
], ids=["nls-n-half", "nls-n-0", "nls-g-neg", "sg-n-neg", "sg-g-half", "enum-d-half",
        "enum-n-0", "closed-d-half", "closed-d-0", "closed-mu-neg", "family-j0-half",
        "type-none", "enum-d-inf", "nls-n-nan"])
def test_integer_inputs_off_their_domain_raise(call):
    with pytest.raises(InvalidInvariants):
        call()


def test_integral_floats_are_taken_as_ints():
    assert enumerate_types(2.0, 1) == enumerate_types(2, 1)
    j0 = FamilySpec("6.17", (1, 0, 1, 1), j0=1.0).j0
    assert j0 == 1 and type(j0) is int
    verdicts = evaluate_nls_toda(4.0, 2.0, (2, 2, 2, 2), Placement.DISTINCT_GENERIC)
    assert verdicts == evaluate_nls_toda(4, 2, (2, 2, 2, 2), Placement.DISTINCT_GENERIC)
    assert all(type(x) is int for v in verdicts[1:] for x in (v.lhs, v.rhs))


# -- check_kdv ------------------------------------------------------------------


def test_kdv_admissible_with_tight_bound():
    inv = make_inv(3, 1, 2, gamma=(2, 1, 1, 1))
    assert check_kdv(inv) == []
    v55_5 = [v for v in evaluate_kdv(inv) if v.clause.startswith("5.5(5)")][0]
    assert (v55_5.lhs, v55_5.rhs) == (25, 25)  # tight


def test_kdv_genus_too_large():
    bad = check_kdv(make_inv(3, 1, 3, gamma=(2, 1, 1, 1)))
    assert any(v.clause.startswith("5.5(1)") for v in bad)


def test_kdv_even_rho_flagged():
    bad = check_kdv(make_inv(2, 2, 1, rho=2, gamma=(1, 0, 0, 0)))
    assert any(v.clause.startswith("5.4(3)") for v in bad)


def test_kdv_parity_flagged():
    bad = check_kdv(make_inv(3, 1, 1, gamma=(1, 1, 1, 1)))
    assert [v.clause for v in bad] == ["5.4(5) parity"]


# (m, n, d, rho, gamma, whether m divides n, 2d-1, rho and every gamma_i); 2d-1 is odd, so
# no input is divisible by m = 2, and m = 1 divides every input
DIVISIBILITY_CASES = [
    (1, 3, 1, 1, (2, 1, 1, 1), True),
    (1, 8, 4, 6, (0, 3, 7, 1), True),
    (2, 4, 1, 1, (1, 0, 0, 2), False),
    (2, 4, 2, 2, (2, 0, 0, 2), False),
    (3, 6, 2, 3, (0, 3, 6, 3), True),
    (3, 6, 2, 3, (0, 3, 6, 4), False),
    (3, 4, 2, 3, (0, 3, 3, 3), False),
    (5, 10, 3, 5, (5, 0, 10, 5), True),
    (5, 10, 3, 1, (5, 0, 10, 5), False),
    (5, 15, 8, 5, (0, 0, 0, 25), True),
]


def test_kdv_divisibility_clause():
    # m must divide n, 2d-1, rho and every gamma_i; the verdict has the exact public shape
    for m, n, d, rho, gamma, divides in DIVISIBILITY_CASES:
        inv = CoverInvariants(n, d, 2, rho, m, TypeVector(gamma))
        (v,) = [v for v in evaluate_kdv(inv) if v.clause == "5.4(4) m divides"]
        assert type(v) is Verdict and type(v.ok) is bool and v.informational is False
        assert v.ok is divides and v.lhs == m, (m, n, d, rho, gamma)
        rhs = (n, 2 * d - 1, rho, *gamma)
        assert type(v.rhs) is tuple and v.rhs == rhs
        assert typed(v) == typed(Verdict("5.4(4) m divides", divides, m, rhs))
        assert (v in check_kdv(inv)) is not divides


def test_verdict_public_shape():
    v = Verdict("5.5(1) genus vs type sum", True, 5, 7)
    assert Verdict._fields == ("clause", "ok", "lhs", "rhs", "informational")
    assert v.informational is False
    assert (v.clause, v.ok, v.lhs, v.rhs) == ("5.5(1) genus vs type sum", True, 5, 7)
    with pytest.raises(AttributeError):
        v.ok = False
    assert v == Verdict("5.5(1) genus vs type sum", True, 5, 7, False)
    assert len({v, Verdict("5.5(1) genus vs type sum", True, 5, 7)}) == 1
    assert Verdict._field_defaults == {"informational": False}
    assert not hasattr(v, "__dict__")
    assert copy.deepcopy(v) == pickle.loads(pickle.dumps(v)) == v
    assert type(copy.deepcopy(v)) is type(pickle.loads(pickle.dumps(v))) is Verdict
    # the tuple constructor the rule catalog builds most verdicts with
    built = tuple.__new__(Verdict, ("5.5(1) genus vs type sum", True, 5, 7, False))
    assert built == v and hash(built) == hash(v) and repr(built) == repr(v)


def test_enumerated_type_public_shape():
    (t,) = enumerate_types(3, 1)
    assert EnumeratedType._fields == ("gamma", "g", "verdicts")
    assert (t.gamma, t.g) == (TypeVector((2, 1, 1, 1)), 2)
    assert t.verdicts == tuple(evaluate_kdv(CoverInvariants(3, 1, 2, 1, 1, (2, 1, 1, 1))))
    with pytest.raises(AttributeError):
        t.g = 3
    with pytest.raises(AttributeError):
        t.gamma.gamma = (0, 0, 0, 0)
    same = EnumeratedType(TypeVector((2, 1, 1, 1)), 2, t.verdicts)
    assert t == same and len({t, same}) == 1
    assert t != EnumeratedType(t.gamma, 3, t.verdicts)
    # the verdicts stay out of the repr
    assert repr(t) == "EnumeratedType(gamma=TypeVector(gamma=(2, 1, 1, 1)), g=2)"
    assert EnumeratedType._field_defaults == {} and not hasattr(t, "__dict__")
    assert copy.deepcopy(t) == pickle.loads(pickle.dumps(t)) == t
    assert type(copy.deepcopy(t)) is type(pickle.loads(pickle.dumps(t))) is EnumeratedType
    # enumerate_types builds its rows with the tuple constructor
    assert tuple.__new__(EnumeratedType, (t.gamma, 2, t.verdicts)) == same


def _assert_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def test_type_vector_public_shape():
    t = TypeVector((2, 1, 1, 1))
    assert repr(t) == "TypeVector(gamma=(2, 1, 1, 1))"
    assert t == TypeVector([2.0, 1, 1, True]) and hash(t) == hash(TypeVector((2, 1, 1, 1)))
    assert t != TypeVector((1, 2, 1, 1))
    assert t != (2, 1, 1, 1) and (2, 1, 1, 1) != t  # not a tuple
    assert (list(t), t[0], t[-1], t.gamma) == ([2, 1, 1, 1], 2, 1, (2, 1, 1, 1))
    _assert_immutable(t, "gamma")
    with pytest.raises(AttributeError):
        del t.gamma
    assert copy.deepcopy(t) == pickle.loads(pickle.dumps(t)) == t


def test_cover_invariants_public_shape():
    c = CoverInvariants(3, 1, 2, 1, 1, (2, 1, 1, 1))
    assert CoverInvariants._fields == ("n", "d", "g", "rho", "m", "gamma")
    assert repr(c) == ("CoverInvariants(n=3, d=1, g=2, rho=1, m=1, "
                       "gamma=TypeVector(gamma=(2, 1, 1, 1)))")
    same = CoverInvariants(n=3.0, d=1, g=2, rho=1, m=1, gamma=TypeVector((2, 1, 1, 1)))
    assert c == same and hash(c) == hash(same) and c != c._replace(g=1)
    assert tuple(c) == (3, 1, 2, 1, 1, TypeVector((2, 1, 1, 1)))  # a NamedTuple
    _assert_immutable(c, "n")
    with pytest.raises(InvalidInvariants):
        c._replace(m=0)  # _replace checks like the constructor
    assert pickle.loads(pickle.dumps(c)) == c


def test_generated_type_public_shape():
    t = construct_types(2, 0, (0, 1, 1, 1))[0]
    assert GeneratedType._fields == ("gamma", "n", "g", "verdicts")
    # the verdicts stay out of the repr, as in EnumeratedType
    assert repr(t) == "GeneratedType(gamma=TypeVector(gamma=(0, 1, 1, 1)), n=1, g=1)"
    same = GeneratedType(TypeVector((0, 1, 1, 1)), 1, 1, t.verdicts)
    assert t == same and hash(t) == hash(same)
    assert t != GeneratedType(t.gamma, t.n, t.g, t.verdicts[1:])
    _assert_immutable(t, "verdicts")
    assert GeneratedType._field_defaults == {} and not hasattr(t, "__dict__")
    assert copy.deepcopy(t) == pickle.loads(pickle.dumps(t)) == t
    assert type(copy.deepcopy(t)) is type(pickle.loads(pickle.dumps(t))) is GeneratedType
    assert tuple.__new__(GeneratedType, (t.gamma, 1, 1, t.verdicts)) == same


def test_family_spec_public_shape():
    s = FamilySpec("6.17", (1, 0, 1, 1), j0=1.0)
    assert FamilySpec._fields == ("case", "alpha", "at_half_period", "j0")
    assert repr(s) == "FamilySpec(case='6.17', alpha=(1, 0, 1, 1), at_half_period=False, j0=1)"
    same = FamilySpec("6.17", [1, 0, 1, 1], False, 1)
    assert s == same and hash(s) == hash(same) and s != FamilySpec("6.17", (0, 1, 0, 0), j0=1)
    _assert_immutable(s, "j0")
    with pytest.raises(InvalidInvariants):
        s._replace(j0=None)
    assert pickle.loads(pickle.dumps(s)) == s


def test_family_params_public_shape():
    p = family_params(FamilySpec("6.17", (1, 0, 1, 1), j0=1))
    assert tuple(p) == (p.g, p.n) == (3, 4)  # iterates as (g, n) only
    assert p != (3, 4)
    assert repr(p) == ("FamilyParams(g=3, n=4, verdicts=(Verdict(clause='6.12(1) genus square "
                       "bound', ok=True, lhs=9, rhs=12, informational=False),))")
    same = FamilyParams(3, 4, p.verdicts)
    assert p == same and hash(p) == hash(same) and p != FamilyParams(3, 4, ())
    _assert_immutable(p, "g")
    assert pickle.loads(pickle.dumps(p)) == p


@pytest.mark.parametrize("call,message", [
    (lambda: TypeVector((1, -1, 0, 0)), "gamma: need integers >= 0, got (1, -1, 0, 0)"),
    (lambda: TypeVector((1.5, 2, 2, 2)), "gamma: expected 4 integers, got (1.5, 2, 2, 2)"),
    (lambda: TypeVector((1, 0, 0)), "gamma: expected 4 integers, got (1, 0, 0)"),
    (lambda: CoverInvariants(3.7, 1, 2, 1, 1, (2, 1, 1, 1)),
     "n, d, g, rho, m: expected 5 integers, got (3.7, 1, 2, 1, 1)"),
    (lambda: CoverInvariants(3, 1, -1, 1, 1, (2, 1, 1, 1)), "g: need an integer >= 0, got -1"),
    (lambda: CoverInvariants(0, 1, 2, 1, 1, (2, 1.5, 1, 1)), "n: need an integer >= 1, got 0"),
    (lambda: CoverInvariants(3, 1, 2, 1, 1, (2, 1.5, 1, 1)),
     "gamma: expected 4 integers, got (2, 1.5, 1, 1)"),
    (lambda: FamilySpec("6.13", (0, 0, 0, -1)), "alpha: need integers >= 0, got (0, 0, 0, -1)"),
    (lambda: FamilySpec("6.17", (1, 0, 1, 1), j0=1.5),
     "case 6.17 requires j0 in {1, 2, 3}, got 1.5"),
    (lambda: FamilySpec("6.13", (0, 0, 0, 0), at_half_period="no"),
     "at_half_period: need a bool, got 'no'"),
    (lambda: FamilySpec("6.13", (0, 0, 0, 0), at_half_period=[1]),
     "at_half_period: need a bool, got [1]"),
    (lambda: FamilySpec("6.13", (0, 0, 0, 0))._replace(at_half_period=1),
     "at_half_period: need a bool, got 1"),
    (lambda: FamilySpec("6.13", (0, 0, 0, -1), at_half_period="no"),
     "alpha: need integers >= 0, got (0, 0, 0, -1)"),
], ids=["type-neg", "type-float", "type-short", "cover-float", "cover-g", "cover-n-first",
        "cover-gamma", "spec-alpha", "spec-j0", "spec-half-str", "spec-half-list",
        "spec-half-replace", "spec-alpha-before-half"])
def test_record_error_messages(call, message):
    with pytest.raises(InvalidInvariants) as raised:
        call()
    assert str(raised.value) == message


def test_kdv_verdict_order_is_stable():
    inv = make_inv(3, 1, 2, gamma=(2, 1, 1, 1))
    first = [v.clause for v in evaluate_kdv(inv)]
    second = [v.clause for v in evaluate_kdv(inv)]
    assert first == second
    assert first == [
        "5.4(3) rho odd",
        "5.4(4) m divides",
        "5.4(5) parity",
        "5.5(1) genus vs type sum",
        "5.5(2) unramified birational",
        "5.5(3) type square bound",
        "5.5(4) genus square bound",
        "5.5(5) unramified genus bound",
    ]


# -- check_nls_toda ---------------------------------------------------------------


def test_nls_admissible_boundary():
    assert check_nls_toda(4, 2, (2, 2, 2, 2), Placement.DISTINCT_GENERIC) == []
    # both clauses tight at g = 3
    assert check_nls_toda(4, 3, (2, 2, 2, 2), Placement.DISTINCT_GENERIC) == []
    assert check_nls_toda(4, 4, (2, 2, 2, 2), Placement.DISTINCT_GENERIC) != []


def test_nls_same_projection_odd_degree_tight():
    assert check_nls_toda(5, 2, (1, 1, 1, 3), Placement.SAME_PROJECTION) == []
    bad = check_nls_toda(5, 2, (1, 1, 3, 3), Placement.SAME_PROJECTION)
    assert any(v.clause.startswith("5.7(4)") for v in bad)


def test_nls_parity_clause():
    bad = check_nls_toda(4, 1, (2, 1, 2, 2), Placement.DISTINCT_GENERIC)
    assert any(v.clause == "5.7 parity" for v in bad)


def test_nls_rejects_impossible_placement():
    with pytest.raises(InvalidInvariants):
        check_nls_toda(4, 2, (2, 2, 2, 2), Placement.DISTINCT_HALF_PERIODS)


# -- check_sine_gordon -------------------------------------------------------------


def test_sg_distinct_half_periods_example():
    verdicts = evaluate_sine_gordon(4, 3, (2, 2, 1, 1), Placement.DISTINCT_HALF_PERIODS)
    assert admissible(verdicts)
    by_clause = {v.clause: v for v in verdicts}
    assert by_clause["5.8(1) genus vs type sum"].lhs == 6
    assert by_clause["6.12(3) genus square bound"].rhs == 14
    assert by_clause["6.12(3) genus square bound"].informational
    assert typed(by_clause["6.12(3) genus square bound"]) == typed(
        Verdict("6.12(3) genus square bound", True, 9, 14, True))


def test_sg_same_projection_even_degree():
    bad = check_sine_gordon(2, 3, (1, 1, 1, 1), Placement.SAME_PROJECTION)
    assert any(v.clause.startswith("5.8(3)") for v in bad)


def test_sg_degenerate_bound_flags_everything():
    # n = 1, same projection: the bound 4n - 8 < 0 excludes all types
    bad = check_sine_gordon(1, 0, (0, 0, 0, 0), Placement.SAME_PROJECTION)
    assert any(v.clause.startswith("5.8(4)") for v in bad)


def test_sg_half_period_pair_parity():
    assert (
        check_sine_gordon(
            7, 2, (2, 2, 3, 3), Placement.DISTINCT_HALF_PERIODS, half_period_pair=(0, 1)
        )
        == []
    )
    bad = check_sine_gordon(
        7, 2, (2, 2, 3, 3), Placement.DISTINCT_HALF_PERIODS, half_period_pair=(0, 2)
    )
    assert any(v.clause == "5.6(5) parity" for v in bad)


def test_sg_rejects_impossible_placement():
    with pytest.raises(InvalidInvariants):
        check_sine_gordon(4, 2, (2, 2, 2, 2), Placement.DISTINCT_GENERIC)


@pytest.mark.parametrize("placement,indices", [
    (Placement.DISTINCT_HALF_PERIODS, (0, 0)),  # duplicate
    (Placement.DISTINCT_HALF_PERIODS, (2, 7)),  # outside 0..3
    (Placement.SAME_PROJECTION, (0, 1)),  # a pair where one index belongs
])
def test_bad_half_period_indices_fail_loudly(placement, indices):
    with pytest.raises(InvalidInvariants) as raised:
        evaluate_sine_gordon(7, 2, (2, 2, 3, 3), placement, indices)
    assert type(raised.value) is InvalidInvariants
    with pytest.raises(InvalidInvariants) as raised:
        nls_sg_class(7, placement, (2, 2, 3, 3), indices)
    assert type(raised.value) is InvalidInvariants


def test_sg_informational_clause_does_not_block_admissibility():
    # 6.12(3) (g^2 <= 4n - 2) is never the only clause an input violates: with
    # g^2 <= 4n (5.8(2)) and g^2 > 4n - 2, g^2 = 4n, as g^2 is 0 or 1 mod 4;
    # then 2g <= gamma^(1) and gamma^(2) <= 4n = g^2 force every gamma_i = g/2
    # (Cauchy-Schwarz: gamma^(1)^2 <= 4 gamma^(2)), a gamma that flips either
    # no index or all four, so 5.6(5) parity fails.  Here 5.8(2) fails too.
    verdicts = evaluate_sine_gordon(4, 4, (4, 4, 0, 0), Placement.DISTINCT_HALF_PERIODS)
    info = [v for v in verdicts if v.informational][0]
    assert not info.ok  # 16 > 14
    binding = [v for v in verdicts if not v.informational]
    assert admissible(verdicts) == all(v.ok for v in binding)


def test_sg_informational_clause_is_never_violated_alone():
    # the argument above, checked exactly: it reaches g^2 = 4n at (1, 2), (4, 4), (9, 6)
    gammas = [TypeVector(gamma) for gamma in product(range(5), repeat=4)]
    tight = 0
    for n, g in product(range(1, 10), range(7)):
        for gamma in gammas:
            verdicts = evaluate_sine_gordon(n, g, gamma, Placement.DISTINCT_HALF_PERIODS)
            if not verdicts[-1].ok:
                assert verdicts[-1].clause == "6.12(3) genus square bound"
                violated = [v.clause for v in verdicts if not v.ok]
                assert len(violated) > 1
                tight += violated == ["5.6(5) parity", "6.12(3) genus square bound"]
    assert tight == 3  # gamma = (g/2,) * 4 at each g^2 = 4n


# -- enumerate_types -----------------------------------------------------------------


def test_enumerate_examples():
    assert [t.gamma.gamma for t in enumerate_types(1, 1)] == [(0, 1, 1, 1)]
    assert [t.gamma.gamma for t in enumerate_types(3, 1)] == [(2, 1, 1, 1)]
    assert [t.gamma.gamma for t in enumerate_types(2, 1)] == [
        (1, 0, 0, 2),
        (1, 0, 2, 0),
        (1, 2, 0, 0),
    ]
    assert [t.g for t in enumerate_types(2, 1)] == [1, 1, 1]


def test_enumerate_annotations_are_admissible():
    for t in enumerate_types(6, 3):
        assert admissible(t.verdicts)
        assert t.g == (t.gamma.total - 1) // 2
        assert t.gamma.square_sum == type_square_target(6, 3)


def brute_force_types(n, d):
    target = type_square_target(n, d)
    side = math.isqrt(target) + 1
    out = []
    for gam in product(range(side + 1), repeat=4):
        if sum(x * x for x in gam) != target:
            continue
        if ((gam[0] + 1) % 2 != n % 2) or any(gam[j] % 2 != n % 2 for j in (1, 2, 3)):
            continue
        out.append(gam)
    return sorted(out)


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (4, 2), (5, 3), (7, 4)])
def test_enumerate_agrees_with_brute_force(n, d):
    assert [t.gamma.gamma for t in enumerate_types(n, d)] == brute_force_types(n, d)


def divisor_sum(t):
    total, k = 0, 1
    while k * k <= t:
        if t % k == 0:
            total += k if k * k == t else k + t // k
        k += 1
    return total


JACOBI_CASES = [(n, d) for n in range(1, 61) for d in (1, 2, 3, 7, 20)]
JACOBI_CASES += [(10_000, 1), (10_000, 2), (1000, 20)]


def test_enumerate_meets_jacobi_four_square_count():
    # T is odd, so every representation of T as a sum of four squares has
    # exactly one component whose parity differs from the other three:
    # signs and the choice of that component turn the enumerated types into
    # all r4(T) = 8 sigma(T) representations, 4 * 2^#nonzero at a time.
    for n, d in JACOBI_CASES:
        types = enumerate_types(n, d)
        weight = sum(2 ** sum(1 for x in t.gamma if x) for t in types)
        assert weight == 2 * divisor_sum(type_square_target(n, d)), (n, d)
        gammas = [t.gamma.gamma for t in types]
        assert gammas == sorted(set(gammas)), (n, d)


def typed(value):
    """A value with the type of every part, so that 1 never passes for True."""
    if isinstance(value, tuple):
        return type(value), tuple(typed(x) for x in value)
    return type(value), value


SHARED_VERDICT_CASES = [(n, d) for n in range(1, 61) for d in (1, 2, 3, 7, 20)]
SHARED_VERDICT_CASES += [(1000, 20)]


def test_enumerate_verdicts_match_a_fresh_evaluation():
    # enumerate_types evaluates the catalog once per gamma^(1) and swaps in
    # each row's 5.4(4); every row must read as if evaluated on its own
    for n, d in SHARED_VERDICT_CASES:
        for t in enumerate_types(n, d):
            fresh = evaluate_kdv(CoverInvariants(n, d, t.g, 1, 1, t.gamma))
            assert typed(t.verdicts) == typed(tuple(fresh)), (n, d, t.gamma.gamma)
            assert all(type(v) is Verdict for v in t.verdicts)


def test_enumerated_rows_equal_public_records():
    # rows take a TypeVector from the search's own ints, without re-validation
    for n, d in SHARED_VERDICT_CASES:
        for t in enumerate_types(n, d):
            public = EnumeratedType(TypeVector(list(t.gamma.gamma)), t.g, t.verdicts)
            assert t == public and repr(t) == repr(public), (n, d, t.gamma.gamma)
            assert hash(t.gamma) == hash(public.gamma)
            assert type(t.gamma.gamma) is tuple and all(type(x) is int for x in t.gamma)
            assert type(t) is EnumeratedType and type(t.gamma) is TypeVector


def test_enumerate_rows_share_the_verdicts_of_their_gamma1():
    # rows with equal gamma^(1) share one evaluation: the same verdict object at every
    # position but 1, while each row's 5.4(4) verdict (its rhs lists gamma) is its own
    for n, d in [(6, 2), (40, 3), (200, 7), (1000, 20)]:
        rows = enumerate_types(n, d)
        first = {}
        for t in rows:
            shared = first.setdefault(t.gamma.total, t.verdicts)
            assert all(v is w for i, (v, w) in enumerate(zip(t.verdicts, shared)) if i != 1)
            assert len(t.verdicts) == len(shared)
        assert len(first) < len(rows), (n, d)
        own = [t.verdicts[1] for t in rows]
        assert len({id(v) for v in own}) == len(rows), (n, d)
        assert all(v.clause == "5.4(4) m divides" for v in own)


def test_d1_types_are_exceptional_curve_vectors():
    from ellcover.picard import exceptional_class, is_exceptional_first_kind

    for n in range(1, 8):
        for t in enumerate_types(n, 1):
            assert t.gamma.square_sum == 2 * n + 1
            assert is_exceptional_first_kind(exceptional_class(t.gamma.gamma))


# -- construct_types -----------------------------------------------------------------


def test_construct_main_pattern_example():
    out = construct_types(2, 0, (0, 1, 1, 1))
    gammas = {g.gamma.gamma: (g.n, g.g) for g in out}
    assert gammas[(0, 5, 5, 5)] == (13, 7)
    g, n = construct_closed_forms(2, (0, 1, 1, 1))
    assert (g, n) == (7, 13)


def test_construct_alternate_index_example():
    out = construct_types(2, 3, (0, 1, 1, 1))
    gammas = {g.gamma.gamma: (g.n, g.g) for g in out}
    assert gammas[(2, 5, 5, 3)] == (11, 7)


def test_construct_parity_violation():
    with pytest.raises(ParityViolation):
        construct_types(2, 0, (1, 1, 1, 1))
    with pytest.raises(InvalidInvariants):
        construct_types(1, 0, (0, 1, 1, 1))


def test_construct_outputs_pass_full_catalog():
    for d, k in [(2, 0), (3, 1), (4, 2), (5, 3)]:
        for mu in [(0, 1, 1, 1), (2, 1, 3, 1), (1, 2, 2, 0)]:
            for item in construct_types(d, k, mu):
                inv = CoverInvariants(item.n, d, item.g, 1, 1, item.gamma)
                assert check_kdv(inv) == []
                assert item.gamma.square_sum == type_square_target(item.n, d)
                assert item.g == (item.gamma.total - 1) // 2


def test_construct_types_carry_a_fresh_evaluation():
    for d, k in [(2, 0), (3, 1), (4, 2), (5, 3), (6, 0)]:
        for mu in [(0, 1, 1, 1), (2, 1, 3, 1), (1, 2, 2, 0), (4, 3, 1, 3)]:
            for item in construct_types(d, k, mu):
                fresh = evaluate_kdv(CoverInvariants(item.n, d, item.g, 1, 1, item.gamma))
                assert typed(item.verdicts) == typed(tuple(fresh)), (d, k, mu, item)
                assert "verdicts" not in repr(item) and "Verdict" not in repr(item)


def test_construct_closed_forms_match_generated_entry():
    for d in (2, 3, 4, 5):
        for mu in [(0, 1, 1, 1), (2, 1, 1, 3), (0, 3, 1, 1)]:
            target_gamma = tuple(
                (2 * d - 1) * mu[i] + (0 if i == 0 else 2 * d - 2) for i in range(4)
            )
            match = [g for g in construct_types(d, 0, mu) if g.gamma.gamma == target_gamma]
            assert len(match) == 1
            g, n = construct_closed_forms(d, mu)
            assert (match[0].g, match[0].n) == (g, n)


def test_construct_deterministic_and_sorted():
    out = construct_types(3, 2, (0, 1, 1, 1))
    gammas = [g.gamma.gamma for g in out]
    assert gammas == sorted(gammas)
    assert gammas == [g.gamma.gamma for g in construct_types(3, 2, (0, 1, 1, 1))]


# -- family_params --------------------------------------------------------------------


def test_family_examples():
    assert tuple(family_params(FamilySpec("6.13", (0, 0, 0, 0)))) == (1, 1)
    res = family_params(FamilySpec("6.17", (1, 0, 1, 1), j0=1))
    assert tuple(res) == (3, 4)
    assert res.verdicts[0].clause == "6.12(1) genus square bound"
    assert (res.verdicts[0].lhs, res.verdicts[0].rhs) == (9, 12)
    res = family_params(FamilySpec("6.18", (0, 0, 0, 0)))
    assert tuple(res) == (2, 3)
    assert (res.verdicts[0].lhs, res.verdicts[0].rhs) == (4, 4)  # tight


def test_family_titles_and_formulas():
    a = (1, 2, 0, 3)
    a1, a2 = 6, 14
    assert tuple(family_params(FamilySpec("6.13", a))) == (a1 + 1, a2 + a1 + 1)
    assert tuple(family_params(FamilySpec("6.13", a, at_half_period=True))) == (
        a1 + 1,
        a2 + a1 + 3,
    )
    assert tuple(family_params(FamilySpec("6.14", a))) == (a1 - 1, a2)
    assert tuple(family_params(FamilySpec("6.15", a))) == (a1 + 1, a2 + 1 + 2 + 1)
    b = (1, 1, 0, 3)
    assert tuple(family_params(FamilySpec("6.16", b))) == (6, 11 + 0 + 3 + 1)
    assert tuple(family_params(FamilySpec("6.17", (1, 0, 1, 1), j0=1))) == (3, 4)
    assert tuple(family_params(FamilySpec("6.18", a))) == (a1 + 2, a2 + a1 + 3)


def test_family_precondition_violations():
    with pytest.raises(InvalidInvariants):
        FamilySpec("6.14", (0, 0, 0, 0))
    with pytest.raises(ParityViolation):
        FamilySpec("6.14", (1, 1, 0, 0), at_half_period=True)  # even sum at half-period
    with pytest.raises(ParityViolation):
        FamilySpec("6.14", (1, 0, 0, 0))  # odd sum at generic point
    with pytest.raises(ParityViolation):
        FamilySpec("6.15", (0, 0, 0, 2))
    with pytest.raises(ParityViolation):
        FamilySpec("6.16", (1, 0, 0, 0))
    with pytest.raises(InvalidInvariants):
        FamilySpec("6.17", (1, 0, 1, 1))  # missing j0
    with pytest.raises(ParityViolation):
        FamilySpec("6.17", (1, 1, 1, 1), j0=1)
    with pytest.raises(InvalidInvariants):
        FamilySpec("6.19", (0, 0, 0, 0))


@pytest.mark.parametrize("case,alpha,kwargs", [
    ("6.15", (0, 1, 0, 1), {"at_half_period": True}),
    ("6.16", (1, 1, 0, 2), {"at_half_period": True}),
    ("6.17", (1, 0, 1, 1), {"at_half_period": True, "j0": 1}),
    ("6.18", (0, 0, 0, 0), {"at_half_period": True}),
    ("6.13", (0, 0, 0, 0), {"j0": 2}),
    ("6.14", (1, 0, 0, 0), {"at_half_period": True, "j0": 1}),
    ("6.15", (0, 1, 0, 1), {"j0": 3}),
    ("6.18", (0, 0, 0, 0), {"j0": 1}),
])
def test_family_flags_outside_their_cases_are_rejected(case, alpha, kwargs):
    with pytest.raises(InvalidInvariants) as raised:
        FamilySpec(case, alpha, **kwargs)
    assert type(raised.value) is InvalidInvariants


@given(st.tuples(*(st.integers(0, 8),) * 4), st.integers(0, 5))
def test_family_outputs_always_satisfy_their_restriction(alpha, salt):
    for case in ("6.13", "6.15", "6.16", "6.17", "6.18"):
        kwargs = {}
        if case == "6.13":
            kwargs["at_half_period"] = bool(salt % 2)
        if case == "6.17":
            kwargs["j0"] = 1 + salt % 3
        try:
            spec = FamilySpec(case, alpha, **kwargs)
        except InvalidInvariants:
            continue
        res = family_params(spec)
        assert all(v.ok for v in res.verdicts)


# -- error names, domain checks and the parity rules ----------------------------------


@pytest.mark.parametrize("call,name", [
    (lambda: TypeVector((1, -1, 0, 0)), "gamma"),
    (lambda: CoverInvariants(3, 1, 2, 1, 1, (2, 1.5, 1, 1)), "gamma"),
    (lambda: CoverInvariants(3.5, 1, 2, 1, 1, (2, 1, 1, 1)), "n, d, g, rho, m"),
    (lambda: enumerate_types(0, 1), "n, d"),
    (lambda: construct_types(2.5, 0, (0, 1, 1, 1)), "d, k"),
    (lambda: construct_types(2, 0, (0, 1, 1, -1)), "mu"),
    (lambda: construct_types(1, 0, (0, 1, 1, 1)), "d"),
    (lambda: construct_closed_forms(0, (0, 1, 1, 1)), "d"),
    (lambda: construct_closed_forms(2, (0, 1, 1, -1)), "mu"),
    (lambda: FamilySpec("6.13", (0, 0, 0, -1)), "alpha"),
    (lambda: evaluate_nls_toda(0, -1, (0, 0, 0, 0), Placement.DISTINCT_GENERIC), "n"),
    (lambda: evaluate_nls_toda(0, 2, (0, 0, 0, 0), Placement.DISTINCT_GENERIC), "n"),
    (lambda: evaluate_sine_gordon(4, 2.5, (2, 2, 1, 1), Placement.DISTINCT_HALF_PERIODS), "n, g"),
    (lambda: evaluate_nls_toda(4, 1, (2, 2, 2, 2), "same-projection"), "placement"),
    (lambda: evaluate_nls_toda(4, 1, (2, 2, 2, 2), "distinct-half-periods"), "placement"),
    (lambda: evaluate_sine_gordon(4, 1, (0, 0, 0, 0), "same-projection"), "placement"),
    (lambda: evaluate_sine_gordon(4, 1, (0, 0, 0, 0), None), "placement"),
    (lambda: half_period_indices(None, ()), "placement"),
    (lambda: half_period_indices("same-projection", (0,)), "placement"),
], ids=["type-neg", "cover-gamma-half", "cover-n-half", "enum-n-0", "construct-d-half",
        "construct-mu-neg", "construct-d-1", "closed-d-0", "closed-mu-neg", "family-alpha-neg",
        "nls-n-g", "nls-n-0", "sg-g-half", "nls-placement-str", "nls-placement-half-str",
        "sg-placement-str", "sg-placement-none", "indices-placement-none",
        "indices-placement-str"])
def test_integer_errors_name_their_input(call, name):
    with pytest.raises(InvalidInvariants) as raised:
        call()
    assert str(raised.value).startswith(name + ": ")


@pytest.mark.parametrize("call", [
    lambda: construct_closed_forms(2, (0, 0, 0, 0)),  # 2g + 1 = 6
    lambda: CoverInvariants(3, 1, 2, 1, 0, (2, 1, 1, 1)),  # m = 0
    lambda: construct_types(2, 4, (0, 1, 1, 1)),  # k outside 0..3
], ids=["closed-not-integral", "cover-m-0", "construct-k-4"])
def test_remaining_domain_checks_raise(call):
    with pytest.raises(InvalidInvariants) as raised:
        call()
    assert type(raised.value) is InvalidInvariants


def _raises(exc, call):
    try:
        call()
    except exc:
        return True
    return False


def test_parity_rules_match_their_written_out_formulas():
    """5.4(5), the construct_types mu rule, 6.17's j0 rule and the
    parity-exceptional index, each against its congruences written out."""
    for a in product(range(4), repeat=4):
        mu_ok = not any((a[0] + 1 - a[j]) % 2 for j in (1, 2, 3))
        assert _raises(ParityViolation, lambda: construct_types(2, 0, a)) is not mu_ok, a
        for j0 in (1, 2, 3):
            ok = not any((a[j0] + 1 - a[i]) % 2 for i in range(4) if i != j0)
            assert _raises(ParityViolation, lambda: FamilySpec("6.17", a, j0=j0)) is not ok
        unique = [k for k in range(4) if all((a[i] - a[k]) % 2 for i in range(4) if i != k)]
        if unique:
            assert parity_exceptional_index(a) == unique[0], a
        else:
            assert _raises(ParityViolation, lambda: parity_exceptional_index(a)), a
        for n in (1, 2, 3):
            parities = ((a[0] + 1) % 2, a[1] % 2, a[2] % 2, a[3] % 2)
            verdict = evaluate_kdv(make_inv(n, 1, 0, gamma=a))[2]
            assert verdict.clause == "5.4(5) parity" and verdict.lhs == parities
            assert verdict.ok == all(p == n % 2 for p in parities), (n, a)


def test_generated_candidates_need_no_degree_or_genus_filter():
    """Every non-negative candidate of `construct_types` has odd gamma^(1),
    gamma^(2) >= 3 and 2(2d-1) dividing gamma^(2) - 3, so its degree n >= 1
    and genus are integers without a filter."""
    box = [mu for mu in product(range(5), repeat=4)
           if not any((mu[0] + 1 - mu[j]) % 2 for j in (1, 2, 3))]
    for d in range(2, 7):
        dd = 2 * d - 1
        for k in range(4):
            for mags, mu, signs in product(_epsilon_patterns(d, k), box,
                                           product((-1, 1), repeat=4)):
                gamma = [dd * m + s * e for m, s, e in zip(mu, signs, mags)]
                if min(gamma) < 0:
                    continue
                g1, g2 = sum(gamma), sum(x * x for x in gamma)
                assert g1 % 2 == 1 and g2 >= 3 and (g2 - 3) % (2 * dd) == 0, (d, k, mu, gamma)
