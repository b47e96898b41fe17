"""Constraint checking and enumeration for cover invariants.

Three families of marked covers of the base elliptic curve are handled:

  * covers marked at one ramification point (the KdV-flow family),
    invariants (n, d, g, rho, m, gamma);
  * covers marked at two points exchanged by the involution
    (Schrodinger/Toda family), invariants (n, g, gamma) plus placement;
  * covers marked at two involution-fixed points (sine-Gordon family),
    invariants (n, g, gamma) plus placement.

The two-point families share one placement model (`Placement`, with its
half-period indices), one parity rule (`flipped_indices`) and one table of
square bounds with genus terms, also serving the family maps' 6.11/6.12.

Every constraint is a named clause of the built-in rule catalog (IDs such
as "5.4(5) parity"); checkers evaluate all applicable clauses and report
structured verdicts rather than raising, so enumeration can show
near-misses.  Clause order is fixed, making verdict lists deterministic.

Enumeration is over type vectors gamma in N^4 with a prescribed sum of
squares; `construct_types` realizes the constructive patterns that produce
admissible types of arbitrarily high genus, and `family_params` maps the
six explicit family constructions ("6.13".."6.18") to their (genus, degree).

The records are NamedTuples where tuple semantics fit, and slotted classes
(`_Slotted`, also the base of `picard`'s and the numeric records) where a
record must not equal a tuple (`TypeVector`) or iterates as less than its
fields (`FamilyParams`); no module needs `dataclasses`, which a CLI child
would otherwise import for its records alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from itertools import combinations, product
from typing import Iterable, NamedTuple, Optional

from .errors import InvalidInvariants, ParityViolation

Vec4 = tuple[int, int, int, int]


def _integers(name: str, values, count: int,
              low: int | tuple[Optional[int], ...] | None = None) -> tuple[int, ...]:
    """`values` as `count` ints; InvalidInvariants naming `name` for another
    count, a non-integer, or a value below `low` when one is given.  `low`
    is one floor for every value, or a tuple of one floor per value (None
    for none), whose error names the value: `name` then lists one name per
    value, comma-separated."""
    given = tuple(values)
    try:
        ints = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):  # None, "x", nan, inf
        ints = ()
    if len(ints) != count or ints != given:
        raise InvalidInvariants(f"{name}: expected {count} integers, got {given}")
    if type(low) is tuple:
        for i, floor in enumerate(low):
            if floor is not None and ints[i] < floor:
                raise InvalidInvariants(
                    f"{name.split(', ')[i]}: need an integer >= {floor}, got {ints[i]}")
    elif low is not None and min(ints) < low:
        raise InvalidInvariants(f"{name}: need integers >= {low}, got {ints}")
    return ints


class _Slotted:
    """Base of the slotted records of every layer, numeric ones included:
    immutable, equal only to a record of the same class with equal fields,
    hashed by those fields, and shown as Name(field=value, ...).  The fields,
    in order, are `__slots__`, unless the class declares `_fields` itself, as
    `elliptic.Lattice` does to keep a `__dict__` for its cached values."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)

    def _store(self, *values) -> None:
        """Fill the fields, in order, with the values a subclass's __init__ checked."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the checked constructor
        return type(self), self._values()


class TypeVector(_Slotted):
    """Intersection numbers with the four involution-side exceptional curves,
    indexed by half-period (0 is the origin)."""

    __slots__ = ("gamma",)

    def __init__(self, gamma):
        self._store(_integers("gamma", gamma, 4, 0))

    @classmethod
    def _trusted(cls, gamma: Vec4) -> TypeVector:
        """A TypeVector of four ints >= 0 that the caller has already checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "gamma", gamma)
        return self

    @property
    def total(self) -> int:
        """Sum of components (written gamma^(1))."""
        return sum(self.gamma)

    @property
    def square_sum(self) -> int:
        """Sum of squared components (written gamma^(2))."""
        a, b, c, d = self.gamma  # unrolled: every two-point and KdV evaluation asks for it
        return a * a + b * b + c * c + d * d

    def __iter__(self):
        return iter(self.gamma)

    def __getitem__(self, i: int) -> int:
        return self.gamma[i]


class CoverInvariants(namedtuple("CoverInvariants", "n d g rho m gamma")):
    """Claimed invariants of a one-marked-point cover: degree n, osculating
    order d, arithmetic genus g, ramification index rho at the marked point,
    degree m of the map onto its surface image, and type gamma.

    The record stores claims; `check_kdv` verdicts them."""

    __slots__ = ()

    def __new__(cls, n: int, d: int, g: int, rho: int, m: int, gamma) -> CoverInvariants:
        fields = _integers("n, d, g, rho, m", (n, d, g, rho, m), 5, (1, 1, 0, None, 1))
        if not isinstance(gamma, TypeVector):
            gamma = TypeVector(gamma)
        return tuple.__new__(cls, (*fields, gamma))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


class Placement(Enum):
    """Where the two marked points of a two-point cover project.

    The half-period indices travel beside it as one sorted tuple (see
    `half_period_indices`); the values are the CLI's `--placement` strings."""

    SAME_PROJECTION = "same-projection"
    DISTINCT_GENERIC = "distinct-generic"
    DISTINCT_HALF_PERIODS = "distinct-half-periods"


# the sorted half-period index tuples each placement takes
_INDICES = {
    Placement.SAME_PROJECTION: {(i,) for i in range(4)},
    Placement.DISTINCT_GENERIC: {()},
    Placement.DISTINCT_HALF_PERIODS: set(combinations(range(4), 2)),
}


def half_period_indices(placement: Placement, indices) -> tuple[int, ...]:
    """The half-period indices of a placement, validated and sorted: (i0,)
    for same projection, (k, j) for distinct half-periods, () for distinct
    generic points.  A wrong count, a duplicate or an index outside 0..3
    raises InvalidInvariants."""
    idx = tuple(sorted(indices))
    if idx not in _INDICES[placement]:
        raise InvalidInvariants(
            f"{placement.value} takes one of {sorted(_INDICES[placement])}, got {indices}"
        )
    return idx


def flipped_indices(n: int, gamma) -> tuple[int, ...]:
    """The indices i with gamma_i != n (mod 2), ascending.

    The one parity rule: two-point covers need () or the two half-periods
    (k, j) their marked points sit over; 5.4(5), the mu rule, 6.17's j0 and
    `picard.parity_exceptional_index` each need one flipped index."""
    return tuple([i for i, x in enumerate(gamma) if (x - n) % 2])


class Verdict(NamedTuple):
    """Outcome of one named clause: lhs related to rhs, ok iff satisfied.

    Informational clauses are reported but do not affect admissibility."""

    clause: str
    ok: bool
    lhs: object
    rhs: object
    informational: bool = False


def admissible(verdicts: Iterable[Verdict]) -> bool:
    """True when every verdict holds or is informational."""
    for v in verdicts:  # a loop, not all(genexpr): this runs once or twice per table row
        if not (v.ok or v.informational):
            return False
    return True


def violations(verdicts: Iterable[Verdict]) -> list[Verdict]:
    return [v for v in verdicts if not v.ok]


def _bound(clause: str, lhs: int, rhs: int, informational: bool = False) -> Verdict:
    # the tuple constructor: most verdicts are built here or in _m_divides
    return tuple.__new__(Verdict, (clause, lhs <= rhs, lhs, rhs, informational))


# ---------------------------------------------------------------------------
# KdV-family checker
# ---------------------------------------------------------------------------


def _m_divides(n: int, d: int, rho: int, m: int, gamma: Vec4) -> Verdict:
    """Clause 5.4(4): m divides n, 2d - 1, rho and every gamma_i."""
    rhs = (n, 2 * d - 1, rho, *gamma)
    ok = m == 1 or not any([x % m for x in rhs])
    return tuple.__new__(Verdict, ("5.4(4) m divides", ok, m, rhs, False))


def evaluate_kdv(inv: CoverInvariants) -> list[Verdict]:
    """Evaluate every clause of the one-marked-point rule catalog."""
    n, d, g, rho, m = inv.n, inv.d, inv.g, inv.rho, inv.m
    gam = inv.gamma
    g1, g2 = gam.total, gam.square_sum
    out: list[Verdict] = []

    out.append(
        Verdict(
            "5.4(3) rho odd",
            rho % 2 == 1 and 1 <= rho <= 2 * d - 1,
            rho,
            2 * d - 1,
        )
    )
    out.append(_m_divides(n, d, rho, m, gam.gamma))
    parities = ((gam[0] + 1) % 2, gam[1] % 2, gam[2] % 2, gam[3] % 2)
    out.append(Verdict("5.4(5) parity", flipped_indices(n, gam.gamma) == (0,), parities, n % 2))
    out.append(_bound("5.5(1) genus vs type sum", 2 * g + 1, g1))
    out.append(Verdict("5.5(2) unramified birational", rho != 1 or m == 1, rho, m))
    out.append(
        _bound("5.5(3) type square bound", g2, 2 * (2 * d - 1) * (n - m) + 4 * m * m - rho * rho)
    )
    out.append(
        _bound(
            "5.5(4) genus square bound",
            (2 * g + 1) ** 2,
            8 * (2 * d - 1) * (n - m) + 13 * m * m - 4 * rho * rho,
        )
    )
    if rho == 1 and m == 1:
        out.append(
            _bound("5.5(5) unramified genus bound", (2 * g + 1) ** 2, 8 * (2 * d - 1) * (n - 1) + 9)
        )
    else:
        out.append(Verdict("5.5(5) unramified genus bound", True, None, None))
    return out


def check_kdv(inv: CoverInvariants) -> list[Verdict]:
    """Violated clauses for a one-marked-point cover (empty = admissible)."""
    return violations(evaluate_kdv(inv))


# ---------------------------------------------------------------------------
# Two-point checkers (Schrodinger/Toda and sine-Gordon families)
# ---------------------------------------------------------------------------

# Two-point square bounds by clause family: genus offset (G = g + offset), then clause id and
# rhs - 4n for distinct projections, one projection with n even, one projection with n odd.
_SQUARE_BOUNDS = {
    "5.7": (1, ("5.7(2)", 0), ("5.7(3)", -4), ("5.7(4)", -8)),  # Schrodinger/Toda covers
    "5.8": (0, ("5.8(2)", 0), ("5.8(3)", -4), ("5.8(4)", -8)),  # sine-Gordon covers
    "6.11": (1, ("6.11(3)", 0), ("6.11(1)", -4), ("6.11(2)", -8)),  # families 6.13, 6.14
    "6.12": (0, ("6.12(3)", -2), ("6.12(1)", -4), ("6.12(2)", -8)),  # families 6.15 - 6.18
}


def _square_bound(table: str, n: int, g: int, same_projection: bool) -> tuple[str, int, int]:
    """Clause id, rhs and genus term G = g + offset of a two-point square bound, its row
    picked by placement and by the parity of n; the genus square bound is G^2 <= rhs."""
    row = _SQUARE_BOUNDS[table]
    clause, shift = row[2 + n % 2 if same_projection else 1]
    return clause, 4 * n + shift, g + row[0]


def _two_point(table: str, n, g, gamma, same: bool) -> tuple[int, int, TypeVector, list[Verdict]]:
    """Checked n >= 1, g >= 0 and gamma, and the clauses both two-point
    families state: (1) genus vs type sum 2G <= gamma^(1), type square bound
    and genus square bound, with G from `_square_bound`."""
    n, g = _integers("n, g", (n, g), 2, (1, 0))
    gam = gamma if isinstance(gamma, TypeVector) else TypeVector(gamma)
    clause, rhs, term = _square_bound(table, n, g, same)
    return n, g, gam, [
        _bound(table + "(1) genus vs type sum", 2 * term, gam.total),
        _bound(clause + " type square bound", gam.square_sum, rhs),
        _bound(clause + " genus square bound", term * term, rhs),
    ]


def evaluate_nls_toda(n: int, g: int, gamma, placement: Placement) -> list[Verdict]:
    if placement is Placement.DISTINCT_HALF_PERIODS:
        # the second marked point is the involution image of the first, so a
        # half-period projection forces both points onto the same fiber
        raise InvalidInvariants(
            "marked points exchanged by the involution cannot project to two "
            "distinct half-periods"
        )
    n, _, gam, bounds = _two_point("5.7", n, g, gamma, placement is Placement.SAME_PROJECTION)
    parities = tuple([x % 2 for x in gam.gamma])
    return [Verdict("5.7 parity", not flipped_indices(n, gam.gamma), parities, n % 2), *bounds]


def check_nls_toda(n: int, g: int, gamma, placement: Placement) -> list[Verdict]:
    return violations(evaluate_nls_toda(n, g, gamma, placement))


def evaluate_sine_gordon(
    n: int,
    g: int,
    gamma,
    placement: Placement,
    half_period_pair: Optional[tuple[int, ...]] = None,
) -> list[Verdict]:
    """Verdicts for a sine-Gordon cover.  `half_period_pair` is the
    placement's index tuple (see `half_period_indices`); when omitted over
    distinct half-periods, 5.6(5) only asks for two flipped indices."""
    if placement is Placement.DISTINCT_GENERIC:
        # involution-fixed marked points always project to half-periods
        raise InvalidInvariants(
            "involution-fixed marked points project to half-periods; distinct "
            "projections must be two distinct half-periods"
        )
    if half_period_pair is not None:
        half_period_pair = half_period_indices(placement, half_period_pair)
    same = placement is Placement.SAME_PROJECTION
    n, g, gam, bounds = _two_point("5.8", n, g, gamma, same)
    flipped = flipped_indices(n, gam.gamma)
    if same:
        parities = tuple([x % 2 for x in gam.gamma])
        return [Verdict("5.6(3) parity", not flipped, parities, n % 2), *bounds]
    want = "two flipped indices" if half_period_pair is None else half_period_pair
    ok = len(flipped) == 2 if half_period_pair is None else flipped == want
    # 6.12(3), sharper than 5.8(2), does not decide admissibility here
    clause, rhs, term = _square_bound("6.12", n, g, same)
    return [Verdict("5.6(5) parity", ok, flipped, want), *bounds,
            _bound(clause + " genus square bound", term * term, rhs, informational=True)]


def check_sine_gordon(
    n: int,
    g: int,
    gamma,
    placement: Placement,
    half_period_pair: Optional[tuple[int, ...]] = None,
) -> list[Verdict]:
    return violations(evaluate_sine_gordon(n, g, gamma, placement, half_period_pair))


# ---------------------------------------------------------------------------
# Type enumeration
# ---------------------------------------------------------------------------


class EnumeratedType(NamedTuple):
    """One admissible type for (n, d): gamma with its implied genus and the
    full clause evaluation for rho = m = 1."""

    gamma: TypeVector
    g: int
    verdicts: tuple[Verdict, ...]

    def __repr__(self) -> str:  # the verdicts stay out of the repr
        return f"EnumeratedType(gamma={self.gamma!r}, g={self.g!r})"


def type_square_target(n: int, d: int) -> int:
    """Required sum of squares (2d-1)(2n-2) + 3 for a rho = m = 1 type."""
    return (2 * d - 1) * (2 * n - 2) + 3


def enumerate_types(n: int, d: int) -> list[EnumeratedType]:
    """All types gamma in N^4 with square sum T = (2d-1)(2n-2)+3 and the
    parity pattern of a rho = m = 1 cover, sorted lexicographically.

    Meet in the middle: the pairs (gamma_2, gamma_3) with the parity of n
    are bucketed by gamma_2^2 + gamma_3^2 (each bucket in ascending order),
    then gamma_0 (opposite parity) and gamma_1 are walked in ascending order
    and joined against the bucket of T - gamma_0^2 - gamma_1^2, so rows come
    out already sorted.  Genus is (gamma^(1) - 1)/2; gamma^(1) is odd for
    every solution, so the genus is always integral.

    Rows share n, d, rho = m = 1, gamma^(2) = T and the parity pattern, so
    only 5.4(4) (its rhs lists gamma) needs more than gamma^(1): evaluate_kdv
    runs once per gamma^(1), and later rows reuse its verdicts (the same
    objects) with their own 5.4(4).  Each row is an EnumeratedType built by
    `tuple.__new__`, holding a TypeVector built as `TypeVector._trusted` does
    (no re-check), which the first row of a gamma^(1) also evaluates; 5.4(4)
    and the bounds build their Verdicts by `tuple.__new__` too.  So a table of
    tens of thousands of types costs little more than the search;
    `enumerate-types` streams its rows from this list.
    """
    n, d = _integers("n, d", (n, d), 2, 1)
    target = type_square_target(n, d)
    top = math.isqrt(target)
    rest = range(n % 2, top + 1, 2)
    pairs: dict[int, list[tuple[int, int]]] = {}
    for g2 in rest:
        for g3 in rest:
            s = g2 * g2 + g3 * g3
            if s > target:
                break
            pairs.setdefault(s, []).append((g2, g3))
    out = []
    shared: dict[int, tuple[Verdict, ...]] = {}  # gamma^(1) -> verdicts
    new_tuple, new_object, set_gamma = tuple.__new__, object.__new__, TypeVector.gamma.__set__
    for g0 in range((n + 1) % 2, top + 1, 2):
        budget0 = target - g0 * g0
        for g1 in rest:
            budget1 = budget0 - g1 * g1
            if budget1 < 0:
                break
            for g2, g3 in pairs.get(budget1, ()):
                ints = (g0, g1, g2, g3)
                gamma = new_object(TypeVector)  # TypeVector._trusted(ints), inlined
                set_gamma(gamma, ints)
                total = g0 + g1 + g2 + g3
                genus = (total - 1) // 2
                first = shared.get(total)
                if first is None:
                    inv = CoverInvariants(n=n, d=d, g=genus, rho=1, m=1, gamma=gamma)
                    verdicts = shared[total] = tuple(evaluate_kdv(inv))
                else:  # 5.4(4) is evaluate_kdv's second verdict
                    verdicts = (first[0], _m_divides(n, d, 1, 1, ints), *first[2:])
                out.append(new_tuple(EnumeratedType, (gamma, genus, verdicts)))
    return out


# ---------------------------------------------------------------------------
# Constructive type generator
# ---------------------------------------------------------------------------


class GeneratedType(NamedTuple):
    """A generated type, its degree and genus, and its rho = m = 1 verdicts."""

    gamma: TypeVector
    n: int
    g: int
    verdicts: tuple[Verdict, ...]

    def __repr__(self) -> str:  # the verdicts stay out of the repr
        return f"GeneratedType(gamma={self.gamma!r}, n={self.n!r}, g={self.g!r})"


def _epsilon_patterns(d: int, k: int) -> list[tuple[int, ...]]:
    """The |2*eps_i| magnitude patterns allowed for order d, distinguished
    index k: the (2d-2)(1 - delta_{ik}) pattern plus the alternate pattern
    d - (-1)^delta (d odd) or d - 2*delta (d even)."""
    main = tuple((2 * d - 2) * (0 if i == k else 1) for i in range(4))
    if d % 2 == 1:
        alt = tuple(d + 1 if i == k else d - 1 for i in range(4))
    else:
        alt = tuple(d - 2 if i == k else d for i in range(4))
    return [main, alt]


def construct_types(d: int, k: int, mu) -> list[GeneratedType]:
    """Generate admissible types gamma = (2d-1)*mu + 2*eps of square sum
    (2d-1)(2n-2)+3 for every sign choice of the two magnitude patterns.

    Requires d >= 2, k in 0..3, and mu in N^4 with mu_0 + 1 = mu_1 = mu_2 =
    mu_3 (mod 2).  Sign choices are over-generated: any gamma with a
    negative entry is dropped, the rest are deduplicated and sorted, and
    those that pass the full rho = m = 1 clause catalog are kept with that
    evaluation as their verdicts.
    """
    d, k = _integers("d, k", (d, k), 2, (2, None))
    m = _integers("mu", mu, 4, 0)
    if k not in range(4):
        raise InvalidInvariants(f"distinguished index must be 0..3, got {k}")
    if flipped_indices(m[0] + 1, m) != (0,):
        raise ParityViolation(f"need mu_0 + 1 = mu_j (mod 2) for j = 1..3, got {m}")

    # With D = 2d-1, every mags entry is even, so gamma_i = mu_i (mod 2) and gamma^(1) is odd;
    # sum(mags^2) is 3(D-1)^2 or D^2+3, so gamma^(2) - 3 = D^2(mu^(2) + 3 or + 1) = 0 (mod 2D);
    # at most one gamma_i is 0, so gamma^(2) >= 3: n >= 1 and g are integers by construction.
    results: dict[Vec4, GeneratedType] = {}
    dd = 2 * d - 1
    for mags in _epsilon_patterns(d, k):
        sign_axes = [(-1, 1) if v else (0,) for v in mags]
        for signs in product(*sign_axes):
            gamma = tuple(dd * m[i] + signs[i] * mags[i] for i in range(4))
            if gamma in results or any(x < 0 for x in gamma):
                continue
            vec = TypeVector._trusted(gamma)
            n = (vec.square_sum - 3) // (2 * dd) + 1
            g = (vec.total - 1) // 2
            verdicts = tuple(evaluate_kdv(CoverInvariants(n=n, d=d, g=g, rho=1, m=1, gamma=vec)))
            if admissible(verdicts):
                results[gamma] = GeneratedType(vec, n, g, verdicts)

    # gamma fixes n and g, so sorting by gamma alone keeps the (gamma, n, g) order
    return [results[gamma] for gamma in sorted(results)]


def construct_closed_forms(d: int, mu) -> tuple[int, int]:
    """Closed forms for the eps = (0, d-1, d-1, d-1) pattern with all plus
    signs:  2g + 1 = (2d-1)*mu^(1) + 6(d-1)  and
            2n = (2d-1)*mu^(2) + 4(d-1)(mu_1 + mu_2 + mu_3) + 6d - 7,
    for d >= 1 and mu in N^4."""
    (d,) = _integers("d", (d,), 1, 1)
    m = _integers("mu", mu, 4, 0)
    m1 = sum(m)
    m2 = sum(x * x for x in m)
    two_g_plus_1 = (2 * d - 1) * m1 + 6 * (d - 1)
    two_n = (2 * d - 1) * m2 + 4 * (d - 1) * (m[1] + m[2] + m[3]) + 6 * d - 7
    if two_g_plus_1 % 2 != 1 or two_n % 2 != 0:
        raise InvalidInvariants(f"closed forms are not integral for mu = {m}")
    return (two_g_plus_1 - 1) // 2, two_n // 2


# ---------------------------------------------------------------------------
# Family parameter maps
# ---------------------------------------------------------------------------

FAMILY_CASES = ("6.13", "6.14", "6.15", "6.16", "6.17", "6.18")


class FamilySpec(namedtuple("FamilySpec", "case alpha at_half_period j0")):
    """One member of the six explicit families: the case label, a vector
    alpha in N^4, and placement data (whether the base point sits at a
    half-period for the Schrodinger/Toda cases; the distinguished index j0
    for case 6.17)."""

    __slots__ = ()

    def __new__(cls, case: str, alpha, at_half_period: bool = False,
                j0: Optional[int] = None) -> FamilySpec:
        if case not in FAMILY_CASES:
            raise InvalidInvariants(f"case must be one of {FAMILY_CASES}, got {case!r}")
        a = _integers("alpha", alpha, 4, 0)
        if at_half_period and case not in ("6.13", "6.14"):
            raise InvalidInvariants(f"at_half_period is for 6.13 and 6.14, not {case}")
        if j0 is not None and case != "6.17":
            raise InvalidInvariants(f"j0 applies only to case 6.17, not {case}")
        a1 = sum(a)
        if case == "6.14":
            if a == (0, 0, 0, 0):
                raise InvalidInvariants("case 6.14 requires alpha != 0")
            if a1 % 2 != bool(at_half_period):
                raise ParityViolation(
                    "case 6.14 needs a half-period base point exactly when the alpha sum is odd"
                )
        elif case == "6.15":
            if (a[2] + a[3]) % 2 != 1:
                raise ParityViolation("case 6.15 requires alpha_2 + alpha_3 odd")
        elif case == "6.16":
            if (a[0] + a[1]) % 2 != 0:
                raise ParityViolation("case 6.16 requires alpha_0 + alpha_1 even")
        elif case == "6.17":
            if j0 not in (1, 2, 3):
                raise InvalidInvariants(f"case 6.17 requires j0 in {{1, 2, 3}}, got {j0!r}")
            (j0,) = _integers("j0", (j0,), 1)
            if flipped_indices(a[j0] + 1, a) != (j0,):
                raise ParityViolation(
                    f"case 6.17 requires alpha_j0 + 1 = alpha_i (mod 2), got {a}"
                )
        return tuple.__new__(cls, (case, a, at_half_period, j0))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


class FamilyParams(_Slotted):
    """Genus and degree of a family member, with its bound's verdict; it
    iterates as (g, n) only."""

    __slots__ = ("g", "n", "verdicts")

    def __init__(self, g: int, n: int, verdicts: tuple[Verdict, ...]):
        self._store(g, n, verdicts)

    def __iter__(self):
        return iter((self.g, self.n))


def family_params(spec: FamilySpec) -> FamilyParams:
    """Genus and degree of the family member, with the matching restriction
    cross-checked and attached as a verdict."""
    a = spec.alpha
    a1 = sum(a)
    a2 = sum(x * x for x in a)
    case = spec.case

    same = spec.at_half_period  # only ever set for 6.13 and 6.14
    if case == "6.13":
        g, n = a1 + 1, a2 + a1 + (3 if same else 1)
    elif case == "6.14":
        g, n = a1 - 1, a2 + (1 if same else 0)
    elif case == "6.15":
        g, n = a1 + 1, a2 + a[0] + a[1] + 1
    elif case == "6.16":
        g, n = a1 + 1, a2 + a[2] + a[3] + 1
    elif case == "6.17":
        g, n, same = a1, a2 + 1, True
    else:  # 6.18
        g, n, same = a1 + 2, a2 + a1 + 3, True

    # 6.13 and 6.14 are Schrodinger/Toda covers, the others sine-Gordon ones
    table = "6.11" if case in ("6.13", "6.14") else "6.12"
    clause, rhs, term = _square_bound(table, n, g, same)
    return FamilyParams(g, n, (_bound(clause + " genus square bound", term * term, rhs),))
