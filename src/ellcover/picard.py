"""Exact integer intersection theory on the blown-up ruled surface.

The ambient surface is the ruled surface over the base elliptic curve,
blown up at the eight fixed points of its canonical involution: two over
each half-period, one on the zero-section side (classes s_0..s_3) and one
on the complementary side (classes r_0..r_3).  A numerical divisor class
is written as

    a * e*(C_o)  +  b * e*(F)  +  sum_i s_i * s_i_perp  +  sum_i r_i * r_i_perp

where C_o is the zero-section, F a fiber (all fibers are identified
numerically), and e* denotes pullback along the blow-up.  The intersection
form is fixed by

    e*(C_o)^2 = e*(F)^2 = 0,   e*(C_o).e*(F) = 1,
    s_i^2 = r_i^2 = -1,        all exceptional classes mutually orthogonal
                               and orthogonal to the pullbacks.

Coefficients are integers stored with their signs as written, so the
class of a degree-n cover carries negative s and r entries.  Public
entries check, derived classes are built from checked ints: the public
constructors reject a non-integer naming their input, and a cover class,
a sum or a multiple is built by `DivisorClass._trusted` from ints that
were checked once.  `DivisorClass` and `TauInvariantClass` are
`invariants._Slotted` records, like `TypeVector`.  Genus computations are
exact rationals; negative or non-integral outputs are legal values that
flag inadmissibility upstream.

The quotient by the involution is a rational surface whose canonical class
pulls back to e*(-2*C_o): an invariant class D descends to one of square
D^2/2, canonical pairing -b and genus 1 + (D^2/2 - b)/2.  Two-marked-point
classes (`nls_sg_class`) take their placement model and parity rule from
`invariants`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInvariants, ParityViolation
from .invariants import Placement, Vec4, _integers, _Slotted, flipped_indices, half_period_indices


class DivisorClass(_Slotted):
    """Numerical divisor class in the basis (e*(C_o), e*(F), s_0..3, r_0..3)."""

    __slots__ = ("a", "b", "s", "r")

    def __init__(self, a: int, b: int, s: Vec4 = (0, 0, 0, 0), r: Vec4 = (0, 0, 0, 0)):
        self._store(*_integers("a, b", (a, b), 2), _integers("s", s, 4), _integers("r", r, 4))

    @classmethod
    def _trusted(cls, a: int, b: int, s: Vec4, r: Vec4) -> DivisorClass:
        """A class of ints, s and r tuples, that the caller has already checked."""
        self = object.__new__(cls)
        _set_a(self, a)
        _set_b(self, b)
        _set_s(self, s)
        _set_r(self, r)
        return self

    def dot(self, other: "DivisorClass") -> int:
        s, r, t, u = self.s, self.r, other.s, other.r
        return (self.a * other.b + self.b * other.a
                - s[0] * t[0] - s[1] * t[1] - s[2] * t[2] - s[3] * t[3]
                - r[0] * u[0] - r[1] * u[1] - r[2] * u[2] - r[3] * u[3])

    @property
    def self_intersection(self) -> int:
        return self.dot(self)

    def coefficients(self) -> tuple[int, ...]:
        return (self.a, self.b, *self.s, *self.r)

    @classmethod
    def from_coefficients(cls, coeffs) -> "DivisorClass":
        c = _integers("coefficients", coeffs, 10)
        return cls._trusted(c[0], c[1], c[2:6], c[6:])

    def divided_by(self, m: int) -> "DivisorClass":
        """Divide all coefficients by an integer m >= 1 that divides every one."""
        (m,) = _integers("m", (m,), 1, 1)
        if any(c % m for c in self.coefficients()):
            raise InvalidInvariants(f"class is not divisible by {m}")
        return _of_ints([c // m for c in self.coefficients()])

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return _of_ints([x + y for x, y in zip(self.coefficients(), other.coefficients())])

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return _of_ints([x - y for x, y in zip(self.coefficients(), other.coefficients())])

    def __neg__(self) -> "DivisorClass":
        return _of_ints([-c for c in self.coefficients()])

    def __rmul__(self, k: int) -> "DivisorClass":
        (k,) = _integers("k", (k,), 1)
        return _of_ints([k * c for c in self.coefficients()])


# the slots' own setters, about 75 ns a field cheaper than object.__setattr__
_set_a, _set_b, _set_s, _set_r = [DivisorClass.__dict__[f].__set__ for f in DivisorClass.__slots__]


def _of_ints(c: list[int]) -> DivisorClass:
    """The class of ten ints in `coefficients()` order, derived from checked ones."""
    return DivisorClass._trusted(c[0], c[1], tuple(c[2:6]), tuple(c[6:]))


def section_class() -> DivisorClass:
    """e*(C_o), the pulled-back zero-section."""
    return DivisorClass(1, 0)


def fiber_class() -> DivisorClass:
    """e*(F), the pulled-back fiber (numerical class)."""
    return DivisorClass(0, 1)


def _unit4(i: int) -> Vec4:
    if i not in range(4):
        raise InvalidInvariants(f"half-period index must be 0..3, got {i!r}")
    return tuple(1 if j == i else 0 for j in range(4))  # type: ignore[return-value]


def s_class(i: int) -> DivisorClass:
    """Exceptional class s_i over the half-period with index i."""
    return DivisorClass(0, 0, _unit4(i))


def r_class(i: int) -> DivisorClass:
    """Exceptional class r_i over the half-period with index i."""
    return DivisorClass(0, 0, (0, 0, 0, 0), _unit4(i))


def intersect(d: DivisorClass, e: DivisorClass) -> int:
    """Symmetric bilinear intersection pairing under the fixed form."""
    return d.dot(e)


_CANONICAL = DivisorClass(-2, 0, (1, 1, 1, 1), (1, 1, 1, 1))


def canonical_class() -> DivisorClass:
    """Canonical class: -2*e*(C_o) plus all eight exceptional classes."""
    return _CANONICAL


def adjunction_genus(d: DivisorClass) -> Fraction:
    """Arithmetic genus 1 + (D^2 + D.K)/2 as an exact rational."""
    # D.K = D.dot(_CANONICAL) in closed form: -2b - sum(s) - sum(r)
    return Fraction(2 + d.self_intersection - 2 * d.b - sum(d.s) - sum(d.r), 2)


def cover_class(n: int, d: int, rho: int, gamma) -> DivisorClass:
    """Class of a degree-n cover with osculating order d, ramification rho
    and type gamma (the m = 1 normalization):

        e*(n*C_o + (2d-1)*F) - rho*s_0 - sum_i gamma_i * r_i
    """
    n, d, rho = _integers("n, d, rho", (n, d, rho), 3, 1)
    if rho % 2 == 0 or rho > 2 * d - 1:
        raise InvalidInvariants(f"ramification rho={rho} must be odd, 1 <= rho <= {2 * d - 1}")
    g0, g1, g2, g3 = _integers("gamma", gamma, 4, 0)
    return DivisorClass._trusted(n, 2 * d - 1, (-rho, 0, 0, 0), (-g0, -g1, -g2, -g3))


def _descended(d: DivisorClass) -> tuple[int, int]:
    """(D^2/2, -b), the square and canonical pairing of the class D descends to."""
    square = d.self_intersection
    if square % 2:
        raise ParityViolation(f"self-intersection {square} is odd: not a pullback")
    return square // 2, -d.b


class TauInvariantClass(_Slotted):
    """A divisor class asserted to be the pullback of a class downstairs.

    Pullback along the degree-2 quotient doubles both the self-intersection
    and the pairing with the canonical class.  Only D^2 needs checking for
    evenness: the pairing D.e*(-2C_o) is -2b, always even.
    """

    __slots__ = ("divisor",)

    def __init__(self, divisor: DivisorClass):
        if not isinstance(divisor, DivisorClass):
            raise InvalidInvariants(f"divisor: expected a DivisorClass, got {divisor!r}")
        _descended(divisor)
        self._store(divisor)

    @property
    def quotient_self_intersection(self) -> int:
        return _descended(self.divisor)[0]

    @property
    def quotient_canonical_pairing(self) -> int:
        return _descended(self.divisor)[1]

    @property
    def quotient_genus(self) -> Fraction:
        return tilde_genus(self.divisor)


def tilde_genus(d: DivisorClass | TauInvariantClass) -> Fraction:
    """Arithmetic genus of the descended class on the quotient surface.

    Exact rational 1 + (D^2/2 - b)/2; ParityViolation when D^2 is odd.
    """
    if isinstance(d, TauInvariantClass):
        d = d.divisor
    return Fraction(2 + sum(_descended(d)), 2)


def nls_sg_class(n: int, placement: Placement, gamma, indices=()) -> DivisorClass:
    """Class of a two-marked-point cover (Schrodinger/Toda or sine-Gordon side).

    By placement, with its half-period indices (`invariants.half_period_indices`):
      same half-period (i0,)        -> e*(n*C_o + 2F) - 2*s_{i0} - sum gamma_i r_i
      distinct generic points ()    -> e*(n*C_o + 2F) - sum gamma_i r_i
      distinct half-periods (k, j)  -> e*(n*C_o + F_k + F_j) - s_k - s_j - sum gamma_i r_i
    (fibers are identified numerically, so F_k + F_j contributes b = 2).

    Raises ParityViolation unless the indices i with gamma_i != n (mod 2)
    (`invariants.flipped_indices`) are (k, j) over distinct half-periods
    and none otherwise.
    """
    idx = half_period_indices(placement, indices)
    (n,) = _integers("n", (n,), 1, 1)
    g = _integers("gamma", gamma, 4, 0)
    want = idx if placement is Placement.DISTINCT_HALF_PERIODS else ()
    if flipped_indices(n, g) != want:
        raise ParityViolation(f"type {g} at n = {n} needs gamma_i != n (mod 2) exactly at {want}")
    # one shared half-period carries s_{i0} twice, two distinct ones once each
    s = tuple(-2 // len(idx) if i in idx else 0 for i in range(4))
    return DivisorClass._trusted(n, 2, s, tuple([-x for x in g]))


def parity_exceptional_index(alpha) -> int:
    """Index whose parity differs from the other three; ParityViolation if absent."""
    return _exceptional_index(_integers("alpha", alpha, 4))


def _exceptional_index(a: tuple[int, ...]) -> int:
    """`parity_exceptional_index` of four checked ints."""
    for flipped in (flipped_indices(0, a), flipped_indices(1, a)):
        if len(flipped) == 1:
            return flipped[0]
    raise ParityViolation(f"no unique parity-exceptional index in {a}")


def exceptional_class(alpha) -> DivisorClass:
    """Candidate exceptional curve class attached to alpha with odd square sum.

    With 2n + 1 = sum alpha_i^2 and k the parity-exceptional index, returns
        e*(n*C_o + F_k) - s_k - sum_i alpha_i r_i
    (F_k is a fiber, hence b = 1 numerically).
    """
    a = _integers("alpha", alpha, 4, 0)
    sq = sum(x * x for x in a)
    if sq % 2 == 0:
        raise ParityViolation(f"sum of squares {sq} must be odd")
    s = tuple([-x for x in _unit4(_exceptional_index(a))])
    return DivisorClass._trusted((sq - 1) // 2, 1, s, tuple([-x for x in a]))


def is_exceptional_first_kind(d: DivisorClass) -> bool:
    """True when D descends to a class with self-intersection -1 and
    canonical pairing -1, i.e. D^2 = -2 and b = 1."""
    return d.self_intersection % 2 == 0 and _descended(d) == (-1, -1)
