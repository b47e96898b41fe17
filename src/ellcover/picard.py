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

Coefficients are stored with their signs as written, so the class of a
degree-n cover carries negative s and r entries.  Genus computations are
exact rationals; negative or non-integral outputs are legal values that
flag inadmissibility upstream.

The quotient by the involution is a rational surface whose canonical class
pulls back to e*(-2*C_o); classes invariant under the involution descend,
halving self-intersection and canonical pairing (`TauInvariantClass`).
Two-marked-point classes (`nls_sg_class`) take their placement model and
parity rule from `invariants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidInvariants, ParityViolation
from .invariants import Placement, TypeVector, Vec4, _vec4, flipped_indices, half_period_indices

_ZERO4: Vec4 = (0, 0, 0, 0)


@dataclass(frozen=True)
class DivisorClass:
    """Numerical divisor class in the basis (e*(C_o), e*(F), s_0..3, r_0..3)."""

    a: int
    b: int
    s: Vec4 = _ZERO4
    r: Vec4 = _ZERO4

    def __post_init__(self):
        object.__setattr__(self, "a", int(self.a))
        object.__setattr__(self, "b", int(self.b))
        object.__setattr__(self, "s", _vec4(self.s))
        object.__setattr__(self, "r", _vec4(self.r))

    def dot(self, other: "DivisorClass") -> int:
        return (
            self.a * other.b
            + self.b * other.a
            - sum(x * y for x, y in zip(self.s, other.s))
            - sum(x * y for x, y in zip(self.r, other.r))
        )

    @property
    def self_intersection(self) -> int:
        return self.dot(self)

    def coefficients(self) -> tuple[int, ...]:
        return (self.a, self.b, *self.s, *self.r)

    @classmethod
    def from_coefficients(cls, coeffs) -> "DivisorClass":
        c = [int(v) for v in coeffs]
        if len(c) != 10:
            raise InvalidInvariants(f"expected 10 integers, got {len(c)}")
        return cls(c[0], c[1], tuple(c[2:6]), tuple(c[6:10]))

    def divided_by(self, m: int) -> "DivisorClass":
        """Divide all coefficients by m; every coefficient must be divisible."""
        if m <= 0:
            raise InvalidInvariants("divisor degree m must be positive")
        if any(c % m for c in self.coefficients()):
            raise InvalidInvariants(f"class is not divisible by {m}")
        return DivisorClass.from_coefficients(c // m for c in self.coefficients())

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(
            self.a + other.a,
            self.b + other.b,
            tuple(x + y for x, y in zip(self.s, other.s)),
            tuple(x + y for x, y in zip(self.r, other.r)),
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-1) * other

    def __neg__(self) -> "DivisorClass":
        return (-1) * self

    def __rmul__(self, k: int) -> "DivisorClass":
        k = int(k)
        return DivisorClass(
            k * self.a,
            k * self.b,
            tuple(k * x for x in self.s),
            tuple(k * x for x in self.r),
        )


def section_class() -> DivisorClass:
    """e*(C_o), the pulled-back zero-section."""
    return DivisorClass(1, 0)


def fiber_class() -> DivisorClass:
    """e*(F), the pulled-back fiber (numerical class)."""
    return DivisorClass(0, 1)


def s_class(i: int) -> DivisorClass:
    """Exceptional class s_i over the half-period with index i."""
    return DivisorClass(0, 0, tuple(1 if j == i else 0 for j in range(4)))


def r_class(i: int) -> DivisorClass:
    """Exceptional class r_i over the half-period with index i."""
    return DivisorClass(0, 0, _ZERO4, tuple(1 if j == i else 0 for j in range(4)))


def intersect(d: DivisorClass, e: DivisorClass) -> int:
    """Symmetric bilinear intersection pairing under the fixed form."""
    return d.dot(e)


def canonical_class() -> DivisorClass:
    """Canonical class: -2*e*(C_o) plus all eight exceptional classes."""
    return DivisorClass(-2, 0, (1, 1, 1, 1), (1, 1, 1, 1))


def adjunction_genus(d: DivisorClass) -> Fraction:
    """Arithmetic genus 1 + (D^2 + D.K)/2 as an exact rational."""
    return Fraction(2 + d.self_intersection + d.dot(canonical_class()), 2)


def cover_class(n: int, d: int, rho: int, gamma) -> DivisorClass:
    """Class of a degree-n cover with osculating order d, ramification rho
    and type gamma (the m = 1 normalization):

        e*(n*C_o + (2d-1)*F) - rho*s_0 - sum_i gamma_i * r_i
    """
    n, d, rho = int(n), int(d), int(rho)
    g = _vec4(gamma)
    if n < 1:
        raise InvalidInvariants(f"degree n must be >= 1, got {n}")
    if d < 1:
        raise InvalidInvariants(f"osculating order d must be >= 1, got {d}")
    if rho % 2 == 0 or not 1 <= rho <= 2 * d - 1:
        raise InvalidInvariants(
            f"ramification index rho={rho} must be odd with 1 <= rho <= {2 * d - 1}"
        )
    if any(x < 0 for x in g):
        raise InvalidInvariants(f"type vector must be non-negative, got {g}")
    return DivisorClass(n, 2 * d - 1, (-rho, 0, 0, 0), tuple(-x for x in g))


_MINUS_TWO_SECTIONS = DivisorClass(-2, 0)


@dataclass(frozen=True)
class TauInvariantClass:
    """A divisor class asserted to be the pullback of a class downstairs.

    Pullback along the degree-2 quotient doubles both the self-intersection
    and the pairing with the canonical class, so both must be even here.
    """

    divisor: DivisorClass

    def __post_init__(self):
        d2 = self.divisor.self_intersection
        kp = self.divisor.dot(_MINUS_TWO_SECTIONS)
        if d2 % 2:
            raise ParityViolation(f"self-intersection {d2} is odd: not a pullback")
        if kp % 2:
            raise ParityViolation(f"canonical pairing {kp} is odd: not a pullback")

    @property
    def quotient_self_intersection(self) -> int:
        return self.divisor.self_intersection // 2

    @property
    def quotient_canonical_pairing(self) -> int:
        return self.divisor.dot(_MINUS_TWO_SECTIONS) // 2

    @property
    def quotient_genus(self) -> Fraction:
        return Fraction(
            2 + self.quotient_self_intersection + self.quotient_canonical_pairing, 2
        )


def tilde_genus(d: Union[DivisorClass, TauInvariantClass]) -> Fraction:
    """Arithmetic genus of the descended class on the quotient surface.

    Exact rational 1 + (D^2/2 + D.e*(-2C_o)/2)/2; raises ParityViolation
    when D is not a pullback (odd self-intersection or canonical pairing).
    """
    if isinstance(d, DivisorClass):
        d = TauInvariantClass(d)
    return d.quotient_genus


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
    n = int(n)
    if n < 1:
        raise InvalidInvariants(f"degree n must be >= 1, got {n}")
    g = TypeVector(gamma).gamma
    want = idx if placement is Placement.DISTINCT_HALF_PERIODS else ()
    if flipped_indices(n, g) != want:
        raise ParityViolation(
            f"type {g} at degree n = {n} needs gamma_i != n (mod 2) exactly at {want}"
        )
    # one shared half-period carries s_{i0} twice, two distinct ones once each
    s = tuple(-2 // len(idx) if i in idx else 0 for i in range(4))
    return DivisorClass(n, 2, s, tuple(-x for x in g))


def parity_exceptional_index(alpha) -> int:
    """Index whose parity differs from the other three; ParityViolation if absent."""
    a = _vec4(alpha)
    odd = [i for i in range(4) if a[i] % 2]
    if len(odd) == 1:
        return odd[0]
    if len(odd) == 3:
        return next(i for i in range(4) if a[i] % 2 == 0)
    raise ParityViolation(f"no unique parity-exceptional index in {a}")


def exceptional_class(alpha) -> DivisorClass:
    """Candidate exceptional curve class attached to alpha with odd square sum.

    With 2n + 1 = sum alpha_i^2 and k the parity-exceptional index, returns
        e*(n*C_o + F_k) - s_k - sum_i alpha_i r_i
    (F_k is a fiber, hence b = 1 numerically).
    """
    a = _vec4(alpha)
    if any(x < 0 for x in a):
        raise InvalidInvariants(f"alpha must be non-negative, got {a}")
    sq = sum(x * x for x in a)
    if sq % 2 == 0:
        raise ParityViolation(f"sum of squares {sq} must be odd")
    k = parity_exceptional_index(a)
    n = (sq - 1) // 2
    s = tuple(-1 if i == k else 0 for i in range(4))
    return DivisorClass(n, 1, s, tuple(-x for x in a))


def is_exceptional_first_kind(d: DivisorClass) -> bool:
    """True when the descended class has self-intersection -1 and canonical
    pairing -1, i.e. the pullback satisfies D^2 = D.e*(-2C_o) = -2."""
    return d.self_intersection == -2 and d.dot(_MINUS_TWO_SECTIONS) == -2
