r"""Numerical Weierstrass function engine over an arbitrary period lattice.

A lattice is specified by half-periods (omega1, omega2), so the actual
periods are 2*omega1 and 2*omega2 with Im(omega2/omega1) > 0.  The module
evaluates

    wp(z)       the Weierstrass P-function, even, double pole at lattice points
    wp_prime(z) its derivative, odd
    zeta(z)     the Weierstrass zeta function, odd, zeta(z) = 1/z + O(z^3)

together with the quasi-period constants eta_j defined by

    zeta(z + 2*omega_j) = zeta(z) + eta_j,      j = 1, 2,

which satisfy Legendre's relation  eta1*2*omega2 - eta2*2*omega1 = 2*pi*i.

Evaluation strategy: the defining lattice sums are truncated after summing
each row of lattice points (all points n*2*omega2 + Z*2*omega1 for fixed n)
in closed form,

    sum_m 1/(w - m)^2 = pi^2/sin^2(pi*w),    sum_m 1/(w - m) = pi*cot(pi*w),

which turns the slowly convergent double sum into a single sum over rows
whose terms decay like |q|^(2n), q = exp(i*pi*omega2/omega1).  The basis is
Gauss-reduced internally first, so Im(tau) >= sqrt(3)/2 and a rigorous
geometric tail bound picks the series order from the requested precision.
wp, wp' and zeta share one kernel: the two rows nearest z in closed form,
every other row through a Lambert series whose coefficients are fixed per
lattice, summed by Horner's rule, so a point costs one exponential, three
divisions and one multiply-add per series row.  zeta needs no quasi-period
first: its linear term takes z itself, and Legendre's relation turns each
shift by q2 into -2*pi*i/q1.  The eta_j follow from that term in closed
form, with neither the kernel nor numpy, which only the kernel and `reduce`
import.  Points run in blocks, each doing all of its work, from the
reduction into the cell to its finished values, in one-block buffers, and
every step is elementwise: a value depends only on (lattice, point),
whether it comes from a scalar call, a prefix or a slice of a longer array;
see `Lattice._evaluate`.  A brute-force truncated lattice sum is kept as an
independent cross-check in `elliptic_reference`.

Half-period representatives are fixed once and indexed 0..3:

    index 0 -> 0 (the origin),  1 -> omega1,  2 -> omega2,  3 -> omega1 + omega2.

Type-vector components elsewhere in the package are indexed by this order.

All operations are pure functions of (lattice, z); `Lattice` instances are
immutable and safe for concurrent read-only use.
"""

from __future__ import annotations

import cmath
import math
from enum import IntEnum
from functools import cached_property
from numbers import Number, Real

from .errors import ConvergenceFailure, PoleProximity
from .invariants import _Slotted

TWO_PI_I = 2j * math.pi

#: Hard floor for the evaluation precision: everything runs in f64.
PRECISION_FLOOR = 1e-12

#: Pole-exclusion radius, as a fraction of the shortest lattice vector.
POLE_EXCLUSION_FACTOR = 1e-3

_MAX_ROWS = 512

_EPS = 2.0**-52  # float64 machine epsilon

#: Points per block of `Lattice._evaluate`: 256 KiB for E and G side by side.
_BLOCK_POINTS = 1 << 13

#: Power p of j in the series coefficients j^p * L_j of each function.
_SERIES_POWER = {"zeta": 0, "wp": 1, "wp_prime": 2}


class HalfPeriodIndex(IntEnum):
    """Index of the four fixed points of z -> -z on the torus."""

    ORIGIN = 0
    FIRST = 1
    SECOND = 2
    SUM = 3


class QuasiPeriods(_Slotted):
    """Additive monodromy constants of zeta along the two periods."""

    __slots__ = ("eta1", "eta2")

    def __init__(self, eta1: complex, eta2: complex):
        self._store(eta1, eta2)


def _gauss_reduce(p1: complex, p2: complex) -> tuple[complex, complex]:
    """Return a reduced, positively oriented basis of the lattice Z*p1 + Z*p2."""
    for _ in range(256):
        if abs(p1) > abs(p2):
            p1, p2 = p2, p1
        t = round((p2 * p1.conjugate()).real / abs(p1) ** 2)
        # a tie (|p2 - t*p1| = |p2|, as on hexagonal lattices) is already reduced
        if t == 0 or abs(p2 - t * p1) >= abs(p2):
            break
        p2 = p2 - t * p1
    else:  # pragma: no cover - reduction always terminates
        raise ConvergenceFailure("lattice basis reduction did not terminate")
    if (p2 / p1).imag < 0:
        p2 = -p2
    return p1, p2


def _inverse_basis(p1: complex, p2: complex):
    """2x2 inverse of the real matrix mapping (a, b) -> a*p1 + b*p2."""
    det = p1.real * p2.imag - p1.imag * p2.real
    return (p2.imag / det, -p2.real / det, -p1.imag / det, p1.real / det)


class Lattice(_Slotted):
    """Rank-2 period lattice spanned by 2*omega1 and 2*omega2.

    `precision` (clamped to the f64 floor of 1e-12) bounds the error of a
    value f of wp, wp' or zeta at a point of the reduced cell by
    precision * (|f| + (pi/L)^k), where L is the shortest period and k is
    2, 3 or 1 respectively; half-periods, cell edges and points just outside
    the pole-exclusion radius included.  At m*q1 + n*q2 off that cell (the
    reduced basis), zeta's bound is precision * (|f| + (pi/L)*(1 + |m| + |n|)).
    """

    _fields = ("omega1", "omega2", "precision")

    def __init__(self, omega1: complex, omega2: complex, precision: float = 1e-12):
        for name, value in (("omega1", omega1), ("omega2", omega2)):
            if type(value) is bool or not isinstance(value, Number):
                raise ValueError(f"{name}: need a number, got {value!r}")
        if type(precision) is bool or not isinstance(precision, Real):
            raise ValueError(f"precision: need a real number, got {precision!r}")
        w1, w2 = complex(omega1), complex(omega2)
        if not (cmath.isfinite(w1) and cmath.isfinite(w2) and math.isfinite(precision)):
            raise ValueError("half-periods and precision must be finite")
        if w1 == 0 or w2 == 0 or not (w2 / w1).imag > 0:
            raise ValueError("need Im(omega2/omega1) > 0 for an oriented basis")
        if not precision > 0:
            raise ValueError("precision must be positive")
        self._store(w1, w2, precision)

    # -- derived, immutable geometry ---------------------------------------

    @cached_property
    def tolerance(self) -> float:
        return max(float(self.precision), PRECISION_FLOOR)

    @cached_property
    def periods(self) -> tuple[complex, complex]:
        return 2 * self.omega1, 2 * self.omega2

    @cached_property
    def _reduced(self) -> tuple[complex, complex]:
        return _gauss_reduce(*self.periods)

    @cached_property
    def _coordinates(self) -> tuple[float, float, float, float]:
        """The real matrix taking z to its coordinates in the reduced basis."""
        return _inverse_basis(*self._reduced)

    @cached_property
    def shortest_vector(self) -> float:
        return abs(self._reduced[0])

    @cached_property
    def pole_radius(self) -> float:
        return POLE_EXCLUSION_FACTOR * self.shortest_vector

    @cached_property
    def _tau(self) -> complex:
        q1, q2 = self._reduced
        return q2 / q1

    @cached_property
    def _rows(self) -> int:
        """Truncation order of the Lambert series in `_evaluate`: every term
        x^j with j > rows is dropped.

        With r = |q|^2 = exp(-2y) and y = pi*Im(tau) >= pi*sqrt(3)/2, r < 0.0044.
        As |x| <= 1, a dropped term is at most j^2 * r^j / (1 - r) (wp' has
        the largest coefficients, j^2 * L_j), and these bounds shrink by
        ((j+1)/j)^2 * r < 0.006 per step, so each of the two series (x = E,
        x = G) drops at most 1.02 * (rows+1)^2 * r^(rows+1).  The row count
        is at least N + 2 with r^N <= precision / (64 * scale), so that is at
        most 1.02 * (rows+1)^2 * r^3 * precision / (64 * scale), and
        (rows+1)^2 * r^3 < 513^2 * 0.0044^3 < 0.023 for rows <= 512: the two
        extra rows pay for the j^2 growth.  Over both series and the row
        constant (whose tail is the same bound at x = 1), wp' and wp scale
        these tails by at most 16*|pi/q1|^k <= 16*scale, and zeta by at most
        4*|pi/q1| plus 8*|pi/q1|^2*|z| <= 4*pi*|pi/q1|*(1 + |tau|), which
        leaves the truncation error below 0.02 * precision * (pi/L)^k.
        """
        q1, _ = self._reduced
        y = math.pi * self._tau.imag
        pref = abs(math.pi / q1)
        scale = max(1.0, pref, pref**2, pref**3)
        n = int(math.ceil((math.log(64.0 * scale / self.tolerance)) / (2.0 * y))) + 2
        if n > _MAX_ROWS:
            raise ConvergenceFailure(
                f"series needs {n} rows to reach precision {self.tolerance:g}"
            )
        return max(n, 6)

    @cached_property
    def _q2(self) -> complex:
        """q^2 = exp(2i*pi*tau); exactly 0 once it underflows (Im tau > 118.6)."""
        return cmath.exp(TWO_PI_I * self._tau)

    @cached_property
    def _lj(self) -> list[complex]:
        """L_j = q^(2j)/(1 - q^(2j)), j = 1..rows, for `_series` and `_row_constant`."""
        powers = [cmath.exp(TWO_PI_I * self._tau * j) for j in range(1, self._rows + 1)]
        return [x / (1.0 - x) for x in powers]

    @cached_property
    def _series(self) -> tuple[tuple[complex, ...], ...]:
        """Lambert series coefficients of `_evaluate` in Horner's order: row
        p = 0, 1, 2 (zeta, wp, wp') holds j^p * L_j (`_lj`) for j = rows..1."""
        terms = list(enumerate(self._lj, 1))[::-1]
        return tuple(tuple(j**p * lj for j, lj in terms) for p in range(3))

    @cached_property
    def _row_constant(self) -> complex:
        """1/3 + 2 * sum of csc^2(n*pi*tau) over n >= 1, the constant of -wp
        and the z coefficient of zeta, in units of (pi/q1)^2: the rows are
        -4*q^(2n)/(1 - q^(2n))^2, which sum to -4 * sum of j*L_j."""
        return 1.0 / 3.0 - 8.0 * sum(j * lj for j, lj in enumerate(self._lj, 1))

    @cached_property
    def _quasi(self) -> tuple[QuasiPeriods, float, float]:
        """The quasi-period constants, their Legendre relation defect and its
        bound (see `legendre_bound`).  eta is additive over the lattice, so
        eta(q1), eta(q2) of `_evaluate` give eta(p) = k^2*c*p - b*2*pi*i/q1 at
        p = 2*omega_j, whose q2-coordinate in the reduced basis is b."""
        q1, (_, _, c21, c22) = self._reduced[0], self._coordinates
        slope, shift = (math.pi / q1) ** 2 * self._row_constant, TWO_PI_I / q1
        p1, p2 = self.periods
        eta1, eta2 = (slope * p - round(c21 * p.real + c22 * p.imag) * shift for p in (p1, p2))
        defect = abs(eta1 * p2 - eta2 * p1 - TWO_PI_I)
        bound = max(10.0 * self.tolerance, 8.0 * _EPS * (abs(eta1 * p2) + abs(eta2 * p1)))
        if defect > bound:
            raise ConvergenceFailure(
                f"Legendre relation defect {defect:.3e} exceeds its bound {bound:.3e}"
            )
        return QuasiPeriods(eta1, eta2), defect, bound

    # -- the kernel ----------------------------------------------------------

    def _evaluate(self, z, name: str):
        """The function `name` ("wp", "wp_prime" or "zeta") at z, shaped like z
        (a complex for a 0-d z).

        z is reduced into the centered cell of the reduced basis (q1, q2) as
        zr = z - m*q1 - n*q2.  Raises ValueError for a non-finite point,
        before any work, and PoleProximity for a point within `pole_radius`
        of a lattice point, naming the nearest distance.

        Row n = -inf..inf of the lattice sum contributes csc^2 and cot of
        v + n*pi*tau, with v = pi*zr/q1 reflected into Im v >= 0 (parity
        undoes it).  The row's exponential is s = E*q^(2n) for n >= 0 and
        s = G*q^(2|n|-2) for n < 0, E = exp(2iv), G = q^2/E, both of modulus
        at most 1; the rows are rational in s through f0 = s/(1-s),
        f1 = s/(1-s)^2 and f2 = s(1+s)/(1-s)^3, as csc^2 = -4*f1,
        cot = -/+ i*(1 + 2*f0) and d(csc^2)/dv = -/+ 8i*f2 (n >= 0 / n < 0).
        zeta and wp' take the difference of the n >= 0 and n < 0 sums of f0
        and f2, wp the sum of f1.

        Rows 0 and -1 (s = E and s = G, the only ones with |s| near 1) are
        evaluated in closed form.  Every other row is n >= 1 at s = x*q^(2n)
        with x = E or x = G, and the Lambert identity
        sum_{n>=1} fp(x*q^(2n)) = sum_{j>=1} j^p * L_j * x^j sums them all,
        truncated after j = rows (see `_rows`), by Horner's rule over the
        per-lattice coefficients `_series`.  Per point that is one
        exponential, three divisions and one multiply-add per row.

        zeta is a q1-periodic cot part plus k^2*c*zr, k = pi/q1 and
        c = `_row_constant`, so eta(q1) = k^2*c*q1 (DLMF 23.8) and Legendre's
        relation (DLMF 23.2.14) gives eta(q2) = k^2*c*q2 - 2*pi*i/q1: the
        correction m*eta(q1) + n*eta(q2) folds into the linear term, which
        takes z itself, and each shift by q2 adds -2*pi*i/q1.

        Layout.  The points run in blocks of `_BLOCK_POINTS` from index 0.
        Each block is reduced, checked against the poles, reflected,
        exponentiated, summed and finished straight into the output, the
        only array as long as z; every other buffer holds one block and is
        made once per call, and nothing is kept between calls, so a Lattice
        is safe to share.

        A value depends only on (lattice, point): every step is elementwise
        and no numpy (2.4) rounding that moves with an array's length is
        reached.  A complex product rounds by its operand order, and by
        whether its output is an input on a one-value array; an expression
        on a temporary of 256 KiB (16,384 complex values) or more runs in
        place with a product's operands swapped.  So every product keeps its
        written order, the products in place (the exact reflection and
        factor 2i aside) run on E and G side by side, two values or more,
        and a block's finishing expressions stay below 16,384 values.
        """
        import numpy as np
        arr = np.asarray(z, dtype=complex)
        if not np.isfinite(arr).all():
            raise ValueError("evaluation points must be finite")
        q1, q2 = self._reduced
        c11, c12, c21, c22 = self._coordinates
        k = math.pi / q1
        qq = self._q2
        # p = 0 (zeta), 1 (wp), 2 (wp'); the n < 0 rows enter with sign -1, 1, -1
        p = _SERIES_POWER[name]
        lead, *series = self._series[p]
        combine = np.add if p == 1 else np.subtract
        flat = arr.reshape(-1)
        size = flat.size
        width = max(1, min(_BLOCK_POINTS, size))
        out = np.empty(size, complex)
        # block buffers: x = E, then G, at the block's points, then f1; the
        # Horner sum, then f0 or f2; 1 - x, 1/(1 - x), then f0 + d; v, 2iv,
        # then the sums; the parity, |zr| and a real temporary; zr, m and n
        xs, hs, ds = (np.empty(2 * width, complex) for _ in range(3))
        ws = np.empty(width, complex)
        parity, rs = np.empty(width), np.empty(width)
        cells, ms, ns = np.empty(width, complex), np.empty(width), np.empty(width)
        closest = math.inf
        for lo in range(0, size, width):
            nb = min(width, size - lo)
            blk, own = slice(lo, lo + nb), slice(0, nb)  # the block in z and out, and in a buffer
            w, r, sign = ws[own], rs[own], parity[own]
            # zr = z - m*q1 - n*q2, each step as in `reduce` (rint is round)
            pts, zr, m, n = flat[blk], cells[own], ms[own], ns[own]
            re, im = pts.real, pts.imag
            np.multiply(c11, re, out=m)
            m += np.multiply(c12, im, out=r)
            np.rint(m, out=m)
            np.multiply(c21, re, out=n)
            n += np.multiply(c22, im, out=r)
            np.rint(n, out=n)
            np.multiply(m, q1, out=zr)
            np.subtract(pts, zr, out=zr)
            zr -= np.multiply(n, q2, out=w)
            closest = min(closest, np.minimum.reduce(np.abs(zr, out=r)))
            if closest < self.pole_radius:
                continue  # the other blocks are only reduced, for the message
            np.multiply(k, zr, out=w)  # v, then 2iv, in place
            np.copysign(1.0, w.imag, out=sign)
            w *= sign
            w *= 2j
            x, h, d = xs[: 2 * nb], hs[: 2 * nb], ds[: 2 * nb]
            np.exp(w, out=x[:nb])
            if qq:
                np.divide(qq, x[:nb], out=x[nb:])
            else:  # q^2 underflowed, and E may have too: G is below any precision
                x[nb:] = 0.0
            # every row but 0 and -1: sum_j j^p * L_j * x^j, highest j first
            np.multiply(lead, x, out=h)
            for a in series:
                h += a
                h *= x
            sums = combine(h[:nb], h[nb:], out=w)
            # rows 0 and -1 in closed form: f0 = x*d, f1 = f0*d and
            # f2 = (f0 + d)*f1 with d = 1/(1 - x)
            np.subtract(1.0, x, out=d)
            np.divide(1.0, d, out=d)
            f = np.multiply(x, d, out=h)
            if p > 0:
                f = np.multiply(f, d, out=x)
            if p > 1:  # f0 + d = (1 + x)/(1 - x)
                f = np.multiply(np.add(h, d, out=d), x, out=h)
            sums += f[:nb]
            combine(sums, f[nb:], out=sums)
            if name == "wp":
                out[blk] = -(k**2) * (4.0 * sums + self._row_constant)
            elif name == "wp_prime":
                out[blk] = sign * (-8j * k**3) * sums
            else:
                out[blk] = (sign * (-1j * k) * (1.0 + 2.0 * sums)
                            + k**2 * self._row_constant * pts - n * (TWO_PI_I / q1))
        if closest < self.pole_radius:
            raise PoleProximity(
                f"point within {float(closest):.3e} of a lattice point "
                f"(exclusion radius {self.pole_radius:.3e})"
            )
        return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def half_period(lattice: Lattice, index: HalfPeriodIndex | int) -> complex:
    """Representative of the half-period with the given index (0 is the origin)."""
    idx = HalfPeriodIndex(index)
    reps = (0j, lattice.omega1, lattice.omega2, lattice.omega1 + lattice.omega2)
    return reps[idx]


def reduce(lattice: Lattice, z):
    """Translate z by lattice vectors into the fundamental cell centered at 0.

    The result has coordinates in [-1/2, 1/2] with respect to the basis
    (2*omega1, 2*omega2) as given (no internal re-basing).  Raises
    ValueError for a non-finite point, as the kernel does.
    """
    import numpy as np
    arr = np.asarray(z, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError("evaluation points must be finite")
    p1, p2 = lattice.periods
    c11, c12, c21, c22 = _inverse_basis(p1, p2)
    out = arr - np.round(c11 * arr.real + c12 * arr.imag) * p1
    out -= np.round(c21 * arr.real + c22 * arr.imag) * p2
    return complex(out) if arr.ndim == 0 else out


def wp(lattice: Lattice, z):
    """Weierstrass P-function. Raises PoleProximity near lattice points."""
    return lattice._evaluate(z, "wp")


def wp_prime(lattice: Lattice, z):
    """Derivative of the P-function (odd)."""
    return lattice._evaluate(z, "wp_prime")


def zeta(lattice: Lattice, z):
    """Weierstrass zeta function, quasi-periodic with constants eta1, eta2.

    Arbitrary arguments are reduced into the cell; the linear term takes the
    point itself and each shift by the reduced q2 adds -2*pi*i/q1 (Legendre's
    relation), which is the quasi-period correction.
    """
    return lattice._evaluate(z, "zeta")


def quasi_periods(lattice: Lattice) -> QuasiPeriods:
    """Quasi-period constants eta_j = 2*zeta(omega_j), Legendre-validated,
    in closed form from the row constant (see `Lattice._quasi`).

    Raises ConvergenceFailure if the computed pair violates Legendre's
    relation by more than `legendre_bound`.
    """
    return lattice._quasi[0]


def legendre_defect(lattice: Lattice) -> float:
    """|eta1*2*omega2 - eta2*2*omega1 - 2*pi*i|, the rounding of the two products."""
    return lattice._quasi[1]


def legendre_bound(lattice: Lattice) -> float:
    """The bound on `legendre_defect`: max(10*precision, 8*eps*S) with
    S = |eta1*2*omega2| + |eta2*2*omega1|.  The two products each grow like
    Im(tau) and cancel to 2*pi*i, so their rounding alone is a few eps*S.
    The bound is 10*precision while S < 5,630 (at the default precision,
    Im(tau) below about 850)."""
    return lattice._quasi[2]
