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
geometric tail bound picks the number of rows from the requested precision.
With v = pi*z/q1 reflected into Im v >= 0, every row is rational in E*q^(2n)
or G*q^(2n-2), E = exp(2iv), G = exp(2i*(pi*tau - v)) (DLMF 23.8): wp, wp' and
zeta share one kernel of two exponentials per point, run in blocks that keep
each points-by-rows temporary near 1 MB.  A brute-force truncated lattice sum
is kept as an independent cross-check in `elliptic_reference`.

Half-period representatives are fixed once and indexed 0..3:

    index 0 -> 0 (the origin),  1 -> omega1,  2 -> omega2,  3 -> omega1 + omega2.

Type-vector components elsewhere in the package are indexed by this order.

All operations are pure functions of (lattice, z); `Lattice` instances are
immutable and safe for concurrent read-only use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import ConvergenceFailure, PoleProximity

TWO_PI_I = 2j * math.pi

#: Hard floor for the evaluation precision: everything runs in f64.
PRECISION_FLOOR = 1e-12

#: Pole-exclusion radius, as a fraction of the shortest lattice vector.
POLE_EXCLUSION_FACTOR = 1e-3

_MAX_ROWS = 512

#: Values per points-by-rows temporary in `Lattice._series` (1 MB of complex128).
_BLOCK_ELEMS = 1 << 16


class HalfPeriodIndex(IntEnum):
    """Index of the four fixed points of z -> -z on the torus."""

    ORIGIN = 0
    FIRST = 1
    SECOND = 2
    SUM = 3


@dataclass(frozen=True)
class QuasiPeriods:
    """Additive monodromy constants of zeta along the two periods."""

    eta1: complex
    eta2: complex


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


def _split(arr: np.ndarray, p1: complex, p2: complex):
    """Reduce arr into the centered cell of the basis (p1, p2); return the
    representative and the integer shift coordinates."""
    c11, c12, c21, c22 = _inverse_basis(p1, p2)
    m = np.round(c11 * arr.real + c12 * arr.imag)
    n = np.round(c21 * arr.real + c22 * arr.imag)
    return arr - m * p1 - n * p2, m, n


@dataclass(frozen=True)
class Lattice:
    """Rank-2 period lattice spanned by 2*omega1 and 2*omega2.

    `precision` (clamped to the f64 floor of 1e-12) bounds the error of a
    value f of wp, wp' or zeta at a point of the reduced cell by
    precision * (|f| + (pi/L)^k), where L is the shortest period and k is
    2, 3 or 1 respectively; half-periods, cell edges and points just outside
    the pole-exclusion radius included.
    """

    omega1: complex
    omega2: complex
    precision: float = 1e-12

    def __post_init__(self):
        w1 = complex(self.omega1)
        w2 = complex(self.omega2)
        if not (cmath.isfinite(w1) and cmath.isfinite(w2) and math.isfinite(self.precision)):
            raise ValueError("half-periods and precision must be finite")
        if w1 == 0 or w2 == 0 or not (w2 / w1).imag > 0:
            raise ValueError("need Im(omega2/omega1) > 0 for an oriented basis")
        if not self.precision > 0:
            raise ValueError("precision must be positive")
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega2", w2)

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
        """Number of resummed rows needed for the geometric tail to clear
        the precision target (with a safety factor for prefactors)."""
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
    def _q2n(self) -> np.ndarray:
        """q^(2n) = exp(2i*pi*tau*n) for n = 0..rows."""
        return np.exp(TWO_PI_I * self._tau * np.arange(self._rows + 1))

    @cached_property
    def _block(self) -> int:
        """Points per block of `_series`: a block's temporaries hold _BLOCK_ELEMS values."""
        return max(1, _BLOCK_ELEMS // (2 * self._rows + 1))

    @cached_property
    def _row_constant(self) -> complex:
        """1/3 + 2 * sum of csc^2(n*pi*tau) over n = 1..rows, the constant of
        -wp and the z coefficient of zeta, in units of (pi/q1)^2."""
        s = self._q2n[1:]
        return 1.0 / 3.0 + complex(np.sum(-8.0 * s / (1.0 - s) ** 2))

    @cached_property
    def _reduced_quasi(self) -> tuple[complex, complex]:
        """Quasi-period constants of the *reduced* basis vectors."""
        q1, q2 = self._reduced
        (half,) = self._series(np.array([q1 / 2.0, q2 / 2.0]), ("zeta",))
        return 2.0 * complex(half[0]), 2.0 * complex(half[1])

    @cached_property
    def _quasi(self) -> tuple[QuasiPeriods, float]:
        """The quasi-period constants and their Legendre relation defect."""
        eta1 = 2.0 * complex(zeta(self, self.omega1))
        eta2 = 2.0 * complex(zeta(self, self.omega2))
        p1, p2 = self.periods
        defect = abs(eta1 * p2 - eta2 * p1 - TWO_PI_I)
        if defect > 10.0 * self.tolerance:
            raise ConvergenceFailure(
                f"Legendre relation defect {defect:.3e} exceeds 10*precision"
            )
        return QuasiPeriods(eta1, eta2), defect

    # -- reduction ----------------------------------------------------------

    def _cell_point(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """Reduce finite, off-pole z into the centered cell of the reduced basis:
        (representative, integer shift coordinates, whether z was a scalar)."""
        arr = np.asarray(z, dtype=complex)
        if not np.isfinite(arr).all():
            raise ValueError("evaluation points must be finite")
        zr, m, n = _split(arr, *self._reduced)
        dist = np.abs(zr)
        if np.any(dist < self.pole_radius):
            raise PoleProximity(
                f"point within {float(np.min(dist)):.3e} of a lattice point "
                f"(exclusion radius {self.pole_radius:.3e})"
            )
        return zr, m, n, arr.ndim == 0

    # -- resummed series (arguments already reduced) -------------------------

    def _series(self, zr: np.ndarray, want: tuple[str, ...]) -> tuple[np.ndarray, ...]:
        """The functions named in `want` ("wp", "wp_prime", "zeta"), in that
        order, at reduced points zr.

        Row n = -rows..rows contributes csc^2 and cot of v + n*pi*tau, with
        v = pi*zr/q1 reflected into Im v >= 0 (parity undoes it).  The row's
        exponential is s = E*q^(2n) for n >= 0 and s = G*q^(2|n|-2) for n < 0,
        E = exp(2iv), G = exp(2i(pi*tau - v)); with t = s/(1 - s) and
        d = 1/(1 - s), csc^2 = -4*t*d and cot = -/+ i*(1 + 2t) (n >= 0 / n < 0).
        """
        k = math.pi / self._reduced[0]
        rows, q2n = self._rows, self._q2n
        z = zr.reshape(-1)
        v = k * z
        parity = np.where(np.signbit(v.imag), -1.0, 1.0)
        v *= parity
        sums = {name: np.empty(z.shape, complex) for name in want}
        # one pair of points-by-rows buffers per call, sliced for the last block
        width = max(1, min(self._block, z.size))
        s_buf = np.empty((2 * rows + 1, width), complex)
        d_buf = np.empty_like(s_buf)
        for lo in range(0, z.size, width):
            w = 2j * v[lo : lo + width]
            blk = slice(lo, lo + w.size)
            s, d = s_buf[:, : w.size], d_buf[:, : w.size]
            np.multiply(q2n[:, None], np.exp(w), out=s[: rows + 1])
            np.multiply(q2n[:-1, None], np.exp(TWO_PI_I * self._tau - w), out=s[rows + 1 :])
            np.subtract(1.0, s, out=d)
            np.divide(1.0, d, out=d)
            t = np.multiply(s, d, out=s)
            if "zeta" in sums:
                sums["zeta"][blk] = t[: rows + 1].sum(axis=0) - t[rows + 1 :].sum(axis=0)
            td = np.multiply(t, d, out=d)
            if "wp" in sums:
                sums["wp"][blk] = td.sum(axis=0)
            if "wp_prime" in sums:
                np.multiply(2.0, t, out=t)
                np.add(t, 1.0, out=t)
                u = np.multiply(td, t, out=t)
                sums["wp_prime"][blk] = u[: rows + 1].sum(axis=0) - u[rows + 1 :].sum(axis=0)
        finish = {
            "wp": lambda a: -(k**2) * (4.0 * a + self._row_constant),
            "wp_prime": lambda a: parity * (-8j * k**3) * a,
            "zeta": lambda a: parity * (-1j * k) * (1.0 + 2.0 * a) + k**2 * self._row_constant * z,
        }
        return tuple(finish[name](sums[name]).reshape(zr.shape) for name in want)


def half_period(lattice: Lattice, index: HalfPeriodIndex | int) -> complex:
    """Representative of the half-period with the given index (0 is the origin)."""
    idx = HalfPeriodIndex(index)
    reps = (0j, lattice.omega1, lattice.omega2, lattice.omega1 + lattice.omega2)
    return reps[idx]


def reduce(lattice: Lattice, z):
    """Translate z by lattice vectors into the fundamental cell centered at 0.

    The result has coordinates in [-1/2, 1/2] with respect to the basis
    (2*omega1, 2*omega2) as given (no internal re-basing).
    """
    arr = np.asarray(z, dtype=complex)
    out, _, _ = _split(arr, *lattice.periods)
    return complex(out) if arr.ndim == 0 else out


def wp(lattice: Lattice, z):
    """Weierstrass P-function. Raises PoleProximity near lattice points."""
    zr, _, _, scalar = lattice._cell_point(z)
    (out,) = lattice._series(zr, ("wp",))
    return complex(out) if scalar else out


def wp_prime(lattice: Lattice, z):
    """Derivative of the P-function (odd)."""
    zr, _, _, scalar = lattice._cell_point(z)
    (out,) = lattice._series(zr, ("wp_prime",))
    return complex(out) if scalar else out


def zeta(lattice: Lattice, z):
    """Weierstrass zeta function, quasi-periodic with constants eta1, eta2.

    Arbitrary arguments are handled by reduction plus the exact additive
    correction m*eta(q1) + n*eta(q2) for the reduced basis.
    """
    zr, m, n, scalar = lattice._cell_point(z)
    er1, er2 = lattice._reduced_quasi
    (out,) = lattice._series(zr, ("zeta",))
    out = out + m * er1 + n * er2
    return complex(out) if scalar else out


def quasi_periods(lattice: Lattice) -> QuasiPeriods:
    """Quasi-period constants eta_j = 2*zeta(omega_j), Legendre-validated.

    Raises ConvergenceFailure if the computed pair violates Legendre's
    relation by more than 10*precision.
    """
    return lattice._quasi[0]


def legendre_defect(lattice: Lattice) -> float:
    """|eta1*2*omega2 - eta2*2*omega1 - 2*pi*i| for this lattice."""
    return lattice._quasi[1]
