r"""Numerical verification of the genus-1 periodicity mechanism.

An elliptic traveling wave

    u(x, t) = -2 wp(x + (3 lambda/2) t + x0) + lambda

solves the KdV flow in the convention

    u_t = (1/4) (6 u u_x + u_xxx).

The speed 3*lambda/2 was pinned down by a residual-minimization sweep over
a one-parameter speed family before being fixed here; analytically it is
the unique speed making the residual vanish, by wp'' = 6 wp^2 - g2/2 and
wp''' = 12 wp wp'.  (The opposite-sign convention u_t + (1/4)(6 u u_x -
u_xxx) = 0 is reached by u -> -u, t -> -t.)

`kdv_residual` measures the equation defect on a grid with second-order
central stencils (5-point for u_xxx); the time derivative is available
both as a stencil and exactly through the chain rule on wp', and the two
backends must agree to stencil accuracy.  Asked for a tuple of backends,
it evaluates u over the grid once and returns one residual per backend;
the chain backend evaluates wp' only on the stencil core.  The grid is a
column of x against a row of t, broadcast once by the phase.  The stencils
then run over tiles of whole x-rows of the core, about `_TILE_POINTS`
points each, in five tile-sized buffers made once per call, each float
operation in the order the formulas are written; a residual is the
largest of its tiles' maxima, so the residuals are bit for bit those of one
fresh full-grid array per operation.
`periodicity_check` verifies that u is an exact lattice-period function
of x, and `monodromy_factor` evaluates the single-valuedness factor

    phi_j(z) = exp(2 omega_j zeta(z) - eta_j z),

which is invariant under z -> z + period exactly when Legendre's relation
holds; this is the mechanism that makes the associated flows
lattice-periodic.

Grid stencils run in f64: third-derivative stencils amplify rounding by
1/h^3, so default spacings balance truncation against roundoff for
lattices of diameter around 2*pi (see `Grid.for_lattice`).
"""

from __future__ import annotations

import cmath
from numbers import Integral, Number, Real

import numpy as np

from .elliptic import Lattice, quasi_periods, wp, wp_prime, zeta
from .errors import InvalidInvariants
from .invariants import _Slotted

#: Default x spacing as a fraction of the first period length.
_HX_FACTOR = 2.4e-4
#: Default t spacing as a fraction of the first period length.
_HT_FACTOR = 8.0e-5
#: Stencil-core points per tile of `kdv_residual`: 256 KiB per complex buffer,
#: so a tile's five buffers stay in a 2 MiB L2 cache.
_TILE_POINTS = 1 << 14


def _finite(value, kind=Number) -> bool:
    """Whether `value` is a finite number of `kind`; a bool is not one."""
    return type(value) is not bool and isinstance(value, kind) and cmath.isfinite(value)


class TravelingWave(_Slotted):
    """Elliptic traveling wave with level `lam` and phase shift `x0`.

    `speed` overrides the exact traveling speed 3*lam/2 (diagnostic use:
    a wrong speed leaves an O(1) equation residual)."""

    __slots__ = ("lattice", "lam", "x0", "speed")

    def __init__(self, lattice: Lattice, lam: complex = 0.0, x0: complex = 0.0,
                 speed: complex | None = None):
        if not isinstance(lattice, Lattice):
            raise InvalidInvariants(f"lattice: expected a Lattice, got {lattice!r}")
        numbers = (lam, x0) if speed is None else (lam, x0, speed)
        for name, value in zip(("lam", "x0", "speed"), numbers):
            if not _finite(value):
                raise InvalidInvariants(f"{name}: need a finite number, got {value!r}")
        self._store(lattice, lam, x0, speed)

    @property
    def velocity(self) -> complex:
        return 1.5 * self.lam if self.speed is None else self.speed

    def phase(self, x, t):
        """x + velocity*t + x0, broadcasting x against t."""
        out = np.asarray(x, complex) + self.velocity * np.asarray(t, complex)
        out += self.x0
        return out

    def u(self, x, t):
        out = wp(self.lattice, self.phase(x, t))
        out *= -2.0
        out += self.lam
        return out

    def u_t(self, x, t):
        """Exact time derivative via the chain rule on wp'."""
        return -2.0 * self.velocity * wp_prime(self.lattice, self.phase(x, t))


class Grid(_Slotted):
    """Sampling grid for residual evaluation.

    nx points spaced hx in x, nt points spaced ht in t, centered at
    (x_center, 0); x_center defaults to the first half-period, where the
    wave profile is flattest.  Only second-order stencils are implemented."""

    __slots__ = ("nx", "hx", "nt", "ht", "x_center")

    def __init__(self, nx: int = 200, hx: float = 1.5e-3, nt: int = 20, ht: float = 5.0e-4,
                 x_center: complex | None = None):
        for name, value, low in (("nx", nx, 5), ("nt", nt, 3)):
            if type(value) is bool or not isinstance(value, Integral) or value < low:
                raise InvalidInvariants(
                    f"{name}: need an integer >= {low} for the stencils, got {value!r}")
        for name, value in (("hx", hx), ("ht", ht)):
            if not (_finite(value, Real) and value > 0):
                raise InvalidInvariants(f"{name}: need a finite spacing > 0, got {value!r}")
        if not (x_center is None or _finite(x_center)):
            raise InvalidInvariants(f"x_center: need a finite number, got {x_center!r}")
        self._store(nx, hx, nt, ht, x_center)

    @classmethod
    def for_lattice(cls, lattice: Lattice, nx: int = 200, nt: int = 20,
                    x_center: complex | None = None) -> Grid:
        scale = abs(2 * lattice.omega1)
        return cls(nx, _HX_FACTOR * scale, nt, _HT_FACTOR * scale, x_center)

    def x_samples(self, lattice: Lattice) -> np.ndarray:
        center = self.x_center if self.x_center is not None else lattice.omega1
        return center + (np.arange(self.nx) - (self.nx - 1) / 2.0) * self.hx

    def t_samples(self) -> np.ndarray:
        return (np.arange(self.nt) - (self.nt - 1) / 2.0) * self.ht


def kdv_residual(
    wave: TravelingWave,
    grid: Grid | None = None,
    time_derivative: str | tuple[str, ...] = "stencil",
) -> float | tuple[float, ...]:
    """Maximum equation defect |u_t - (6 u u_x + u_xxx)/4| over the grid.

    `time_derivative` selects the u_t backend: "stencil" (central
    difference) or "chain" (exact, via wp'); the result is a float.  A
    tuple of backend names gives a tuple of floats in the same order, all
    from one evaluation of u over the grid, each equal to its single-backend
    result.  The chain backend evaluates wp' only on the stencil core, the
    points where the residual is read.  Raises PoleProximity when a sample
    point is too close to a pole of wp.
    """
    if grid is None:
        grid = Grid.for_lattice(wave.lattice)
    many = isinstance(time_derivative, tuple)
    backends = time_derivative if many else (time_derivative,)
    for name in backends:
        if name not in ("stencil", "chain"):
            raise InvalidInvariants(f"unknown time-derivative backend {name!r}")

    X = grid.x_samples(wave.lattice)[:, None]
    T = grid.t_samples()[None, :]
    U = wave.u(X, T)
    ut = wave.u_t(X[2:-2], T[:, 1:-1]) if "chain" in backends else None

    hx, ht = grid.hx, grid.ht
    core, cols = U.shape[0] - 4, U.shape[1] - 2
    shape = (max(1, min(core, _TILE_POINTS // cols)), cols)
    bufs = [np.empty(shape, complex) for _ in range(4)] + [np.empty(shape)]
    peaks = [[] for _ in backends]
    for lo in range(0, core, shape[0]):
        hi = min(lo + shape[0], core)
        a, b, rhs, d, mag = (buf[: hi - lo] for buf in bufs)
        # each float operation of u_x = (U3 - U1) / (2*hx),
        # u_xxx = (U4 - 2*U3 + 2*U1 - U0) / (2*hx^3) and
        # rhs = 0.25 * (6*u*u_x + u_xxx) as written, with Uk = U[k:k-4, 1:-1]
        # cut to the tile's rows; the complex product 6*u*u_x gets its own
        # buffer, as numpy may round it differently when its output is an input
        U0, U1, U2, U3, U4 = (U[lo + i : hi + i, 1:-1] for i in range(5))
        np.subtract(U3, U1, out=a)  # u_x
        a /= 2.0 * hx
        np.multiply(6.0, U2, out=b)
        np.multiply(b, a, out=rhs)
        np.multiply(2.0, U3, out=a)  # u_xxx
        np.subtract(U4, a, out=a)
        a += np.multiply(2.0, U1, out=b)
        a -= U0
        a /= 2.0 * hx**3
        rhs += a
        rhs *= 0.25
        for peak, name in zip(peaks, backends):
            if name == "stencil":
                np.subtract(U[lo + 2 : hi + 2, 2:], U[lo + 2 : hi + 2, :-2], out=d)
                d /= 2.0 * ht
                d -= rhs
            else:
                np.subtract(ut[lo:hi], rhs, out=d)
            peak.append(np.abs(d, out=mag).max())
    residuals = [float(np.max(peak)) for peak in peaks]
    return tuple(residuals) if many else residuals[0]


def shift_defect(
    wave: TravelingWave,
    *shifts: complex,
    nx: int = 40,
    nt: int = 5,
    x_center: complex | None = None,
) -> float:
    """max |u(x + s, t) - u(x, t)| over default samples and every shift s,
    with u(x, t) evaluated once: one more evaluation of u per shift."""
    grid = Grid.for_lattice(wave.lattice, nx, nt, x_center)
    X = grid.x_samples(wave.lattice)[:, None]
    T = grid.t_samples()[None, :]
    U = wave.u(X, T)
    defects = []
    for s in shifts:
        d = wave.u(X + s, T)
        d -= U
        defects.append(float(np.abs(d).max()))
    return max(defects)


def periodicity_check(wave: TravelingWave) -> float:
    """Maximum defect of u under x -> x + period, over both periods: three
    evaluations of u on the `shift_defect` samples."""
    return shift_defect(wave, *wave.lattice.periods)


def monodromy_factor(lattice: Lattice, j: int, z):
    """Single-valuedness factor exp(2 omega_j zeta(z) - eta_j z), j in {1, 2}.

    Multiplying z by a period multiplies the exponent by a Legendre-relation
    combination, so the factor is period-invariant up to the Legendre defect.
    A factor out of float range (a tall lattice) raises FloatingPointError
    rather than becoming inf, whose ratios would be NaN.  Every input runs
    as one flat array, each product in its own output, so a factor depends
    only on (lattice, j, z), as zeta's value does.
    """
    if type(j) is bool or j not in (1, 2):
        raise InvalidInvariants(f"period index must be 1 or 2, got {j}")
    qp = quasi_periods(lattice)
    omega = lattice.omega1 if j == 1 else lattice.omega2
    eta = qp.eta1 if j == 1 else qp.eta2
    zz = np.asarray(z, complex)
    flat = zz.reshape(-1)
    exponent = np.multiply(2.0 * omega, zeta(lattice, flat))
    exponent -= eta * flat
    with np.errstate(over="raise", invalid="raise"):
        out = np.exp(exponent)
    return complex(out[0]) if zz.ndim == 0 else out.reshape(zz.shape)
