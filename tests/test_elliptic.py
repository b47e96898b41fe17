import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import interior_points, random_lattice
from ellcover import elliptic_reference as ref
from ellcover.elliptic import (
    _BLOCK_POINTS,
    HalfPeriodIndex,
    Lattice,
    half_period,
    legendre_defect,
    quasi_periods,
    reduce,
    wp,
    wp_prime,
    zeta,
)
from ellcover.errors import PoleProximity
from ellcover.kdv import monodromy_factor


# -- lattice construction ----------------------------------------------------


def test_lattice_rejects_degenerate_basis():
    with pytest.raises(ValueError):
        Lattice(0.5, 0.25)  # collinear
    with pytest.raises(ValueError):
        Lattice(0.5, -0.5j)  # wrong orientation
    with pytest.raises(ValueError):
        Lattice(0.5, 0.5j, precision=-1.0)


@pytest.mark.parametrize(
    "kwargs",
    [{"precision": math.inf}, {"precision": math.nan}, {"omega1": math.nan},
     {"omega2": complex(0.0, math.inf)}],
    ids=["precision-inf", "precision-nan", "omega1-nan", "omega2-inf"],
)
def test_lattice_rejects_non_finite_input(kwargs):
    with pytest.raises(ValueError, match="finite"):
        Lattice(**{"omega1": 0.5, "omega2": 0.5j, **kwargs})


@pytest.mark.parametrize("scale", [1e-3, 0.3, 1.0, 1e3])
def test_gauss_reduction_terminates_on_hexagonal_ties(scale):
    # |p2 - p1| = |p2| on these lattices, and rounding used to cycle the reduction
    lat = Lattice(scale, scale * cmath.exp(1j * math.pi / 3))
    q1, q2 = lat._reduced
    assert abs(q1) <= abs(q2) * (1 + 1e-12)
    assert abs((q2 * q1.conjugate()).real) <= 0.5 * abs(q1) ** 2 * (1 + 1e-12)


def test_precision_floor_is_enforced(square):
    tiny = Lattice(0.5, 0.5j, precision=1e-30)
    assert tiny.tolerance == 1e-12
    assert Lattice(0.5, 0.5j, precision=1e-9).tolerance == 1e-9


def test_half_period_representatives(square):
    assert half_period(square, HalfPeriodIndex.ORIGIN) == 0
    assert half_period(square, 1) == 0.5
    assert half_period(square, 2) == 0.5j
    assert half_period(square, 3) == 0.5 + 0.5j


# -- reduce -------------------------------------------------------------------


def test_reduce_lattice_point_maps_to_zero(square):
    assert reduce(square, 0) == 0
    assert abs(reduce(square, 2 * square.omega1)) < 1e-15
    assert abs(reduce(square, 4 * square.omega1 + 6 * square.omega2)) < 1e-14


def test_reduce_basis_coordinate_rounding(square):
    # direct oracle: 1.3 = 1*1 + 0.3, so the representative is 0.3
    assert abs(reduce(square, 1.3) - 0.3) < 1e-15


def test_reduce_lands_in_centered_cell():
    rng = np.random.default_rng(42)
    for _ in range(25):
        lat = random_lattice(rng)
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        zr = reduce(lat, z)
        p1, p2 = lat.periods
        det = p1.real * p2.imag - p1.imag * p2.real
        a = (zr.real * p2.imag - zr.imag * p2.real) / det
        b = (p1.real * zr.imag - p1.imag * zr.real) / det
        assert abs(a) <= 0.5 + 1e-12 and abs(b) <= 0.5 + 1e-12
        # congruent to z modulo the lattice
        da = (z - zr).real * p2.imag - (z - zr).imag * p2.real
        db = p1.real * (z - zr).imag - p1.imag * (z - zr).real
        assert abs(da / det - round(da / det)) < 1e-9
        assert abs(db / det - round(db / det)) < 1e-9


# -- wp / wp' ------------------------------------------------------------------


def test_wp_is_even_and_wp_prime_is_odd(square):
    z = 0.17 + 0.29j
    assert wp(square, z) == wp(square, -z)
    assert wp_prime(square, z) == -wp_prime(square, -z)


def test_wp_ellipticity(square):
    z = 0.21 + 0.09j
    for shift in (2 * square.omega1, 2 * square.omega2, 2 * (square.omega1 + square.omega2)):
        assert abs(wp(square, z + shift) - wp(square, z)) <= 10 * square.tolerance


def test_wp_square_lattice_symmetry_anchors(square):
    # the center is a 4-torsion fixed point of z -> iz, forcing wp = 0 there,
    # and wp(iz) = -wp(z) pairs the two real/imaginary half-periods
    assert abs(wp(square, 0.5 + 0.5j)) < 1e-11
    assert abs(wp(square, 0.5j) + wp(square, 0.5)) < 1e-11
    assert abs(wp_prime(square, 0.5)) < 1e-11


def test_wp_pole_proximity(square):
    with pytest.raises(PoleProximity):
        wp(square, 1e-5)
    with pytest.raises(PoleProximity):
        wp_prime(square, 1.0 + 1e-5j)  # next to the lattice point 1
    with pytest.raises(PoleProximity):
        zeta(square, 5e-4 + 5e-4j)


@pytest.mark.parametrize("f", [wp, wp_prime, zeta, reduce])
@pytest.mark.parametrize(
    "z",
    [math.nan, math.inf, complex(0.1, math.nan), complex(-math.inf, 0.2),
     np.array([[0.1 + 0.2j, 0.3j], [math.nan, 0.2]])],
    ids=["nan", "inf", "nan-imag", "inf-real", "array-with-nan"],
)
def test_non_finite_points_are_rejected(square, f, z):
    with pytest.raises(ValueError, match="finite"):
        f(square, z)


def test_wp_prime_matches_difference_quotient(square):
    z = 0.23 + 0.17j
    for h in (1e-4, 5e-5, 2.5e-5):
        fd = (wp(square, z + h) - wp(square, z - h)) / (2 * h)
        assert abs(fd - wp_prime(square, z)) < 20 * h * h * 1e3


def test_zeta_derivative_is_minus_wp(square):
    z = 0.31 + 0.12j
    h = 1e-5
    fd = (zeta(square, z + h) - zeta(square, z - h)) / (2 * h)
    assert abs(fd + wp(square, z)) < 1e-7


def test_differential_consistency_is_second_order(square):
    # central-difference defect of wp' against wp must shrink like h^2
    z = 0.26 + 0.18j
    hs = (4e-3, 2e-3, 1e-3)
    errs = []
    for h in hs:
        fd = (wp(square, z + h) - wp(square, z - h)) / (2 * h)
        errs.append(abs(fd - wp_prime(square, z)))
    order = math.log2(errs[0] / errs[2]) / 2
    assert abs(order - 2.0) < 0.3


# -- zeta ----------------------------------------------------------------------


def test_zeta_is_odd(square):
    z = 0.11 + 0.37j
    assert zeta(square, z) == -zeta(square, -z)


def test_zeta_principal_part(square):
    # z*zeta(z) -> 1 with error O(|z|^2) along a shrinking sequence
    base = 0.08 + 0.05j
    for k in range(4):
        z = base / 2**k
        assert abs(z * zeta(square, z) - 1) < 0.05 * abs(z) ** 2


def test_zeta_quasi_periodicity(square):
    qp = quasi_periods(square)
    z = 0.18 + 0.07j
    assert abs(zeta(square, z + 2 * square.omega1) - zeta(square, z) - qp.eta1) < 1e-9
    assert abs(zeta(square, z + 2 * square.omega2) - zeta(square, z) - qp.eta2) < 1e-9


# -- quasi-periods -------------------------------------------------------------


def test_square_lattice_quasi_periods_are_exact(square):
    # 90-degree symmetry gives eta2 = -i*eta1, and Legendre forces eta1 = pi
    qp = quasi_periods(square)
    assert abs(qp.eta1 - math.pi) < 1e-12
    assert abs(qp.eta2 + 1j * math.pi) < 1e-12


def test_lemniscatic_symmetry(square):
    qp = quasi_periods(square)
    assert abs(qp.eta1.imag) < 1e-9
    assert abs(qp.eta2 + 1j * qp.eta1) < 1e-9


def test_legendre_defect_small(square):
    assert legendre_defect(square) < 1e-10


def test_quasi_periods_deterministic(square):
    a = quasi_periods(square)
    b = quasi_periods(Lattice(0.5, 0.5j))
    assert (a.eta1, a.eta2) == (b.eta1, b.eta2)


def test_quasi_periods_take_no_kernel_call(monkeypatch):
    # eta1 and eta2 come in closed form from the row constant and the
    # periods' coordinates in the reduced basis, not from zeta
    calls = []
    kernel = Lattice._evaluate

    def counted(self, z, name):
        calls.append(name)
        return kernel(self, z, name)

    monkeypatch.setattr(Lattice, "_evaluate", counted)
    quasi_periods(Lattice(0.7 + 0.1j, 0.2 + 1.3j))
    assert calls == []


@given(
    st.floats(-2.0, 2.0),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-0.5, 0.5),
    st.floats(math.log10(0.5), 2.0),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_closed_form_quasi_periods_match_twice_zeta_at_the_half_periods(
    log_scale, angle, re_tau, log_im_tau, skew2, skew1
):
    # the old route is the oracle: eta_j = 2*zeta(omega_j) through the kernel,
    # within zeta's contract at omega_j = a*q1 + b*q2 = zr + m*q1 + n*q2,
    # where |m| <= |a| + 1/2 and |n| <= |b| + 1/2
    omega1 = 10.0**log_scale * cmath.exp(1j * angle)
    p1, p2 = 2 * omega1, 2 * omega1 * complex(re_tau, 10.0**log_im_tau)
    p2 += skew2 * p1
    p1 += skew1 * p2  # a skewed basis of the same lattice, still oriented
    lat = Lattice(p1 / 2, p2 / 2)
    qp = quasi_periods(lat)
    c11, c12, c21, c22 = lat._coordinates
    pref = math.pi / lat.shortest_vector
    for eta, w in ((qp.eta1, lat.omega1), (qp.eta2, lat.omega2)):
        z = zeta(lat, w)
        a, b = c11 * w.real + c12 * w.imag, c21 * w.real + c22 * w.imag
        bound = 2 * lat.tolerance * (abs(z) + pref * (2 + abs(a) + abs(b)))
        assert abs(eta - 2 * z) <= bound, (eta, 2 * z, bound)


# -- property tests over random lattices ---------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
def test_wp_even_zeta_odd_random(seed):
    rng = np.random.default_rng(seed)
    lat = random_lattice(rng)
    z = complex(interior_points(lat, rng, 1)[0])
    assert wp(lat, z) == wp(lat, -z)
    assert zeta(lat, z) == -zeta(lat, -z)
    assert wp_prime(lat, z) == -wp_prime(lat, -z)


@given(st.integers(min_value=0, max_value=10_000))
def test_periodicity_and_quasi_periodicity_random(seed):
    rng = np.random.default_rng(seed)
    lat = random_lattice(rng)
    qp = quasi_periods(lat)
    z = complex(interior_points(lat, rng, 1)[0])
    p1, p2 = lat.periods
    assert abs(wp(lat, z + p1) - wp(lat, z)) <= 10 * lat.tolerance
    assert abs(wp(lat, z + p2) - wp(lat, z)) <= 10 * lat.tolerance
    assert abs(zeta(lat, z + p1) - zeta(lat, z) - qp.eta1) <= 10 * lat.tolerance
    assert abs(zeta(lat, z + p2) - zeta(lat, z) - qp.eta2) <= 10 * lat.tolerance


@given(st.integers(min_value=0, max_value=10_000))
def test_legendre_relation_random(seed):
    rng = np.random.default_rng(seed)
    lat = random_lattice(rng)
    assert legendre_defect(lat) <= 10 * lat.tolerance


def test_vectorized_evaluation_matches_scalar(square):
    # summation order may differ between the 1-d and 2-d code paths
    zs = np.array([0.2 + 0.1j, 0.31 + 0.27j, -0.12 + 0.33j])
    wps = wp(square, zs)
    for i, z in enumerate(zs):
        assert abs(wps[i] - wp(square, complex(z))) < 1e-12
    assert wps.shape == zs.shape


def test_skew_basis_agrees_with_reduced_basis():
    # same lattice presented in a badly skewed basis evaluates identically
    nice = Lattice(0.5, 0.5j)
    skew = Lattice(0.5, 0.5j + 3 * 0.5 * 2)  # omega2 shifted by 3 periods
    z = 0.19 + 0.23j
    assert abs(wp(nice, z) - wp(skew, z)) < 1e-10
    assert abs(zeta(nice, z) - zeta(skew, z)) < 1e-10
    d = legendre_defect(skew)
    assert d < 1e-10


def test_quasi_period_additivity_in_skew_basis():
    lat = Lattice(0.5, 0.5j)
    skew = Lattice(0.5, 0.5j + 1.0)  # omega2' = omega2 + 2*omega1/... one period
    qa = quasi_periods(lat)
    qb = quasi_periods(skew)
    # eta is additive over the lattice: eta(p2 + 2*p1) = eta2 + 2*eta1
    assert abs(qb.eta2 - (qa.eta2 + 2 * qa.eta1)) < 1e-10
    assert abs(qb.eta1 - qa.eta1) < 1e-12


# -- the resummed kernel on hard lattices --------------------------------------

_HEX = cmath.exp(1j * math.pi / 3)

#: (omega1, omega2, precision); Gauss reduction turns "skew" into Im(tau) ~ 1.
HARD_LATTICES = {
    "scale-1e-3": (1e-3, 1e-3j, 1e-12),
    "scale-1e3": (1e3, 1e3j, 1e-12),
    "im-tau-50": (0.5, 25j, 1e-12),
    "im-tau-300": (0.5, 150j, 1e-12),
    # the theta series loses about Im(tau) digits near the top of this cell
    "im-tau-100-skew": (0.5, 0.5 * (-0.41 + 100j), 1e-12),
    "skew-7.3+0.01i": (0.5, 0.5 * (7.3 + 0.01j), 1e-12),
    "hexagonal": (0.5, 0.5 * _HEX, 1e-12),
    "hexagonal-1e-3": (1e-3, 1e-3 * _HEX, 1e-12),
    "hexagonal-precision-1e-6": (0.5, 0.5 * _HEX, 1e-6),
}

#: each function with its brute-force sum, that sum's remainder bound, and the
#: power k of the scale (pi/shortest period)^k that normalises its error
_KERNEL_FUNCS = (
    (wp, ref.wp_sum, ref.wp_sum_remainder, 2),
    (wp_prime, ref.wp_prime_sum, ref.wp_prime_sum_remainder, 3),
    (zeta, ref.zeta_sum, ref.zeta_sum_remainder, 1),
)


def _hard_points(lat):
    """Cell edges, the reflection line Im(pi*z/q1) = 0, the three half-periods
    (where wp' = 0) and points at 1.01 times the pole radius, in the reduced
    basis q1, q2."""
    q1, q2 = lat._reduced
    cell = [(0.5, 0.3), (-0.2, 0.5), (0.5, -0.5), (-0.5, 0.5),
            (0.1, 0.0), (0.37, 0.0), (-0.25, 0.0),
            (0.5, 0.0), (0.0, 0.5), (0.5, 0.5),
            (0.21, 0.13), (-0.33, 0.41)]
    near = [1.01 * lat.pole_radius * cmath.exp(1j * th) for th in (0.0, 0.7, 2.0, -1.3)]
    return np.array([a * q1 + b * q2 for a, b in cell] + near)


def _theta_oracle(mp, lat, z):
    """wp, wp', zeta from the q-series of theta_1 (DLMF 23.6.8-23.6.9) at the
    working precision of `mp`."""
    w1 = mp.mpc(lat.omega1)
    q = mp.exp(1j * mp.pi * mp.mpc(lat.omega2) / w1)
    c = mp.pi / (2 * w1)
    v = c * mp.mpc(z)
    th0, th1, th2, th3 = (mp.jtheta(1, v, q, k) for k in range(4))
    eta = -(mp.pi**2 / (12 * w1)) * mp.jtheta(1, 0, q, 3) / mp.jtheta(1, 0, q, 1)
    l1, l2, l3 = th1 / th0, th2 / th0, th3 / th0
    return (
        complex(-eta / w1 - c**2 * (l2 - l1**2)),
        complex(-(c**3) * (l3 - 3 * l2 * l1 + 2 * l1**3)),
        complex(eta * mp.mpc(z) / w1 + c * l1),
    )


@pytest.mark.parametrize("omega1, omega2, precision", list(HARD_LATTICES.values()),
                         ids=list(HARD_LATTICES))
def test_kernel_on_hard_lattices(omega1, omega2, precision):
    lat = Lattice(omega1, omega2, precision)
    scale = math.pi / lat.shortest_vector
    pts = _hard_points(lat)

    # a 2-D input longer than one block, not a multiple of it, against scalars
    grid = np.tile(pts, (_BLOCK_POINTS // pts.size + 2, 1))
    assert grid.size > _BLOCK_POINTS and grid.size % _BLOCK_POINTS
    scalars = {}
    for f, _, _, k in _KERNEL_FUNCS:
        scalars[f] = np.array([f(lat, complex(z)) for z in pts])
        got = f(lat, grid)
        assert got.shape == grid.shape
        assert np.all(np.abs(got - scalars[f]) <= 1e-14 * (np.abs(scalars[f]) + scale**k))

    # brute-force lattice sums over a box of the reduced basis, which must
    # reach past |z|; the slack covers the rounding of both sums
    q1, q2 = lat._reduced
    box = Lattice(q1 / 2, q2 / 2)
    d0 = ref._boundary_distance(box)
    for i, z in enumerate(pts):
        extent = max(48, math.ceil(2 * abs(z) / d0))
        for f, brute, remainder, k in _KERNEL_FUNCS:
            got = scalars[f][i]
            bound = remainder(box, z, extent) + lat.tolerance * (abs(got) + scale**k)
            assert abs(got - brute(box, z, extent)) <= bound, (f.__name__, z)

    # the documented contract: error <= precision * (|f| + (pi/shortest period)^k)
    _assert_contract(lat, pts)


def _assert_contract(lat, pts):
    """Array and scalar values stay finite and meet the documented contract
    against the theta oracle at every point of pts."""
    mpmath = pytest.importorskip("mpmath")
    scale = math.pi / lat.shortest_vector
    values = [f(lat, pts) for f, _, _, _ in _KERNEL_FUNCS]
    for got in values:
        assert np.all(np.isfinite(got))
    # near the top of the cell the theta series can lose up to about Im(tau)
    # digits to cancellation, depending on Re(tau) and the rotation of omega1
    # (checked against 300-digit values): 30 digits fail on some Im(tau) ~ 100
    dps = 30 + math.ceil((lat.omega2 / lat.omega1).imag)
    for i, z in enumerate(pts):
        with mpmath.workdps(dps):
            want = _theta_oracle(mpmath, lat, z)
        for (f, _, _, k), got, w in zip(_KERNEL_FUNCS, values, want):
            assert abs(f(lat, complex(z)) - got[i]) <= 1e-14 * (abs(w) + scale**k)
            assert abs(got[i] - w) <= lat.tolerance * (abs(w) + scale**k), (f.__name__, z)


#: A basis far from reduced, whose reduced first period is not real.
SKEW_GIVEN = (0.4 + 0.3j, (0.4 + 0.3j) * complex(-2.7, 0.35), 1e-12)


@pytest.mark.parametrize("omega1, omega2, precision",
                         list(HARD_LATTICES.values()) + [SKEW_GIVEN],
                         ids=list(HARD_LATTICES) + ["skew-given"])
def test_zeta_outside_the_cell_meets_its_contract(omega1, omega2, precision):
    # z = a*q1 + b*q2 + m*q1 + n*q2, up to five reduced periods away; the
    # documented bound grows with the shift as (pi/L)*(1 + |m| + |n|)
    mpmath = pytest.importorskip("mpmath")
    lat = Lattice(omega1, omega2, precision)
    q1, q2 = lat._reduced
    box = Lattice(q1 / 2, q2 / 2)
    scale = math.pi / lat.shortest_vector
    rng = np.random.default_rng(4000)
    ab = rng.uniform(-0.45, 0.45, (2, 12))
    ab = ab[:, np.abs(ab[0] * q1 + ab[1] * q2) > 0.05 * lat.shortest_vector]
    mn = rng.integers(-5, 6, (2, ab.shape[1]))
    mn[:, :4] = [[5, -5, 5, -5], [5, 5, -5, -5]]
    z = (ab[0] + mn[0]) * q1 + (ab[1] + mn[1]) * q2
    got = zeta(lat, z)
    dps = 30 + math.ceil(box._tau.imag)
    for i, (m, n) in enumerate(mn.T):
        with mpmath.workdps(dps):
            want = _theta_oracle(mpmath, box, z[i])[2]
        bound = lat.tolerance * (abs(want) + scale * (1 + abs(m) + abs(n)))
        assert abs(got[i] - want) <= bound, (z[i], m, n)


@pytest.mark.parametrize("seed", range(24))
def test_kernel_contract_on_random_lattices(seed):
    # Im(tau) log-uniform over [sqrt(3)/2, 150], precision over [1e-12, 1e-6],
    # scale over [1e-2, 1e2] and a random rotation of the basis
    rng = np.random.default_rng(1000 + seed)
    tau = complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(math.sqrt(3) / 2),
                                                                math.log(150.0))))
    omega1 = 10 ** rng.uniform(-2.0, 2.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    lat = Lattice(omega1, tau * omega1, 10 ** rng.uniform(-12.0, -6.0))
    q1, q2 = lat._reduced
    cell = rng.uniform(-0.5, 0.5, (2, 8))
    pts = np.concatenate([_hard_points(lat), cell[0] * q1 + cell[1] * q2])
    _assert_contract(lat, pts[np.abs(pts) > lat.pole_radius])


@pytest.mark.parametrize("seed", range(12))
def test_kernel_homogeneity_on_random_lattices(seed):
    # wp(cz; c*Lambda) = c^-2 wp(z; Lambda), with c^-3 for wp' and c^-1 for
    # zeta (DLMF 23.10(iv)), for |c| over [1e-2, 1e2] and any rotation; each
    # side meets the contract at its own scale, so they differ by at most twice
    # its bound on the scaled lattice
    rng = np.random.default_rng(2000 + seed)
    tau = complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(math.sqrt(3) / 2),
                                                                math.log(150.0))))
    omega1 = 10 ** rng.uniform(-1.0, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    precision = 10 ** rng.uniform(-12.0, -6.0)
    lat = Lattice(omega1, tau * omega1, precision)
    c = 10 ** rng.uniform(-2.0, 2.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    scaled = Lattice(c * lat.omega1, c * lat.omega2, precision)
    q1, q2 = lat._reduced
    cell = rng.uniform(-0.5, 0.5, (2, 16))
    pts = np.concatenate([_hard_points(lat), cell[0] * q1 + cell[1] * q2])
    pts = pts[np.abs(pts) > lat.pole_radius]
    scale = math.pi / scaled.shortest_vector
    for f, _, _, k in _KERNEL_FUNCS:
        want = f(lat, pts) / c**k
        got = f(scaled, c * pts)
        bound = 2 * scaled.tolerance * (np.abs(want) + scale**k)
        assert np.all(np.abs(got - want) <= bound), (f.__name__, c)


@pytest.mark.parametrize("im_tau", [112.0, 116.0, 119.0, 125.0, 240.0])
def test_kernel_around_q_squared_underflow(im_tau):
    # q^2 = exp(-2*pi*Im(tau)) turns subnormal past Im(tau) = 112.7 and 0 past
    # 118.6; past Im(tau) = 237.2, E = exp(2iv) is 0 at the top of the cell too
    lat = Lattice(0.5, 0.5 * complex(0.1, im_tau))
    assert (lat._q2 == 0) == (im_tau > 118.6)
    _assert_contract(lat, _hard_points(lat))


def _unimodular(rng) -> tuple[int, int, int, int]:
    """A seeded integer matrix ((a, b), (c, d)) with ad - bc = 1."""
    while True:
        a, b = (int(v) for v in rng.integers(-4, 5, 2))
        if math.gcd(a, b) == 1:
            break
    # extended Euclid: s*a + t*b = r = +-1, so (c, d) = (-t*r, s*r) works
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
    k = int(rng.integers(-3, 4))  # any multiple of (a, b) may be added to (c, d)
    c, d = -t0 * r0 + k * a, s0 * r0 + k * b
    assert a * d - b * c == 1
    return a, b, c, d


@pytest.mark.parametrize("seed", range(12))
def test_change_of_basis_leaves_the_functions_unchanged(seed):
    # (omega1', omega2') = (a*omega1 + b*omega2, c*omega1 + d*omega2) with
    # ad - bc = 1 spans the same lattice with the same orientation, so wp, wp'
    # and zeta are unchanged, and eta, additive over the lattice, gives
    # (eta1', eta2') = (a*eta1 + b*eta2, c*eta1 + d*eta2); each side meets the
    # contract, so they differ by at most twice its bound
    rng = np.random.default_rng(3000 + seed)
    lat = random_lattice(rng)
    a, b, c, d = _unimodular(rng)
    rebased = Lattice(a * lat.omega1 + b * lat.omega2, c * lat.omega1 + d * lat.omega2)
    q1, q2 = lat._reduced
    cell = rng.uniform(-0.5, 0.5, (2, 32))
    pts = cell[0] * q1 + cell[1] * q2
    pts = pts[np.abs(pts) > 2 * lat.pole_radius]
    scale = math.pi / lat.shortest_vector
    for f, k in ((wp, 2), (wp_prime, 3), (zeta, 1)):
        want = f(lat, pts)
        bound = 2 * lat.tolerance * (np.abs(want) + scale**k)
        assert np.all(np.abs(f(rebased, pts) - want) <= bound), f.__name__
    old, new = quasi_periods(lat), quasi_periods(rebased)
    size = abs(old.eta1) + abs(old.eta2) + scale
    for (x, y), eta in (((a, b), new.eta1), ((c, d), new.eta2)):
        # eta_j = 2*zeta(omega_j), each at most (|x| + |y|) lattice steps away
        bound = 2 * lat.tolerance * (abs(x) + abs(y)) * size
        assert abs(eta - (x * old.eta1 + y * old.eta2)) <= bound


# -- the block loop ------------------------------------------------------------

#: Reduced first period (0.6 + 1.7i)*pi, not real: 7 series rows.
BLOCKED = Lattice(math.pi, complex(0.3, 0.85) * math.pi)


def _blocks_of_points(seed: int, blocks: float) -> np.ndarray:
    return interior_points(BLOCKED, np.random.default_rng(seed), int(blocks * _BLOCK_POINTS))


@pytest.mark.parametrize("f", [wp, wp_prime, zeta])
def test_pole_in_a_middle_block_is_reported_like_one_point(f):
    pts = _blocks_of_points(11, 3.5)
    p1, _ = BLOCKED.periods
    radius = BLOCKED.pole_radius
    nearest = p1 + 0.3 * radius * 1j
    pts[100] = p1 + 0.9 * radius  # inside the radius too, in the first block
    pts[_BLOCK_POINTS + 7] = nearest
    with pytest.raises(PoleProximity) as single:
        f(BLOCKED, nearest)
    with pytest.raises(PoleProximity) as blocked:
        f(BLOCKED, pts)
    assert str(blocked.value) == str(single.value)
    assert f"{abs(nearest - p1):.3e}" in str(single.value)


@pytest.mark.parametrize("f", [wp, wp_prime, zeta])
def test_nan_in_the_last_block_is_rejected(f):
    pts = _blocks_of_points(12, 3.2)
    pts[-1] = complex(0.1, math.nan)
    with pytest.raises(ValueError, match="^evaluation points must be finite$"):
        f(BLOCKED, pts)
    pts[5] = 0.0  # a pole in the first block does not hide it
    with pytest.raises(ValueError, match="^evaluation points must be finite$"):
        f(BLOCKED, pts)


@pytest.mark.parametrize("f", [wp, wp_prime, zeta])
def test_empty_and_zero_dim_inputs_keep_shape_and_type(f):
    for shape in ((0,), (0, 3), (4, 0)):
        out = f(BLOCKED, np.empty(shape, complex))
        assert type(out) is np.ndarray and out.dtype == complex and out.shape == shape
    out = f(BLOCKED, [])
    assert type(out) is np.ndarray and out.shape == (0,)
    z = 0.4 + 0.3j
    one = f(BLOCKED, np.array([z]))[0]
    for scalar in (z, np.complex128(z), np.array(z)):
        out = f(BLOCKED, scalar)
        assert type(out) is complex and out == one


def test_zeta_quasi_periodicity_across_blocks():
    qp = quasi_periods(BLOCKED)
    p1, p2 = BLOCKED.periods
    z = _blocks_of_points(13, 3.3)
    assert z.size > 10_000
    base = zeta(BLOCKED, z)
    assert np.abs(zeta(BLOCKED, z + p1) - base - qp.eta1).max() < 1e-9
    assert np.abs(zeta(BLOCKED, z + p2) - base - qp.eta2).max() < 1e-9


# -- one block at a time ---------------------------------------------------------


def _spread_points(seed: int, count: int, lat: Lattice = BLOCKED) -> np.ndarray:
    """Interior points shifted by up to three periods each way, so that the
    reduction acts and zeta's linear and q2-shift terms take the shift."""
    rng = np.random.default_rng(seed)
    p1, p2 = lat.periods
    m, n = rng.integers(-3, 4, (2, count))
    return interior_points(lat, rng, count) + m * p1 + n * p2


@pytest.mark.parametrize("f", [wp, wp_prime, zeta])
def test_a_call_gives_its_blocks_values(f):
    # 40,000 points, past the 16,384 at which numpy evaluates an expression
    # on a temporary in place
    z = _spread_points(14, 40_000)
    width = _BLOCK_POINTS
    whole = f(BLOCKED, z)
    pieces = [f(BLOCKED, z[lo : lo + width]) for lo in range(0, z.size, width)]
    assert np.array_equal(whole, np.concatenate(pieces))
    for k in range(1, z.size // width + 1):
        assert np.array_equal(whole[: k * width], f(BLOCKED, z[: k * width])), k


def _phi1(lattice, z):
    return monodromy_factor(lattice, 1, z)


def _phi2(lattice, z):
    return monodromy_factor(lattice, 2, z)


#: 8 series rows, one more Horner step than BLOCKED.
EIGHT_ROWS = Lattice(1, complex(0.45, 0.9))


@pytest.mark.parametrize("f", [wp, wp_prime, zeta, _phi1, _phi2])
@pytest.mark.parametrize("lat", [BLOCKED, EIGHT_ROWS], ids=["7-rows", "8-rows"])
def test_a_value_depends_only_on_its_point(lat, f):
    assert lat._rows == (7 if lat is BLOCKED else 8)
    z = _spread_points(16, 2 * _BLOCK_POINTS + 600, lat)
    whole = f(lat, z)
    cuts = np.sort(np.random.default_rng(17).choice(np.arange(1, z.size), 12, replace=False))
    assert np.array_equal(whole, np.concatenate([f(lat, piece) for piece in np.split(z, cuts)]))
    # every prefix length near the block edges at 0 and _BLOCK_POINTS
    for size in [*range(1, 33), *range(_BLOCK_POINTS - 16, _BLOCK_POINTS + 17)]:
        assert np.array_equal(whole[:size], f(lat, z[:size])), size
    for lo in [*range(0, z.size - 13, 499), _BLOCK_POINTS - 6, 2 * _BLOCK_POINTS - 6]:
        assert np.array_equal(whole[lo : lo + 13], f(lat, z[lo : lo + 13])), lo
    for i in range(0, z.size, 83):
        assert f(lat, complex(z[i])) == whole[i], i


def test_the_kernel_calls_no_blas(monkeypatch):
    # a BLAS call can stall on its threads when the process is not pinned
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel called BLAS")

    for name in ("dot", "matmul", "vdot"):
        monkeypatch.setattr(np, name, refuse)
    z = _blocks_of_points(18, 2.5)
    for f in (wp, wp_prime, zeta):
        assert f(BLOCKED, z).shape == z.shape


def test_the_largest_block_stays_below_numpys_in_place_size():
    # a block's finishing expressions on 16,384 complex values (256 KiB) or
    # more would run in place and round by the array's length
    assert _BLOCK_POINTS < 16_384


@pytest.mark.parametrize("f", [wp, wp_prime, zeta])
def test_a_call_holds_one_block_besides_its_output(f):
    z = _spread_points(15, 100_000)
    f(BLOCKED, z[:10])  # the lattice's cached set-up, outside the trace
    tracemalloc.start()
    try:
        out = f(BLOCKED, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2_000_000
