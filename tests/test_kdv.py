import cmath
import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from conftest import random_lattice
from ellcover.elliptic import Lattice, QuasiPeriods, quasi_periods, wp, wp_prime
from ellcover.errors import InvalidInvariants, PoleProximity
from ellcover.kdv import (
    Grid,
    TravelingWave,
    kdv_residual,
    monodromy_factor,
    periodicity_check,
    shift_defect,
)

LAT = Lattice(math.pi, math.pi * 1j)  # square lattice with periods 2*pi, 2*pi*i


@pytest.fixture(scope="module")
def grid():
    return Grid.for_lattice(LAT)


# -- residual -------------------------------------------------------------------


def test_stationary_wave_residual(grid):
    # 6*u*u_x + u_xxx vanishes identically for u = -2*wp(x)
    w = TravelingWave(LAT, lam=0.0)
    assert kdv_residual(w, grid) < 1e-6
    assert kdv_residual(w, grid, "chain") < 1e-6


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_traveling_wave_residual(grid, lam):
    w = TravelingWave(LAT, lam=lam)
    assert kdv_residual(w, grid) < 1e-6
    assert kdv_residual(w, grid, "chain") < 1e-6


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_wrong_speed_control(grid, lam):
    w = TravelingWave(LAT, lam=lam, speed=lam)  # speed lam instead of 3*lam/2
    assert kdv_residual(w, grid, "chain") > 1e-2


def test_backends_agree_within_stencil_error(grid):
    w = TravelingWave(LAT, lam=2.0)
    assert abs(kdv_residual(w, grid) - kdv_residual(w, grid, "chain")) < 1e-6


@pytest.mark.parametrize("tau, rows", [(complex(0.1, 1.5), 6), (complex(0.1, 0.8), 7)])
@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_backend_tuple_matches_single_calls(tau, rows, lam):
    lat = Lattice(math.pi, tau * math.pi)
    assert lat._rows == rows
    w = TravelingWave(lat, lam=lam, x0=0.2)
    for nx, nt in ((40, 8), (97, 13)):
        g = Grid.for_lattice(lat, nx=nx, nt=nt)
        stencil, chain = kdv_residual(w, g), kdv_residual(w, g, "chain")
        assert kdv_residual(w, g, ("stencil", "chain")) == (stencil, chain)
        assert kdv_residual(w, g, ("chain", "stencil")) == (chain, stencil)
        assert kdv_residual(w, g, ("chain",)) == (chain,)


def _meshgrid_u(wave, X, T):
    phase = np.asarray(X, complex) + wave.velocity * np.asarray(T, complex) + wave.x0
    return -2.0 * wp(wave.lattice, phase) + wave.lam


def _meshgrid_residuals(wave, grid):
    """(stencil, chain) residuals by the formulas as first written: full
    meshgrid arrays, one fresh array per operation."""
    X, T = np.meshgrid(grid.x_samples(wave.lattice), grid.t_samples(), indexing="ij")
    U = _meshgrid_u(wave, X, T)
    hx, ht = grid.hx, grid.ht
    core = np.s_[2:-2, 1:-1]
    u = U[core]
    u_x = (U[3:-1, 1:-1] - U[1:-3, 1:-1]) / (2.0 * hx)
    u_xxx = (U[4:, 1:-1] - 2.0 * U[3:-1, 1:-1] + 2.0 * U[1:-3, 1:-1] - U[:-4, 1:-1]) / (
        2.0 * hx**3
    )
    rhs = 0.25 * (6.0 * u * u_x + u_xxx)
    stencil = (U[2:-2, 2:] - U[2:-2, :-2]) / (2.0 * ht)
    phase = np.asarray(X[core], complex) + wave.velocity * np.asarray(T[core], complex) + wave.x0
    chain = -2.0 * wave.velocity * wp_prime(wave.lattice, phase)
    return tuple(float(np.max(np.abs(u_t - rhs))) for u_t in (stencil, chain))


def _meshgrid_shift_defect(wave, *shifts, nx=40, nt=5):
    grid = Grid.for_lattice(wave.lattice, nx=nx, nt=nt)
    X, T = np.meshgrid(grid.x_samples(wave.lattice), grid.t_samples(), indexing="ij")
    U = _meshgrid_u(wave, X, T)
    return max([float(np.max(np.abs(_meshgrid_u(wave, X + s, T) - U))) for s in shifts])


# 5x3 grids have a one-point stencil core, where numpy's complex product can
# round differently when its output is one of its inputs; the coarse grids
# and the one near a pole make neighbouring values far apart, so fewer of
# the stencil's sums are exact
EXACT_CASES = {
    "square-40x8": (math.pi, math.pi * 1j, 0.0, 0.0, 40, 8, {}),
    "lambda-97x13": (math.pi, complex(0.1, 1.5) * math.pi, 1.3, 0.0, 97, 13, {}),
    "x0-333x7": (math.pi, complex(-0.3, 0.8) * math.pi, -0.7, 0.2 + 0.1j, 333, 7, {}),
    "skew-1000x6": (math.pi, complex(0.4, 1.2) * math.pi, 0.9 - 0.4j, 0.0, 1000, 6, {}),
    "skew-basis-64x21": (0.8, 0.8 * complex(3.2, 1.1), 0.4 + 0.2j, -0.1, 64, 21, {}),
    "complex-lambda-5x3": (2.0, complex(0.9, 2.3), 0.5 + 0.9j, 0.3 - 0.2j, 5, 3, {}),
    "complex-lambda-5x3-b": (math.pi, complex(0.2, 1.1) * math.pi, -1.7 + 0.6j, 0.1, 5, 3, {}),
    "coarse-41x7": (math.pi, complex(0.4, 1.2) * math.pi, -0.8, 0.2j, 41, 7,
                    {"hx": 0.1, "ht": 0.03}),
    "near-pole-13x5": (1 + 0.5j, -0.7 + 1.9j, 0.3 + 0.2j, 0.1j, 13, 5,
                       {"hx": 0.06, "ht": 0.01, "x_center": 0.5}),
    # 40,000 points: 13 kernel blocks and 3 stencil tiles, with a reduced
    # first period that is not real
    "blocks-and-tiles-1000x40": (math.pi, complex(0.3, 0.85) * math.pi, 0.9 - 0.4j, 0.0,
                                 1000, 40, {}),
}


@pytest.mark.parametrize("omega1, omega2, lam, x0, nx, nt, spacing", EXACT_CASES.values(),
                         ids=EXACT_CASES)
def test_residuals_equal_the_meshgrid_formulas_exactly(omega1, omega2, lam, x0, nx, nt, spacing):
    lat = Lattice(omega1, omega2)
    g = Grid(nx, nt=nt, **spacing) if spacing else Grid.for_lattice(lat, nx, nt)
    w = TravelingWave(lat, lam=lam, x0=x0)
    stencil, chain = _meshgrid_residuals(w, g)
    assert kdv_residual(w, g, "stencil") == stencil
    assert kdv_residual(w, g, "chain") == chain
    assert kdv_residual(w, g, ("stencil", "chain")) == (stencil, chain)
    assert kdv_residual(w, g, ("chain", "stencil")) == (chain, stencil)
    p1, p2 = lat.periods
    for nx, nt in ((40, 5), (nx, nt)):
        assert shift_defect(w, p1, p2, nx=nx, nt=nt) == _meshgrid_shift_defect(
            w, p1, p2, nx=nx, nt=nt)
    assert periodicity_check(w) == _meshgrid_shift_defect(w, p1, p2)


def test_verify_kdv_evaluates_each_grid_once(monkeypatch):
    from ellcover import cli, kdv

    seen = {"wp": [], "wp_prime": []}

    def counting(name):
        original = getattr(kdv, name)

        def wrapped(lattice, z):
            seen[name].append(np.size(z))
            return original(lattice, z)

        return wrapped

    for name in seen:
        monkeypatch.setattr(kdv, name, counting(name))
    w = TravelingWave(LAT)
    periodicity_check(w)
    periodicity_points = sum(seen["wp"])
    assert seen["wp_prime"] == []
    seen["wp"].clear()
    assert cli.run(["verify-kdv", "--omega1", "3.141592653589793",
                    "--omega2", "3.141592653589793i", "--grid", "40,8"]) in (0, 1)
    # u once over the 40x8 grid, wp' only on the (40-4)x(8-2) stencil core
    assert sum(seen["wp"]) == 40 * 8 + periodicity_points
    assert seen["wp"].count(40 * 8) == 1
    assert seen["wp_prime"] == [36 * 6]


def test_periodicity_and_monodromy_evaluate_each_point_once(monkeypatch):
    from ellcover import cli, kdv

    wp_points, mono_points = [], []
    wp = kdv.wp
    monkeypatch.setattr(kdv, "wp", lambda lattice, z: wp_points.append(np.size(z)) or wp(lattice, z))
    w = TravelingWave(LAT, lam=1.0, x0=0.3)
    p1, p2 = LAT.periods
    # u on the 40x5 samples once, then once per period
    assert periodicity_check(w) == shift_defect(w, p1, p2)
    assert wp_points == [200, 200, 200] * 2
    assert shift_defect(w, p1, p2) == max(shift_defect(w, p1), shift_defect(w, p2))

    monodromy = cli.monodromy_factor
    monkeypatch.setattr(cli, "monodromy_factor",
                        lambda lat, j, z: mono_points.append((j, z)) or monodromy(lat, j, z))
    assert cli.run(["verify-kdv", "--omega1", "3.141592653589793",
                    "--omega2", "3.141592653589793i", "--grid", "40,8"]) == 0
    # phi_1 and phi_2 at z0, z0 + p1 and z0 + p2, each once, one call per j
    assert [j for j, _ in mono_points] == [1, 2]
    assert mono_points[0][1] == mono_points[1][1] and len(set(mono_points[0][1])) == 3


def test_residual_second_order_convergence():
    # fixed window, refined spacing: truncation-dominated regime
    w = TravelingWave(LAT, lam=2.0)
    window = 0.3
    res = []
    for npts in (25, 50, 100):
        g = Grid(nx=npts, hx=window / npts, nt=8, ht=5e-4)
        res.append(kdv_residual(w, g, "chain"))
    order = math.log2(res[0] / res[2]) / 2
    assert abs(order - 2.0) < 0.3


def test_grid_validation():
    with pytest.raises(InvalidInvariants):
        Grid(nx=3)
    with pytest.raises(InvalidInvariants):
        Grid(hx=-1.0)
    with pytest.raises(TypeError):  # stencils are second order only, with no option
        Grid(x_order=4)
    with pytest.raises(InvalidInvariants):
        kdv_residual(TravelingWave(LAT), time_derivative="spectral")
    with pytest.raises(InvalidInvariants):
        kdv_residual(TravelingWave(LAT), time_derivative=("stencil", "spectral"))


@pytest.mark.parametrize("field, value", [
    ("nx", 7.5), ("nx", 8.0), ("nx", True), ("nx", np.bool_(True)), ("nx", "8"), ("nx", None),
    ("nx", 4), ("nt", 4.5), ("nt", False), ("nt", np.int64(2)),
    ("hx", math.nan), ("hx", math.inf), ("hx", 0.0), ("hx", -1e-3), ("hx", 1e-3j), ("hx", "1e-3"),
    ("ht", math.inf), ("ht", math.nan), ("ht", -0.0), ("ht", np.float64(-math.inf)),
    ("x_center", math.nan), ("x_center", complex(0.5, -math.inf)), ("x_center", "0.5"),
])
def test_grid_rejects_a_bad_field_by_name(field, value):
    with pytest.raises(InvalidInvariants, match=f"^{field}: "):
        Grid(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("lam", math.inf), ("lam", complex(math.nan, 0.0)), ("lam", None), ("x0", -math.inf),
    ("x0", complex(0.2, math.nan)), ("x0", "0.2"), ("speed", math.inf), ("speed", np.nan),
])
def test_wave_rejects_a_non_finite_field_by_name(field, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInvariants, match=f"^{field}: need a finite number"):
            TravelingWave(LAT, **{field: value})


@pytest.mark.parametrize("lattice", ["x", None, (math.pi, math.pi * 1j), Grid()],
                         ids=["str", "None", "tuple", "Grid"])
def test_wave_rejects_a_non_lattice_by_name(lattice):
    with pytest.raises(InvalidInvariants, match="^lattice: expected a Lattice, got "):
        TravelingWave(lattice)


# field -> (error, message prefix, a call that passes the value as that field)
NUMERIC_FIELDS = {
    "omega1": (ValueError, "omega1: ", lambda v: Lattice(v, 0.5j)),
    "omega2": (ValueError, "omega2: ", lambda v: Lattice(0.5, v)),
    "precision": (ValueError, "precision: ", lambda v: Lattice(0.5, 0.5j, v)),
    "lam": (InvalidInvariants, "lam: ", lambda v: TravelingWave(LAT, lam=v)),
    "x0": (InvalidInvariants, "x0: ", lambda v: TravelingWave(LAT, x0=v)),
    "speed": (InvalidInvariants, "speed: ", lambda v: TravelingWave(LAT, speed=v)),
    "hx": (InvalidInvariants, "hx: ", lambda v: Grid(hx=v)),
    "ht": (InvalidInvariants, "ht: ", lambda v: Grid(ht=v)),
    "x_center": (InvalidInvariants, "x_center: ", lambda v: Grid(x_center=v)),
    "j": (InvalidInvariants, "period index must be 1 or 2, got ",
          lambda v: monodromy_factor(LAT, v, 0.3 + 0.2j)),
}


@pytest.mark.parametrize("value", ["1", True], ids=["str", "bool"])
@pytest.mark.parametrize("field", list(NUMERIC_FIELDS))
def test_numeric_fields_reject_strings_and_bools_by_name(field, value):
    error, prefix, build = NUMERIC_FIELDS[field]
    with pytest.raises(error, match=f"^{prefix}"):
        build(value)


def test_grid_accepts_numpy_numbers():
    g = Grid(nx=np.int64(7), hx=np.float64(1e-3), nt=np.int32(3), ht=np.float32(1e-3),
             x_center=np.float64(math.pi))
    assert g.x_samples(LAT).size == 7 and g.t_samples().size == 3
    w = TravelingWave(LAT, lam=np.float64(1.0), x0=np.complex128(0j), speed=np.float32(1.5))
    assert kdv_residual(w, g) < 1e-3


def test_grid_hitting_a_pole_raises():
    w = TravelingWave(LAT, lam=0.0)
    g = Grid(nx=9, hx=1e-4, nt=3, ht=1e-4, x_center=0.0)  # centered on the pole
    with pytest.raises(PoleProximity):
        kdv_residual(w, g)


# -- periodicity ------------------------------------------------------------------


def test_wave_is_lattice_periodic():
    w = TravelingWave(LAT, lam=1.0, x0=0.3)
    assert periodicity_check(w) <= 1e-10


def test_combined_period_shift():
    w = TravelingWave(LAT, lam=1.0)
    p1, p2 = LAT.periods
    assert shift_defect(w, p1 + p2) <= 1e-10


def test_half_period_shift_is_not_a_period():
    w = TravelingWave(LAT, lam=1.0)
    # window kept clear of the poles that the half-shifted copy would hit
    assert shift_defect(w, LAT.omega1, x_center=LAT.omega1 - 0.3) > 1e-2
    assert shift_defect(w, LAT.omega2) > 1e-2


# -- monodromy factor ---------------------------------------------------------------


def test_monodromy_factor_single_valuedness():
    sq = Lattice(0.5, 0.5j)
    z = 0.22 + 0.13j
    for j in (1, 2):
        for p in sq.periods:
            ratio = monodromy_factor(sq, j, z + p) / monodromy_factor(sq, j, z)
            assert abs(ratio - 1.0) < 1e-9


def test_monodromy_factor_inverse_pair():
    sq = Lattice(0.5, 0.5j)
    z = 0.23 + 0.11j
    for j in (1, 2):
        prod = monodromy_factor(sq, j, z) * monodromy_factor(sq, j, -z)
        assert abs(prod - 1.0) < 1e-9


def test_monodromy_factor_small_argument_expansion():
    # phi_j(z) * exp(-2*omega_j/z) = 1 - eta_j*z + O(z^2)
    sq = Lattice(0.5, 0.5j)
    qp = quasi_periods(sq)
    base = 0.04 + 0.03j
    for j, eta in ((1, qp.eta1), (2, qp.eta2)):
        omega = sq.omega1 if j == 1 else sq.omega2
        for k in range(3):
            z = base / 2**k
            val = monodromy_factor(sq, j, z) * cmath.exp(-2 * omega / z)
            assert abs(val - 1.0) <= 2.0 * abs(eta * z)


def test_monodromy_factor_rejects_bad_index():
    sq = Lattice(0.5, 0.5j)
    with pytest.raises(InvalidInvariants):
        monodromy_factor(sq, 3, 0.2 + 0.1j)
    with pytest.raises(PoleProximity):
        monodromy_factor(sq, 1, 1e-6)


def test_monodromy_random_lattices():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        lat = random_lattice(rng)
        z = 0.17 * 2 * lat.omega1 + 0.29 * 2 * lat.omega2
        for j in (1, 2):
            for p in lat.periods:
                ratio = monodromy_factor(lat, j, z + p) / monodromy_factor(lat, j, z)
                assert abs(ratio - 1.0) < 1e-8


# -- records --------------------------------------------------------------------

SMALL = Lattice(0.5, 0.5j)

RECORDS = [
    (Lattice, {"omega1": 0.5 + 0j, "omega2": 0.5j, "precision": 1e-12},
     "Lattice(omega1=(0.5+0j), omega2=0.5j, precision=1e-12)"),
    (QuasiPeriods, {"eta1": 1 + 2j, "eta2": 0.25j}, "QuasiPeriods(eta1=(1+2j), eta2=0.25j)"),
    (TravelingWave, {"lattice": SMALL, "lam": 1.0, "x0": 0.0, "speed": None},
     "TravelingWave(lattice=Lattice(omega1=(0.5+0j), omega2=0.5j, precision=1e-12), "
     "lam=1.0, x0=0.0, speed=None)"),
    (Grid, {"nx": 200, "hx": 1.5e-3, "nt": 20, "ht": 5e-4, "x_center": None},
     "Grid(nx=200, hx=0.0015, nt=20, ht=0.0005, x_center=None)"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_numeric_records_keep_their_value_semantics(cls, fields, text):
    rec, same = cls(**fields), cls(*fields.values())
    assert rec == same and hash(rec) == hash(same) and rec is not same
    assert rec != tuple(fields.values()) and repr(rec) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
    for copied in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert copied == rec and hash(copied) == hash(rec) and repr(copied) == text


def test_a_lattice_is_its_fields_not_its_cached_values():
    lat, fresh = Lattice(0.5, 0.5j), Lattice(0.5, 0.5j)
    assert lat._rows and lat._series and lat._quasi  # computed and cached on lat only
    assert lat == fresh and hash(lat) == hash(fresh) and repr(lat) == repr(fresh)
    for name in ("_rows", "_quasi", "tolerance"):
        with pytest.raises(AttributeError):
            setattr(lat, name, getattr(lat, name))
        with pytest.raises(AttributeError):
            delattr(lat, name)
    z = np.linspace(0.05, 0.45, 9) + 0.13j
    for copied in (copy.copy(lat), copy.deepcopy(lat), pickle.loads(pickle.dumps(lat))):
        assert copied == lat and hash(copied) == hash(lat)
        assert wp(copied, z).tobytes() == wp(lat, z).tobytes()
