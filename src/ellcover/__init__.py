"""Toolkit for cover invariants over an elliptic curve and the elliptic
function numerics that verify their flow periodicity at genus 1.

The numeric names (from `elliptic` and `kdv`) and the Picard names (from
`picard`) are loaded on first access, so importing the package, or using
only its integer layers, imports neither numpy nor `picard`.  Nor does a
Lattice with its quasi-periods: numpy comes with the first evaluation."""

import importlib

from .errors import (
    ConvergenceFailure,
    EllcoverError,
    InvalidInvariants,
    ParityViolation,
    PoleProximity,
)
from .invariants import (
    CoverInvariants,
    EnumeratedType,
    FamilyParams,
    FamilySpec,
    GeneratedType,
    Placement,
    TypeVector,
    Verdict,
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
    type_square_target,
)

__version__ = "0.1.0"

# names loaded on first access, by the module that defines them
_LAZY = {
    "elliptic": ("HalfPeriodIndex", "Lattice", "QuasiPeriods", "half_period", "legendre_bound",
                 "legendre_defect", "quasi_periods", "reduce", "wp", "wp_prime", "zeta"),
    "kdv": ("Grid", "TravelingWave", "kdv_residual", "monodromy_factor", "periodicity_check"),
    "picard": ("DivisorClass", "TauInvariantClass", "adjunction_genus", "canonical_class",
               "cover_class", "exceptional_class", "fiber_class", "intersect",
               "is_exceptional_first_kind", "nls_sg_class", "r_class", "s_class",
               "section_class", "tilde_genus"),
}

__all__ = sorted(
    [k for k, v in globals().items() if getattr(v, "__module__", "").startswith(__name__ + ".")]
    + [name for names in _LAZY.values() for name in names]
)


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            return globals().setdefault(name, value)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
