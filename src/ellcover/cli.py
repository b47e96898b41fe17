"""Batch command-line front end.

Every subcommand emits a deterministic table, one row per result, as JSON
(default) or CSV.  A row is {"inputs": ..., "derived": ..., "verdicts":
[{"clause", "ok", "lhs", "rhs"}, ...]}; CSV flattens the same fields.
Floats are printed with 12 significant digits and complex numbers as
{"re": ..., "im": ...}, so repeated runs are byte-identical.

Exit codes: 0 all checks passed / enumeration succeeded; 1 at least one
verdict violated; 2 usage or numeric error.  Data goes to stdout,
diagnostics to stderr.  There are no environment knobs.

The integer subcommands never import numpy: the elliptic and kdv names
used by `legendre` and `verify-kdv` are bound into this module on first
use (or on first attribute access from outside).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from fractions import Fraction

from . import invariants as inv
from . import picard
from .errors import EllcoverError, InvalidInvariants

# elliptic/kdv names used by the numeric handlers, loaded on first use
_NUMERIC = ("Lattice", "legendre_defect", "quasi_periods", "Grid", "TravelingWave",
            "kdv_residual", "monodromy_factor", "periodicity_check")


def _load_numeric() -> None:
    """Bind every numeric name into this module from the package's lazy
    exports, keeping any binding already there (such as a wrapper
    installed from outside)."""
    package, namespace = sys.modules[__package__], globals()
    for name in _NUMERIC:
        namespace.setdefault(name, getattr(package, name))


def __getattr__(name: str):
    if name in _NUMERIC:
        _load_numeric()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if x == 0:
        return "0"
    return "%.12g" % x


# RFC 8259 string escapes: the quote, the backslash and every control character
_JSON_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {0x22: '\\"', 0x5C: "\\\\"}


def _json_str(v: str) -> str:
    if not v.isprintable() or '"' in v or "\\" in v:
        v = v.translate(_JSON_ESCAPES)
    return f'"{v}"'


# keys recur on every row; typed, so that True and 1.0 stay apart
_json_key = functools.lru_cache(maxsize=256, typed=True)(lambda k: _json_str(str(k)))


def _json_seq(v) -> str:
    return "[" + ", ".join([_JSON_BY_TYPE.get(type(x), _json_subclassed)(x) for x in v]) + "]"


def _json_dict(v) -> str:
    return "{" + ", ".join([f"{_json_key(k)}: {_JSON_BY_TYPE.get(type(x), _json_subclassed)(x)}"
                            for k, x in v.items()]) + "}"


# looked up by exact type; an instance of a subclass (np.float64) takes its first match
_JSON_ENCODERS = (
    (type(None), lambda v: "null"),
    (bool, ("false", "true").__getitem__),
    (int, str),
    (float, _fmt_float),
    (Fraction, lambda v: str(v) if v.denominator == 1 else f'"{v}"'),
    (complex, lambda v: '{"re": %s, "im": %s}' % (_fmt_float(v.real), _fmt_float(v.imag))),
    (str, _json_str),
    (list, _json_seq),
    (tuple, _json_seq),
    (dict, _json_dict),
)
_JSON_BY_TYPE = dict(_JSON_ENCODERS)


def _json_subclassed(v) -> str:
    for t, encode in _JSON_ENCODERS:
        if isinstance(v, t):
            return encode(v)
    raise TypeError(f"cannot serialize {type(v)}")


def _json_value(v) -> str:
    return _JSON_BY_TYPE.get(type(v), _json_subclassed)(v)


def _json_rows(rows: list[dict]) -> str:
    parts = []
    for row in rows:
        fields = ",\n".join([f"    {_json_key(k)}: {_json_value(v)}" for k, v in row.items()])
        parts.append("  {\n" + fields + "\n  }")
    return "[\n" + ",\n".join(parts) + "\n]\n" if rows else "[]\n"


def _flat_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, complex):
        return f"{_fmt_float(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt_float(abs(v.imag))}i"
    if isinstance(v, (list, tuple)):
        return "(" + ";".join(_flat_value(x) for x in v) + ")"
    return str(v)


def _csv_rows(rows: list[dict]) -> str:
    buf = io.StringIO()
    if not rows:
        return ""
    header: list[str] = []
    for section in ("inputs", "derived"):
        header.extend(f"{section}.{k}" for k in rows[0].get(section, {}))
    header.append("verdicts")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        record = []
        for section in ("inputs", "derived"):
            record.extend(_flat_value(v) for v in row.get(section, {}).values())
        vstrs = []
        for v in row.get("verdicts", []):
            status = "ok" if v["ok"] else f"violated[lhs={_flat_value(v['lhs'])} rhs={_flat_value(v['rhs'])}]"
            vstrs.append(f"{v['clause']}:{status}")
        record.append("; ".join(vstrs))
        writer.writerow(record)
    return buf.getvalue()


def _verdict_dicts(verdicts) -> list[dict]:
    return [{"clause": c, "ok": ok, "lhs": lhs, "rhs": rhs, "informational": True} if info
            else {"clause": c, "ok": ok, "lhs": lhs, "rhs": rhs}
            for c, ok, lhs, rhs, info in verdicts]


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "")
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")


def _parse_ints(text: str, count: int):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"expected {count} integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}")


def _int4_arg(text: str):
    return _parse_ints(text, 4)


def _class_arg(text: str):
    return _parse_ints(text, 10)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse tolerance {text!r}")
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (rows, exit_code)
# ---------------------------------------------------------------------------


def _cmd_legendre(args) -> tuple[list[dict], int]:
    _load_numeric()
    lat = Lattice(args.omega1, args.omega2, args.precision)
    qp = quasi_periods(lat)
    defect = legendre_defect(lat)
    tol = 10.0 * lat.tolerance
    row = {
        "inputs": {
            "omega1": complex(lat.omega1),
            "omega2": complex(lat.omega2),
            "precision": lat.tolerance,
        },
        "derived": {
            "eta1": complex(qp.eta1),
            "eta2": complex(qp.eta2),
            "defect": defect,
        },
        "verdicts": [
            {"clause": "4.4 Legendre relation", "ok": defect <= tol, "lhs": defect, "rhs": tol}
        ],
    }
    return [row], 0 if defect <= tol else 1


def _cmd_enumerate_types(args) -> tuple[list[dict], int]:
    rows = []
    ok_all = True
    for item in inv.enumerate_types(args.n, args.d):
        ok = inv.admissible(item.verdicts)
        ok_all = ok_all and ok
        rows.append(
            {
                "inputs": {"n": args.n, "d": args.d},
                "derived": {
                    "gamma": list(item.gamma),
                    "gamma1": item.gamma.total,
                    "gamma2": item.gamma.square_sum,
                    "g": item.g,
                    "admissible": ok,
                },
                "verdicts": _verdict_dicts(item.verdicts),
            }
        )
    return rows, 0 if ok_all else 1


def _cmd_check_cover(args) -> tuple[list[dict], int]:
    gamma = inv.TypeVector(args.gamma)
    inputs = {
        "case": args.case,
        "n": args.n,
        "g": args.g,
        "gamma": list(gamma),
    }
    kdv_flags = {"d": args.d, "rho": args.rho, "m": args.m}
    misplaced = {"placement": args.placement} if args.case == "kdv" else kdv_flags
    given = [f"--{k}" for k, v in misplaced.items() if v is not None]
    if given:
        raise InvalidInvariants(f"{', '.join(given)}: not valid with --case {args.case}")
    if args.case == "kdv":
        d, rho, m = (1 if v is None else v for v in kdv_flags.values())
        record = inv.CoverInvariants(args.n, d, args.g, rho, m, gamma)
        verdicts = inv.evaluate_kdv(record)
        inputs.update({"d": d, "rho": rho, "m": m})
    else:
        placement = inv.Placement(args.placement or "distinct-generic")
        inputs["placement"] = placement.value
        if args.case == "nls":
            verdicts = inv.evaluate_nls_toda(args.n, args.g, gamma, placement)
        else:
            verdicts = inv.evaluate_sine_gordon(args.n, args.g, gamma, placement)
    ok = inv.admissible(verdicts)
    row = {
        "inputs": inputs,
        "derived": {
            "gamma1": gamma.total,
            "gamma2": gamma.square_sum,
            "admissible": ok,
        },
        "verdicts": _verdict_dicts(verdicts),
    }
    return [row], 0 if ok else 1


def _cmd_construct(args) -> tuple[list[dict], int]:
    rows = []
    for item in inv.construct_types(args.d, args.k, args.mu):
        record = inv.CoverInvariants(item.n, args.d, item.g, 1, 1, item.gamma)
        verdicts = inv.evaluate_kdv(record)
        rows.append(
            {
                "inputs": {"d": args.d, "k": args.k, "mu": list(args.mu)},
                "derived": {
                    "gamma": list(item.gamma),
                    "n": item.n,
                    "g": item.g,
                },
                "verdicts": _verdict_dicts(verdicts),
            }
        )
    ok_all = all(all(v["ok"] for v in r["verdicts"]) for r in rows)
    return rows, 0 if ok_all else 1


def _cmd_family(args) -> tuple[list[dict], int]:
    spec = inv.FamilySpec(
        args.theorem, args.alpha, at_half_period=args.at_half_period, j0=args.j0
    )
    result = inv.family_params(spec)
    ok = all(v.ok for v in result.verdicts)
    row = {
        "inputs": {
            "case": args.theorem,
            "alpha": list(spec.alpha),
            "at_half_period": args.at_half_period,
            "j0": args.j0,
        },
        "derived": {"g": result.g, "n": result.n},
        "verdicts": _verdict_dicts(result.verdicts),
    }
    return [row], 0 if ok else 1


def _cmd_picard_genus(args) -> tuple[list[dict], int]:
    d = picard.DivisorClass.from_coefficients(args.cls)
    d_squared = d.self_intersection
    k_pairing = d.dot(picard.canonical_class())
    genus = picard.adjunction_genus(d)
    pullback_pairing = d.dot(picard.DivisorClass(-2, 0))
    parity_ok = d_squared % 2 == 0 and pullback_pairing % 2 == 0
    tilde = picard.tilde_genus(d) if parity_ok else None
    row = {
        "inputs": {"class": list(args.cls)},
        "derived": {
            "self_intersection": d_squared,
            "canonical_pairing": k_pairing,
            "adjunction_genus": genus,
            "tilde_genus": tilde,
        },
        "verdicts": [
            {
                "clause": "3.3(6) pullback parity",
                "ok": parity_ok,
                "lhs": [d_squared % 2, pullback_pairing % 2],
                "rhs": [0, 0],
            }
        ],
    }
    return [row], 0 if parity_ok else 1


def _cmd_verify_kdv(args) -> tuple[list[dict], int]:
    _load_numeric()
    lat = Lattice(args.omega1, args.omega2, args.precision)
    if args.grid is not None:
        nx, nt = args.grid
        grid = Grid.for_lattice(lat, nx=nx, nt=nt)
    else:
        grid = Grid.for_lattice(lat)
    wave = TravelingWave(lat, lam=args.lam, x0=args.x0)
    res_stencil = kdv_residual(wave, grid, "stencil")
    res_chain = kdv_residual(wave, grid, "chain")
    perio = periodicity_check(wave)
    z0 = 0.31 * 2 * lat.omega1 + 0.23 * 2 * lat.omega2
    mono = 0.0
    for j in (1, 2):
        for p in lat.periods:
            ratio = monodromy_factor(lat, j, z0 + p) / monodromy_factor(lat, j, z0)
            mono = max(mono, abs(ratio - 1.0))
    per_tol = 10.0 * lat.tolerance
    verdicts = [
        {"clause": "4.2 KdV residual", "ok": res_stencil <= args.residual_tol,
         "lhs": res_stencil, "rhs": args.residual_tol},
        {"clause": "4.2 backend agreement", "ok": abs(res_stencil - res_chain) <= args.residual_tol,
         "lhs": abs(res_stencil - res_chain), "rhs": args.residual_tol},
        {"clause": "4.5 periodicity", "ok": perio <= per_tol, "lhs": perio, "rhs": per_tol},
        {"clause": "4.5 monodromy", "ok": mono <= args.monodromy_tol,
         "lhs": mono, "rhs": args.monodromy_tol},
    ]
    row = {
        "inputs": {
            "omega1": complex(lat.omega1),
            "omega2": complex(lat.omega2),
            "lambda": complex(args.lam),
            "x0": complex(args.x0),
            "nx": grid.nx,
            "nt": grid.nt,
        },
        "derived": {
            "residual_stencil": res_stencil,
            "residual_chain": res_chain,
            "periodicity_defect": perio,
            "monodromy_defect": mono,
        },
        "verdicts": verdicts,
    }
    return [row], 0 if all(v["ok"] for v in verdicts) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS,
                        help="output format (default: json)")
    common.add_argument("--output", default=argparse.SUPPRESS, metavar="PATH",
                        help="write the table to PATH instead of stdout")
    parser = argparse.ArgumentParser(
        prog="ellcover",
        description="Invariant checks, enumerations and elliptic-function "
        "verification for covers of an elliptic curve.",
        parents=[common],
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw),
    )

    p = sub.add_parser("legendre", help="quasi-period constants and Legendre defect")
    p.add_argument("--omega1", type=_parse_complex, required=True)
    p.add_argument("--omega2", type=_parse_complex, required=True)
    p.add_argument("--precision", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_legendre)

    p = sub.add_parser("enumerate-types", help="all admissible types for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate_types)

    p = sub.add_parser("check-cover", help="verdict list for claimed invariants")
    p.add_argument("--case", choices=("kdv", "nls", "sg"), default="kdv")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None, help="kdv only (default 1)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--rho", type=int, default=None, help="kdv only (default 1)")
    p.add_argument("--m", type=int, default=None, help="kdv only (default 1)")
    p.add_argument("--gamma", type=_int4_arg, required=True, metavar="A,B,C,D")
    p.add_argument("--placement", choices=[pl.value for pl in inv.Placement], default=None,
                   help="nls|sg only (default distinct-generic)")
    p.set_defaults(handler=_cmd_check_cover)

    p = sub.add_parser("construct-68", help="generated (gamma, n, g) table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=_int4_arg, required=True, metavar="A,B,C,D")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("family", help="(g, n) for one of the six family cases")
    p.add_argument("--theorem", choices=inv.FAMILY_CASES, required=True)
    p.add_argument("--alpha", type=_int4_arg, required=True, metavar="A,B,C,D")
    p.add_argument("--at-half-period", action="store_true")
    p.add_argument("--j0", type=int, default=None)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("picard-genus", help="intersection data of a divisor class")
    p.add_argument("--class", dest="cls", type=_class_arg, required=True,
                   metavar="A,B,S0,S1,S2,S3,R0,R1,R2,R3")
    p.set_defaults(handler=_cmd_picard_genus)

    p = sub.add_parser("verify-kdv", help="residual, periodicity and monodromy defects")
    p.add_argument("--omega1", type=_parse_complex, required=True)
    p.add_argument("--omega2", type=_parse_complex, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_complex, default=0j)
    p.add_argument("--x0", type=_parse_complex, default=0j)
    p.add_argument("--grid", type=lambda s: _parse_ints(s, 2), default=None,
                   metavar="NX,NT")
    p.add_argument("--precision", type=float, default=1e-12)
    p.add_argument("--residual-tol", type=_tolerance, default=1e-6)
    p.add_argument("--monodromy-tol", type=_tolerance, default=1e-8)
    p.set_defaults(handler=_cmd_verify_kdv)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        rows, code = args.handler(args)
    except (EllcoverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = getattr(args, "format", "json")
    output = getattr(args, "output", None)
    text = _json_rows(rows) if fmt == "json" else _csv_rows(rows)
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())
