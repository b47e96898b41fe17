"""Batch command-line front end.

Every subcommand emits a deterministic table, one row per result, as JSON
(default) or CSV.  A row is {"inputs": ..., "derived": ..., "verdicts":
[{"clause", "ok", "lhs", "rhs"}, ...]}; CSV flattens the same fields.
Floats are printed with 12 significant digits and complex numbers as
{"re": ..., "im": ...}, so repeated runs are byte-identical.  A CSV field
that holds a comma, a quote or a newline is wrapped in quotes with its
quotes doubled; any other field, one holding a carriage return included, is
written as it is, and a row of one empty field is written "" (what
csv.writer(lineterminator="\\n") writes on CPython 3.11).  The
serializer takes exact types only, those the handlers emit (None, bool,
int, float, complex, str, Verdict, list, tuple, dict); any other type, a
subclass included, is a TypeError.  picard-genus prints its exact genus
values itself as an int or the string "p/q".

Handlers only build rows, and return them as an iterable: enumerate-types
returns a generator, so each row is encoded as it is produced, written in
chunks of rows and then dropped; no table is held whole or joined into one
string.  Within one table each verdict object is encoded once, and a field
that is the same object as on the previous row (a shared inputs dict) is
encoded once.  Bad input raises in the handler, before any byte is written.
The writer judges each distinct verdict object once, as it first encodes
it, and `run` takes the exit code from that judgement, with no second pass:
0 when every verdict holds or is informational, else 1; 2 for a usage or
numeric error, running out of memory or a failed write.  Only check-cover,
picard-genus and verify-kdv can exit 1: the other tables hold by
construction (legendre raises at the bound its verdict states).  A write
that fails mid-stream (a full disk, say) leaves a truncated --output file
or partial stdout; nothing is rolled back.  Data goes to stdout,
diagnostics to stderr.  There are no environment knobs.

No child imports `dataclasses`: every record of the package, numeric ones
included, is a NamedTuple or shares one slotted base.  An integer
subcommand's child loads argparse and the package's integer layer, never
numpy; it loads `fractions` only through `picard`, which only
`picard-genus` imports, and `csv` never.
The elliptic and kdv names used by `verify-kdv` are bound into this module
on first use (or on first attribute access from outside); `legendre` binds
only the elliptic ones, and so imports neither kdv nor numpy.
The argument parser is built once per process.

`main` is the process entry: once the table is flushed it freezes the heap
(`gc.freeze`) and ends the process through `sys.exit`.  In-process callers
use `run`, which leaves the collector alone.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import math
import os
import re
import sys
from typing import Iterator

from . import invariants as inv
from .errors import EllcoverError, InvalidInvariants

# elliptic/kdv names used by the numeric handlers, loaded on first use (legendre's need no numpy)
_ELLIPTIC = ("Lattice", "legendre_bound", "legendre_defect", "quasi_periods")
_NUMERIC = _ELLIPTIC + ("Grid", "TravelingWave", "kdv_residual", "monodromy_factor",
                        "periodicity_check")


def _load_numeric(names: tuple[str, ...] = _NUMERIC) -> None:
    """Bind `names` (by default every numeric name) into this module from the
    package's lazy exports, keeping any binding already there (such as a wrapper
    installed from outside)."""
    package, namespace = sys.modules[__package__], globals()
    for name in names:
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


class _JsonHeads(dict):
    """'"key": ' by key, for the few keys that recur on every row.  Only str
    keys are kept, so that True and 1.0 stay apart."""

    def __missing__(self, k) -> str:
        head = _json_str(str(k)) + ": "
        if type(k) is str:
            self[k] = head
        return head


_JSON_HEADS = _JsonHeads()


def _json_seq(v) -> str:
    return "[" + ", ".join([_JSON_BY_TYPE.get(type(x), _unserializable)(x) for x in v]) + "]"


def _json_dict(v) -> str:
    return "{" + ", ".join([_JSON_HEADS[k] + _JSON_BY_TYPE.get(type(x), _unserializable)(x)
                            for k, x in v.items()]) + "}"


def _json_verdict(v: inv.Verdict) -> str:
    clause, ok, lhs, rhs, informational = v
    text = (f'{{"clause": {_json_str(clause)}, "ok": {_json_value(ok)}, '
            f'"lhs": {_json_value(lhs)}, "rhs": {_json_value(rhs)}')
    return text + (', "informational": true}' if informational else "}")


def _flat_seq(v) -> str:
    return "(" + ";".join([_FLAT_BY_TYPE.get(type(x), _unserializable)(x) for x in v]) + ")"


def _flat_verdict(v: inv.Verdict) -> str:
    if v.ok:
        return f"{v.clause}:ok"
    return f"{v.clause}:violated[lhs={_flat_value(v.lhs)} rhs={_flat_value(v.rhs)}]"


def _flat_complex(v: complex) -> str:
    return f"{_fmt_float(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt_float(abs(v.imag))}i"


def _unserializable(v):
    raise TypeError(f"cannot serialize {type(v)}")


# exact type, JSON text, CSV cell text (None: not a CSV cell): the types the
# handlers emit.  Any other type, a subclass included, is a TypeError.
_ENCODERS = (
    (type(None), lambda v: "null", lambda v: ""),
    (bool, ("false", "true").__getitem__, ("false", "true").__getitem__),
    (int, str, str),
    (float, _fmt_float, _fmt_float),
    (complex, lambda v: '{"re": %s, "im": %s}' % (_fmt_float(v.real), _fmt_float(v.imag)),
     _flat_complex),
    (str, _json_str, str),
    (inv.Verdict, _json_verdict, _flat_verdict),
    (list, _json_seq, _flat_seq),
    (tuple, _json_seq, _flat_seq),
    (dict, _json_dict, None),
)
_JSON_BY_TYPE = {kind: json for kind, json, _ in _ENCODERS}
_FLAT_BY_TYPE = {kind: flat for kind, _, flat in _ENCODERS if flat}


def _json_value(v) -> str:
    return _JSON_BY_TYPE.get(type(v), _unserializable)(v)


def _flat_value(v) -> str:
    return _FLAT_BY_TYPE.get(type(v), _unserializable)(v)


class _VerdictMemo:
    """The verdict texts of one table write, and its exit-code judgement.

    Each verdict is encoded once, memoised by identity, not equality:
    Verdict("c", True, 1, 1) == Verdict("c", True, True, 1), yet the two
    encode differently.  The memo holds every verdict it keys, so no id is
    reused while the table is written, though streamed rows are dropped.
    A verdict is judged as it is first encoded: `admissible` stays True while
    every verdict holds or is informational."""

    __slots__ = ("encode", "texts", "held", "admissible")

    def __init__(self, encode) -> None:
        self.encode, self.texts, self.held, self.admissible = encode, {}, [], True

    def __call__(self, verdicts) -> list[str]:
        parts = [*map(self.texts.get, map(id, verdicts))]
        if None in parts:
            parts = [self._first(v) if p is None else p for p, v in zip(parts, verdicts)]
        return parts

    def _first(self, v) -> str:
        text = self.texts[id(v)] = self.encode(v)
        self.held.append(v)
        if not (v.ok or v.informational):
            self.admissible = False
        return text


# rows per write call: a few hundred KB of enumerate-types text
_CHUNK_ROWS = 256


# Each writer returns its memo's judgement.  A field that is the same object as on the previous
# row (a shared inputs dict) reuses that row's text, so rows must not change an object they share.
def _json_rows(rows, write) -> bool:
    verdicts = _VerdictMemo(_json_value)
    last: dict = {}  # key -> (object, text) on the previous row
    chunk, opening = ["["], "\n  {\n"
    for row in rows:
        fields = []
        for key, v in row.items():
            prev = last.get(key)
            if prev is None or prev[0] is not v:
                text = "[" + ", ".join(verdicts(v)) + "]" if key == "verdicts" else _json_value(v)
                prev = last[key] = (v, "    " + _JSON_HEADS[key] + text)
            fields.append(prev[1])
        chunk.append(opening + ",\n".join(fields) + "\n  }")
        opening = ",\n  {\n"
        if len(chunk) >= _CHUNK_ROWS:
            write("".join(chunk))
            chunk.clear()
    chunk.append("]\n" if opening == "\n  {\n" else "\n]\n")
    write("".join(chunk))
    return verdicts.admissible


def _csv_cell(text: str) -> str:
    """A CSV field as csv.writer(lineterminator="\\n") writes it on CPython 3.11:
    wrapped in quotes, its quotes doubled, when it holds a comma, a quote or
    a newline, and as it is otherwise, a carriage return included."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_rows(rows, write) -> bool:
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return True
    header = [f"{s}.{k}" for s in ("inputs", "derived") for k in first.get(s, {})] + ["verdicts"]
    chunk = [",".join(map(_csv_cell, header)) + "\n"]
    verdicts = _VerdictMemo(_flat_value)
    last: dict = {}  # key -> (object, cell texts) on the previous row
    for row in itertools.chain((first,), rows):
        cells = []
        for key in ("inputs", "derived", "verdicts"):
            v = row.get(key, {})
            prev = last.get(key)
            if prev is None or prev[0] is not v:
                prev = last[key] = (v, [_csv_cell("; ".join(verdicts(v)))] if key == "verdicts" else
                                    [_csv_cell(_FLAT_BY_TYPE.get(type(x), _unserializable)(x))
                                     for x in v.values()])
            cells += prev[1]
        chunk.append((",".join(cells) or '""') + "\n")  # a lone empty field is written ""
        if len(chunk) >= _CHUNK_ROWS:
            write("".join(chunk))
            chunk.clear()
    write("".join(chunk))
    return verdicts.admissible


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_complex(text: str) -> complex:
    """`a`, `bi`, `a+bi` or `(a+bi)` as a complex number.  Only a trailing
    imaginary unit becomes Python's `j`, so `inf` and `nan` parse, and
    `_finite_complex` rejects them as non-finite."""
    cleaned = text.strip().replace(" ", "")
    try:
        return complex(re.sub(r"i(\)?)$", r"j\1", cleaned))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")


def _finite_complex(text: str) -> complex:
    value = _parse_complex(text)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def _parse_ints(count: int):
    """The argparse type of a flag that takes `count` integers, separated by
    commas or spaces."""
    def parse(text: str) -> tuple[int, ...]:
        parts = [p for p in text.replace(",", " ").split() if p]
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} integers, got {text!r}")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected integers, got {text!r}")
    return parse


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse tolerance {text!r}")
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def _precision(text: str) -> float:
    value = _tolerance(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"precision must be positive, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# subcommand handlers: each returns an iterable of its rows
# ---------------------------------------------------------------------------


def _cmd_legendre(args) -> list[dict]:
    _load_numeric(_ELLIPTIC)
    lat = Lattice(args.omega1, args.omega2, args.precision)
    qp = quasi_periods(lat)
    defect = legendre_defect(lat)
    tol = legendre_bound(lat)
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
        "verdicts": [inv.Verdict("4.4 Legendre relation", defect <= tol, defect, tol)],
    }
    return [row]


def _cmd_enumerate_types(args) -> Iterator[dict]:
    items = inv.enumerate_types(args.n, args.d)  # raises on bad input, before any row
    inputs = {"n": args.n, "d": args.d}  # one object: the writers encode it once
    square_sum = inv.type_square_target(args.n, args.d)
    return ({
        "inputs": inputs,
        "derived": {
            "gamma": gamma.gamma,
            "gamma1": 2 * g + 1,
            "gamma2": square_sum,
            "g": g,
            "admissible": inv.admissible(verdicts),
        },
        "verdicts": verdicts,
    } for gamma, g, verdicts in items)


def _cmd_check_cover(args) -> list[dict]:
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
    elif args.case == "sg" and args.placement is None:  # sg takes no distinct-generic
        raise InvalidInvariants(
            "--placement: --case sg needs same-projection or distinct-half-periods")
    else:
        placement = inv.Placement(args.placement or "distinct-generic")
        inputs["placement"] = placement.value
        if args.case == "nls":
            verdicts = inv.evaluate_nls_toda(args.n, args.g, gamma, placement)
        else:
            verdicts = inv.evaluate_sine_gordon(args.n, args.g, gamma, placement)
    row = {
        "inputs": inputs,
        "derived": {
            "gamma1": gamma.total,
            "gamma2": gamma.square_sum,
            "admissible": inv.admissible(verdicts),
        },
        "verdicts": verdicts,
    }
    return [row]


def _cmd_construct(args) -> list[dict]:
    return [
        {
            "inputs": {"d": args.d, "k": args.k, "mu": list(args.mu)},
            "derived": {"gamma": list(item.gamma), "n": item.n, "g": item.g},
            "verdicts": item.verdicts,
        }
        for item in inv.construct_types(args.d, args.k, args.mu)
    ]


def _cmd_family(args) -> list[dict]:
    spec = inv.FamilySpec(
        args.theorem, args.alpha, at_half_period=args.at_half_period, j0=args.j0
    )
    result = inv.family_params(spec)
    row = {
        "inputs": {
            "case": args.theorem,
            "alpha": list(spec.alpha),
            "at_half_period": args.at_half_period,
            "j0": args.j0,
        },
        "derived": {"g": result.g, "n": result.n},
        "verdicts": result.verdicts,
    }
    return [row]


def _cmd_picard_genus(args) -> list[dict]:
    from . import picard  # the only handler that needs it

    def exact(q):  # an exact genus as an int when integral, else the text "p/q"
        return q.numerator if q.denominator == 1 else str(q)

    d = picard.DivisorClass.from_coefficients(args.cls)
    d_squared = d.self_intersection
    k_pairing = d.dot(picard.canonical_class())
    genus = exact(picard.adjunction_genus(d))
    parity_ok = d_squared % 2 == 0
    tilde = exact(picard.tilde_genus(d)) if parity_ok else None
    row = {
        "inputs": {"class": list(args.cls)},
        "derived": {
            "self_intersection": d_squared,
            "canonical_pairing": k_pairing,
            "adjunction_genus": genus,
            "tilde_genus": tilde,
        },
        # the second entry, D.e*(-2C_o) = -2b mod 2, is always 0
        "verdicts": [inv.Verdict("3.3(6) pullback parity", parity_ok,
                                 [d_squared % 2, 0], [0, 0])],
    }
    return [row]


def _cmd_verify_kdv(args) -> list[dict]:
    _load_numeric()
    lat = Lattice(args.omega1, args.omega2, args.precision)
    grid = Grid.for_lattice(lat, *(args.grid or ()))
    wave = TravelingWave(lat, lam=args.lam, x0=args.x0)
    res_stencil, res_chain = kdv_residual(wave, grid, ("stencil", "chain"))
    perio = periodicity_check(wave)
    z0 = 0.31 * 2 * lat.omega1 + 0.23 * 2 * lat.omega2
    points = [z0, *(z0 + p for p in lat.periods)]
    mono = 0.0
    for j in (1, 2):
        base, *shifted = monodromy_factor(lat, j, points).tolist()
        mono = max(mono, *(abs(phi / base - 1.0) for phi in shifted))
    per_tol = 10.0 * lat.tolerance
    bounds = [
        ("4.2 KdV residual", res_stencil, args.residual_tol),
        ("4.2 backend agreement", abs(res_stencil - res_chain), args.residual_tol),
        ("4.5 periodicity", perio, per_tol),
        ("4.5 monodromy", mono, args.monodromy_tol),
    ]
    verdicts = [inv.Verdict(clause, lhs <= rhs, lhs, rhs) for clause, lhs, rhs in bounds]
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
    return [row]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it,
    and help text is formatted when it is asked for."""
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
    p.add_argument("--omega1", type=_finite_complex, required=True)
    p.add_argument("--omega2", type=_finite_complex, required=True)
    p.add_argument("--precision", type=_precision, default=1e-12)
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
    p.add_argument("--gamma", type=_parse_ints(4), required=True, metavar="A,B,C,D")
    p.add_argument("--placement", choices=[pl.value for pl in inv.Placement], default=None,
                   help="nls|sg only (nls default distinct-generic; sg needs it)")
    p.set_defaults(handler=_cmd_check_cover)

    p = sub.add_parser("construct-68", help="generated (gamma, n, g) table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=_parse_ints(4), required=True, metavar="A,B,C,D")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("family", help="(g, n) for one of the six family cases")
    p.add_argument("--theorem", choices=inv.FAMILY_CASES, required=True)
    p.add_argument("--alpha", type=_parse_ints(4), required=True, metavar="A,B,C,D")
    p.add_argument("--at-half-period", action="store_true")
    p.add_argument("--j0", type=int, default=None)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("picard-genus", help="intersection data of a divisor class")
    p.add_argument("--class", dest="cls", type=_parse_ints(10), required=True,
                   metavar="A,B,S0,S1,S2,S3,R0,R1,R2,R3")
    p.set_defaults(handler=_cmd_picard_genus)

    p = sub.add_parser("verify-kdv", help="residual, periodicity and monodromy defects")
    p.add_argument("--omega1", type=_finite_complex, required=True)
    p.add_argument("--omega2", type=_finite_complex, required=True)
    p.add_argument("--lambda", dest="lam", type=_finite_complex, default=0j)
    p.add_argument("--x0", type=_finite_complex, default=0j)
    p.add_argument("--grid", type=_parse_ints(2), default=None, metavar="NX,NT")
    p.add_argument("--precision", type=_precision, default=1e-12)
    p.add_argument("--residual-tol", type=_tolerance, default=1e-6,
                   help="absolute bound on the KdV residual and the backend gap, "
                   "calibrated for |2*omega1| near 2*pi (default 1e-6)")
    p.add_argument("--monodromy-tol", type=_tolerance, default=1e-8)
    p.set_defaults(handler=_cmd_verify_kdv)

    # "-" then a digit or ".digit" starts a value (-5e-1, -0.5+0.1i): no flag starts so
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    write_rows = _json_rows if getattr(args, "format", "json") == "json" else _csv_rows
    output = getattr(args, "output", None)
    try:
        rows = args.handler(args)  # bad input raises here, before any byte is written
        if output:
            with open(output, "w") as fh:
                admissible = write_rows(rows, fh.write)
        else:
            admissible = write_rows(rows, sys.stdout.write)
    except (EllcoverError, ValueError, OSError) as exc:  # OSError: a failed write
        error = exc
    except ArithmeticError as exc:  # a float over- or underflow at an extreme scale
        error = f"out of floating-point range ({type(exc).__name__}: {exc})"
    except MemoryError as exc:  # an array or a table too large for this machine
        error = f"out of memory ({type(exc).__name__}: {exc})"
    else:
        return 0 if admissible else 1
    print(f"error: {error}", file=sys.stderr)
    return 2


def main() -> None:
    """Run the command line and end the process with its exit code.

    After the table is flushed (or the flush has failed), the heap is frozen:
    `gc.freeze` moves every tracked object to the permanent generation, so the
    interpreter's shutdown collections have almost nothing left to traverse.
    The process still ends through `sys.exit`, so atexit handlers, the
    std-stream flushes and `python -m cProfile` output all run; `os._exit`
    would drop them.  `gc.disable` would not do: those collections ignore it.
    In-process callers use `run`, which leaves the collector alone.
    """
    code = run()
    try:  # a table small enough to stay in the buffer is written here
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the buffer keeps its bytes; on the null device the exit flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    gc.freeze()
    sys.exit(code)
