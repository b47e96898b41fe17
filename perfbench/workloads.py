"""The four benchmark workloads: seeded inputs, the timed operation, and the
correctness oracle for each output.

A workload's input set is a fixed list of operations made from the seed;
one *pass* runs the list once.  The program sees only the generated argv
(CLI workloads) or arguments (library requests).  Inputs are stratified so
that every seed does about the same amount of work: the seed moves the
inputs inside each stratum, not the size of the pass.

Nothing here imports numpy or ellcover at module level: `Program` does it,
inside the timed set-up.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

SUBCOMMANDS = ("legendre", "enumerate-types", "check-cover", "construct-68",
               "family", "picard-genus", "verify-kdv")


class Program:
    """The ellcover modules under test, imported from ``<root>/src``."""

    def __init__(self, root: Path):
        src = str(root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        import ellcover

        if Path(ellcover.__file__).resolve().parent != (root / "src" / "ellcover").resolve():
            raise RuntimeError(f"imported ellcover from {ellcover.__file__}, not {src}")
        load = importlib.import_module
        self.np = load("numpy")
        self.cli = load("ellcover.cli")
        self.elliptic = load("ellcover.elliptic")
        self.reference = load("ellcover.elliptic_reference")
        self.kdv = load("ellcover.kdv")
        self.inv = load("ellcover.invariants")
        self.picard = load("ellcover.picard")
        # the benchmark's own lookup place for the elliptic functions its
        # library requests call; the traced run wraps these attributes
        e = self.elliptic
        self.lib = SimpleNamespace(Lattice=e.Lattice, quasi_periods=e.quasi_periods,
                                   legendre_defect=e.legendre_defect, zeta=e.zeta)


@dataclass
class Context:
    root: Path
    tmp: Path
    prog: Program | None = None
    env: dict = field(default_factory=dict)
    # first output digest per (kind, input-set index), for the repeat check
    digests: dict = field(default_factory=dict)


@dataclass
class Op:
    index: int
    kind: str
    params: dict


@dataclass
class Outcome:
    problem: str | None = None
    rows: int = 0
    bytes_out: int = 0
    rss_kb: int = 0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _repeat_or_first(ctx: Context, op: Op, data: bytes, first) -> Outcome:
    """Run the full oracle ``first()`` on an input's first output; later
    outputs of the same input must be byte-identical to it."""
    key = _digest(data)
    seen = ctx.digests.get((op.kind, op.index))
    if seen is None:
        outcome = first()
        if outcome.problem is None:
            ctx.digests[op.kind, op.index] = (key, outcome.rows)
        return outcome
    if seen[0] != key:
        return Outcome(f"op {op.index}: output differs from its first run", 0, len(data))
    return Outcome(None, seen[1], len(data))


def _fmt_complex(z: complex) -> str:
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def sigma(m: int) -> int:
    """Sum of divisors by trial division."""
    total, rest, p = 1, m, 2
    while p * p <= rest:
        if rest % p == 0:
            term = power = 1
            while rest % p == 0:
                rest //= p
                power *= p
                term += power
            total *= term
        p += 1 if p == 2 else 2
    return total * (1 + rest) if rest > 1 else total


def square_target(n: int, d: int) -> int:
    return (2 * d - 1) * (2 * n - 2) + 3


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def _iter_json_rows(fh):
    """Yield each row object of the CLI's JSON table without loading the
    whole table (its size would otherwise set the peak RSS)."""
    first = fh.readline()
    if first.strip() == "[]":
        return
    if first.rstrip("\n") != "[":
        raise ValueError("table does not start with '['")
    buf: list[str] = []
    closed = False
    for line in fh:
        if line.startswith("  }"):
            buf.append("}")
            yield json.loads("".join(buf))
            buf = []
        elif line.rstrip("\n") == "]":
            closed = True
        else:
            buf.append(line)
    if buf or not closed:
        raise ValueError("table is truncated")


def _iter_csv_rows(fh):
    reader = csv.reader(fh)
    header = next(reader)
    col = {name: i for i, name in enumerate(header)}
    for rec in reader:
        if len(rec) != len(header):
            raise ValueError("ragged CSV record")
        derived = {
            "gamma": [int(x) for x in rec[col["derived.gamma"]].strip("()").split(";")],
            "gamma1": int(rec[col["derived.gamma1"]]),
            "gamma2": int(rec[col["derived.gamma2"]]),
            "g": int(rec[col["derived.g"]]),
            "admissible": rec[col["derived.admissible"]] == "true",
        }
        inputs = {"n": int(rec[col["inputs.n"]]), "d": int(rec[col["inputs.d"]])}
        yield {"derived": derived, "inputs": inputs}


def check_enumeration(path: Path, fmt: str, n: int, d: int) -> tuple[int, str | None]:
    """Check an enumerate-types table against the four-square identity.

    Each row is a type gamma in N^4 with sum of squares T = (2d-1)(2n-2)+3
    and the rho = m = 1 parity pattern.  Counting signs, the rows give
    exactly the representations of T as a sum of four squares with that
    pattern, so sum over rows of 2^#nonzero(gamma) = 8*sigma(T)/4.
    Returns (rows, problem).
    """
    target = square_target(n, d)
    weight = rows = 0
    prev = None
    want_parity = ((n + 1) % 2, n % 2, n % 2, n % 2)
    parse = _iter_json_rows if fmt == "json" else _iter_csv_rows
    try:
        with open(path, newline="" if fmt == "csv" else None) as fh:
            for row in parse(fh):
                derived, inputs = row["derived"], row["inputs"]
                gamma = tuple(derived["gamma"])
                rows += 1
                if len(gamma) != 4 or min(gamma) < 0:
                    return rows, f"row {rows}: bad type {gamma}"
                if (inputs["n"], inputs["d"]) != (n, d):
                    return rows, f"row {rows}: inputs {inputs} for (n, d) = ({n}, {d})"
                if sum(x * x for x in gamma) != target or derived["gamma2"] != target:
                    return rows, f"row {rows}: square sum of {gamma} is not {target}"
                if tuple(x % 2 for x in gamma) != want_parity:
                    return rows, f"row {rows}: {gamma} breaks the parity pattern"
                total = sum(gamma)
                if derived["gamma1"] != total or 2 * derived["g"] + 1 != total:
                    return rows, f"row {rows}: gamma1/g fields disagree with {gamma}"
                if not derived["admissible"]:
                    return rows, f"row {rows}: {gamma} reported inadmissible"
                if prev is not None and gamma <= prev:
                    return rows, f"row {rows}: {gamma} not after {prev}"
                prev = gamma
                weight += 2 ** sum(1 for x in gamma if x)
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        return rows, f"unreadable {fmt} table: {exc}"
    want = 2 * sigma(target)
    if weight != want:
        return rows, f"signed count {weight} != 2*sigma({target}) = {want}"
    return rows, None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    tail_pct = 50.0
    in_process = True

    def generate(self, prog: Program, seed: int) -> list[Op]:
        raise NotImplementedError

    def summary(self, ops: list[Op]) -> dict:
        return {"ops_per_pass": len(ops)}

    def warm_up(self, ctx: Context, ops: list[Op]) -> None:
        pass

    def span_name(self, op: Op) -> str:
        return "op"

    def run(self, ctx: Context, op: Op):
        raise NotImplementedError

    def check(self, ctx: Context, op: Op, result) -> Outcome:
        raise NotImplementedError


class EnumerateLarge(Workload):
    """In-process ``enumerate-types`` calls writing large JSON/CSV tables."""

    name = "enumerate-large"
    tail_pct = 75.0
    # (d, expected rows, format) per operation of a pass.  n is drawn from
    # [500, 1500] among values whose type count sigma(T)/8 is within 1.5% of
    # the expected rows, so each seed enumerates about as many types.  In
    # latency order a pass is 2 small CSV, 4 small JSON, 2 large CSV and
    # 1 large JSON tables: p50 falls inside the small JSON class and p75
    # inside the large CSV class, away from the steps between classes.
    STRATA = ((4, 2000, "json"), (20, 8000, "json"), (4, 2000, "csv"), (4, 2000, "json"),
              (20, 8000, "csv"), (4, 2000, "csv"), (20, 8000, "csv"), (4, 2000, "json"),
              (4, 2000, "json"))

    def generate(self, prog, seed):
        rng = random.Random(f"{self.name}:{seed}")
        ops, used = [], set()
        for i, (d, rows, fmt) in enumerate(self.STRATA):
            for _ in range(20000):
                n = rng.randint(500, 1500)
                if n not in used and abs(sigma(square_target(n, d)) / 8 / rows - 1) <= 0.015:
                    break
            else:
                raise RuntimeError(f"no n in [500, 1500] gives about {rows} types at d = {d}")
            used.add(n)
            ops.append(Op(i, "cli", {"n": n, "d": d, "format": fmt}))
        return ops

    def summary(self, ops):
        return {"ops_per_pass": len(ops),
                "inputs": [[o.params["n"], o.params["d"], o.params["format"]] for o in ops]}

    @staticmethod
    def _argv(n, d, fmt, path):
        return ["enumerate-types", "--n", str(n), "--d", str(d), "--format", fmt,
                "--output", str(path)]

    def warm_up(self, ctx, ops):
        for fmt in ("json", "csv"):
            ctx.prog.cli.run(self._argv(60, 4, fmt, ctx.tmp / f"warm.{fmt}"))

    def run(self, ctx, op):
        p = op.params
        path = ctx.tmp / f"op{op.index}.{p['format']}"
        return ctx.prog.cli.run(self._argv(p["n"], p["d"], p["format"], path)), path

    def check(self, ctx, op, result):
        code, path = result
        if code != 0:
            return Outcome(f"op {op.index}: exit code {code}")
        data = path.read_bytes()
        p = op.params

        def first():
            rows, problem = check_enumeration(path, p["format"], p["n"], p["d"])
            if problem:
                problem = f"op {op.index} (n={p['n']}, d={p['d']}, {p['format']}): {problem}"
            return Outcome(problem, rows, len(data))

        return _repeat_or_first(ctx, op, data, first)


class KdvVerify(Workload):
    """In-process ``verify-kdv`` calls on numerical lattices."""

    name = "kdv-verify"
    # p85 falls on the 1000x100 lattices with Im(tau) >= 1.28, whose row
    # count does not change inside their strata
    tail_pct = 85.0
    GRIDS = ((600, 60), (700, 70), (800, 80), (900, 90), (1000, 100))
    # Im(tau) is stratified: the number of series rows, and with it the cost
    # of wp, depends on Im(tau).  Grid i gets strata i and i + 5 of ten equal
    # strata of [0.8, 2.0], so every pass covers the whole range once.  One
    # more 800x80 lattice from the upper half (where the row count is flat)
    # makes the count odd, so the median falls on one operation's samples
    # rather than between two.
    IM_TAU = (0.8, 2.0)
    REF_EXTENT = 200

    def generate(self, prog, seed):
        rng = random.Random(f"{self.name}:{seed}")
        lo, hi = self.IM_TAU
        width = (hi - lo) / (2 * len(self.GRIDS))
        cells = [(grid, lo + width * (stratum + rng.random()))
                 for i, grid in enumerate(self.GRIDS) for stratum in (i, i + len(self.GRIDS))]
        cells.append((self.GRIDS[2], rng.uniform((lo + hi) / 2, hi)))
        ops = []
        for (nx, nt), im in cells:
            tau = complex(rng.uniform(-0.5, 0.5), im)
            ops.append(Op(len(ops), "cli", {
                "omega1": math.pi, "omega2": tau * math.pi,
                "lam": rng.uniform(-2.0, 2.0), "nx": nx, "nt": nt,
                "spots": [(rng.randrange(nx), rng.randrange(nt)) for _ in range(3)],
            }))
        return ops

    def summary(self, ops):
        return {"ops_per_pass": len(ops),
                "inputs": [[o.params["nx"], o.params["nt"], round((o.params["omega2"] / math.pi).imag, 4),
                            round(o.params["lam"], 4)] for o in ops]}

    @staticmethod
    def argv(p, path=None):
        argv = ["verify-kdv", f"--omega1={p['omega1']!r}", f"--omega2={_fmt_complex(p['omega2'])}",
                f"--lambda={p['lam']!r}"]
        if "nx" in p:
            argv.append(f"--grid={p['nx']},{p['nt']}")
        return argv + (["--output", str(path)] if path else [])

    def warm_up(self, ctx, ops):
        p = {"omega1": math.pi, "omega2": 1.2j * math.pi, "lam": 1.0}
        ctx.prog.cli.run(self.argv(p, ctx.tmp / "warm.json"))

    def run(self, ctx, op):
        path = ctx.tmp / f"op{op.index}.json"
        return ctx.prog.cli.run(self.argv(op.params, path)), path

    def check(self, ctx, op, result):
        code, path = result
        if code != 0:
            return Outcome(f"op {op.index}: exit code {code}")
        data = path.read_bytes()
        return _repeat_or_first(ctx, op, data, lambda: self._first(ctx, op, data))

    def _first(self, ctx, op, data):
        p = op.params
        try:
            rows = json.loads(data)
            bad = [v["clause"] for v in rows[0]["verdicts"] if not v["ok"]]
            grid_ok = (rows[0]["inputs"]["nx"], rows[0]["inputs"]["nt"]) == (p["nx"], p["nt"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return Outcome(f"op {op.index}: unreadable table: {exc}")
        if len(rows) != 1 or bad or not grid_ok:
            return Outcome(f"op {op.index}: rows={len(rows)} failed={bad} grid_ok={grid_ok}")
        # spot-check wp on grid points against the brute-force lattice sum
        prog = ctx.prog
        lat = prog.elliptic.Lattice(p["omega1"], p["omega2"])
        grid = prog.kdv.Grid.for_lattice(lat, nx=p["nx"], nt=p["nt"])
        x, t = grid.x_samples(lat), grid.t_samples()
        for i, j in p["spots"]:
            z = complex(x[i] + 1.5 * p["lam"] * t[j])
            got = prog.elliptic.wp(lat, z)
            want = prog.reference.wp_sum(lat, z, self.REF_EXTENT)
            bound = prog.reference.wp_sum_remainder(lat, z, self.REF_EXTENT) + 1e-9
            if not abs(got - want) <= bound:
                return Outcome(f"op {op.index}: wp({z}) = {got}, reference {want} +- {bound:.2e}")
        return Outcome(None, 1, len(data))


def _admissible_mu(rng: random.Random):
    mu = [rng.randrange(7) for _ in range(4)]
    for j in (1, 2, 3):
        if (mu[0] + 1 - mu[j]) % 2:
            mu[j] += 1
    return tuple(mu)


def _family_spec(rng: random.Random, inv, case: str):
    """A valid spec for family ``case`` (rejection-sampled alpha)."""
    while True:
        kwargs = {}
        if case in ("6.13", "6.14"):
            kwargs["at_half_period"] = rng.random() < 0.5
        if case == "6.17":
            kwargs["j0"] = rng.randint(1, 3)
        try:
            return inv.FamilySpec(case, tuple(rng.randrange(9) for _ in range(4)), **kwargs)
        except inv.InvalidInvariants:
            continue


def _parity_flip(rng: random.Random, gamma):
    g = list(gamma)
    g[rng.randrange(4)] += 1
    return tuple(g)


class LibraryMix(Workload):
    """A seeded mix of small library requests across every in-process layer."""

    name = "library-mix"
    tail_pct = 99.0
    # requests per pass; the k-th request of a kind takes its stratum
    # (claim family and perturbation, family case, construct order) from k,
    # so each pass has the same mix of cheap and dear requests
    COUNTS = {"lattice": 24, "picard": 6, "claim": 240, "family": 24, "construct": 24}
    SLAB = 7  # gamma_1..3 in range(SLAB)^3 per picard request
    SKEWS = ((1, 0, 0, 1), (1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0),
             (1, 0, 1, 1), (1, 0, -1, 1), (2, 1, 1, 1), (1, 1, 1, 2))
    LEGENDRE_TOL, QUASI_TOL, MONODROMY_TOL = 1e-9, 1e-9, 1e-8

    def generate(self, prog, seed):
        rng = random.Random(f"{self.name}:{seed}")
        made = []
        for kind, count in self.COUNTS.items():
            for k in range(count):
                made.append((kind, getattr(self, f"_gen_{kind}")(rng, prog, k)))
        rng.shuffle(made)
        return [Op(i, kind, params) for i, (kind, params) in enumerate(made)]

    def summary(self, ops):
        counts: dict[str, int] = {}
        for o in ops:
            counts[o.kind] = counts.get(o.kind, 0) + 1
        return {"ops_per_pass": len(ops), "requests": counts}

    # -- generators -----------------------------------------------------------

    def _gen_lattice(self, rng, prog, k):
        scale = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        tau = complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(0.2), math.log(5.0))))
        w1 = scale * complex(math.cos(theta), math.sin(theta))
        w2 = tau * w1
        a, b, c, d = rng.choice(self.SKEWS)  # basis change in SL2(Z)
        np = prog.np
        return {"omega1": c * w2 + d * w1, "omega2": a * w2 + b * w1,
                "a": np.array([rng.uniform(0.06, 0.44) for _ in range(20)]),
                "b": np.array([rng.uniform(0.06, 0.44) for _ in range(20)])}

    def _gen_picard(self, rng, prog, k):
        d = rng.randint(1, 4)
        return {"n": rng.randint(1, 10), "d": d, "rho": rng.randrange(1, 2 * d, 2),
                "g0": rng.randrange(self.SLAB)}

    def _gen_claim(self, rng, prog, k):
        inv = prog.inv
        family = ("kdv", "nls", "sg")[k % 3]
        perturb = k % 6 >= 3
        if family == "kdv":
            while True:
                d, k, mu = rng.randint(2, 5), rng.randrange(4), _admissible_mu(rng)
                items = inv.construct_types(d, k, mu)
                if items:
                    break
            item = rng.choice(items)
            gamma = item.gamma.gamma
            if perturb:
                gamma = _parity_flip(rng, gamma)
            record = inv.CoverInvariants(item.n, d, item.g, 1, 1, inv.TypeVector(gamma))
            return {"family": family, "args": (record,), "expect": "5.4(5) parity" if perturb else None}
        n = rng.randint(11, 60)
        placements = ((inv.Placement.DISTINCT_GENERIC, inv.Placement.SAME_PROJECTION)
                      if family == "nls" else
                      (inv.Placement.SAME_PROJECTION, inv.Placement.DISTINCT_HALF_PERIODS))
        placement = rng.choice(placements)
        flipped = tuple(sorted(rng.sample(range(4), 2))) \
            if placement is inv.Placement.DISTINCT_HALF_PERIODS else ()
        while True:
            gamma = tuple(rng.choice([x for x in range(4) if (x + (i in flipped)) % 2 == n % 2])
                          for i in range(4))
            if sum(gamma) >= 2:
                break
        # the largest genus the construction guarantees: every bound holds
        # because sum(gamma) <= 12, sum(gamma^2) <= 36 <= 4n - 8
        g = (sum(gamma) - 2) // 2 if family == "nls" else sum(gamma) // 2
        if perturb:
            gamma = _parity_flip(rng, gamma)
        if family == "nls":
            return {"family": family, "args": (n, g, inv.TypeVector(gamma), placement),
                    "expect": "5.7 parity" if perturb else None}
        args = (n, g, inv.TypeVector(gamma), placement) + ((flipped,) if flipped else ())
        expect = ("5.6(5) parity" if flipped else "5.6(3) parity") if perturb else None
        return {"family": family, "args": args, "expect": expect}

    def _gen_family(self, rng, prog, k):
        return {"spec": _family_spec(rng, prog.inv, prog.inv.FAMILY_CASES[k % 6])}

    def _gen_construct(self, rng, prog, k):
        return {"d": 2 + k % 4, "k": rng.randrange(4), "mu": _admissible_mu(rng)}

    # -- requests ---------------------------------------------------------------

    def warm_up(self, ctx, ops):
        done = set()
        for op in ops:
            if op.kind not in done:
                done.add(op.kind)
                self.run(ctx, op)

    def run(self, ctx, op):
        return getattr(self, f"_run_{op.kind}")(ctx.prog, op.params)

    def _run_lattice(self, prog, p):
        lib, kdv, np = prog.lib, prog.kdv, prog.np
        lat = lib.Lattice(p["omega1"], p["omega2"])
        qp = lib.quasi_periods(lat)
        legendre = lib.legendre_defect(lat)
        p1, p2 = lat.periods
        zs = p["a"] * p1 + p["b"] * p2
        base = lib.zeta(lat, zs)
        quasi = max(float(np.max(np.abs(lib.zeta(lat, zs + p1) - base - qp.eta1))),
                    float(np.max(np.abs(lib.zeta(lat, zs + p2) - base - qp.eta2))))
        mono = 0.0
        for j in (1, 2):
            start = kdv.monodromy_factor(lat, j, zs)
            for per in (p1, p2):
                ratio = kdv.monodromy_factor(lat, j, zs + per) / start
                mono = max(mono, float(np.max(np.abs(ratio - 1.0))))
        return legendre, quasi, mono

    def _run_picard(self, prog, p):
        picard = prog.picard
        n, d, rho, g0 = p["n"], p["d"], p["rho"], p["g0"]
        out = []
        for rest in product(range(self.SLAB), repeat=3):
            gamma = (g0, *rest)
            cls = picard.cover_class(n, d, rho, gamma)
            square = picard.intersect(cls, cls)
            tilde = picard.tilde_genus(cls) if square % 2 == 0 else None
            out.append((gamma, square, picard.adjunction_genus(cls), tilde))
        return out

    def _run_claim(self, prog, p):
        inv = prog.inv
        evaluate = {"kdv": inv.evaluate_kdv, "nls": inv.evaluate_nls_toda,
                    "sg": inv.evaluate_sine_gordon}[p["family"]]
        return evaluate(*p["args"])

    def _run_family(self, prog, p):
        return prog.inv.family_params(p["spec"])

    def _run_construct(self, prog, p):
        return prog.inv.construct_types(p["d"], p["k"], p["mu"])

    # -- oracles ------------------------------------------------------------------

    def check(self, ctx, op, result):
        problem = getattr(self, f"_check_{op.kind}")(ctx.prog, op.params, result)
        return Outcome(f"op {op.index} ({op.kind}): {problem}" if problem else None)

    def _check_lattice(self, prog, p, result):
        legendre, quasi, mono = result
        if not (legendre < self.LEGENDRE_TOL and quasi < self.QUASI_TOL and mono < self.MONODROMY_TOL):
            return f"defects legendre={legendre:.2e} quasi={quasi:.2e} monodromy={mono:.2e}"
        return None

    def _check_picard(self, prog, p, result):
        n, d, rho = p["n"], p["d"], p["rho"]
        b = 2 * d - 1
        if len(result) != self.SLAB ** 3:
            return f"{len(result)} classes, expected {self.SLAB ** 3}"
        for gamma, square, adjunction, tilde in result:
            g1, g2 = sum(gamma), sum(x * x for x in gamma)
            # D = e*(n C_o + (2d-1) F) - rho s_0 - sum gamma_i r_i
            if square != 2 * n * b - rho * rho - g2:
                return f"D^2 of {gamma} is {square}"
            if adjunction != Fraction(2 + 2 * (n - 1) * b - rho * rho + rho - g2 + g1, 2):
                return f"adjunction genus of {gamma} is {adjunction}"
            # criterion 5: descended genus closed form
            if square % 2 == 0 and tilde != Fraction(b * (2 * n - 2) + 4 - rho * rho - g2, 4):
                return f"descended genus of {gamma} is {tilde}"
        return None

    def _check_claim(self, prog, p, verdicts):
        if p["expect"] is None:
            bad = [v.clause for v in verdicts if not (v.ok or v.informational)]
            return f"admissible claim violates {bad}" if bad else None
        hit = [v for v in verdicts if v.clause == p["expect"]]
        if len(hit) != 1 or hit[0].ok:
            return f"parity-perturbed claim passes {p['expect']}"
        return None

    def _check_family(self, prog, p, result):
        bad = [v.clause for v in result.verdicts if not v.ok]
        return f"family {p['spec'].case} violates {bad}" if bad else None

    def _check_construct(self, prog, p, items):
        if not items:
            return "no types generated"
        d = p["d"]
        for item in items:
            gamma = item.gamma.gamma
            g1 = sum(gamma)
            if min(gamma) < 0 or sum(x * x for x in gamma) != square_target(item.n, d):
                return f"{gamma} is not a type of degree {item.n}"
            if g1 % 2 == 0 or 2 * item.g + 1 != g1:
                return f"genus {item.g} does not match {gamma}"
            record = prog.inv.CoverInvariants(item.n, d, item.g, 1, 1, item.gamma)
            if prog.inv.check_kdv(record):
                return f"{gamma} violates the rule catalog"
        return None


def _picard_parity_exit(coeffs) -> int:
    a, b, s, r = coeffs[0], coeffs[1], coeffs[2:6], coeffs[6:10]
    square = 2 * a * b - sum(x * x for x in s) - sum(x * x for x in r)
    # D.e*(-2 C_o) = -2b is always even, so only D^2 decides
    return 0 if square % 2 == 0 else 1


class CliBatch(Workload):
    """Sequential ``python -m ellcover`` child processes, one at a time."""

    name = "cli-batch"
    tail_pct = 80.0
    in_process = False
    PER_SUBCOMMAND = 2

    def generate(self, prog, seed):
        rng = random.Random(f"{self.name}:{seed}")
        inv = prog.inv
        ops = []
        for sub in SUBCOMMANDS:
            for k in range(self.PER_SUBCOMMAND):
                fmt = ("json", "csv")[k % 2]
                argv, expect = getattr(self, "_gen_" + sub.replace("-", "_"))(rng, inv, k)
                ops.append(Op(len(ops), "subprocess", {"sub": sub, "argv": ["--format", fmt, sub, *argv],
                                                "format": fmt, "expect": expect}))
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            op.index = i
        return ops

    def summary(self, ops):
        return {"ops_per_pass": len(ops), "inputs": [o.params["argv"] for o in ops]}

    def _gen_legendre(self, rng, inv, k):
        w1 = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.5, 0.5))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0))
        return [f"--omega1={_fmt_complex(w1)}", f"--omega2={_fmt_complex(tau * w1)}"], 0

    def _gen_enumerate_types(self, rng, inv, k):
        return ["--n", str(rng.randint(5, 40)), "--d", str(rng.randint(1, 4))], 0

    def _gen_check_cover(self, rng, inv, k):
        while True:
            d, kk, mu = rng.randint(2, 4), rng.randrange(4), _admissible_mu(rng)
            items = inv.construct_types(d, kk, mu)
            if items:
                break
        item = rng.choice(items)
        gamma = item.gamma.gamma if k == 0 else _parity_flip(rng, item.gamma.gamma)
        return (["--case", "kdv", "--n", str(item.n), "--d", str(d), "--g", str(item.g),
                 "--gamma", ",".join(map(str, gamma))], 0 if k == 0 else 1)

    def _gen_construct_68(self, rng, inv, k):
        return (["--d", str(rng.randint(2, 5)), "--k", str(rng.randrange(4)),
                 "--mu", ",".join(map(str, _admissible_mu(rng)))], 0)

    def _gen_family(self, rng, inv, k):
        spec = _family_spec(rng, inv, rng.choice(inv.FAMILY_CASES))
        argv = ["--theorem", spec.case, "--alpha", ",".join(map(str, spec.alpha))]
        if spec.at_half_period:
            argv.append("--at-half-period")
        if spec.j0 is not None:
            argv += ["--j0", str(spec.j0)]
        return argv, 0

    def _gen_picard_genus(self, rng, inv, k):
        coeffs = [rng.randint(0, 6), rng.randint(0, 6)] + [-rng.randint(0, 3) for _ in range(8)]
        return [f"--class={','.join(map(str, coeffs))}"], _picard_parity_exit(coeffs)

    def _gen_verify_kdv(self, rng, inv, k):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        p = {"omega1": math.pi, "omega2": tau * math.pi, "lam": rng.uniform(-2.0, 2.0)}
        return KdvVerify.argv(p)[1:], 0

    def warm_up(self, ctx, ops):
        spawn(ctx, ["family", "--theorem", "6.18", "--alpha", "0,0,0,0"])

    def span_name(self, op):
        return f"subprocess.{op.params['sub']}"

    def run(self, ctx, op):
        return spawn(ctx, op.params["argv"])

    def check(self, ctx, op, result):
        code, data, rss_kb = result
        p = op.params
        if code != p["expect"]:
            return Outcome(f"op {op.index} ({p['sub']}): exit code {code}, expected {p['expect']}",
                           rss_kb=rss_kb)

        def first():
            try:
                text = data.decode()
                if p["format"] == "json":
                    rows = json.loads(text)
                    ok = isinstance(rows, list) and all(
                        {"inputs", "derived", "verdicts"} <= set(r) for r in rows)
                else:
                    recs = list(csv.reader(io.StringIO(text)))
                    rows = recs[1:]
                    ok = bool(recs) and all(len(r) == len(recs[0]) for r in recs)
            except ValueError as exc:
                return Outcome(f"op {op.index} ({p['sub']}): stdout does not parse: {exc}")
            if not ok or (p["sub"] != "construct-68" and not rows):
                return Outcome(f"op {op.index} ({p['sub']}): malformed {p['format']} table")
            return Outcome(None, len(rows), len(data))

        outcome = _repeat_or_first(ctx, op, data, first)
        outcome.rss_kb = rss_kb
        return outcome


def spawn(ctx: Context, argv: list[str]):
    """Run ``python -m ellcover argv`` to completion; return (exit code,
    stdout bytes, peak RSS in KiB of that child)."""
    out_path = ctx.tmp / "child.out"
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([sys.executable, "-m", "ellcover", *argv], stdout=out,
                                stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                                env=ctx.env, cwd=ctx.root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), usage.ru_maxrss


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def startup_samples(ctx: Context, reps: int) -> tuple[list[float], list[float]]:
    """Wall time of a bare interpreter and of ``import ellcover``, interleaved."""
    bare, imported = [], []
    for _ in range(reps):
        for code, bucket in (("pass", bare), ("import ellcover", imported)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.root, check=True,
                           stdin=subprocess.DEVNULL, timeout=60)
            bucket.append(time.perf_counter() - t0)
    return bare, imported


WORKLOADS = {w.name: w for w in (EnumerateLarge(), KdvVerify(), LibraryMix(), CliBatch())}
