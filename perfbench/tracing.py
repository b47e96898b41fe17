"""Span recorder for the traced benchmark run.

Spans are recorded around ellcover's public functions, at the places where
their callers look them up (``ellcover.cli.kdv_residual``,
``ellcover.kdv.wp``, ``ellcover.invariants.evaluate_kdv``, ...).  Nothing in
``src/`` is edited: `install` replaces those attributes with recording
wrappers and `uninstall` puts the originals back.  A hook whose target no
longer exists raises `MissingHook`, so a renamed function stops the run
instead of reporting zero time.

A span is the tuple ``(name_id, start_ns, end_ns, parent, op, size)``:
``parent`` is the index of the enclosing span (-1 at the root), ``op`` the
benchmark operation that caused it (-1 outside any operation) and ``size``
a per-call count (points evaluated, grid points, types returned).
"""

from __future__ import annotations

import contextlib
import time

import numpy as np


class MissingHook(RuntimeError):
    """A function the trace wraps is no longer where its callers find it."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []
        self.op = -1
        # lattices built through a traced constructor and not yet asked for
        # their quasi-periods; the first such call counts as lattice set-up
        self._fresh: dict[int, object] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name: str, op: int = -1):
        """Time a block of the benchmark's own code (an operation, a child process)."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        saved, self.op = self.op, (op if op >= 0 else self.op)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (self.name_id(name), start, end, parent, self.op, 0)
            self.op = saved
            if op >= 0:
                self._fresh.clear()

    def wrap(self, owner, attr: str, name: str, size=None, pick=None):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``size(args, result)`` gives the span's count; ``pick(args)`` may
        return another span name for this call.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            label = getattr(owner, "__name__", type(owner).__name__)
            raise MissingHook(f"{label}.{attr} no longer exists; update perfbench/tracing.py")
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = nid if pick is None else tracer.name_id(pick(args) or name)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (sid, start, end, parent, tracer.op, 0)
            if size is not None:
                spans[idx] = (sid, start, end, parent, tracer.op, size(args, out))
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- hooks ---------------------------------------------------------------

    def _register_lattice(self, args, lattice):
        self._fresh[id(lattice)] = lattice
        return 0

    def _first_quasi(self, args):
        if self._fresh.pop(id(args[0]), None) is not None:
            return "elliptic.lattice_setup"
        return None

    def install(self, lib):
        """Wrap every layer boundary.  ``lib`` is the benchmark's own lookup
        namespace for the elliptic functions its library requests call."""
        from ellcover import cli, invariants, kdv, picard

        def points(pos):
            return lambda args, out: int(np.size(args[pos]))

        def count(args, out):
            return len(out)

        def grid_points(args, out):  # cli passes the grid positionally
            return args[1].nx * args[1].nt

        elliptic_hooks = [
            ("Lattice", "elliptic.Lattice", self._register_lattice, None),
            ("quasi_periods", "elliptic.quasi_periods", None, self._first_quasi),
            ("legendre_defect", "elliptic.legendre_defect", None, None),
        ]
        for owner in (cli, lib):
            for attr, name, size, pick in elliptic_hooks:
                self.wrap(owner, attr, name, size, pick)
        self.wrap(lib, "zeta", "elliptic.zeta", points(1))
        for attr in ("wp", "wp_prime", "zeta"):
            self.wrap(kdv, attr, f"elliptic.{attr}", points(1))
        self.wrap(kdv, "quasi_periods", "elliptic.quasi_periods", pick=self._first_quasi)

        for owner in (cli, kdv):
            self.wrap(owner, "monodromy_factor", "kdv.monodromy_factor", points(2))
        self.wrap(cli, "kdv_residual", "kdv.kdv_residual", grid_points)
        self.wrap(cli, "periodicity_check", "kdv.periodicity_check")

        self.wrap(invariants, "enumerate_types", "invariants.enumerate_types", count)
        for attr in ("evaluate_kdv", "evaluate_nls_toda", "evaluate_sine_gordon"):
            self.wrap(invariants, attr, f"invariants.{attr}")
        self.wrap(invariants, "construct_types", "invariants.construct_types", count)
        self.wrap(invariants, "family_params", "invariants.family_params")

        for attr in ("cover_class", "intersect", "adjunction_genus", "tilde_genus"):
            self.wrap(picard, attr, f"picard.{attr}")

        self.wrap(cli, "run", "cli.run")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


class SpanTable:
    """Per-name totals over the spans of benchmark operations (op >= 0)."""

    def __init__(self, tracer: Tracer, passes: int):
        self.passes = max(passes, 1)
        spans = [s for s in tracer.spans if s is not None]
        names = tracer.names
        child_time = [0] * len(tracer.spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        self.count: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.size: dict[str, int] = {}
        self.durations: dict[str, list[int]] = {}
        self.layer_self_ns: dict[str, int] = {}
        for idx, s in enumerate(tracer.spans):
            if s is None or s[4] < 0:
                continue
            name = names[s[0]]
            dur = s[2] - s[1]
            self.count[name] = self.count.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
            self.size[name] = self.size.get(name, 0) + s[5]
            self.durations.setdefault(name, []).append(dur)
            layer = name.split(".", 1)[0]
            self.layer_self_ns[layer] = self.layer_self_ns.get(layer, 0) + dur - child_time[idx]

    def has(self, *names: str) -> bool:
        return any(self.count.get(n) for n in names)

    def calls(self, *names: str) -> int:
        return sum(self.count.get(n, 0) for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self.total_ns.get(n, 0) for n in names) / 1e9

    def sized(self, *names: str) -> int:
        return sum(self.size.get(n, 0) for n in names)

    def mean_s(self, *names: str) -> float:
        return self.total_s(*names) / self.calls(*names)

    def median_s(self, name: str) -> float:
        d = sorted(self.durations[name])
        mid = len(d) // 2
        return (d[mid] if len(d) % 2 else (d[mid - 1] + d[mid]) / 2) / 1e9

    def self_s(self, layer: str) -> float:
        return self.layer_self_ns.get(layer, 0) / 1e9


EVALUATE = ("invariants.evaluate_kdv", "invariants.evaluate_nls_toda",
            "invariants.evaluate_sine_gordon")
ELLIPTIC_POINTS = ("elliptic.wp", "elliptic.wp_prime", "elliptic.zeta")
ELLIPTIC_CALLS = ELLIPTIC_POINTS + ("elliptic.Lattice", "elliptic.quasi_periods",
                                    "elliptic.lattice_setup", "elliptic.legendre_defect")
PICARD = ("picard.cover_class", "picard.intersect", "picard.adjunction_genus",
          "picard.tilde_genus")

# metric -> (layer, span names it needs, unit, function of a SpanTable).
# Counts and self times are per pass of the workload's fixed input set.
SPAN_METRICS = {
    "elliptic.setup_us": ("elliptic", ("elliptic.Lattice",), "us",
                          lambda t: 1e6 * t.total_s("elliptic.Lattice", "elliptic.lattice_setup")
                          / t.calls("elliptic.Lattice")),
    "elliptic.wp_ns_per_point": ("elliptic", ("elliptic.wp",), "ns",
                                 lambda t: 1e9 * t.total_s("elliptic.wp") / t.sized("elliptic.wp")),
    "elliptic.wp_prime_ns_per_point": ("elliptic", ("elliptic.wp_prime",), "ns",
                                       lambda t: 1e9 * t.total_s("elliptic.wp_prime")
                                       / t.sized("elliptic.wp_prime")),
    "elliptic.zeta_ns_per_point": ("elliptic", ("elliptic.zeta",), "ns",
                                   lambda t: 1e9 * t.total_s("elliptic.zeta") / t.sized("elliptic.zeta")),
    "elliptic.points": ("elliptic", ELLIPTIC_POINTS, "count",
                        lambda t: t.sized(*ELLIPTIC_POINTS) / t.passes),
    "elliptic.calls": ("elliptic", ELLIPTIC_CALLS, "count",
                       lambda t: t.calls(*ELLIPTIC_CALLS) / t.passes),
    "elliptic.self_s": ("elliptic", ELLIPTIC_CALLS, "s", lambda t: t.self_s("elliptic") / t.passes),
    "kdv.residual_ms": ("kdv", ("kdv.kdv_residual",), "ms",
                        lambda t: 1e3 * t.mean_s("kdv.kdv_residual")),
    "kdv.periodicity_ms": ("kdv", ("kdv.periodicity_check",), "ms",
                           lambda t: 1e3 * t.mean_s("kdv.periodicity_check")),
    "kdv.monodromy_us": ("kdv", ("kdv.monodromy_factor",), "us",
                         lambda t: 1e6 * t.mean_s("kdv.monodromy_factor")),
    "kdv.grid_points": ("kdv", ("kdv.kdv_residual",), "count",
                        lambda t: t.sized("kdv.kdv_residual") / t.passes),
    "kdv.self_s": ("kdv", ("kdv.kdv_residual", "kdv.periodicity_check", "kdv.monodromy_factor"),
                   "s", lambda t: t.self_s("kdv") / t.passes),
    "invariants.enumerate_s": ("invariants", ("invariants.enumerate_types",), "s",
                               lambda t: t.mean_s("invariants.enumerate_types")),
    "invariants.types": ("invariants", ("invariants.enumerate_types",), "count",
                         lambda t: t.sized("invariants.enumerate_types") / t.passes),
    "invariants.types_per_s": ("invariants", ("invariants.enumerate_types",), "1/s",
                               lambda t: t.sized("invariants.enumerate_types")
                               / t.total_s("invariants.enumerate_types")),
    "invariants.evaluate_us": ("invariants", EVALUATE, "us", lambda t: 1e6 * t.mean_s(*EVALUATE)),
    "invariants.construct_us": ("invariants", ("invariants.construct_types",), "us",
                                lambda t: 1e6 * t.mean_s("invariants.construct_types")),
    "invariants.family_us": ("invariants", ("invariants.family_params",), "us",
                             lambda t: 1e6 * t.mean_s("invariants.family_params")),
    "invariants.self_s": ("invariants", ("invariants.enumerate_types", "invariants.construct_types",
                                         "invariants.family_params") + EVALUATE,
                          "s", lambda t: t.self_s("invariants") / t.passes),
    "picard.class_us": ("picard", ("picard.cover_class",), "us",
                        lambda t: 1e6 * t.self_s("picard") / t.calls("picard.cover_class")),
    "picard.classes": ("picard", ("picard.cover_class",), "count",
                       lambda t: t.calls("picard.cover_class") / t.passes),
    "picard.self_s": ("picard", PICARD, "s", lambda t: t.self_s("picard") / t.passes),
    "cli.run_ms": ("cli", ("cli.run",), "ms", lambda t: 1e3 * t.mean_s("cli.run")),
    "cli.self_s": ("cli", ("cli.run",), "s", lambda t: t.self_s("cli") / t.passes),
}


def span_metrics(table: SpanTable, fallback: SpanTable | None):
    """Evaluate SPAN_METRICS on ``table``; a metric whose spans the workload
    never produced is taken from ``fallback`` (the probe).  Returns
    ``{name: (value, unit)}`` and the names taken from the fallback."""
    out, from_probe = {}, []
    for name, (layer, needs, unit, fn) in SPAN_METRICS.items():
        source = table
        if not table.has(*needs):
            if fallback is None or not fallback.has(*needs):
                raise MissingHook(f"no spans for {name}: {', '.join(needs)} never ran")
            source = fallback
            from_probe.append(name)
        out[name] = (float(fn(source)), unit)
    return out, from_probe
