"""ellcover benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME ``all`` runs the four workloads one after another.

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The run sets up (median of several fresh-interpreter
set-ups, reported as ``setup_s``), then repeats passes over the workload's
seeded input set for S seconds of timed work, checking every output outside
the timed section.  It prints a report, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the per-layer metrics, from a second, traced section
(see tracing.py).  A record of the run, and with tracing its spans, go to
``perfbench/out/``; ``perfbench/summarize.py`` prints medians and quartiles
across the recorded runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from workloads import (  # noqa: E402
    SUBCOMMANDS,
    WORKLOADS,
    Context,
    Op,
    Outcome,
    Program,
    child_env,
    startup_samples,
)

SETUP_REPS = 5
STARTUP_REPS = 5
MIN_PASSES = 3
PROBE_SEED = 0  # the probe's inputs are the same in every run


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    v = sorted(values)
    k = (len(v) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def spread(values) -> dict:
    return {"median": statistics.median(values), "q1": percentile(values, 25),
            "q3": percentile(values, 75), "n": len(values)}


# ---------------------------------------------------------------------------
# timed sections
# ---------------------------------------------------------------------------


SPEED_REF_S = 0.9e-3
SPEED_STALE_S = 0.02


class Speed:
    """The machine's current speed, from a fixed kernel.

    On a shared 2-vCPU VM (Xeon, 2.1 GHz) throughput drops by up to a third
    for seconds or minutes as other tenants of the host get busy, for
    Python and numpy code alike.  The kernel, a strided walk over a
    100,000-item list, tracks those spells better than a tight loop
    because it also leans on the caches.  It is timed (median of 3) before
    an operation, unless it was timed in the last SPEED_STALE_S, and again
    after it; each latency is scaled by SPEED_REF_S over the mean of the
    two.  Times are thus in seconds of a machine on which the kernel takes
    SPEED_REF_S, about that VM when it is quiet.  Raw times are kept too.
    """

    DATA = list(range(100_000))

    @classmethod
    def kernel(cls) -> int:
        total = 0
        for x in cls.DATA[::4]:
            total += x % 7
        return total

    def __init__(self):
        self.samples: list[float] = []
        self.at = -1.0
        self.kernel_s = 0.0
        self.kernel()  # the first walk of a fresh process is slower

    def current(self) -> float:
        if time.perf_counter() - self.at >= SPEED_STALE_S:
            runs = []
            for _ in range(3):
                t0 = time.perf_counter()
                self.kernel()
                runs.append(time.perf_counter() - t0)
            self.kernel_s = statistics.median(runs)
            self.samples.append(self.kernel_s)
            self.at = time.perf_counter()
        return self.kernel_s


def timed_call(speed: Speed | None, fn):
    """Run ``fn()``; return (result or exception, raw seconds, scaled seconds)."""
    before = speed.current() if speed else SPEED_REF_S
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # an operation that raises is a failed operation
        result = exc
    raw = time.perf_counter() - t0
    after = speed.current() if speed else SPEED_REF_S
    return result, raw, raw * SPEED_REF_S / ((before + after) / 2)


@dataclass
class Section:
    """What one timed section measured and what its checks found.  Latencies
    are scaled to the reference speed (see Speed); ``raw`` sums the
    unscaled ones."""

    latencies: list = field(default_factory=list)
    by_index: dict = field(default_factory=dict)
    pass_times: list = field(default_factory=list)
    raw: float = 0.0
    raw_latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    rows: int = 0
    bytes_out: int = 0
    child_rss_kb: int = 0

    @property
    def wall(self) -> float:
        """Time for one pass of the input set: the sum over its operations of
        each one's median latency."""
        return sum(statistics.median(v) for v in self.by_index.values())

    def record(self, op: Op, raw: float, latency: float, outcome) -> None:
        self.attempted += 1
        self.raw += raw
        self.raw_latencies.append(raw)
        self.latencies.append(latency)
        self.by_index.setdefault(op.index, []).append(latency)
        self.rows += outcome.rows
        self.bytes_out += outcome.bytes_out
        self.child_rss_kb = max(self.child_rss_kb, outcome.rss_kb)
        if outcome.problem:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(outcome.problem)


def run_op(wl, ctx, op, section: Section, speed: Speed | None, tracer=None, op_id=-1) -> float:
    """Run one operation (timed), then check its output (untimed); return
    its scaled latency."""
    span = tracer.span(wl.span_name(op), op=op_id) if tracer else contextlib.nullcontext()
    with span:
        result, raw, latency = timed_call(speed, lambda: wl.run(ctx, op))
    if isinstance(result, Exception):
        outcome = Outcome(f"op {op.index} ({op.kind}) raised {type(result).__name__}: {result}")
    else:
        outcome = wl.check(ctx, op, result)
    section.record(op, raw, latency, outcome)
    return latency


def measure(wl, ctx, ops, seconds: float, speed: Speed, tracer=None) -> tuple[Section, Section]:
    """Repeat passes over ``ops`` until ``seconds`` of timed work and at
    least MIN_PASSES passes per section (or three times ``seconds`` of wall
    time).  With a tracer, passes alternate between untraced and traced, so
    a slow spell of the machine falls on both sections alike."""
    plain, traced = Section(), Section()
    wanted = (plain, traced) if tracer else (plain,)
    start = time.perf_counter()
    op_id = 0
    while True:
        on = tracer is not None and len(plain.pass_times) > len(traced.pass_times)
        section = traced if on else plain
        if on:
            tracer.install(ctx.prog.lib)
        try:
            pass_time = 0.0
            for op in ops:
                pass_time += run_op(wl, ctx, op, section, speed, tracer if on else None, op_id)
                op_id += 1
        finally:
            if on:
                tracer.uninstall()
        section.pass_times.append(pass_time)
        done = plain.raw + traced.raw >= seconds and all(
            len(s.pass_times) >= MIN_PASSES for s in wanted)
        if done or time.perf_counter() - start >= 3 * seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(wl, seed: int, tmp: Path):
    """Import ellcover, generate the inputs and warm up; return the context
    and the operations."""
    ctx = Context(root=ROOT, tmp=tmp, env=child_env(ROOT))
    ctx.prog = Program(ROOT)
    ops = wl.generate(ctx.prog, seed)
    wl.warm_up(ctx, ops)
    return ctx, ops


def setup_child(wl, seed: int) -> None:
    tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        result, raw, scaled = timed_call(Speed(), lambda: set_up(wl, seed, tmp))
        if isinstance(result, Exception):
            raise result
        print(json.dumps({"setup_s": scaled, "raw_s": raw}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def setup_samples(name: str, seed: int) -> list[dict]:
    """Set-up time (scaled and raw) in SETUP_REPS fresh interpreters, one
    after another."""
    samples = []
    for _ in range(SETUP_REPS):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", name,
             "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=120, stdin=subprocess.DEVNULL)
        if res.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{res.stderr}")
        samples.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(wl, section: Section, setup: list[dict]) -> dict:
    """{name: (value, unit, note)} for the end-to-end metrics.  Times are
    scaled to the reference speed; each note gives the raw figure."""
    lat = section.latencies
    tail = percentile(lat, wl.tail_pct)
    beyond = sum(1 for x in lat if x > tail)
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "this process"
    else:
        rss_kb = section.child_rss_kb
        rss_note = "largest child"
    ops = len(section.by_index)
    passes = len(section.pass_times)
    scaled = [s["setup_s"] for s in setup]
    raw_setup = statistics.median(s["raw_s"] for s in setup)
    out = {
        "setup_s": (statistics.median(scaled), "s",
                    f"median of {len(scaled)} set-ups, q1 {percentile(scaled, 25):.4g}, "
                    f"q3 {percentile(scaled, 75):.4g}; raw median {raw_setup:.4g}"),
        "wall_s": (section.wall, "s", f"sum of per-op medians, {passes} passes of {ops} ops; "
                   f"median whole pass {statistics.median(section.pass_times):.4g}"),
        "ops_per_s": (ops / section.wall, "1/s",
                      f"{section.attempted} ops, {section.raw:.3f} s raw timed"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms",
                      f"n = {len(lat)}; raw {1e3 * statistics.median(section.raw_latencies):.4g}"),
        "op_tail_ms": (1e3 * tail, "ms", f"p{wl.tail_pct:g}, {beyond} samples beyond, "
                       f"n = {len(lat)}; raw {1e3 * percentile(section.raw_latencies, wl.tail_pct):.4g}"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", rss_note),
    }
    report_only = {
        "failed_frac": (section.failed / section.attempted, "ratio",
                        f"{section.failed} of {section.attempted}"),
    }
    if wl.name == "enumerate-large":
        rows = section.rows / passes
        report_only["rows_per_s"] = (rows / section.wall, "1/s", f"{rows:.0f} rows per pass")
    return out, report_only


def layer_metric_names() -> list[str]:
    # tracing imports numpy, which set-up has to time: import it late
    import tracing

    return [*tracing.SPAN_METRICS, "cli.rows", "cli.bytes_out", "cli.bytes_per_row",
            "startup.python_ms", "startup.import_ms",
            *(f"cli.subprocess_ms.{sub}" for sub in SUBCOMMANDS), "trace.overhead_frac"]


def per_layer(wl, ctx, untraced: Section, traced: Section, tracer, tmp: Path,
              sections: list) -> tuple[dict, list]:
    """{name: (value, unit)} for every per-layer metric, and the names that
    were measured on the probe because the workload never reaches them."""
    import tracing

    probe_tracer = tracing.Tracer()
    probe_tracer.install(ctx.prog.lib)
    probe = Section()
    try:
        probe_ctx = Context(root=ROOT, tmp=tmp, prog=ctx.prog, env=ctx.env)
        op_id = 0
        for pwl, op in probe_ops(ctx.prog):
            run_op(pwl, probe_ctx, op, probe, None, probe_tracer, op_id)
            op_id += 1
        if wl.name != "cli-batch":
            cli = WORKLOADS["cli-batch"]
            seen = set()
            for op in cli.generate(ctx.prog, PROBE_SEED):
                if op.params["sub"] not in seen:
                    seen.add(op.params["sub"])
                    run_op(cli, probe_ctx, op, probe, None, probe_tracer, op_id)
                    op_id += 1
    finally:
        probe_tracer.uninstall()
    sections.append(probe)

    table = tracing.SpanTable(tracer, len(traced.pass_times))
    probe_table = tracing.SpanTable(probe_tracer, 1)
    metrics, from_probe = tracing.span_metrics(table, probe_table)

    src, passes = (traced, len(traced.pass_times)) if traced.rows else (probe, 1)
    if src is probe:
        from_probe += ["cli.rows", "cli.bytes_out", "cli.bytes_per_row"]
    metrics["cli.rows"] = (src.rows / passes, "count")
    metrics["cli.bytes_out"] = (src.bytes_out / passes, "count")
    metrics["cli.bytes_per_row"] = (src.bytes_out / src.rows, "count")

    for sub in SUBCOMMANDS:
        name = f"subprocess.{sub}"
        source = table if table.has(name) else probe_table
        if source is probe_table and wl.name == "cli-batch":
            raise tracing.MissingHook(f"cli-batch never ran {sub}")
        metrics[f"cli.subprocess_ms.{sub}"] = (1e3 * source.median_s(name), "ms")

    bare, imported = startup_samples(ctx, STARTUP_REPS)
    metrics["startup.python_ms"] = (1e3 * statistics.median(bare), "ms")
    metrics["startup.import_ms"] = (1e3 * (statistics.median(imported) - statistics.median(bare)), "ms")

    metrics["trace.overhead_frac"] = (traced.wall / untraced.wall - 1.0, "ratio")

    write_spans(wl.name, tracer, probe_tracer)
    if sorted(metrics) != sorted(layer_metric_names()):
        raise RuntimeError("per-layer metrics and layer_metric_names() disagree")
    return metrics, from_probe


def probe_ops(prog):
    """Small fixed operations that reach every in-process layer, for the
    per-layer metrics of layers a workload does not use."""
    enum, kdv, lib = WORKLOADS["enumerate-large"], WORKLOADS["kdv-verify"], WORKLOADS["library-mix"]
    yield enum, Op(0, "cli", {"n": 200, "d": 4, "format": "json"})
    yield kdv, Op(1, "cli", {"omega1": math.pi, "omega2": 1.1j * math.pi, "lam": 0.5,
                             "nx": 200, "nt": 20, "spots": [(100, 10)]})
    seen = set()
    for op in lib.generate(prog, PROBE_SEED):
        if op.kind not in seen:
            seen.add(op.kind)
            op.index = 2 + len(seen)
            yield lib, op


def write_spans(name, tracer, probe_tracer) -> None:
    def dump(t):
        return {"names": t.names, "spans": [s for s in t.spans if s is not None]}

    path = OUT / f"spans-{name}.json"  # the latest traced run of each workload
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "size"],
                   "workload": dump(tracer), "probe": dump(probe_tracer)}, fh)


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(wl, seed, ops, np_version) -> dict:
    runs = len(list(OUT.glob(f"result-{wl.name}-*.json"))) + 1
    return {
        "workload": wl.name, "seed": seed, "inputs": wl.summary(ops),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np_version,
        "machine": platform.machine(), "git_commit": git_commit(), "run_count": runs,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ellcover" / "__init__.py").is_file():
        print(f"error: no ellcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                                 str(args.trace)], cwd=ROOT).returncode for name in WORKLOADS]
        return max(codes)
    wl = WORKLOADS[args.workload]
    if args.setup_child:
        setup_child(wl, args.seed)
        return 0

    # One CPU for this process and its children, so that the speed kernel
    # and the children of cli-batch see the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = setup_samples(wl.name, args.seed)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        ctx, ops = set_up(wl, args.seed, tmp)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        speed = Speed()
        untraced, traced = measure(wl, ctx, ops, args.seconds, speed, tracer)
        sections = [untraced, traced]
        from_probe = []
        e2e, report_only = end_to_end(wl, untraced, setup)
        if args.trace:
            metrics, from_probe = per_layer(wl, ctx, untraced, traced, tracer, tmp, sections)
        else:
            metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(s.attempted for s in sections)
    failed = sum(s.failed for s in sections)
    problems = [p for s in sections for p in s.problems]
    env = environment(wl, args.seed, ops, ctx.prog.np.__version__)
    env["speed_kernel_ms"] = {k: 1e3 * v if k != "n" else v for k, v in spread(speed.samples).items()}

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}")
    print(f"inputs: {json.dumps(env['inputs'])}")
    k = env["speed_kernel_ms"]
    print(f"speed kernel: median {k['median']:.4g} ms (q1 {k['q1']:.4g}, q3 {k['q3']:.4g}, "
          f"n = {k['n']}); times below are scaled to {1e3 * SPEED_REF_S:g} ms")
    for name, (value, unit, note) in {**e2e, **report_only}.items():
        print(f"  {name:<16} {value:>14.6g} {unit:<6} {note}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            mark = "  (probe)" if name in from_probe else ""
            print(f"  {name:<36} {value:>14.6g} {unit}{mark}")
    for p in problems:
        print(f"  FAILED {p}")

    record = {
        "environment": env, "trace": args.trace, "seconds": args.seconds,
        "passes": [len(s.pass_times) for s in sections if s.pass_times],
        "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in e2e.items()},
        "report_only": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in report_only.items()},
        "pass_times": spread(untraced.pass_times), "op_latency": spread(untraced.latencies),
        "raw_op_latency": spread(untraced.raw_latencies), "setup": setup,
        "per_layer": {k: {"value": v, "unit": u, "probe": k in from_probe}
                      for k, (v, u) in metrics.items()} if args.trace else None,
        "attempted": attempted, "failed": failed, "problems": problems,
    }
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
