"""The traced benchmark run's hooks still find what they wrap.

`perfbench/tracing.py` wraps ellcover functions where their callers look
them up, and its size callbacks read their positional arguments.  This
runs every probe operation of `perfbench/run.py` under an installed
tracer: a wrapped name that is no longer called, a size callback that
reads a missing argument, or a probe whose check fails shows here, not
only in a traced benchmark run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_probe_ops_pass_their_checks_and_reach_every_span_metric(tmp_path):
    prog = workloads.Program(ROOT)
    ctx = workloads.Context(root=ROOT, tmp=tmp_path, prog=prog, env=workloads.child_env(ROOT))
    tracer = tracing.Tracer()
    tracer.install(prog.lib)
    try:
        for i, (wl, op) in enumerate(run.probe_ops(prog)):
            with tracer.span(wl.span_name(op), op=i):
                result = wl.run(ctx, op)
            assert wl.check(ctx, op, result).problem is None, (wl.name, op.kind)
    finally:
        tracer.uninstall()
    metrics, from_probe = tracing.span_metrics(tracing.SpanTable(tracer, 1), None)
    assert sorted(metrics) == sorted(tracing.SPAN_METRICS) and from_probe == []
