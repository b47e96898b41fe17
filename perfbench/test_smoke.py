"""Smoke tests of the benchmark itself: names agree with BENCHMARK.json, the
oracles accept correct output and reject a damaged one, and the runner
refuses to run without the program's sources.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP = [{"setup_s": 0.1, "raw_s": 0.1}]


@pytest.fixture(scope="module")
def prog():
    return workloads.Program(ROOT)


@pytest.fixture
def ctx(prog, tmp_path):
    return workloads.Context(root=ROOT, tmp=tmp_path, prog=prog, env=workloads.child_env(ROOT))


def test_workload_and_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    section = run.Section()
    section.record(workloads.Op(0, "cli", {}), 0.5, 0.5, workloads.Outcome())
    section.pass_times.append(0.5)
    e2e, _ = run.end_to_end(workloads.WORKLOADS["kdv-verify"], section, SETUP)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in BENCH["end_to_end"]] == [u for _, u, _ in e2e.values()]
    assert [m["name"] for m in BENCH["per_layer"]] == run.layer_metric_names()
    units = {name: unit for name, (_, _, unit, _) in tracing.SPAN_METRICS.items()}
    for m in BENCH["per_layer"]:
        assert units.get(m["name"], m["unit"]) == m["unit"], m["name"]


def test_enumeration_oracle_accepts_the_cli_table(ctx):
    for fmt in ("json", "csv"):
        path = ctx.tmp / f"t.{fmt}"
        assert ctx.prog.cli.run(["enumerate-types", "--n", "40", "--d", "4", "--format", fmt,
                                 "--output", str(path)]) == 0
        rows, problem = workloads.check_enumeration(path, fmt, 40, 4)
        assert problem is None and rows == len(ctx.prog.inv.enumerate_types(40, 4))


def _drop_second_row(path: Path, fmt: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    if fmt == "csv":
        del lines[2]
    else:
        starts = [i for i, line in enumerate(lines) if line == "  {\n"]
        del lines[starts[1]:starts[2]]
    path.write_text("".join(lines))


class DropRow(workloads.EnumerateLarge):
    """enumerate-large whose outputs lose one row before they are checked."""

    def run(self, ctx, op):
        code, path = super().run(ctx, op)
        _drop_second_row(path, op.params["format"])
        return code, path


def test_negative_control_dropped_row_makes_failed_frac_nonzero(ctx):
    ops = [workloads.Op(i, "cli", {"n": 40, "d": 4, "format": fmt})
           for i, fmt in enumerate(("json", "csv"))]
    clean, _ = run.measure(workloads.WORKLOADS["enumerate-large"], ctx, ops, 0.0, run.Speed())
    assert clean.failed == 0
    ctx.digests.clear()
    damaged, _ = run.measure(DropRow(), ctx, ops, 0.0, run.Speed())
    _, report = run.end_to_end(DropRow(), damaged, SETUP)
    assert damaged.failed == damaged.attempted
    assert report["failed_frac"][0] > 0
    assert all("2*sigma" in p for p in damaged.problems)


def test_repeated_output_must_be_identical(ctx):
    wl = workloads.WORKLOADS["enumerate-large"]
    op = workloads.Op(0, "cli", {"n": 40, "d": 4, "format": "csv"})
    assert wl.check(ctx, op, wl.run(ctx, op)).problem is None
    code, path = wl.run(ctx, op)
    path.write_text(path.read_text().replace("\n", "\r\n", 1))
    assert "differs" in wl.check(ctx, op, (code, path)).problem


def test_library_mix_oracles(ctx):
    wl = workloads.WORKLOADS["library-mix"]
    ops = wl.generate(ctx.prog, 0)
    assert sorted({op.kind for op in ops}) == sorted(wl.COUNTS)
    for op in ops[:60]:
        assert wl.check(ctx, op, wl.run(ctx, op)).problem is None, op
    claims = [op for op in ops if op.kind == "claim"]
    assert {op.params["expect"] is None for op in claims} == {True, False}
    lattice = next(op for op in ops if op.kind == "lattice")
    assert wl.check(ctx, lattice, (0.0, 1e-6, 0.0)).problem
    picard = next(op for op in ops if op.kind == "picard")
    result = wl.run(ctx, picard)
    gamma, square, adjunction, tilde = result[0]
    result[0] = (gamma, square, adjunction + 1, tilde)
    assert wl.check(ctx, picard, result).problem


def test_inputs_depend_only_on_the_seed(prog):
    for wl in workloads.WORKLOADS.values():
        a, b = wl.summary(wl.generate(prog, 5)), wl.summary(wl.generate(prog, 5))
        assert json.dumps(a, default=str) == json.dumps(b, default=str)
        assert json.dumps(a, default=str) != json.dumps(wl.summary(wl.generate(prog, 6)), default=str)


def test_missing_hook_fails_loudly():
    tracer = tracing.Tracer()
    with pytest.raises(tracing.MissingHook):
        tracer.wrap(workloads, "no_such_function", "x.y")


def test_traced_calls_record_spans_and_uninstall(prog, tmp_path):
    tracer = tracing.Tracer()
    tracer.install(prog.lib)
    try:
        with tracer.span("op", op=0):
            prog.cli.run(["family", "--theorem", "6.18", "--alpha", "0,0,0,0",
                          "--output", str(tmp_path / "family.json")])
    finally:
        tracer.uninstall()
    table = tracing.SpanTable(tracer, 1)
    assert table.calls("cli.run") == 1 and table.calls("invariants.family_params") == 1
    assert table.self_s("cli") > 0
    assert not hasattr(prog.cli.run, "__wrapped__") and prog.cli.run.__module__ == "ellcover.cli"


def test_runner_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "library-mix",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and '"correct"' not in res.stdout
