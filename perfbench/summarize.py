"""Median and quartiles of every metric across the recorded runs.

    python3 perfbench/summarize.py [--workload NAME] [--trace 0|1]

Reads the run records ``perfbench/out/result-*.json`` that run.py writes and
prints, per workload and metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the number of runs and the
spread (q3 - q1) / median.  End-to-end metrics are also compared with their
bound in BENCHMARK.json: ``ok`` when the spread is within a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(out: Path, workload: str | None, trace: int):
    runs: dict[str, list[dict]] = {}
    for path in sorted(out.glob("result-*.json")):
        rec = json.loads(path.read_text())
        name = rec["environment"]["workload"]
        if rec["trace"] == trace and workload in (None, name):
            runs.setdefault(name, []).append(rec)
    return runs


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    key = "per_layer" if args.trace else "end_to_end"
    for name, recs in load(args.out, args.workload, args.trace).items():
        seeds = sorted({r["environment"]["seed"] for r in recs})
        print(f"{name}: {len(recs)} runs, seeds {seeds}")
        for metric in recs[0][key]:
            values = [r[key][metric]["value"] for r in recs if metric in r[key]]
            s = summarize(values)
            unit = recs[0][key][metric]["unit"]
            verdict = ""
            if metric in bounds:
                bound = bounds[metric]
                verdict = f"bound {bound:g}  " + ("ok" if s["spread"] <= bound / 3 else "WIDE")
                if metric == "setup_s":
                    verdict = f"bound {bound:g}  (spread not gated)"
            print(f"  {metric:<36} {s['median']:>12.6g} {unit:<6} q1 {s['q1']:<11.6g} "
                  f"q3 {s['q3']:<11.6g} spread {s['spread']:.3f}  {verdict}")
        failed = sum(r["failed"] for r in recs)
        print(f"  failed ops across runs: {failed} of {sum(r['attempted'] for r in recs)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
