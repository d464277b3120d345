"""End-to-end benchmark of the ``segtrees`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``; one closed-loop client each):

  label_large    label --out F, then verify F, on six constructive trees,
                 one per rule group, q = 1.5e4..3e4: every linear-in-q layer
                 is busy and search idles
  search_refute  search --exhaust on three non-SEG trees and label
                 --search-budget 10^7 on two open ones: a few deep searches
  search_count   search --count on all 77 trees with q in {10, 11}: the
                 engine enumerates solutions instead of refuting
  survey         survey --max-size 15 --format json: 563 short searches,
                 where per-call set-up, enumerate_specs and classify matter

A run builds nothing: the program is imported from ``src/`` of the
checkout.  It measures set-up (untraced runs only), then runs the workload
for S seconds in a fresh interpreter (``loop.py``), checks every answer
with ``check.py``, and prints one JSON object as its last stdout line:

  --trace 0  end-to-end metrics: pass_s (one pass of the workload's ops,
             the sum over ops of each op's median time), setup_s (median
             of eleven fresh interpreters that import segtrees.cli and
             classify RT(1,1)) and peak_rss_mb (ru_maxrss of the loop)
  --trace 1  per-layer metrics from a traced run; see ``README.md``

Times are normalized for machine speed by ``speed.py``.

Per-op records go to ``.bench_out/<workload>-seed<N>-trace<T>.ops.jsonl``
and traced spans to ``... .spans.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import check
from spans import self_times
from speed import Clock
from workloads import WORKLOADS, make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 11
SETUP_BRACKET = 10
SETUP_CODE = "import segtrees.cli, sys; sys.exit(segtrees.cli.main(['classify', 'RT(1,1)']))"
LOOP_TIMEOUT_S = 170

COMMAND_METRICS = ("label", "verify", "search_exhaust", "search_count", "survey")


def measure_setup() -> float:
    """Median normalized time of fresh interpreters doing the smallest command."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    clock = Clock()
    times = []
    for _ in range(SETUP_RUNS):
        proc, _, norm_s, _ = clock.time(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, stdout=subprocess.DEVNULL),
            tick=False, bracket=SETUP_BRACKET)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run exited with {proc.returncode}")
        times.append(norm_s)
    return statistics.median(times)


def run_loop(ops: list[dict], seconds: int, trace: bool, tmp: Path) -> dict:
    manifest = tmp / "manifest.json"
    result = tmp / "result.json"
    manifest.write_text(json.dumps(
        {"src": str(SRC), "ops": ops, "seconds": seconds, "trace": trace, "tmp": str(tmp)}))
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("loop.py")),
                           str(manifest), str(result)],
                          cwd=ROOT, stdout=subprocess.DEVNULL, timeout=LOOP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload loop exited with {proc.returncode}")
    return json.loads(result.read_text())


def pass_time(ops: list[dict], records: list[dict], cmd: str | None = None) -> float:
    """Sum over ops (of command ``cmd``, or all) of each op's median normalized time.

    An op that raised every time it ran has no time and adds nothing.
    """
    samples = defaultdict(list)
    for rec in records:
        if rec["norm_s"] is not None:
            samples[rec["op"]].append(rec["norm_s"])
    return float(sum(statistics.median(samples[i]) for i, op in enumerate(ops)
                     if samples[i] and (cmd is None or op["cmd"] == cmd)))


def layer_metrics(spans: list[list], scale: dict[int, float]) -> dict[str, float]:
    """Per-layer aggregates over the spans of the ops in ``scale`` (one pass).

    ``scale`` maps an op's id to the factor that normalizes its times, so
    span times are in the same unit as the end-to-end times.
    """
    own = [(s, t * scale[s[4]]) for s, t in zip(spans, self_times(spans)) if s[4] in scale]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for (name, start, end, _, op, _), t in own:
        calls[name] += 1
        total[name] += (end - start) * scale[op]
        self_s[name] += t
    searches = [s for s, _ in own if s[0] == "search.search"]
    nodes = sum(s[5]["nodes"] for s in searches)
    search_self = self_s["search.search"]
    return {
        "cli.main.self_s": self_s["cli.main"],
        "trees.classify.s": total["trees.classify"],
        "trees.enumerate_specs.s": total["trees.enumerate_specs"],
        "trees.build_tree.calls": calls["trees.build_tree"],
        "trees.build_tree.s": total["trees.build_tree"],
        "constructions.label_any.self_s": self_s["constructions.label_any"],
        "labeling.verify.calls": calls["labeling.verify"],
        "labeling.verify.self_s": self_s["labeling.verify"],
        "labeling.induce.calls": calls["labeling.induce"],
        "labeling.induce.s": total["labeling.induce"],
        "labeling.write_labeling.s": total["labeling.write_labeling"],
        "labeling.read_labeling.s": total["labeling.read_labeling"],
        "search.search.calls": calls["search.search"],
        "search.search.self_s": search_self,
        "search.search.nodes": nodes,
        "search.search.nodes_per_s": nodes / search_self if search_self > 0 else 0.0,
        "search.search.call_p50_s": statistics.median(
            [(s[2] - s[1]) * scale[s[4]] for s in searches]) if searches else 0.0,
        "search.search.budget_hits": sum(s[5]["outcome"] == "budget-exceeded" for s in searches),
    }


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "nodes", "budget_hits", "undecided"):
        return "count"
    if last == "nodes_per_s":
        return "1/s"
    return "MB" if last.endswith("_mb") else "s"


def check_records(ops: list[dict], result: dict, tmp: Path, log) -> tuple[int, float]:
    """Check every op run, write its record to ``log``; return (failed, undecided).

    ``undecided`` is per pass: ops that exit 2 plus survey rows stopped by
    the node budget.
    """
    records = result["records"]
    span_nodes: dict[int, int] = defaultdict(int)
    for span in result["spans"]:
        if span[0] == "search.search":
            span_nodes[span[4]] += span[5]["nodes"]
    failed = 0
    undecided: dict[int, list[int]] = defaultdict(list)
    for rec in records:
        op = ops[rec["op"]]
        if rec["error"] is not None:
            problems, facts = ["raised: " + rec["error"].splitlines()[-1]], {"nodes": None}
        else:
            problems, facts = check.check_op(op, rec["exit"], tmp / f"p{rec['pass']}")
            undecided[rec["op"]].append(facts["undecided"])
        if problems:
            failed += 1
            print(f"FAILED {op['cmd']} {op['spec']}: {'; '.join(problems)}", file=sys.stderr)
        log.write(json.dumps({
            "command": op["cmd"], "spec": op["spec"], "q": op["q"], "exit": rec["exit"],
            "seconds": rec["seconds"], "norm_s": rec["norm_s"], "kernel_s": rec["kernel_s"],
            "nodes": span_nodes.get(rec["seq"], facts["nodes"]), "pass": rec["pass"],
            "traced": rec["traced"], "ok": not problems}) + "\n")
    for name, start, end, _, seq, attrs in result["spans"]:
        if name == "search.search" and ops[records[seq]["op"]]["cmd"] == "survey":
            log.write(json.dumps({
                "command": "survey-row", "spec": attrs["spec"], "q": attrs["q"],
                "seconds": end - start, "nodes": attrs["nodes"], "outcome": attrs["outcome"],
                "pass": records[seq]["pass"], "traced": True}) + "\n")
    return failed, float(sum(statistics.median(v) for v in undecided.values()))


def trace_metrics(ops: list[dict], records: list[dict], spans: list[list]) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes, per-command sums from untraced ones."""
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"] and r["norm_s"] is not None]
    by_pass: dict[int, dict[int, float]] = defaultdict(dict)
    for r in traced:
        by_pass[r["pass"]][r["seq"]] = r["norm_s"] / r["seconds"]
    per_pass = [layer_metrics(spans, scale) for scale in by_pass.values()]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for cmd in COMMAND_METRICS:
        metrics[f"{cmd}_s"] = pass_time(ops, plain, cmd)
    metrics["trace.overhead_s"] = pass_time(ops, traced) - pass_time(ops, plain)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "segtrees" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'segtrees'} is missing", file=sys.stderr)
        return 2
    check.self_test()

    ops = make_ops(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_name:
        setup_s = None if args.trace else measure_setup()
        result = run_loop(ops, args.seconds, bool(args.trace), Path(tmp_name))
        with open(f"{stem}.ops.jsonl", "w") as log:
            failed, undecided = check_records(ops, result, Path(tmp_name), log)

    records = result["records"]
    if args.trace:
        Path(f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "attrs"], "spans": result["spans"]}))
        metrics = trace_metrics(ops, records, result["spans"])
        metrics["undecided"] = undecided
    else:
        metrics = {
            "pass_s": pass_time(ops, [r for r in records if not r["traced"]]),
            "setup_s": setup_s,
            "peak_rss_mb": result["maxrss_kb"] / 1024,
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
