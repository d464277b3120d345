"""Closed-loop executor: one client runs a workload's ops in this interpreter.

Usage: python3 perfbench/loop.py MANIFEST RESULT

``run.py`` starts this in a fresh interpreter per run, so ``ru_maxrss`` is
the workload's own peak and the checker's memory stays out of it.  Each op
is ``segtrees.cli.main(argv)``, timed around that call only by
``speed.Clock``, which also gives its machine-speed-normalized time.  Its
stdout goes
to ``os.devnull`` or, for ops whose answer is printed, to a file in the
pass directory.  Untraced runs repeat passes until the time is up, stopping
after any op once one full pass is done.  Traced runs alternate an
untraced and a traced pass and stop at a round boundary.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import Clock


def main(manifest_path: str, result_path: str) -> int:
    m = json.loads(Path(manifest_path).read_text())
    sys.path.insert(0, m["src"])
    import segtrees.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(m["src"]).resolve()):
        print(f"segtrees imported from {cli.__file__}, not {m['src']}", file=sys.stderr)
        return 1

    tracer = None
    traced_main = None
    if m["trace"]:
        from spans import Tracer

        tracer = Tracer()
        traced_main = tracer.wrap(cli.main)

    ops, tmp = m["ops"], Path(m["tmp"])
    clock = Clock()
    records: list[dict] = []
    deadline = time.perf_counter() + m["seconds"]
    devnull = open(os.devnull, "w")

    def run_op(pass_no: int, pass_dir: Path, index: int, traced: bool) -> None:
        op = ops[index]
        argv = [a.replace("{pass}", str(pass_dir)) for a in op["argv"]]
        main_fn = traced_main if traced else cli.main
        seq = len(records)
        if tracer is not None:
            tracer.op = seq

        def call():
            try:
                return main_fn(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                return exc.code

        record = {"seq": seq, "pass": pass_no, "op": index, "traced": traced, "exit": None,
                  "seconds": None, "norm_s": None, "kernel_s": None, "error": None}
        out = devnull if op["stdout"] == "devnull" else open(op["stdout"].replace("{pass}", str(pass_dir)), "w")
        try:
            with contextlib.redirect_stdout(out):
                # no kernel runs inside traced calls: they would land in the spans
                record["exit"], record["seconds"], record["norm_s"], record["kernel_s"] = clock.time(
                    call, tick=not traced)
        except Exception:
            record["error"] = traceback.format_exc()
            print(record["error"], file=sys.stderr)
        finally:
            if out is not devnull:
                out.close()
        records.append(record)

    def run_pass(pass_no: int, traced: bool, stop_early: bool) -> bool:
        """Run one pass; returns False if it stopped at the deadline."""
        pass_dir = tmp / f"p{pass_no}"
        pass_dir.mkdir()
        if traced:
            tracer.install()
        try:
            for index in range(len(ops)):
                run_op(pass_no, pass_dir, index, traced)
                if stop_early and time.perf_counter() >= deadline:
                    return False
        finally:
            if traced:
                tracer.remove()
        return True

    pass_no = 0
    try:
        if tracer is None:
            run_pass(pass_no, False, stop_early=False)
            while time.perf_counter() < deadline:
                pass_no += 1
                if not run_pass(pass_no, False, stop_early=True):
                    break
        else:
            while True:
                run_pass(pass_no, False, stop_early=False)
                run_pass(pass_no + 1, True, stop_early=False)
                pass_no += 2
                if time.perf_counter() >= deadline:
                    break
    finally:
        devnull.close()

    result = {
        "records": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else [],
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
