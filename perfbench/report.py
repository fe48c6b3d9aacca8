"""Steadiness report: repeated runs, medians and quartile spreads.

Runs ``perfbench/run.py`` once per seed for each workload, each in a
fresh process, then prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` next to the bound from ``BENCHMARK.json``.  It
then repeats the first seed and checks that the ledger counts read
exactly the same, and makes one traced run per workload to report the
trace overhead and the residual the layers leave unexplained.

Usage, from the root of a checkout::

    python3 perfbench/report.py --runs 10 --seconds 10
    python3 perfbench/report.py --runs 5 --workloads serve-r3 --no-trace
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
EXACT = ("ledger_work_per_update", "ledger_depth_per_batch")


def run_once(workload: str, seed: int, seconds: float, trace: bool
             ) -> Tuple[Optional[dict], Dict[str, float]]:
    """One run in a fresh process: the parsed result line and the
    ``key=value`` summary line printed before it."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None, {}
    summary = {}
    for line in lines[:-1]:
        if line.startswith("# "):
            for item in line[2:].split():
                key, _, value = item.partition("=")
                summary[key] = float(value)
    return json.loads(lines[-1]), summary


def spread(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(workloads: List[str], runs: int, seconds: float, seed0: int,
           trace: bool, bench: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        extra: Dict[str, List[float]] = {}
        first = None
        for i in range(runs):
            result, summary = run_once(workload, seed0 + i, seconds, False)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed0 + i}: run failed")
                ok = False
                continue
            first = first or result
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in summary.items():
                extra.setdefault(name, []).append(v)
        print(f"\n== {workload}: {len(values.get('setup_s', []))} runs of {seconds:g} s")
        print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and sp > bound / 3:
                flag = "  <-- above bound/3"
            print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:7.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        for name, vals in extra.items():
            med, q1, q3, sp = spread(vals)
            print(f"  {name:30s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:7.3f}")
        if first is not None:
            again, _ = run_once(workload, seed0, seconds, False)
            same = again is not None and all(
                again["metrics"][k]["value"] == first["metrics"][k]["value"]
                for k in EXACT
            )
            print(f"ledger counts repeat exactly at seed {seed0}: {same}")
            ok = ok and same
        if trace:
            result, _ = run_once(workload, seed0, seconds, True)
            if result is None:
                print("traced run failed")
                ok = False
                continue
            m = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"traced run: trace_overhead_frac={m['obs.trace_overhead_frac']:.4f} "
                  f"residual_frac={m['obs.residual_frac']:.4f}")
            for name, v in result["metrics"].items():
                if v["value"]:
                    print(f"  {name:42s} {v['value']:12.6g} {v['unit']}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    ok = report(workloads, args.runs, seconds, args.seed0, not args.no_trace, bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
