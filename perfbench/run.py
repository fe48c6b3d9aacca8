"""Repository benchmark: closed-loop workloads with a correctness gate.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload churn-r2 --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``churn-r2``, ``serve-r3``, ``sharded-k2``
(parameters and reasons in :mod:`perfbench.workloads` and
``BENCHMARK.json``).  Each invocation runs one workload in a fresh
process.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, measured by wrappers the
benchmark installs around each layer's public calls (spans are written
to ``perfbench/_work/spans-<workload>-seed<seed>.jsonl``).  Times are
scaled to a reference host speed measured by a probe loop run between
operations (see :mod:`perfbench.harness`).  The line before the JSON
reports the raw medians, the speed factor, the workload-specific numbers
(read latency, recovery time) and the host calibration.

The program is imported from ``src/`` of the checkout that holds this
file and nowhere else; without it the benchmark exits with code 2 and
prints no result.  A failed correctness check exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")

#: Workload-specific user-facing numbers printed before the result line.
SUMMARY_KEYS = (
    "raw.setup_s",
    "raw.updates_per_s",
    "raw.batch_p50_ms",
    "raw.batch_p95_ms",
    "host.speed_factor",
    "query.read_p50_us",
    "query.read_p99_us",
    "query.first_read_us",
    "durability.recover_s",
    "gate.failed_frac",
    "host.calib_ms",
    "host.calib_drift",
    "runtime.gc_gen2",
    "runtime.gc_pause_s",
    "window.rounds",
)


def _import_program():
    """Put the checkout's ``src`` and root first on the path and check
    that ``repro`` resolves there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}")
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [ROOT, SRC] + [p for p in sys.path if os.path.abspath(p or ".") != here]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro resolved outside {SRC}: {repro.__file__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        _import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from perfbench.harness import E2E_METRICS, LAYER_METRICS, layer_metrics, run_workload
    from perfbench.workloads import SPECS

    spec = SPECS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(SPECS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"run-{spec.name}-{args.seed}-{os.getpid()}")
    run = None
    try:
        run, e2e = run_workload(spec, args.seed, args.seconds, bool(args.trace),
                                workdir, WORK)
    except Exception:  # noqa: BLE001 — report the failed run, then exit 1
        traceback.print_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if run is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for msg in run.failures[:20]:
        print(f"GATE FAILURE: {msg}", file=sys.stderr)
    print("# " + " ".join(
        f"{k}={run.extra[k]:.6g}" for k in SUMMARY_KEYS if k in run.extra
    ))
    if args.trace:
        values, units = layer_metrics(run), dict(LAYER_METRICS)
    else:
        values, units = e2e, dict(E2E_METRICS)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
