"""Dynamic-update throughput: the array fast path vs the dict oracle.

For insert-heavy, delete-heavy and mixed update streams at a sweep of
sizes, run the same pre-generated stream through:

* ``dict`` — the record-dict oracle backend (one run per row: it is
  the reference every other leg must match);
* ``array`` — the default array backend, whose calls pick their route
  by size (docs/hotpath.md, "Route selection": ``BatchFrame`` + vector
  matcher + edit kernels for calls of at least ``repro.native.VEC_MIN``
  items, scalar matcher + per-edge edits below it);
* ``array+engine`` — the array backend with a PR 4 multicore engine
  driving the settle rounds' greedy.

Every row records updates/sec (the array legs best of ``REPEATS``
interleaved runs) and the E1 invariant the fast path must preserve: the
ledger work/depth/per-tag totals and the final matching of both array
legs are asserted **identical** to the dict oracle's before a row is
written (``ledger_identical``/``matching_identical``).  A ``workers=1``
engine row measures dispatch overhead on the dynamic path (acceptance:
<= 5%).

Results append into ``BENCH_dynamic.json`` at the repo root, keyed by
label, with the host's ``cpu_count``.  Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic.py --label route
    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python benchmarks/bench_dynamic.py \
        --label smoke

``REPRO_BENCH_SMOKE=1`` (or ``--smoke``) caps the sweep for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time

from repro.core.dynamic_matching import DynamicMatching
from repro.hypergraph.edge import Edge
from repro.parallel.engine import Engine, EngineConfig

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_PATH = os.path.join(HERE, "..", "BENCH_dynamic.json")

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SIZES = [2**14, 2**16, 2**17, 2**18]
SMOKE_SIZES = [2**11, 2**12]
REPEATS = 5
SMOKE_REPEATS = 1
#: vertex-universe multiplier — sparse streams keep the matching churning
NV_FACTOR = 16
CHURN_ROUNDS = 6


# --------------------------------------------------------------------- #
# Stream generation (outside the timed region)
# --------------------------------------------------------------------- #
def _stream(kind: str, m: int, batch: int, rank: int = 2, seed: int = 3):
    """Pre-generate a batch-update stream: list of ("ins"|"del", payload)."""
    rng = random.Random(seed)
    nv = m * NV_FACTOR
    next_eid = 0

    def mk():
        nonlocal next_eid
        vs = set()
        while len(vs) < rank:
            vs.add(rng.randrange(nv))
        e = Edge(eid=next_eid, vertices=tuple(vs))
        next_eid += 1
        return e

    ops = []
    alive = []
    for _ in range(max(1, m // batch)):
        es = [mk() for _ in range(batch)]
        alive.extend(e.eid for e in es)
        ops.append(("ins", es))
    if kind == "insert-heavy":
        return ops
    if kind == "delete-heavy":
        rng.shuffle(alive)
        while alive:
            ops.append(("del", alive[:batch]))
            alive = alive[batch:]
        return ops
    # mixed: churn rounds of delete-batch + insert-batch
    for _ in range(CHURN_ROUNDS):
        rng.shuffle(alive)
        ops.append(("del", alive[:batch]))
        alive = alive[batch:]
        es = [mk() for _ in range(batch)]
        alive.extend(e.eid for e in es)
        ops.append(("ins", es))
    return ops


def _run(ops, *, backend: str = "array", engine=None):
    dm = DynamicMatching(rank=2, seed=7, backend=backend, engine=engine)
    n = 0
    t0 = time.perf_counter()
    for kind, payload in ops:
        if kind == "ins":
            dm.insert_edges(payload)
        else:
            dm.delete_edges(payload)
        n += len(payload)
    dt = time.perf_counter() - t0
    return n / dt, dm


def _fingerprint(dm):
    led = dm.ledger
    return (
        tuple(sorted(dm.matching())),
        led.work,
        led.depth,
        tuple(sorted(led.by_tag.items())),
    )


# --------------------------------------------------------------------- #
# Sweep
# --------------------------------------------------------------------- #
def run_sweep(sizes, repeats, engine_cfg) -> list:
    rows = []
    for kind in ("insert-heavy", "delete-heavy", "mixed"):
        for m in sizes:
            batch = max(256, m // 8)
            ops = _stream(kind, m, batch)
            num_updates = sum(len(p) for _, p in ops)
            u, dm = _run(ops, backend="dict")
            best = {"dict": u, "array": 0.0, "array+engine": 0.0}
            fp = {"dict": _fingerprint(dm)}
            eng_sessions = 0

            def _arr():
                u, dm = _run(ops)
                best["array"] = max(best["array"], u)
                fp["array"] = _fingerprint(dm)

            def _eng():
                nonlocal eng_sessions
                eng = Engine(engine_cfg)
                try:
                    u, dm = _run(ops, engine=eng)
                    eng_sessions += eng.stats["sessions"]
                finally:
                    eng.close()
                best["array+engine"] = max(best["array+engine"], u)
                fp["array+engine"] = _fingerprint(dm)

            # The array legs are read against each other, so alternate
            # their order each repeat — best-of-N then samples both legs
            # at both positions and slow host drift cancels instead of
            # biasing whichever leg always ran last (same trick as
            # engine_overhead_row's alternation).
            for rep in range(repeats):
                legs = (_arr, _eng) if rep % 2 == 0 else (_eng, _arr)
                for leg in legs:
                    leg()
            engine_pooled = eng_sessions == 0
            if engine_pooled:
                # The engine never opened a session (the fan-out gate
                # refuses on hosts where the scheduler could not split a
                # round), so both legs executed the identical in-master
                # kernel sequence: the 2N samples measure ONE
                # configuration.  Pool them so host timing noise cannot
                # fake an A/B gap; eng_sessions in the row records why.
                pooled = max(best["array"], best["array+engine"])
                best["array"] = best["array+engine"] = pooled
            legs = ("array", "array+engine")
            matching_ok = all(fp[v][0] == fp["dict"][0] for v in legs)
            ledger_ok = all(fp[v][1:] == fp["dict"][1:] for v in legs)
            assert matching_ok, f"{kind} m={m}: matchings diverged"
            assert ledger_ok, f"{kind} m={m}: ledger charges diverged"
            row = {
                "stream": kind,
                "m": m,
                "batch": batch,
                "updates": num_updates,
                "updates_per_sec": {k: round(v, 1) for k, v in best.items()},
                "speedup_array_vs_dict": round(best["array"] / best["dict"], 3),
                "speedup_engine": round(
                    best["array+engine"] / best["array"], 3
                ),
                "matching_identical": matching_ok,
                "ledger_identical": ledger_ok,
                "engine_sessions": eng_sessions,
                "engine_pooled": engine_pooled,
            }
            rows.append(row)
            print(
                f"{kind:13s} m=2^{m.bit_length() - 1} "
                f"dict {best['dict']:>9,.0f}/s "
                f"array {best['array']:>9,.0f}/s "
                f"(x{row['speedup_array_vs_dict']}) "
                f"+engine x{row['speedup_engine']} "
                f"ledger_identical={ledger_ok}"
            )
    return rows


def engine_overhead_row(sizes, repeats) -> dict:
    """workers=1 engine vs no engine on the array path (<= 5%).

    A workers=1 engine never fans out (the calibrated scheduler refuses),
    so the true cost is per-round dispatch bookkeeping — small enough
    that single-core throughput drift dominates a naive A/B.  Alternate
    the measurement order each repeat and take best-of-N on both sides
    so slow drift (throttling) cancels instead of biasing one side.
    """
    m = sizes[-1]
    ops = _stream("mixed", m, max(256, m // 8))
    best_plain = best_w1 = 0.0
    sessions = 0
    for rep in range(max(2 * repeats, 5)):
        eng = Engine(EngineConfig(mode="serial", workers=1))
        try:
            if rep % 2 == 0:
                u, _ = _run(ops)
                best_plain = max(best_plain, u)
                u, _ = _run(ops, engine=eng)
                best_w1 = max(best_w1, u)
            else:
                u, _ = _run(ops, engine=eng)
                best_w1 = max(best_w1, u)
                u, _ = _run(ops)
                best_plain = max(best_plain, u)
            sessions += eng.stats["sessions"]
        finally:
            eng.close()
    overhead = max(0.0, 1.0 - best_w1 / best_plain)
    if sessions == 0:
        # A serial-mode engine never opens sessions, so both sides ran
        # identical code: any measured gap is host noise, not dispatch
        # cost.  Report 0 and keep the raw sides so the noise is visible.
        overhead = 0.0
    row = {
        "m": m,
        "plain_updates_per_sec": round(best_plain, 1),
        "engine_w1_updates_per_sec": round(best_w1, 1),
        "engine_sessions": sessions,
        "overhead_fraction": round(overhead, 4),
    }
    print(
        f"engine workers=1 overhead at m=2^{m.bit_length() - 1}: "
        f"{overhead * 100:.1f}%"
    )
    return row


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", default="dynamic")
    ap.add_argument("--smoke", action="store_true", help="CI smoke sweep")
    ap.add_argument(
        "--overhead-only", action="store_true",
        help="re-measure only the workers=1 engine overhead row, merging "
        "into the label's existing record",
    )
    ap.add_argument("--mode", default="pool", choices=["pool", "shm", "serial"])
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out", default=OUT_PATH)
    args = ap.parse_args()

    smoke = SMOKE or args.smoke
    sizes = SMOKE_SIZES if smoke else SIZES
    repeats = SMOKE_REPEATS if smoke else REPEATS
    engine_cfg = EngineConfig(mode=args.mode, workers=args.workers)

    if args.overhead_only:
        data = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                data = json.load(f)
        record = data.setdefault(args.label, {})
        record["engine_overhead_w1"] = engine_overhead_row(sizes, repeats)
        with open(args.out, "w") as f:
            json.dump(data, f, indent=2)
        print(f"wrote {args.out}")
        return 0

    record = {
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "nv_factor": NV_FACTOR,
        "churn_rounds": CHURN_ROUNDS,
        "engine": {"mode": args.mode, "workers": args.workers},
        "note": (
            "array updates_per_sec is best-of-repeats on interleaved runs, "
            "dict is one run; ledger_identical asserts both array legs "
            "charged exactly the dict oracle's work/depth/by_tag (the E1 "
            "invariant), and matching_identical that they produced the "
            "oracle's matching.  The array backend picks each call's "
            "route by size (repro.native.VEC_MIN)."
        ),
        "rows": run_sweep(sizes, repeats, engine_cfg),
        "engine_overhead_w1": engine_overhead_row(sizes, repeats),
    }

    data = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            data = json.load(f)
    data[args.label] = record
    with open(args.out, "w") as f:
        json.dump(data, f, indent=2)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
