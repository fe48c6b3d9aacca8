"""Hot-path before/after benchmark: E1 / E5 / E9 wall-clock + ledger totals.

Run once on the seed implementation (``--label seed``) and once after the
array-backend refactor (``--label array``); both runs append into
``BENCH_hotpath.json`` at the repo root, and the ``array`` run computes the
speedup column against the recorded ``seed`` numbers.  Ledger totals
(work/depth) are recorded exactly so the refactor can be checked for ±0
cost parity on identical seeded workloads.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --label seed
    PYTHONPATH=src python benchmarks/bench_hotpath.py --label array

``REPRO_BENCH_SMOKE=1`` caps the sweep sizes (CI smoke mode).
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.core.dynamic_matching import DynamicMatching
from repro.parallel.ledger import NullLedger
from repro.static_matching.parallel_greedy import parallel_greedy_match
from repro.workloads.adversary import RandomOrderAdversary
from repro.workloads.generators import erdos_renyi_edges
from repro.workloads.streams import insert_then_delete_stream

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_PATH = os.path.join(HERE, "..", "BENCH_hotpath.json")

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

E1_SIZES = [512, 2048, 8192, 16384] if not SMOKE else [256, 512]
E5_SIZES = [4096, 16384, 65536] if not SMOKE else [512, 1024]
E9_BATCHES = [64, 512, 4096] if not SMOKE else [32, 128]
E9_M = 16384 if not SMOKE else 1024


def _e1_stream(m: int, seed: int):
    n = max(8, int(m**0.7))
    edges = erdos_renyi_edges(n, m, np.random.default_rng(seed))
    return insert_then_delete_stream(
        edges, max(1, m // 16), RandomOrderAdversary(np.random.default_rng(seed + 1))
    )


def _replay(dm: DynamicMatching, stream) -> float:
    t0 = time.perf_counter()
    for batch in stream:
        if batch.kind == "insert":
            dm.insert_edges(list(batch.edges))
        else:
            dm.delete_edges(list(batch.eids))
    return time.perf_counter() - t0


def bench_e1() -> list:
    rows = []
    for m in E1_SIZES:
        stream = _e1_stream(m, seed=m)
        dm = DynamicMatching(rank=2, seed=m + 2)
        best = min(_replay(DynamicMatching(rank=2, seed=m + 2), _e1_stream(m, seed=m)) for _ in range(2))
        elapsed = _replay(dm, stream)
        best = min(best, elapsed)
        rows.append(
            {
                "m": m,
                "seconds": round(best, 4),
                "work": dm.ledger.work,
                "depth": dm.ledger.depth,
                "work_per_update": round(dm.ledger.work / (2 * m), 3),
            }
        )
    return rows


def bench_e5() -> list:
    rows = []
    for m in E5_SIZES:
        n = max(8, int(m**0.7))
        edges = erdos_renyi_edges(n, m, np.random.default_rng(m))
        t0 = time.perf_counter()
        result = parallel_greedy_match(edges, NullLedger(), rng=np.random.default_rng(m + 100))
        elapsed = time.perf_counter() - t0
        rows.append({"m": m, "seconds": round(elapsed, 4), "rounds": result.rounds,
                     "matches": len(result.matches)})
    return rows


def bench_e9() -> list:
    rows = []
    for batch in E9_BATCHES:
        stream = _e1_stream(E9_M, seed=batch)
        dm = DynamicMatching(rank=2, seed=batch + 2)
        # rebuild the stream with the requested batch size
        edges = erdos_renyi_edges(
            max(8, int(E9_M**0.7)), E9_M, np.random.default_rng(batch)
        )
        stream = insert_then_delete_stream(
            edges, batch, RandomOrderAdversary(np.random.default_rng(batch + 1))
        )
        elapsed = _replay(dm, stream)
        rows.append(
            {
                "batch": batch,
                "seconds": round(elapsed, 4),
                "work": dm.ledger.work,
                "depth": dm.ledger.depth,
            }
        )
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True, help="'seed' or 'array'")
    ap.add_argument("--out", default=OUT_PATH)
    args = ap.parse_args()

    record = {
        "e1": bench_e1(),
        "e5": bench_e5(),
        "e9": bench_e9(),
    }

    data = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            data = json.load(f)
    data[args.label] = record

    # Speedup + ledger-parity columns once both sides exist.
    if "seed" in data and args.label != "seed":
        cmp_rows = []
        for before, after in zip(data["seed"]["e1"], record["e1"]):
            cmp_rows.append(
                {
                    "m": before["m"],
                    "speedup": round(before["seconds"] / max(after["seconds"], 1e-9), 2),
                    "work_delta": after["work"] - before["work"],
                    "depth_delta": after["depth"] - before["depth"],
                }
            )
        data["comparison"] = {"e1": cmp_rows}

    with open(args.out, "w") as f:
        json.dump(data, f, indent=2)
    print(json.dumps(data.get("comparison", record), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
