"""Dynamic-update throughput: the array fast path vs the dict oracle.

For insert-heavy, delete-heavy and mixed update streams at a sweep of
sizes, run the same pre-generated stream through:

* ``dict`` — the record-dict oracle backend (one run per row: it is
  the reference the array leg must match);
* ``array`` — the default array backend, whose calls pick their route
  by size (docs/hotpath.md, "Route selection": ``BatchFrame`` + vector
  matcher + edit kernels for calls of at least ``repro.native.VEC_MIN``
  items, scalar matcher + per-edge edits below it).

Every row records updates/sec (the array leg best of ``REPEATS`` runs)
and the E1 invariant the fast path must preserve: the ledger
work/depth/per-tag totals and the final matching of the array leg are
asserted **identical** to the dict oracle's before a row is written
(``ledger_identical``/``matching_identical``).

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


def _run(ops, *, backend: str = "array"):
    dm = DynamicMatching(rank=2, seed=7, backend=backend)
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
def run_sweep(sizes, repeats) -> list:
    rows = []
    for kind in ("insert-heavy", "delete-heavy", "mixed"):
        for m in sizes:
            batch = max(256, m // 8)
            ops = _stream(kind, m, batch)
            num_updates = sum(len(p) for _, p in ops)
            u, dm = _run(ops, backend="dict")
            best = {"dict": u, "array": 0.0}
            fp = {"dict": _fingerprint(dm)}
            for _ in range(repeats):
                u, dm = _run(ops)
                best["array"] = max(best["array"], u)
                fp["array"] = _fingerprint(dm)
            matching_ok = fp["array"][0] == fp["dict"][0]
            ledger_ok = fp["array"][1:] == fp["dict"][1:]
            assert matching_ok, f"{kind} m={m}: matchings diverged"
            assert ledger_ok, f"{kind} m={m}: ledger charges diverged"
            row = {
                "stream": kind,
                "m": m,
                "batch": batch,
                "updates": num_updates,
                "updates_per_sec": {k: round(v, 1) for k, v in best.items()},
                "speedup_array_vs_dict": round(best["array"] / best["dict"], 3),
                "matching_identical": matching_ok,
                "ledger_identical": ledger_ok,
            }
            rows.append(row)
            print(
                f"{kind:13s} m=2^{m.bit_length() - 1} "
                f"dict {best['dict']:>9,.0f}/s "
                f"array {best['array']:>9,.0f}/s "
                f"(x{row['speedup_array_vs_dict']}) "
                f"ledger_identical={ledger_ok}"
            )
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", default="dynamic")
    ap.add_argument("--smoke", action="store_true", help="CI smoke sweep")
    ap.add_argument("--out", default=OUT_PATH)
    args = ap.parse_args()

    smoke = SMOKE or args.smoke
    sizes = SMOKE_SIZES if smoke else SIZES
    repeats = SMOKE_REPEATS if smoke else REPEATS

    record = {
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "nv_factor": NV_FACTOR,
        "churn_rounds": CHURN_ROUNDS,
        "note": (
            "array updates_per_sec is best-of-repeats, dict is one run; "
            "ledger_identical asserts the array leg charged exactly the "
            "dict oracle's work/depth/by_tag (the E1 invariant), and "
            "matching_identical that it produced the oracle's matching.  "
            "The array backend picks each call's route by size "
            "(repro.native.VEC_MIN)."
        ),
        "rows": run_sweep(sizes, repeats),
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
