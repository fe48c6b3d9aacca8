"""Checkpoint write and restore cost at scale.

Builds a structure, churns it, then times the three steps a durable
service pays for one checkpoint and one recovery:

* ``write_checkpoint`` — snapshot, CRC, encode, write, fsync, rename;
* ``load_checkpoint`` — parse the file and verify its CRC;
* ``restore_from_checkpoint`` — rebuild the structure (all restore
  passes plus ``check_invariants``) and reinstate the ledger.

Graphs:

* ``churn-r2`` — rank 2 on ``16 m`` vertices (sparse, like perfbench's
  churn-r2), bulk-loaded, then ``CHURN_BATCHES`` alternating
  delete/insert batches of 1024 edges; m = 2^14, 2^16, 2^18;
* ``serve-r3`` — rank 3 on ``m / 8`` vertices (dense, so settles reach
  high levels, like perfbench's serve-r3), bulk-loaded, then
  ``CHURN_BATCHES`` alternating batches of 32 edges; m = 2^14, 2^16.

Every row records the median seconds of ``REPEATS`` runs of each step,
the file size in bytes and per live edge, and ``snapshot_containers``:
the GC-tracked objects (dicts and lists) held by the dict ``save_state``
returns.  Before a row is written it asserts that the restored
structure has the live one's matched ids, ledger (work, depth, by_tag)
and snapshot, and passes ``check_invariants``.

Only the public API is used, so the script runs unchanged on any tree
that has it.  Results go into ``BENCH_checkpoint.json`` at the repo
root, keyed by label, with the host's ``cpu_count``.  Usage::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py --label v3
    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python benchmarks/bench_checkpoint.py \\
        --label smoke --out /tmp/bench_checkpoint.json

``REPRO_BENCH_SMOKE=1`` (or ``--smoke``) runs one m = 2^11 row per graph.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import tempfile
import time

import numpy as np

from repro import DynamicMatching, save_state
from repro.durability import load_checkpoint, restore_from_checkpoint, write_checkpoint
from repro.hypergraph.edge import Edge

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_PATH = os.path.join(HERE, "..", "BENCH_checkpoint.json")

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: (graph, rank, m, vertex universe, churn batch size)
GRAPHS = [
    ("churn-r2", 2, 2**14, 16 * 2**14, 1024),
    ("churn-r2", 2, 2**16, 16 * 2**16, 1024),
    ("churn-r2", 2, 2**18, 16 * 2**18, 1024),
    ("serve-r3", 3, 2**14, 2**14 // 8, 32),
    ("serve-r3", 3, 2**16, 2**16 // 8, 32),
]
SMOKE_GRAPHS = [
    ("churn-r2", 2, 2**11, 16 * 2**11, 128),
    ("serve-r3", 3, 2**11, 2**11 // 8, 32),
]
CHURN_BATCHES = 64
REPEATS = 5


def build(rank: int, m: int, nv: int, batch: int, seed: int = 5) -> DynamicMatching:
    """Bulk-load ``m`` edges, then churn ``CHURN_BATCHES`` batches."""
    rng = np.random.default_rng([seed, rank, m])
    total = m + max(batch, m // 4)
    rows = rng.integers(0, nv, size=(total, rank))
    while True:  # redraw rows with a repeated vertex
        srt = np.sort(rows, axis=1)
        bad = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
        if bad.size == 0:
            break
        rows[bad] = rng.integers(0, nv, size=(bad.size, rank))
    edges = [Edge(eid, vs) for eid, vs in enumerate(rows.tolist())]
    dm = DynamicMatching(rank=rank, seed=seed)
    dm.insert_edges(edges[:m])
    live = np.arange(m)
    absent = np.arange(m, total)
    for i in range(CHURN_BATCHES):
        if i % 2 == 0:
            pos = rng.choice(live.size, size=batch, replace=False)
            ids = live[pos]
            live = np.delete(live, pos)
            absent = np.concatenate([absent, ids])
            dm.delete_edges(ids.tolist())
        else:
            pos = rng.choice(absent.size, size=batch, replace=False)
            ids = absent[pos]
            absent = np.delete(absent, pos)
            live = np.concatenate([live, ids])
            dm.insert_edges([edges[e] for e in ids.tolist()])
    return dm


def snapshot_containers(dm: DynamicMatching) -> int:
    """GC-tracked objects held by the snapshot ``save_state`` returns."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        state = save_state(dm)
        held = len(gc.get_objects()) - before
    finally:
        gc.enable()
    del state
    return held


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _ledger(dm):
    led = dm.ledger
    return led.work, led.depth, dict(led.by_tag)


def bench_row(graph: str, rank: int, m: int, nv: int, batch: int, repeats: int) -> dict:
    dm = build(rank, m, nv, batch)
    live_edges = dm.structure.num_edges()
    applied = CHURN_BATCHES + 1
    directory = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        path = write_checkpoint(directory, dm, applied)
        size = os.path.getsize(path)
        write_s = _median_s(lambda: write_checkpoint(directory, dm, applied), repeats)
        load_s = _median_s(lambda: load_checkpoint(path), repeats)
        payload = load_checkpoint(path)
        assert payload is not None, f"{graph} m={m}: checkpoint failed its CRC"
        restore_s = _median_s(lambda: restore_from_checkpoint(payload), repeats)
        restored = restore_from_checkpoint(payload)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    assert restored.matched_ids() == dm.matched_ids(), f"{graph} m={m}: matching differs"
    assert _ledger(restored) == _ledger(dm), f"{graph} m={m}: ledger differs"
    assert save_state(restored) == save_state(dm), f"{graph} m={m}: snapshot differs"
    restored.check_invariants()
    row = {
        "graph": graph,
        "rank": rank,
        "m": m,
        "vertices": nv,
        "churn_batch": batch,
        "live_edges": live_edges,
        "matched": len(dm.matched_ids()),
        "write_s": round(write_s, 5),
        "load_s": round(load_s, 5),
        "restore_s": round(restore_s, 5),
        "bytes": size,
        "bytes_per_edge": round(size / live_edges, 2),
        "snapshot_containers": snapshot_containers(dm),
        "restored_identical": True,
    }
    print(
        f"{graph} m=2^{m.bit_length() - 1}: write {write_s:.4f}s "
        f"load {load_s:.4f}s restore {restore_s:.4f}s "
        f"{size / 2**20:.3f} MB ({row['bytes_per_edge']} B/edge) "
        f"containers {row['snapshot_containers']}"
    )
    return row


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", default="checkpoint")
    ap.add_argument("--smoke", action="store_true", help="CI smoke sweep")
    ap.add_argument("--out", default=OUT_PATH)
    args = ap.parse_args()

    smoke = SMOKE or args.smoke
    graphs = SMOKE_GRAPHS if smoke else GRAPHS
    record = {
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "repeats": REPEATS,
        "churn_batches": CHURN_BATCHES,
        "note": (
            "seconds are medians of `repeats` runs; write_s includes fsync; "
            "restore_s is restore_from_checkpoint on an already-parsed payload; "
            "snapshot_containers counts the GC-tracked objects the save_state "
            "dict holds.  Each row asserts the restored matching, ledger and "
            "snapshot equal the live structure's and that check_invariants passes."
        ),
        "rows": [bench_row(*g, repeats=REPEATS) for g in graphs],
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
