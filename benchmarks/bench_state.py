"""Retained state over long runs: is memory O(live graph)?

Each row runs one stream in a fresh child process (so its RSS readings
are its own) and records what the library keeps as the run goes on:

* ``rss_load_mb`` / ``rss_churn_mb`` — resident-set growth over the bulk
  load and over the churn that follows (``/proc/self/statm``), and
  ``bytes_per_live_edge`` — the load's growth per live edge;
* ``gc_per_live_edge`` — GC-tracked objects the library added during the
  load, per live edge (every Edge is built before the count starts);
* ``gc_slope_per_batch`` — least-squares slope of the GC-tracked object
  count against the batch number over the churn phase;
* ``epochs_per_live_match`` — retained epoch records (``tracker.epochs``)
  per live match at the end, and ``epoch_bound_held``: after every batch,
  retained records <= 2 x live matches + that batch's births;
* ``interned_per_live_vertex`` — vertices the structure has interned per
  vertex of a live edge (the vertex-record term, recorded, not asserted);
* ``work_per_update`` — ledger work per update over the churn phase.

Streams (rank 2, 1024-edge batches; 128 in the smoke rows):

* ``churn`` — churn-r2's shape: ``m`` live edges on ``16 m`` vertices,
  drawn from a fixed pool of ``m + m/4`` edges; alternating batches
  delete random live edges and re-insert absent ones; m = 2^14 for
  2,000 batches and m = 2^16 for 1,000;
* ``window`` — a sliding window over fresh vertices: every insert batch
  is one batch of random edges on as many never-seen vertices,
  every delete batch removes the oldest live batch; ``m`` = 2^14 live
  edges, 400 batches.

Every row asserts the maximality certificate against the stream's own
live edge list.  On a tree whose tracker trims its log (it has
``register_reader``) it also asserts the epoch bound after every batch;
on an older tree the bound is only recorded.  Only the public API is
used, so the script runs unchanged on such a tree.  Results go into
``BENCH_state.json`` at the repo root, keyed by label, with the host's
``cpu_count``.  Usage::

    PYTHONPATH=src python benchmarks/bench_state.py --label state
    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python benchmarks/bench_state.py \\
        --label smoke --out /tmp/bench_state.json

``REPRO_BENCH_SMOKE=1`` (or ``--smoke``) runs m = 2^11 rows.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time

import numpy as np

from repro import DynamicMatching
from repro.core.certify import certify
from repro.hypergraph.edge import Edge

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_PATH = os.path.join(HERE, "..", "BENCH_state.json")

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: (stream, m, churn batches, batch size)
ROWS = [
    ("churn", 2**14, 2000, 1024),
    ("churn", 2**16, 1000, 1024),
    ("window", 2**14, 400, 1024),
]
SMOKE_ROWS = [
    ("churn", 2**11, 200, 128),
    ("window", 2**11, 100, 128),
]
#: Churn batches between GC-object samples.
SAMPLE_EVERY = 50
SEED = 7


def rss_kb() -> int:
    """Resident set size of this process now, in KiB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)


def gc_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def _pairs(rng, n: int, lo: int, width: int) -> list:
    """``n`` rank-2 edges' vertex pairs on ``[lo, lo + width)``, no loops."""
    u = rng.integers(0, width, size=n)
    v = (u + rng.integers(1, width, size=n)) % width
    return np.stack([u + lo, v + lo], axis=1).tolist()


class Churn:
    """churn-r2's shape over a fixed edge pool."""

    def __init__(self, m: int, batch: int, rng) -> None:
        total = m + max(batch, m // 4)
        self.edges = [Edge(i, p) for i, p in enumerate(_pairs(rng, total, 0, 16 * m))]
        self.live = np.arange(m)
        self.absent = np.arange(m, total)
        self.batch, self.rng = batch, rng

    def load(self):
        return [self.edges[i : i + self.batch] for i in range(0, self.live.size, self.batch)]

    def step(self, k: int):
        rng, b = self.rng, self.batch
        if k % 2 == 0:
            pos = rng.choice(self.live.size, size=b, replace=False)
            ids = self.live[pos]
            self.live = np.delete(self.live, pos)
            self.absent = np.concatenate([self.absent, ids])
            return "delete", ids.tolist()
        pos = rng.choice(self.absent.size, size=b, replace=False)
        ids = self.absent[pos]
        self.absent = np.delete(self.absent, pos)
        self.live = np.concatenate([self.live, ids])
        return "insert", [self.edges[e] for e in ids.tolist()]

    def live_edges(self):
        return [self.edges[e] for e in self.live.tolist()]


class Window:
    """A sliding window of ``m`` live edges over fresh vertices."""

    def __init__(self, m: int, batch: int, rng) -> None:
        self.batch, self.rng = batch, rng
        self.next_eid = 0
        self.next_vertex = 0
        self.batches: list = []  # live batches, oldest first
        self.m = m

    def _fresh(self):
        n = self.batch
        pairs = _pairs(self.rng, n, self.next_vertex, n)
        out = [Edge(self.next_eid + i, p) for i, p in enumerate(pairs)]
        self.next_eid += n
        self.next_vertex += n
        self.batches.append(out)
        return out

    def load(self):
        return [self._fresh() for _ in range(self.m // self.batch)]

    def step(self, k: int):
        if k % 2 == 0:
            return "delete", [e.eid for e in self.batches.pop(0)]
        return "insert", self._fresh()

    def live_edges(self):
        return [e for b in self.batches for e in b]


def _slope(xs, ys) -> float:
    if len(xs) < 2:
        return 0.0
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


def run_row(stream: str, m: int, batches: int, batch: int) -> dict:
    rng = np.random.default_rng([SEED, m, batches])
    gen = (Churn if stream == "churn" else Window)(m, batch, rng)
    dm = DynamicMatching(rank=2, seed=SEED)
    tracker = dm.tracker
    trims = hasattr(tracker, "register_reader")

    def births() -> int:  # an untrimmed log holds every birth
        return tracker.births if trims else len(tracker.epochs)

    load = gen.load()
    rss0, g0 = rss_kb(), gc_objects()
    for edges in load:
        dm.insert_edges(edges)
    rss1, g1 = rss_kb(), gc_objects()
    live_edges = len(dm)
    del load

    w0 = dm.ledger.work
    updates = 0
    bound_held = True
    xs, ys = [0], [g1]
    t0 = time.perf_counter()
    for k in range(batches):
        kind, items = gen.step(k)
        b0 = births()
        if kind == "insert":
            dm.insert_edges(items)
        else:
            dm.delete_edges(items)
        updates += len(items)
        held = len(tracker.epochs) <= 2 * dm.matching_size() + births() - b0
        assert held or not trims, f"{stream} m={m} batch {k}: epoch log exceeds its bound"
        bound_held = bound_held and held
        if (k + 1) % SAMPLE_EVERY == 0:
            xs.append(k + 1)
            ys.append(gc_objects())
    elapsed = time.perf_counter() - t0
    rss2 = rss_kb()

    live = gen.live_edges()
    certify(dm).verify(live)
    live_vertices = len({v for e in live for v in e.vertices})
    matched = dm.matching_size()
    row = {
        "stream": stream,
        "m": m,
        "batch": batch,
        "churn_batches": batches,
        "live_edges": len(live),
        "matched": matched,
        "rss_load_mb": round((rss1 - rss0) / 1024, 2),
        "rss_churn_mb": round((rss2 - rss1) / 1024, 2),
        "bytes_per_live_edge": round((rss1 - rss0) * 1024 / live_edges, 1),
        "gc_per_live_edge": round((g1 - g0) / live_edges, 4),
        "gc_slope_per_batch": round(_slope(xs, ys), 3),
        "epochs_per_live_match": round(len(tracker.epochs) / max(matched, 1), 3),
        "epoch_bound_asserted": trims,
        "epoch_bound_held": bound_held,
        "interned_per_live_vertex": round(dm.structure.interner.count / live_vertices, 3),
        "work_per_update": round((dm.ledger.work - w0) / updates, 4),
        "churn_s": round(elapsed, 2),
        "certified": True,
    }
    return row


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", default="state")
    ap.add_argument("--smoke", action="store_true", help="CI smoke sweep")
    ap.add_argument("--out", default=OUT_PATH)
    ap.add_argument("--row", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()

    smoke = SMOKE or args.smoke
    rows = SMOKE_ROWS if smoke else ROWS
    if args.row is not None:  # child: one row, JSON on stdout
        print(json.dumps(run_row(*rows[args.row])))
        return 0

    results = []
    for i, spec in enumerate(rows):
        cmd = [sys.executable, os.path.abspath(__file__), "--row", str(i)]
        if smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(row)
        print(
            f"{row['stream']} m=2^{row['m'].bit_length() - 1} x{row['churn_batches']}: "
            f"rss load {row['rss_load_mb']} MB ({row['bytes_per_live_edge']} B/edge) "
            f"churn {row['rss_churn_mb']} MB, "
            f"gc/edge {row['gc_per_live_edge']} slope {row['gc_slope_per_batch']}/batch, "
            f"epochs/match {row['epochs_per_live_match']}, "
            f"interned/vertex {row['interned_per_live_vertex']}, "
            f"work/update {row['work_per_update']}"
        )

    record = {
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "seed": SEED,
        "note": (
            "each row runs in its own child process; rss_*_mb are RSS growth "
            "over the load and over the churn, bytes_per_live_edge the load's per "
            "live edge; gc_per_live_edge counts GC-tracked "
            "objects the load added (its Edges are built before the count); "
            "gc_slope_per_batch is the least-squares "
            "slope over the churn, sampled every "
            f"{SAMPLE_EVERY} batches.  Every row verifies the maximality "
            "certificate against the stream's live edges; epoch_bound_asserted "
            "rows checked retained epochs <= 2 x live matches + the batch's "
            "births after every batch."
        ),
        "rows": results,
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
