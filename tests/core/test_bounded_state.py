"""Bounded state: the library holds O(live graph), not O(updates served).

The epoch tracker keeps no object per epoch and trims its log below the
oldest registered reader, so a long churn adds no garbage-collector-
tracked objects per batch; the array backend stores every sample and
cross set in int columns, and drops a vertex's level index P(v)
when its last bucket goes.  The streams use churn-r2's density
(16 vertices per live edge).
"""

import gc
import types
from array import array
from collections import Counter

import numpy as np
import pytest

from repro.core.dynamic_matching import DynamicMatching
from repro.core.level_structure import EdgeType
from repro.durability import DurabilityManager, recover
from repro.hypergraph.edge import Edge
from repro.query import QueryService
from repro.sharding import ShardedMatching
from repro.workloads.streams import UpdateBatch


def churn_plan(m, batches, batch, seed=3):
    """Bulk load ``m`` rank-2 edges, then alternate deleting ``batch``
    random live edges and inserting ``batch`` fresh ones.  Every Edge is
    built up front, so object counts around a run see only the library."""
    rng = np.random.default_rng(seed)
    nv = 16 * m
    n_ins = (batches + 1) // 2 * batch
    pairs = rng.integers(0, nv, size=(m + n_ins, 2)).tolist()
    edges = [Edge(i, (u, v if v != u else v + nv)) for i, (u, v) in enumerate(pairs)]
    load = [("insert", edges[i : i + batch]) for i in range(0, m, batch)]
    live, nxt, rest = list(range(m)), m, []
    for b in range(batches):
        if b % 2 == 0:
            idx = set(rng.choice(len(live), batch, replace=False).tolist())
            rest.append(("delete", [live[i] for i in sorted(idx)]))
            live = [x for i, x in enumerate(live) if i not in idx]
        else:
            rest.append(("insert", edges[nxt : nxt + batch]))
            live.extend(range(nxt, nxt + batch))
            nxt += batch
    return load, rest


def window_plan(m, batches, batch, seed=3):
    """Bulk load ``m`` rank-2 edges, then alternate deleting the oldest
    live batch and inserting a fresh one.  Every batch lies on ``batch``
    never-seen vertices, so the interner keeps every vertex ever seen."""
    rng = np.random.default_rng(seed)
    fresh = []
    for b in range(m // batch + (batches + 1) // 2):
        u = rng.integers(0, batch, size=batch)
        v = (u + rng.integers(1, batch, size=batch)) % batch
        lo = b * batch
        fresh.append(
            [Edge(lo + i, (lo + x, lo + y)) for i, (x, y) in enumerate(zip(u.tolist(), v.tolist()))]
        )
    load = [("insert", fresh[b]) for b in range(m // batch)]
    rest, oldest, nxt = [], 0, m // batch
    for k in range(batches):
        if k % 2 == 0:
            rest.append(("delete", [e.eid for e in fresh[oldest]]))
            oldest += 1
        else:
            rest.append(("insert", fresh[nxt]))
            nxt += 1
    return load, rest


def apply(algo, batch):
    kind, items = batch
    if kind == "insert":
        algo.insert_edges(items)
    else:
        algo.delete_edges(items)


def _held(tracker):
    """(birth records, death records) the tracker holds."""
    return len(tracker.epochs), tracker.retained() - len(tracker.epochs)


def assert_bounded(tracker, births_before, deaths_before):
    """Birth records <= 2 x live matches + the last batch's births;
    death records <= the birth records or 2 x the last batch's deaths."""
    births, deaths = _held(tracker)
    live = len(tracker.live_ids())
    assert births <= 2 * live + (tracker.births - births_before), (births, live)
    assert deaths <= max(births, 2 * (tracker.deaths - deaths_before)), (deaths, births)


def test_gc_objects_per_live_edge_and_per_update():
    load, rest = churn_plan(2**14, 400, 1024)
    dm = DynamicMatching(rank=2, seed=3)
    gc.collect()
    g0 = len(gc.get_objects())
    for batch in load:
        apply(dm, batch)
    gc.collect()
    g1 = len(gc.get_objects())
    assert (g1 - g0) / len(dm) <= 0.5
    updates = 0
    for batch in rest:
        apply(dm, batch)
        updates += len(batch[1])
    gc.collect()
    assert (len(gc.get_objects()) - g1) / updates <= 0.01
    dm.check_invariants()


_NO_DESCENT = (
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType
)


def reachable_gc_objects(*roots) -> int:
    """GC-tracked objects reachable from ``roots``, not descending into
    types, modules or functions."""
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NO_DESCENT) or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def test_state_reachable_from_structure_and_tracker_tracks_the_live_graph():
    """Over a window on fresh vertices, the objects the structure and the
    tracker hold stay ~2.45 per live edge, 2.43–2.49 at the eight
    samples (interned vertex ids are dict keys, not tracked objects;
    S(m) and C(m) are int columns).  What the process-wide count still
    gains per batch is ``batch_stats``: one ``BatchStats``, its
    ``settle_rounds`` list and one ``SettleRound`` per round."""
    m, batch = 2**11, 128
    load, rest = window_plan(m, 400, batch)
    assert sum(len(items) for _, items in rest) >= 20 * m
    dm = DynamicMatching(rank=2, seed=3)
    for b in load:
        apply(dm, b)
    samples = []
    for k, b in enumerate(rest, 1):
        apply(dm, b)
        if k % 50 == 0:
            gc.collect()  # untracks the tuples that hold only atomic values
            per_edge = reachable_gc_objects(dm.structure, dm.tracker) / len(dm)
            assert per_edge <= 2.6, (k, per_edge)
            samples.append(per_edge)
    # The first sample comes after the window has turned over once.
    assert all(abs(x - samples[0]) <= 0.1 * samples[0] for x in samples), samples
    dm.check_invariants()


def _small_plan():
    load, rest = churn_plan(2**12, 160, 256, seed=5)
    return load + rest


def test_no_reader_keeps_the_log_bounded():
    dm = DynamicMatching(rank=2, seed=5)
    tr = dm.tracker
    for batch in _small_plan():
        b0, d0 = tr.births, tr.deaths
        apply(dm, batch)
        assert_bounded(tr, b0, d0)
    assert tr.births > 3 * len(tr.epochs)


def test_query_reader_every_batch_keeps_the_log_bounded():
    dm = DynamicMatching(rank=2, seed=5)
    svc = QueryService(dm)
    tr = dm.tracker
    for batch in _small_plan():
        b0, d0 = tr.births, tr.deaths
        apply(dm, batch)
        assert_bounded(tr, b0, d0)
        svc.publish()
        assert svc.matching_size() == dm.matching_size()


def test_sharded_k2_inline_shards_keep_the_log_bounded():
    with ShardedMatching(shards=2, rank=2, seed=5, transport="inline") as r:
        trackers = [h.shard.dm.tracker for h in r.hosts]
        for batch in _small_plan():
            before = [(t.births, t.deaths) for t in trackers]
            apply(r, batch)
            for t, (b0, d0) in zip(trackers, before):
                assert_bounded(t, b0, d0)
        r.check_invariants()


def test_reader_pinned_at_zero_keeps_the_whole_history():
    dm = DynamicMatching(rank=2, seed=5)
    tr = dm.tracker
    pin = tr.register_reader()
    for batch in _small_plan()[:40]:
        apply(dm, batch)
    assert len(tr.epochs) == tr.births
    assert tr.retained() == tr.births + tr.deaths
    assert [ep.seq for ep in tr.epochs] == list(range(tr.births))
    assert sum(not ep.alive for ep in tr.epochs) == tr.deaths
    tr.release_reader(pin)
    for batch in _small_plan()[40:]:
        b0, d0 = tr.births, tr.deaths
        apply(dm, batch)
    assert_bounded(tr, b0, d0)


def test_dropped_query_service_stops_pinning():
    dm = DynamicMatching(rank=2, seed=5)
    tr = dm.tracker
    plan = _small_plan()
    svc = QueryService(dm)
    for batch in plan[:30]:  # published, never read: the log stays pinned
        apply(dm, batch)
        svc.publish()
    assert len(tr.epochs) == tr.births
    del svc
    gc.collect()
    for batch in plan[30:40]:
        b0, d0 = tr.births, tr.deaths
        apply(dm, batch)
    assert_bounded(tr, b0, d0)


def test_recovered_service_reports_uninterrupted_aggregates(tmp_path):
    plan = _small_plan()[:40]
    dm = DynamicMatching(rank=2, seed=5)
    with DurabilityManager.create(str(tmp_path), dm, checkpoint_every=16) as mgr:
        for kind, items in plan:
            mgr.log_batch(
                UpdateBatch.insert(items) if kind == "insert" else UpdateBatch.delete(items)
            )
            apply(dm, (kind, items))
            mgr.note_applied(dm)
    res = recover(str(tmp_path))
    assert res.checkpoint_applied == 32
    got, want = res.dm.tracker, dm.tracker
    assert got.counts() == want.counts()
    for kind in (None, "natural", "stolen", "bloated", "induced"):
        assert got.total_sample(kind) == want.total_sample(kind)
    assert got.total_added_sample() == want.total_added_sample()
    assert want.counts()["natural"] > 0


def reachable_by_type(root) -> Counter:
    """Every object reachable from ``root``, GC-tracked or not, counted
    by type name; does not descend into types, modules or functions."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NO_DESCENT):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return Counter(type(o).__name__ for o in seen.values())


@pytest.mark.parametrize("batch", [16, 1024], ids=["scalar-route", "kernel-route"])
def test_sets_hold_no_per_match_object(batch):
    """S(m), C(m) and the P(v, l) buckets live in int columns, on either
    route.  The structure's per-slot Python lists are the edges and their
    vertex tuples, and the tuples and dicts it holds do not grow with the
    matches or the level index: one vertex tuple per slot and a constant
    number of dicts (sets held as objects would add a 1-tuple per
    singleton S(m) and a dict per non-empty C(m), and a dict-based P a
    dict per P(v) and per bucket)."""
    load, rest = churn_plan(2**12, 20, batch, seed=9)
    dm = DynamicMatching(rank=2, seed=9)
    for b in load + rest:
        apply(dm, b)
    s = dm.structure
    slots = len(s._edge)
    per_slot = sorted(k for k, v in vars(s).items() if isinstance(v, list) and len(v) == slots)
    assert per_slot == ["_edge", "_verts"]
    for cols in (s._S, s._C):
        assert all(type(c) is array and len(c) == slots for c in cols)
    held = reachable_by_type(s)
    assert len(s.snapshot_columns()["P"]["vertex"]) > 100
    assert held["tuple"] <= slots + 32, (held["tuple"], slots)
    assert held["dict"] <= 32, held["dict"]
    assert len(s.matched) > 0.8 * s.num_edges()
    dm.check_invariants()


def test_vd_compaction_keeps_segments_and_shrinks_the_pool():
    """A recycled slot appends a fresh dense-vertex segment, so churn
    leaks pool space; a compaction keeps every live slot's segment and
    the live total, and shrinks the pool to exactly that total."""
    load, rest = churn_plan(2**11, 40, 256, seed=13)
    dm = DynamicMatching(rank=2, seed=13)
    for b in load + rest:
        apply(dm, b)
    s = dm.structure

    def segments():
        off, card, pool = s._vd_off, s._card, s._vd_flat
        return {eid: pool[off[i] : off[i] + card[i]].tolist() for eid, i in s._slot.items()}

    before, live = segments(), s._vd_live
    assert live == sum(s._card[i] for i in s._slot.values())
    assert len(s._vd_flat) > live
    s._vd_compact()
    assert segments() == before
    assert s._vd_live == live
    assert len(s._vd_flat) == live
    dm.check_invariants()


@pytest.mark.parametrize("batch", [16, 256], ids=["scalar-route", "kernel-route"])
def test_level_index_holds_only_vertices_with_live_cross_edges(batch):
    """P(v) goes with its last level bucket, so the level index holds
    exactly the vertices of live cross edges, however many cross edges
    have come and gone."""
    load, rest = churn_plan(2**11, 40, batch, seed=11)
    dm = DynamicMatching(rank=2, seed=11)
    s = dm.structure
    before: set = set()
    dropped = 0
    for b in load + rest:
        apply(dm, b)
        held = {
            v
            for e in s.all_edges()
            if s.type_of(e.eid) == EdgeType.CROSS
            for v in e.vertices
        }
        assert set(s.snapshot_columns()["P"]["vertex"]) == held
        dropped += len(before - held)
        before = held
    assert dropped > 0
    dm.check_invariants()
