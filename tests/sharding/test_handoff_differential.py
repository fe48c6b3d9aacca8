"""Per-batch differential: the incremental handoff against the full resolve.

The router keeps its cross matching incrementally: shards report the
cross-frontier vertices whose local cover changed, and
:func:`repro.sharding.handoff.resolve` re-decides only the cross edges a
batch touches.  Here real routers (K ∈ {2, 3, 5}, ranks 2 and 3, inline;
K = 2 over the process transport) are checked after **every batch**
against :func:`tests.sharding.reference_handoff.reference_resolve`, the
plain full pass over every live cross edge:

* the cross matching and the witnesses derived from the router's state
  (:func:`repro.sharding.handoff.derive`) equal the reference run on the
  live cross edges and the shards' own covers — every tally included;
* ``check_invariants`` passes: shard frontiers, ``cov`` and ``multi``
  equal a recount, and the merged certificate verifies.

Vertex ids include negatives and ids straddling int32 and the int64
limits; ids beyond 64 bits run on ``backend="dict"`` shards.  A recovery
case checks that a router rebuilt by :func:`recover_sharded` keeps making
the same cross decisions as one that never stopped.
"""

import numpy as np
import pytest

from repro.hypergraph.edge import Edge
from repro.sharding import (
    CROSS,
    ShardedMatching,
    handoff,
    recover_sharded,
    shard_of_edge,
    shard_of_vertex,
)
from repro.testing.faults import random_batches
from repro.workloads.streams import UpdateBatch
from tests.sharding.reference_handoff import reference_resolve

pytestmark = pytest.mark.sharding

N_VERTICES = 36
#: Vertex tables the random traces are mapped through.
TABLES = {
    "small": list(range(N_VERTICES)),
    "int64": (
        [-(2**63) + i for i in range(4)]
        + [2**63 - 1 - i for i in range(4)]
        + [-(2**31) - 2 + i for i in range(4)]
        + [2**31 - 2 + i for i in range(4)]
        + list(range(-10, 10))
    ),
    "beyond64": (
        [2**64 + i for i in range(8)]
        + [-(2**64) - i for i in range(8)]
        + [10**30 + i for i in range(4)]
        + list(range(-8, 8))
    ),
}
#: The array backend stores vertices as int64 and cannot take ids beyond.
BACKEND = {"small": "array", "int64": "array", "beyond64": "dict"}


def _trace(seed: int, rank: int, table):
    rng = np.random.default_rng(seed)
    batches = random_batches(rng, 40, rank=rank, n_vertices=N_VERTICES, max_insert=12)
    out = []
    for b in batches:
        if b.kind == "insert":
            out.append(UpdateBatch.insert(
                [Edge(e.eid, [table[v] for v in e.vertices]) for e in b.edges]
            ))
        else:
            out.append(b)
    return out


def shard_covers(r: ShardedMatching) -> dict:
    """Every shard's own local cover, read from its matching (not from
    the frontier code under test)."""
    cover = {}
    for host in r.hosts:
        cover.update(host.call("query_snapshot")["cover"])
    return cover


def assert_equals_reference(r: ShardedMatching):
    expect = reference_resolve(list(r._cross.values()), shard_covers(r), r.k)
    got = handoff.derive(r._state, r.k)
    assert got == expect
    assert r.cross_matched() == expect.matched
    return expect


class CountingResolve:
    """Stands in for ``handoff.resolve`` to count the router's calls."""

    def __init__(self, resolve) -> None:
        self.resolve = resolve
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.resolve(*args)


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_router_handoff_equals_reference_every_batch(monkeypatch, k, rank, table):
    batches = _trace(1_000 * k + 10 * rank + len(table), rank, TABLES[table])
    with ShardedMatching(
        shards=k, rank=rank, seed=k + rank, transport="inline",
        backend=BACKEND[table],
    ) as r:
        counting = CountingResolve(handoff.resolve)
        monkeypatch.setattr(handoff, "resolve", counting)
        totals = {"accepts": 0, "rejects_local": 0, "rejects_cross": 0}
        for b in batches:
            calls = counting.calls
            stats = r.apply_batch(b)
            if stats.n_cross:
                assert counting.calls == calls + 1, "the router bypassed handoff.resolve"
            expect = assert_equals_reference(r)
            r.check_invariants()
            for key in totals:
                totals[key] += getattr(expect, key)
        assert r.shard_stats["proposals"] > 0
    # The traces are dense enough to reach every decision kind.
    assert all(totals.values()), totals


def test_process_transport_equals_reference_every_batch():
    batches = _trace(77, 2, TABLES["small"])
    matched_cross = 0
    with ShardedMatching(shards=2, rank=2, seed=5, transport="process") as r:
        for b in batches:
            r.apply_batch(b)
            matched_cross += len(assert_equals_reference(r).matched)
        r.check_invariants()
    assert matched_cross, "the trace must exercise cross matches"


def _cross_star(k: int, center: int, leaves: int, eid0: int):
    """``leaves`` cross edges sharing the endpoint ``center``."""
    home = shard_of_vertex(center, k)
    others = [v for v in range(1_000, 2_000) if shard_of_vertex(v, k) != home]
    return [Edge(eid0 + i, (center, others[i])) for i in range(leaves)]


@pytest.mark.parametrize("transport", ["inline", "process"])
def test_deleting_edges_that_share_a_matched_endpoint(transport):
    k = 2
    star = _cross_star(k, center=7, leaves=6, eid0=100)
    assert all(shard_of_edge(e, k) == CROSS for e in star)
    with ShardedMatching(shards=k, rank=2, seed=1, transport=transport) as r:
        r.insert_edges(star)
        assert r.cross_matched() == [100]  # the lowest id takes the center
        assert_equals_reference(r)
        # Delete the matched edge with two unmatched edges at its center:
        # the next-lowest survivor must take the center over.
        r.delete_edges([102, 100, 101])
        assert r.cross_matched() == [103]
        assert_equals_reference(r)
        r.check_invariants()
        # Down to one edge: the center is no longer shared.
        r.delete_edges([104, 103])
        assert r.cross_matched() == [105]
        assert_equals_reference(r)
        assert 7 not in r._state.multi
        r.check_invariants()


@pytest.mark.parametrize("k", [2, 3])
def test_recovered_router_continues_like_uninterrupted(tmp_path, k):
    batches = _trace(500 + k, 2, TABLES["small"])
    head, tail = batches[:20], batches[20:]
    root = str(tmp_path / "svc")
    with ShardedMatching(
        shards=k, rank=2, seed=4, transport="inline",
        durability_root=root, checkpoint_every=4, fsync=False,
    ) as r:
        for b in head:
            r.apply_batch(b)

    res = recover_sharded(root, do_certify=True, fsync=False)
    with res.router as rec, ShardedMatching(
        shards=k, rank=2, seed=4, transport="inline"
    ) as ref:
        for b in head:
            ref.apply_batch(b)

        def same_state():
            assert rec._state.cov == ref._state.cov
            assert {v: sorted(x) for v, x in rec._state.multi.items()} == {
                v: sorted(x) for v, x in ref._state.multi.items()
            }
            assert rec._state.unmatched == ref._state.unmatched
            assert handoff.derive(rec._state, k) == handoff.derive(ref._state, k)

        rec.check_invariants()
        same_state()
        recovered_cross = set(rec._cross)
        deleted_after = set()
        for b in tail:
            rec.apply_batch(b)
            ref.apply_batch(b)
            if b.kind == "delete":
                deleted_after.update(b.eids)
            same_state()
            assert rec.matched_ids() == ref.matched_ids()
        assert_equals_reference(rec)
        rec.check_invariants()
        # The tail deleted cross edges the recovered frontiers were rebuilt with.
        assert recovered_cross & deleted_after
