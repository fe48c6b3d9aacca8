"""Per-batch differential: the router's handoff against the reference loop.

The router resolves its live cross edges through
:func:`repro.sharding.handoff.resolve`, reading endpoint shards from its
:class:`~repro.sharding.EndpointIndex` and the shards' covered-only
freeness reports.  Here every such call is intercepted on real inline
routers (K ∈ {2, 3, 5}, ranks 2 and 3) and checked against
:func:`tests.sharding.reference_handoff.reference_resolve`, which hashes
every endpoint afresh:

* the merged report equals the shards' own covers of the live cross
  endpoints, free vertices left out;
* the router's :class:`~repro.sharding.HandoffResult` equals the
  reference result for the same live cross edges and merged cover —
  matching, witnesses and every tally.

Vertex ids include negatives and ids straddling int32 and the int64
limits; ids beyond 64 bits run on ``backend="dict"`` shards.  A recovery
case checks that a router rebuilt by :func:`recover_sharded` keeps making
the same cross decisions as one that never stopped.
"""

import numpy as np
import pytest

from repro.hypergraph.edge import Edge
from repro.sharding import ShardedMatching, handoff, recover_sharded, shard_of_vertex
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


class CheckedResolve:
    """Stands in for ``handoff.resolve``: checks every call's inputs and
    result against the shards and the reference loop."""

    def __init__(self, resolve, router: ShardedMatching) -> None:
        self.resolve = resolve
        self.router = router
        self.calls = 0
        self.totals = {"accepts": 0, "rejects_local": 0, "rejects_cross": 0}

    def __call__(self, cross, cover, index):
        r = self.router
        endpoints = {v for e in cross.values() for v in e.vertices}
        expect = {}
        for v in endpoints:
            m = r.hosts[shard_of_vertex(v, r.k)].shard.dm.match_of(v)
            if m is not None:
                expect[v] = m
        assert cover == expect, "freeness report differs from the shards' covers"

        got = self.resolve(cross, cover, index)
        assert got == reference_resolve(list(cross.values()), cover, r.k)
        self.calls += 1
        for key in self.totals:
            self.totals[key] += getattr(got, key)
        return got


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_router_handoff_equals_reference_every_batch(monkeypatch, k, rank, table):
    batches = _trace(1_000 * k + 10 * rank + len(table), rank, TABLES[table])
    with ShardedMatching(
        shards=k, rank=rank, seed=k + rank, transport="inline",
        backend=BACKEND[table],
    ) as r:
        checked = CheckedResolve(handoff.resolve, r)
        monkeypatch.setattr(handoff, "resolve", checked)
        resolving = 0
        for b in batches:
            r.apply_batch(b)
            resolving += bool(r._cross)
            assert checked.calls == resolving, "the router bypassed handoff.resolve"
            r.check_invariants()
    # The traces are dense enough to reach every decision kind.
    assert all(checked.totals.values()), checked.totals


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
        rec.check_invariants()
        assert rec._endpoints.entries() == ref._endpoints.entries()
        assert rec._cross_matched == ref._cross_matched
        assert rec._cross_witness == ref._cross_witness

        recovered_cross = set(rec._cross)
        deleted_after = set()
        for b in tail:
            rec.apply_batch(b)
            ref.apply_batch(b)
            if b.kind == "delete":
                deleted_after.update(b.eids)
            assert rec._cross_matched == ref._cross_matched
            assert rec._cross_witness == ref._cross_witness
            assert rec.matched_ids() == ref.matched_ids()
        rec.check_invariants()
        # The tail deleted cross edges the recovered index was rebuilt with.
        assert recovered_cross & deleted_after
