"""Cross-shard differential certification: K ∈ {1, 2, 4} vs unsharded.

30 random traces are replayed through the unsharded pipeline and through
sharded routers at K ∈ {1, 2, 4}.  Sharding intentionally changes *which*
maximal matching is produced for K >= 2 (independent per-shard RNG
streams, deterministic handoff instead of random settling), so the
differential contract is invariant-based, certified after **every batch**:

* the merged matching is a valid, maximal matching of the whole graph,
  proven by an independently verified
  :class:`repro.core.certify.MatchingCertificate`;
* K = 1 is **bit-identical** to the unsharded pipeline — same matching
  ids every batch, float-exact same shard ledger at the end;
* the merged ledger equals router charges + the sum of per-shard
  ledgers, tag by tag (cost conservation across the split).
"""

import numpy as np
import pytest

from repro.core.dynamic_matching import DynamicMatching
from repro.sharding import ShardedMatching
from repro.testing.faults import random_batches

pytestmark = pytest.mark.sharding

TRACES = 30
SHARD_COUNTS = (1, 2, 4)


def _trace(trial: int):
    rng = np.random.default_rng(9_000 + trial)
    rank = 2 if trial % 2 else 3
    return rank, random_batches(rng, n_batches=10, rank=rank, n_vertices=32)


def _apply(algo, batch):
    if batch.kind == "insert":
        algo.insert_edges(list(batch.edges))
    else:
        algo.delete_edges(list(batch.eids))


@pytest.mark.parametrize("trial", range(TRACES))
def test_differential_trace(trial):
    rank, batches = _trace(trial)
    seed = 40_000 + trial
    unsharded = DynamicMatching(rank=rank, rng=np.random.default_rng(seed))
    routers = {
        k: ShardedMatching(shards=k, rank=rank, seed=seed, transport="inline")
        for k in SHARD_COUNTS
    }
    try:
        for batch in batches:
            _apply(unsharded, batch)
            for k, router in routers.items():
                _apply(router, batch)
                # Merged maximality, proven independently every batch.
                router.certificate().verify(router.all_edges())
                assert len(router) == len(unsharded), (trial, k)
            # K=1 is bit-identical to the unsharded pipeline, every batch.
            assert routers[1].matched_ids() == unsharded.matched_ids(), trial

        for k, router in routers.items():
            # Cost conservation: merged ledger == router + sum of shards,
            # in totals and tag by tag.
            bd = router.ledger_breakdown()
            shard_work = sum(w for _, w, _, _ in bd["shards"])
            shard_depth = sum(d for _, _, d, _ in bd["shards"])
            assert router.ledger.work == bd["router"][0] + shard_work, (trial, k)
            assert router.ledger.depth == bd["router"][1] + shard_depth, (trial, k)
            merged_tags = router.ledger.by_tag
            expect = dict(bd["router"][2])
            for _, _, _, tags in bd["shards"]:
                for tag, w in tags.items():
                    expect[tag] = expect.get(tag, 0.0) + w
            assert merged_tags == pytest.approx(expect), (trial, k)
            # Routed update totals conserve the trace.
            st = router.shard_stats
            total = sum(b.size for b in batches)
            assert st["local_updates"] + st["cross_updates"] == total, (trial, k)
            router.check_invariants()

        # Bit-identity extends to the ledger: shard 0 of K=1 charged the
        # exact float sequence the unsharded structure did.
        s0 = routers[1].ledger_breakdown()["shards"][0]
        assert s0[1] == unsharded.ledger.work, trial
        assert s0[2] == unsharded.ledger.depth, trial
        assert s0[3] == dict(unsharded.ledger.by_tag), trial
        assert routers[1].shard_stats["cross_updates"] == 0, "K=1 has no cross edges"
    finally:
        for router in routers.values():
            router.close()


def test_shard_counts_actually_split_work():
    """Sanity on the suite itself: at K >= 2 the traces do produce both
    local and cross updates, so the differential above exercises the
    handoff rather than vacuously passing.  The handoff tallies count
    re-decided cross edges: every inserted cross edge is decided, and the
    decisions include both outcomes."""
    rank, batches = _trace(1)
    for k in (2, 4):
        with ShardedMatching(shards=k, rank=rank, seed=7, transport="inline") as r:
            for batch in batches:
                _apply(r, batch)
            st = r.shard_stats
            assert st["local_updates"] > 0, k
            assert st["cross_updates"] > 0, k
            inserted = sum(s.n_cross for s in r.batch_stats if s.kind == "insert")
            assert st["proposals"] >= inserted > 0, k
            assert st["proposals"] == st["accepts"] + st["rejects"], k
            assert st["accepts"] > 0 and st["rejects"] > 0, k
