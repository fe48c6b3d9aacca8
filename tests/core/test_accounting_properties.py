"""Property tests of §5's accounting identities on real runs.

The charging argument rests on conservation laws the tracker must obey on
every run — not just the final bounds:

* every epoch dies exactly once (natural, stolen, or bloated), and on an
  empty-to-empty run no epoch survives;
* total sample mass splits exactly: S_a = S_n + S_i (+ live);
* Lemma 5.6 per settle round: S_a >= 2 * S_d;
* Lemma 5.7's aggregate direction: natural sample mass is a constant
  fraction of induced (S_n > S_i / 3) on empty-to-empty runs.
"""

import numpy as np
import pytest

from repro.core.dynamic_matching import DynamicMatching
from repro.workloads.adversary import (
    FifoAdversary,
    RandomOrderAdversary,
    VertexTargetingAdversary,
)
from repro.workloads.generators import (
    complete_graph_edges,
    erdos_renyi_edges,
    random_hypergraph_edges,
    star_edges,
)
from repro.workloads.streams import insert_then_delete_stream


def _pinned(dm):
    """Pin the epoch log at 0 (register before any event): these tests
    read every epoch ever born, which the tracker otherwise trims once no
    reader needs it."""
    dm.history = dm.tracker.register_reader()
    return dm


def _run(edges, batch, adversary, rank=2, seed=0):
    dm = _pinned(DynamicMatching(rank=rank, seed=seed))
    stream = insert_then_delete_stream(edges, batch, adversary)
    for b in stream:
        if b.kind == "insert":
            dm.insert_edges(list(b.edges))
        else:
            dm.delete_edges(list(b.eids))
    assert len(dm) == 0
    return dm


WORKLOADS = [
    pytest.param(
        lambda: (erdos_renyi_edges(30, 200, np.random.default_rng(1)), 25,
                 RandomOrderAdversary(np.random.default_rng(2)), 2),
        id="er-random",
    ),
    pytest.param(
        lambda: (star_edges(150), 10, FifoAdversary(), 2),
        id="star-fifo",
    ),
    pytest.param(
        lambda: (complete_graph_edges(18), 20,
                 VertexTargetingAdversary(np.random.default_rng(3)), 2),
        id="complete-vertex",
    ),
    pytest.param(
        lambda: (random_hypergraph_edges(18, 250, 3, np.random.default_rng(4)), 30,
                 VertexTargetingAdversary(np.random.default_rng(5)), 3),
        id="hyper-r3",
    ),
]


@pytest.mark.parametrize("make", WORKLOADS)
class TestConservationLaws:
    def test_every_epoch_dies_exactly_once(self, make):
        edges, batch, adv, rank = make()
        dm = _run(edges, batch, adv, rank=rank)
        counts = dm.tracker.counts()
        assert counts["alive"] == 0
        assert counts["natural"] + counts["stolen"] + counts["bloated"] == len(
            dm.tracker.epochs
        )

    def test_sample_mass_splits_exactly(self, make):
        edges, batch, adv, rank = make()
        dm = _run(edges, batch, adv, rank=rank)
        t = dm.tracker
        assert t.total_added_sample() == t.total_sample("natural") + t.total_sample(
            "induced"
        )

    def test_lemma_5_6_every_round(self, make):
        edges, batch, adv, rank = make()
        dm = _run(edges, batch, adv, rank=rank)
        for st in dm.batch_stats:
            prev_bloated = 0
            for rnd in st.settle_rounds:
                s_d = rnd.stolen_sample + prev_bloated
                if s_d > 0:
                    assert rnd.added_sample >= 2 * s_d, (st.batch_index, rnd)
                prev_bloated = rnd.bloated_sample

    def test_lemma_5_7_aggregate_direction(self, make):
        edges, batch, adv, rank = make()
        dm = _run(edges, batch, adv, rank=rank)
        t = dm.tracker
        s_n = t.total_sample("natural")
        s_i = t.total_sample("induced")
        if s_i > 0:
            assert s_n > s_i / 3, (s_n, s_i)

    def test_natural_deaths_match_user_deletions_of_matches(self, make):
        edges, batch, adv, rank = make()
        dm = _run(edges, batch, adv, rank=rank)
        recorded = sum(st.natural_deaths for st in dm.batch_stats)
        assert recorded == dm.tracker.counts()["natural"]


class TestEpochLevelConsistency:
    def test_levels_match_sample_sizes_at_birth(self):
        dm = _pinned(DynamicMatching(rank=2, seed=6))
        dm.insert_edges(star_edges(100))
        dm.delete_edges(dm.matched_ids())
        for ep in dm.tracker.epochs:
            assert 2**ep.level <= max(ep.sample_size, 1) < 2 ** (ep.level + 1)

    def test_batch_indices_monotone(self):
        dm = _pinned(DynamicMatching(rank=2, seed=7))
        edges = erdos_renyi_edges(15, 60, np.random.default_rng(8))
        dm.insert_edges(edges)
        dm.delete_edges([e.eid for e in edges])
        for ep in dm.tracker.epochs:
            assert ep.death_batch is None or ep.death_batch >= ep.birth_batch
