"""Integration tests for the batch-dynamic matching algorithm (Fig. 2).

The master correctness property: after every batch operation the structure
satisfies Definition 4.1 and the matching is maximal on the current edge
set.  We verify it over hand-built scenarios, randomized scripts against a
plain-hypergraph mirror, hypergraphs of various ranks, and adversarial
streams that force the heavy / randomSettle machinery.
"""

import numpy as np
import pytest

from repro.core.dynamic_matching import DynamicMatching
from repro.core.level_structure import EdgeType
from repro.hypergraph.edge import Edge
from repro.hypergraph.hypergraph import Hypergraph
from repro.workloads.generators import (
    erdos_renyi_edges,
    random_hypergraph_edges,
    star_edges,
)


def assert_consistent(dm: DynamicMatching, mirror: Hypergraph) -> None:
    """Full consistency: invariants + maximality + mirror agreement."""
    dm.check_invariants()
    assert {e.eid for e in dm.structure.all_edges()} == {e.eid for e in mirror}
    assert mirror.is_maximal_matching(dm.matched_ids())


class TestInsertion:
    def test_insert_empty_batch(self):
        dm = DynamicMatching(seed=0)
        stats = dm.insert_edges([])
        assert stats.batch_size == 0
        dm.check_invariants()

    def test_single_edge_matched(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2))])
        assert dm.matched_ids() == [0]
        assert dm.match_of(1) == 0 and dm.match_of(2) == 0

    def test_new_matches_enter_at_level_zero(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(i, (2 * i, 2 * i + 1)) for i in range(5)])
        for eid in dm.matched_ids():
            assert dm.structure.level_of_match(eid) == 0

    def test_insert_into_covered_region_adds_cross(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2))])
        dm.insert_edges([Edge(1, (2, 3))])
        assert dm.edge_type(1) == EdgeType.CROSS
        assert dm.matched_ids() == [0]

    def test_duplicate_in_batch_rejected(self):
        dm = DynamicMatching(seed=0)
        with pytest.raises(ValueError):
            dm.insert_edges([Edge(0, (1, 2)), Edge(0, (3, 4))])

    def test_existing_id_rejected(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2))])
        with pytest.raises(KeyError):
            dm.insert_edges([Edge(0, (5, 6))])

    def test_rank_bound_enforced(self):
        dm = DynamicMatching(rank=2, seed=0)
        with pytest.raises(ValueError):
            dm.insert_edges([Edge(0, (1, 2, 3))])

    def test_updates_counted(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2)), Edge(1, (3, 4))])
        assert dm.num_updates == 2


class TestDeletion:
    def test_delete_unmatched_cross(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2)), Edge(1, (2, 3))])
        dm.delete_edges([1])
        assert 1 not in dm
        assert dm.matched_ids() == [0]
        dm.check_invariants()

    def test_delete_matched_promotes_neighbor(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2)), Edge(1, (2, 3))])
        matched = dm.matched_ids()[0]
        other = 1 - matched
        dm.delete_edges([matched])
        assert dm.matched_ids() == [other]
        dm.check_invariants()

    def test_delete_everything(self):
        dm = DynamicMatching(seed=0)
        edges = [Edge(i, (i, i + 1)) for i in range(10)]
        dm.insert_edges(edges)
        dm.delete_edges([e.eid for e in edges])
        assert len(dm) == 0
        assert dm.matched_ids() == []
        dm.check_invariants()

    def test_delete_absent_rejected(self):
        dm = DynamicMatching(seed=0)
        with pytest.raises(KeyError):
            dm.delete_edges([99])

    def test_duplicate_delete_rejected(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2))])
        with pytest.raises(ValueError):
            dm.delete_edges([0, 0])

    def test_mixed_batch_matched_and_unmatched(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2)), Edge(1, (2, 3)), Edge(2, (3, 4))])
        dm.delete_edges([0, 1, 2])
        assert len(dm) == 0
        dm.check_invariants()

    def test_natural_deaths_recorded(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2))])
        dm.delete_edges([0])
        assert dm.tracker.counts()["natural"] == 1


class TestSampledEdgeDeletion:
    def _with_sampled(self, seed=0):
        """Build a structure containing SAMPLED edges by forcing a settle:
        a dense star whose center match dies while owning many cross edges."""
        dm = DynamicMatching(seed=seed, rank=2)
        edges = star_edges(40)
        dm.insert_edges(edges)
        center_match = dm.matched_ids()[0]
        dm.delete_edges([center_match])
        return dm

    def test_settle_creates_sampled_edges(self):
        dm = self._with_sampled()
        types = {dm.edge_type(e.eid) for e in dm.structure.all_edges()}
        assert EdgeType.SAMPLED in types
        dm.check_invariants()

    @staticmethod
    def _sampled(dm):
        return [
            e.eid
            for e in dm.structure.all_edges()
            if dm.edge_type(e.eid) == EdgeType.SAMPLED
        ]

    def test_delete_sampled_edge_is_lazy(self):
        dm = self._with_sampled()
        sampled = self._sampled(dm)
        owner = dm.structure.owner_of(sampled[0])
        level_before = dm.structure.level_of_match(owner)
        dm.delete_edges([sampled[0]])
        assert dm.structure.level_of_match(owner) == level_before  # level frozen
        dm.check_invariants()

    def test_delete_all_sampled_then_match(self):
        dm = self._with_sampled()
        sampled = self._sampled(dm)
        dm.delete_edges(sampled)
        dm.check_invariants()
        # now delete the match itself
        for eid in list(dm.matched_ids()):
            dm.delete_edges([eid])
        dm.check_invariants()


class TestHeavyPath:
    def test_star_churn_exercises_settling(self):
        """Repeatedly deleting the star's matched edge forces the heavy
        path once the center match accumulates > 4r^2 cross edges."""
        dm = DynamicMatching(seed=3, rank=2)
        dm.insert_edges(star_edges(64))
        rounds = 0
        for _ in range(6):
            m = dm.matched_ids()
            if not m:
                break
            stats = dm.delete_edges(m)
            rounds += stats.num_rounds
            dm.check_invariants()
        assert rounds >= 1, "expected at least one randomSettle round"

    def test_settled_match_level_matches_sample_size(self):
        dm = DynamicMatching(seed=1, rank=2)
        dm.insert_edges(star_edges(64))
        dm.delete_edges(dm.matched_ids())
        for eid in dm.matched_ids():
            level = dm.structure.level_of_match(eid)
            settle = dm.structure.settle_size_of(eid)
            assert settle >= 1
            assert 2**level <= settle < 2 ** (level + 1)

    def test_stolen_and_bloated_counted_as_induced(self):
        dm = DynamicMatching(seed=5, rank=2)
        # dense multigraph-ish instance on few vertices
        edges = erdos_renyi_edges(10, 40, np.random.default_rng(8))
        dm.insert_edges(edges)
        ids = [e.eid for e in edges]
        rng = np.random.default_rng(9)
        rng.shuffle(ids)
        for i in range(0, len(ids), 10):
            dm.delete_edges(ids[i : i + 10])
            dm.check_invariants()
        counts = dm.tracker.counts()
        assert counts["alive"] == 0
        assert counts["natural"] >= 1


class TestRandomScripts:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graph_script(self, seed):
        rng = np.random.default_rng(seed)
        edges = erdos_renyi_edges(25, 120, rng)
        dm = DynamicMatching(seed=seed + 100, rank=2)
        mirror = Hypergraph()
        # interleave inserts and deletes
        pending = list(edges)
        live: list = []
        for step in range(12):
            if pending and (not live or rng.random() < 0.6):
                k = min(len(pending), int(rng.integers(1, 25)))
                batch, pending = pending[:k], pending[k:]
                dm.insert_edges(batch)
                mirror.add_edges(batch)
                live += batch
            else:
                k = min(len(live), int(rng.integers(1, 25)))
                idx = rng.choice(len(live), size=k, replace=False)
                batch_ids = [live[i].eid for i in idx]
                live = [e for e in live if e.eid not in set(batch_ids)]
                dm.delete_edges(batch_ids)
                mirror.remove_edges(batch_ids)
            assert_consistent(dm, mirror)

    @pytest.mark.parametrize("rank", [3, 4, 5])
    def test_hypergraph_script(self, rank):
        rng = np.random.default_rng(rank)
        edges = random_hypergraph_edges(20, 150, rank, rng, uniform=False)
        dm = DynamicMatching(seed=rank, rank=rank)
        mirror = Hypergraph()
        dm.insert_edges(edges)
        mirror.add_edges(edges)
        assert_consistent(dm, mirror)
        ids = [e.eid for e in edges]
        rng.shuffle(ids)
        for i in range(0, len(ids), 30):
            batch = ids[i : i + 30]
            dm.delete_edges(batch)
            mirror.remove_edges(batch)
            assert_consistent(dm, mirror)

    def test_empty_to_empty_many_cycles(self):
        dm = DynamicMatching(seed=17, rank=2)
        for cycle in range(5):
            edges = erdos_renyi_edges(
                15, 60, np.random.default_rng(cycle), start_eid=cycle * 1000
            )
            dm.insert_edges(edges)
            dm.check_invariants()
            dm.delete_edges([e.eid for e in edges])
            dm.check_invariants()
            assert len(dm) == 0


class TestQueries:
    def test_match_of_uncovered_vertex(self):
        dm = DynamicMatching(seed=0)
        assert dm.match_of(42) is None

    def test_contains_and_len(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2))])
        assert 0 in dm and 1 not in dm
        assert len(dm) == 1

    def test_current_graph_mirror(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2)), Edge(1, (2, 3))])
        g = dm.current_graph()
        assert len(g) == 2 and g.rank == 2

    def test_is_matched(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2)), Edge(1, (2, 3))])
        matched = dm.matched_ids()[0]
        assert dm.is_matched(matched)
        assert not dm.is_matched(1 - matched)


class TestBatchStats:
    def test_stats_recorded_per_batch(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2))])
        dm.delete_edges([0])
        assert len(dm.batch_stats) == 2
        assert dm.batch_stats[0].kind == "insert"
        assert dm.batch_stats[1].kind == "delete"
        assert dm.batch_stats[1].work > 0

    def test_work_depth_measured(self):
        dm = DynamicMatching(seed=0)
        stats = dm.insert_edges([Edge(i, (2 * i, 2 * i + 1)) for i in range(20)])
        assert stats.work > 0 and stats.depth > 0
        assert stats.work == dm.ledger.work


class TestAblationParameters:
    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_alpha_variants_stay_correct(self, alpha):
        edges = erdos_renyi_edges(20, 80, np.random.default_rng(alpha))
        dm = DynamicMatching(seed=alpha, rank=2, alpha=alpha)
        mirror = Hypergraph()
        dm.insert_edges(edges)
        mirror.add_edges(edges)
        ids = [e.eid for e in edges]
        np.random.default_rng(0).shuffle(ids)
        for i in range(0, len(ids), 20):
            dm.delete_edges(ids[i : i + 20])
            mirror.remove_edges(ids[i : i + 20])
            assert_consistent(dm, mirror)

    @pytest.mark.parametrize("heavy_factor", [0.0, 1.0, 16.0])
    def test_heavy_factor_variants_stay_correct(self, heavy_factor):
        edges = erdos_renyi_edges(15, 60, np.random.default_rng(7))
        dm = DynamicMatching(seed=7, rank=2, heavy_factor=heavy_factor)
        mirror = Hypergraph()
        dm.insert_edges(edges)
        mirror.add_edges(edges)
        ids = [e.eid for e in edges]
        for i in range(0, len(ids), 15):
            dm.delete_edges(ids[i : i + 15])
            mirror.remove_edges(ids[i : i + 15])
            assert_consistent(dm, mirror)
