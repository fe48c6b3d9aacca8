"""Tests for the public testing utilities (and, through them, another
layer of randomized workout over every algorithm)."""

import numpy as np
import pytest

from repro.baselines import GTStyle, NaiveDynamic, SolomonStyle, StaticRecompute
from repro.core.dynamic_matching import DynamicMatching
from repro.testing import WorkoutResult, drain, random_workout


class TestRandomWorkout:
    def test_runs_and_reports(self):
        result = random_workout(lambda: DynamicMatching(rank=2, seed=0), seed=1,
                                steps=25)
        assert result.steps == 25
        assert result.inserted >= result.deleted

    @pytest.mark.parametrize("seed", range(4))
    def test_paper_algorithm_many_seeds(self, seed):
        random_workout(
            lambda: DynamicMatching(rank=3, seed=seed), seed=seed + 100,
            steps=30, max_rank=3,
        )

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: NaiveDynamic(rank=3), id="naive"),
            pytest.param(lambda: SolomonStyle(rank=3, seed=2), id="solomon"),
            pytest.param(lambda: StaticRecompute(rank=3, seed=2), id="static"),
            pytest.param(lambda: GTStyle(rank=3, seed=2), id="gt"),
        ],
    )
    def test_baselines_survive_workout(self, make):
        random_workout(make, seed=9, steps=25, max_rank=3)

    def test_matched_bias_full(self):
        """All deletes target matches: maximal stress on the settle path."""
        random_workout(
            lambda: DynamicMatching(rank=2, seed=4), seed=5, steps=25,
            matched_bias=1.0,
        )

    def test_detects_broken_algorithm(self):
        """A wrapper that forgets to rematch must be caught."""

        class Broken(DynamicMatching):
            def delete_edges(self, eids):
                # delete honestly but ALSO hide one matched edge
                stats = super().delete_edges(eids)
                if self.structure.matched:
                    victim = next(iter(self.structure.matched))
                    self.structure.matched.discard(victim)  # lie about matching
                return stats

        with pytest.raises(AssertionError):
            random_workout(lambda: Broken(rank=2, seed=0), seed=3, steps=30,
                           check_invariants=False)


class TestDrain:
    def test_drain_empties(self):
        dm = DynamicMatching(rank=2, seed=0)
        from repro.hypergraph.edge import Edge

        dm.insert_edges([Edge(i, (i, i + 1)) for i in range(10)])
        drain(dm)
        assert len(dm) == 0

    def test_drain_empty_is_noop(self):
        drain(DynamicMatching(rank=2, seed=0))
