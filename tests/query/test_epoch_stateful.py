"""Hypothesis stateful test: every read bit-matches a truncated oracle.

The machine interleaves random update batches (applied through the
primary and published to the query tier) with reads.  Every read at
epoch ``E`` must bit-match a **dict-backend oracle replay truncated at
batch E** — matched ids, vertex cover, match levels, and live-edge
count, field for field (:func:`repro.query.certify_view`).  The machine
runs across both structure backends, the array backend both at its
default route constant and with every call on the columnar route; the
oracle is always the dict backend, so this doubles as a differential
test of the backends through the query tier.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro import native
from repro.core.dynamic_matching import DynamicMatching
from repro.hypergraph.edge import Edge
from repro.query import EpochNotReady, QueryService, certify_view, oracle_view
from repro.workloads.streams import UpdateBatch

SEED = 1234


class QueryEpochMachine(RuleBasedStateMachine):
    """Interleave batches and certified reads on one configured primary."""

    backend = "array"

    def __init__(self) -> None:
        super().__init__()
        self.algo = DynamicMatching(rank=2, seed=SEED, backend=self.backend)
        self.service = QueryService(self.algo)
        self.stream = []
        self.alive = []
        self.next_eid = 0

    # -- updates ------------------------------------------------------- #
    @initialize()
    def epoch_zero_reads(self) -> None:
        view = self.service.view()
        assert view.epoch == 0
        assert view.matching_size == 0
        with pytest.raises(EpochNotReady):
            self.service.read_at(1)

    @rule(raw=st.lists(
        st.lists(st.integers(0, 11), min_size=2, max_size=2, unique=True),
        min_size=1, max_size=5,
    ))
    def insert_batch(self, raw) -> None:
        edges = []
        for u, v in raw:
            edges.append(Edge(self.next_eid, (u, v)))
            self.alive.append(self.next_eid)
            self.next_eid += 1
        batch = UpdateBatch.insert(edges)
        self.algo.insert_edges(list(batch.edges))
        self.stream.append(batch)
        self.service.publish()

    @rule(picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=4))
    def delete_batch(self, picks) -> None:
        if not self.alive:
            return
        eids = sorted({self.alive[p % len(self.alive)] for p in picks})
        self.alive = [e for e in self.alive if e not in eids]
        batch = UpdateBatch.delete(eids)
        self.algo.delete_edges(list(batch.eids))
        self.stream.append(batch)
        self.service.publish()

    # -- reads --------------------------------------------------------- #
    @rule(back=st.integers(0, 3))
    def read_your_writes(self, back) -> None:
        """read_at(E) for any acked E must serve a view at epoch >= E."""
        want = max(0, self.service.epoch - back)
        view = self.service.read_at(want)
        assert view.epoch >= want
        view.verify_consistent()

    @rule()
    def read_future_epoch_rejected(self) -> None:
        newest = self.service.epoch
        with pytest.raises(EpochNotReady) as exc:
            self.service.read_at(newest + 1)
        assert exc.value.newest == newest
        assert exc.value.requested == newest + 1

    @rule(v=st.integers(0, 11))
    def point_reads_match_view(self, v) -> None:
        view = self.service.view()
        assert self.service.is_matched(v) == view.is_matched(v)
        assert self.service.match_of(v) == view.match_of(v)

    @invariant()
    def current_read_matches_truncated_oracle(self) -> None:
        view = self.service.view()
        assert view.epoch == len(self.stream)
        view.verify_consistent()
        oracle = oracle_view(self.stream, view.epoch, rank=2, seed=SEED)
        certify_view(view, oracle)
        # Aggregates served through the cache match the oracle too.
        assert self.service.matching_size() == oracle.matching_size
        assert self.service.level_stats() == oracle.level_stats()


#: (backend, route constant — None keeps the default ``native.VEC_MIN``)
CONFIGS = [
    pytest.param("array", None, id="array-vectorized"),
    pytest.param("array", 1, id="array-kernels"),
    pytest.param("dict", None, id="dict"),
]


@pytest.mark.parametrize("backend,vec_min", CONFIGS)
def test_epoch_reads_bitmatch_truncated_oracle(backend, vec_min, monkeypatch):
    if vec_min is not None:
        monkeypatch.setattr(native, "VEC_MIN", vec_min)
    machine_cls = type(
        f"QueryEpochMachine_{backend}_{vec_min}",
        (QueryEpochMachine,),
        {"backend": backend},
    )
    run_state_machine_as_test(
        machine_cls,
        settings=settings(
            max_examples=12, stateful_step_count=12, deadline=None
        ),
    )


def test_cache_is_invalidated_on_publish():
    """A cached aggregate from epoch E must not leak into epoch E+1."""
    dm = DynamicMatching(rank=2, seed=SEED)
    svc = QueryService(dm, cache_size=8)
    dm.insert_edges([Edge(0, (0, 1))])
    svc.publish()
    assert svc.matching_size() == 1
    assert svc.matching_size() == 1  # served from cache
    assert svc.stats["cache_hits"] == 1
    dm.delete_edges([0])
    svc.publish()
    assert svc.matching_size() == 0  # fresh epoch, fresh answer
    assert svc.stats["cache_invalidations"] >= 1


def test_lru_cache_evicts_and_counts():
    from repro.query import LRUCache

    cache = LRUCache(maxsize=2)
    cache.put((1, "a", None), 1)
    cache.put((1, "b", None), 2)
    assert cache.get((1, "a", None)) == 1  # refresh a
    cache.put((1, "c", None), 3)  # evicts b
    assert cache.get((1, "b", None)) is None
    assert cache.evictions == 1
    assert cache.hits == 1 and cache.misses == 1
    with pytest.raises(ValueError):
        LRUCache(maxsize=0)
