"""Shared scaffolding for baseline matching algorithms.

Maintains the current hypergraph, the matched-edge set, and the
vertex-cover map ``p(v)``; concrete baselines override the insertion and
matched-deletion hooks.  Cost is charged to a ledger with the same unit
conventions as the main algorithm (an edge touch costs its cardinality),
so work-per-update comparisons across algorithms are apples-to-apples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.arraystore import FlatAdjacency
from repro.hypergraph.edge import Edge, EdgeId, Vertex
from repro.parallel.ledger import Ledger


class BaselineMatching:
    """Base class: graph mirror + matching bookkeeping + batch API."""

    def __init__(self, rank: int = 2, ledger: Optional[Ledger] = None) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.ledger = ledger if ledger is not None else Ledger()
        # Same flat, slot-recycled backend discipline as the main
        # algorithm's ArrayLeveledStructure, so baseline-vs-paper
        # wall-clock comparisons measure algorithms, not containers.
        self.graph = FlatAdjacency()
        self.matched: Set[EdgeId] = set()
        self.cover: Dict[Vertex, EdgeId] = {}  # p(v)
        self._updates = 0

    # ------------------------------------------------------------------ #
    # Queries (shared interface with DynamicMatching)
    # ------------------------------------------------------------------ #
    def matched_ids(self) -> List[EdgeId]:
        return sorted(self.matched)

    def matching_size(self) -> int:
        return len(self.matched)

    def matching(self) -> List[Edge]:
        return [self.graph.edge(eid) for eid in sorted(self.matched)]

    def match_of(self, vertex: Vertex) -> Optional[EdgeId]:
        return self.cover.get(vertex)

    def is_matched(self, eid: EdgeId) -> bool:
        return eid in self.matched

    def __len__(self) -> int:
        return len(self.graph)

    def __contains__(self, eid: EdgeId) -> bool:
        return eid in self.graph

    @property
    def num_updates(self) -> int:
        return self._updates

    def check_invariants(self) -> None:
        assert self.graph.is_maximal_matching(self.matched), "matching not maximal"
        for eid in self.matched:
            for v in self.graph.edge(eid).vertices:
                assert self.cover.get(v) == eid, f"cover[{v}] != {eid}"

    # ------------------------------------------------------------------ #
    # Matching bookkeeping helpers
    # ------------------------------------------------------------------ #
    def _is_free(self, edge: Edge) -> bool:
        self.ledger.charge(work=edge.cardinality, depth=1, tag="baseline_free")
        return all(v not in self.cover for v in edge.vertices)

    def _do_match(self, edge: Edge) -> None:
        self.matched.add(edge.eid)
        for v in edge.vertices:
            self.cover[v] = edge.eid
        self.ledger.charge(work=edge.cardinality, depth=1, tag="baseline_match")

    def _do_unmatch(self, eid: EdgeId) -> Edge:
        edge = self.graph.edge(eid)
        self.matched.discard(eid)
        for v in edge.vertices:
            if self.cover.get(v) == eid:
                del self.cover[v]
        self.ledger.charge(work=edge.cardinality, depth=1, tag="baseline_match")
        return edge

    # ------------------------------------------------------------------ #
    # Batch API
    # ------------------------------------------------------------------ #
    def insert_edges(self, edges: Sequence[Edge]) -> None:
        edges = list(edges)
        for e in edges:
            if e.cardinality > self.rank:
                raise ValueError(f"edge {e.eid} exceeds rank bound {self.rank}")
        self.graph.add_edges(edges)
        self._handle_insert(edges)
        self._updates += len(edges)

    def delete_edges(self, eids: Sequence[EdgeId]) -> None:
        eids = list(eids)
        dead_matched: List[Edge] = []
        for eid in eids:
            if eid in self.matched:
                dead_matched.append(self._do_unmatch(eid))
            self.graph.remove_edge(eid)
            self.ledger.charge(work=1, depth=1, tag="baseline_delete")
        self._handle_matched_deletions(dead_matched)
        self._updates += len(eids)

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _handle_insert(self, edges: List[Edge]) -> None:
        raise NotImplementedError

    def _handle_matched_deletions(self, dead: List[Edge]) -> None:
        raise NotImplementedError
