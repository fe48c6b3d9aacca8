"""Result types for the static greedy matchers."""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hypergraph.edge import Edge, EdgeId


@dataclass(frozen=True)
class Matched:
    """One matched edge together with its sample space.

    ``samples`` always contains ``edge`` itself (the greedy process marks
    the matched edge not-free and puts it in its own sample, Fig. 1).
    The *price* of the match (§3.1) is ``len(samples)``.
    """

    edge: Edge
    samples: List[Edge]

    @property
    def price(self) -> int:
        return len(self.samples)


@dataclass
class MatchResult:
    """Output of a greedy maximal matching run.

    Attributes
    ----------
    matches:
        The matching augmented with sample spaces, in the order matches
        were made (priority order of the matched edge).
    rounds:
        Number of parallel rounds (1-pass sequential runs report 0).
    priorities:
        The priority (permutation rank) assigned to each input edge id.
    """

    matches: List[Matched] = field(default_factory=list)
    rounds: int = 0
    priorities: Dict[EdgeId, int] = field(default_factory=dict)

    #: The matched input positions in match order, when the matcher
    #: returned its matches by position (:class:`PositionalMatchResult`);
    #: None otherwise.  Not a dataclass field.
    positions = None

    @property
    def matched_edges(self) -> List[Edge]:
        return [m.edge for m in self.matches]

    @property
    def matched_ids(self) -> List[EdgeId]:
        return [m.edge.eid for m in self.matches]

    def sample_of(self, eid: EdgeId) -> Optional[List[Edge]]:
        """Sample space of the match on edge ``eid``, or None."""
        for m in self.matches:
            if m.edge.eid == eid:
                return m.samples
        return None

    def owner_map(self) -> Dict[EdgeId, EdgeId]:
        """Map from every input edge id to the id of its owning match
        (``p(e)`` in the paper's notation).  By Lemma 3.1 the sample spaces
        partition the input edges, so this map is total and well-defined."""
        owner: Dict[EdgeId, EdgeId] = {}
        for m in self.matches:
            for e in m.samples:
                owner[e.eid] = m.edge.eid
        return owner

    def total_sample_size(self) -> int:
        """Sum of sample-space sizes — equals |E| by Lemma 3.1(1)."""
        return sum(len(m.samples) for m in self.matches)

    def canonical(self) -> List[tuple]:
        """A hashable canonical form (for equivalence tests): sorted
        (matched id, sorted sample ids) pairs."""
        return sorted(
            (m.edge.eid, tuple(sorted(e.eid for e in m.samples))) for m in self.matches
        )


class MatchedView(_SequenceABC):
    """Read-only sized view of the singleton-sample matches on
    ``edges[p]`` for each ``p`` in ``positions``, in that order.

    ``len`` is O(1); a ``Matched(edge, [edge])`` is built only when an
    item is read.  Compares equal to a list of the same matches.
    """

    __slots__ = ("_edges", "_positions")

    def __init__(self, edges: Sequence[Edge], positions: np.ndarray) -> None:
        self._edges = edges
        self._positions = positions

    def __len__(self) -> int:
        return int(self._positions.shape[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        e = self._edges[int(self._positions[i])]
        return Matched(edge=e, samples=[e])

    def __iter__(self):
        for e in map(self._edges.__getitem__, self._positions.tolist()):
            yield Matched(edge=e, samples=[e])

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, MatchedView)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"MatchedView({list(self)!r})"


class PositionalMatchResult(MatchResult):
    """A :class:`MatchResult` given by position: the vector matcher's
    output when it does not collect sample spaces (the dynamic level-0
    settle, docs/hotpath.md).

    ``positions`` holds the matched input positions in match order, and
    ``matches`` is a :class:`MatchedView` over them.  ``priorities`` is
    built from the priority column ``pri`` on first read, unless the
    caller already holds the map.  Everything a reader sees equals the
    list-backed result the matcher would otherwise return.
    """

    def __init__(
        self,
        edges: Sequence[Edge],
        positions: np.ndarray,
        rounds: int,
        pri: np.ndarray,
        priorities: Optional[Dict[EdgeId, int]] = None,
    ) -> None:
        self.matches = MatchedView(edges, positions)
        self.rounds = rounds
        self.positions = positions
        self._edges = edges
        self._pri = pri
        self._priorities = priorities

    @property
    def priorities(self) -> Dict[EdgeId, int]:
        if self._priorities is None:
            self._priorities = dict(
                zip((e.eid for e in self._edges), self._pri.tolist())
            )
        return self._priorities


def check_lemma_3_1(edges: Sequence[Edge], result: MatchResult) -> None:
    """Assert the three properties of Lemma 3.1; raises AssertionError.

    (1) sample spaces partition the input edges;
    (2) every sampled edge intersects its matched edge;
    (3) the matched edges form a maximal matching on the input.
    """
    all_ids = {e.eid for e in edges}
    seen: set = set()
    for m in result.matches:
        for e in m.samples:
            assert e.eid in all_ids, f"sampled edge {e.eid} not an input edge"
            assert e.eid not in seen, f"edge {e.eid} in two sample spaces"
            seen.add(e.eid)
            assert m.edge.intersects(e), (
                f"sample {e.eid} does not intersect its match {m.edge.eid}"
            )
    assert seen == all_ids, "sample spaces do not cover all edges"

    used_vertices: set = set()
    for m in result.matches:
        for v in m.edge.vertices:
            assert v not in used_vertices, "matched edges share a vertex"
        used_vertices.update(m.edge.vertices)
    matched_ids = set(result.matched_ids)
    for e in edges:
        if e.eid not in matched_ids:
            assert any(v in used_vertices for v in e.vertices), (
                f"edge {e.eid} is free — matching not maximal"
            )
