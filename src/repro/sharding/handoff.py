"""Two-phase cross-shard handoff: propose, then accept/reject.

A cross-shard edge cannot be settled by any single shard — its endpoints
live in two or more local matchings.  The router resolves the full live
cross-edge set after every batch with a deterministic two-phase protocol:

**Phase 1 — propose.**  Each cross edge is owned by its lowest-numbered
endpoint shard (``owner_shard``).  The owner *proposes* the edge iff every
endpoint it hosts is free of the owner's local matching.  An edge whose
owner-side endpoint is already covered is rejected immediately, with that
covering match as its maximality witness.  Peers report, for each
proposed edge, the local match (if any) covering each of their endpoints.

**Phase 2 — decide.**  Proposals are decided in ascending edge id with a
vertex reservation table: a proposal is *accepted* iff no endpoint is
covered by any shard's local matching and no endpoint was reserved by an
earlier accepted proposal.  A rejected proposal records its blocker — a
local match or an earlier accepted cross edge — as its witness.

Because phase 2 is a sequential greedy over a deterministic order with
full freeness information, the merged matching (union of shard-local
matchings and accepted cross edges) is a **maximal matching of the whole
graph**: shard-local edges are maximal within their shard, and every
unmatched cross edge holds a witness that is itself matched.  The
resolution is a pure function of ``(live cross edges, per-vertex cover)``
— no history — which is what makes coordinated recovery trivial: recover
the shards, re-run the handoff, and the cross matching is reproduced
exactly.

The router keeps an :class:`EndpointIndex` beside its cross registry, so
neither phase hashes a vertex: an endpoint's shard is fixed while any of
its cross edges is live, and the index stores it once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.hypergraph.edge import Edge, EdgeId, Vertex
from repro.sharding.partition import shard_of_vertex


@dataclass
class HandoffResult:
    """The outcome of one cross-shard resolution round.

    ``matched`` is sorted ascending (decision order); ``witness`` maps
    every *unmatched* live cross edge to a matched edge id blocking it
    (local or cross) — together they extend a merged matching certificate.
    """

    matched: List[EdgeId] = field(default_factory=list)
    witness: Dict[EdgeId, EdgeId] = field(default_factory=dict)
    proposals: int = 0
    accepts: int = 0
    rejects_local: int = 0  # blocked by a shard-local match
    rejects_cross: int = 0  # blocked by an earlier accepted cross edge


class EndpointIndex:
    """Every endpoint of a live cross edge → (live cross edges using it,
    its shard).

    The pair is packed into one int per vertex, ``count * k + shard``, so
    the values stay small ints for any vertex id (negative, or beyond
    64 bits).  The router updates the index as cross edges are inserted
    and deleted and rebuilds it from its cross registry on recovery.
    """

    __slots__ = ("k", "_packed")

    def __init__(self, k: int, edges: Iterable[Edge] = ()) -> None:
        self.k = k
        self._packed: Dict[Vertex, int] = {}
        for edge in edges:
            self.add(edge)

    def add(self, edge: Edge) -> None:
        packed, k = self._packed, self.k
        for v in edge.vertices:
            old = packed.get(v)
            packed[v] = k + (shard_of_vertex(v, k) if old is None else old)

    def remove(self, edge: Edge) -> None:
        packed, k = self._packed, self.k
        for v in edge.vertices:
            left = packed[v] - k
            if left < k:  # that was v's last live cross edge
                del packed[v]
            else:
                packed[v] = left

    def __contains__(self, v: Vertex) -> bool:
        return v in self._packed

    def __len__(self) -> int:
        return len(self._packed)

    def entries(self) -> Dict[Vertex, Tuple[int, int]]:
        """Unpacked view, ``{v: (live cross edges, shard)}``."""
        k = self.k
        return {v: divmod(value, k) for v, value in self._packed.items()}

    @staticmethod
    def recount(edges: Iterable[Edge], k: int) -> Dict[Vertex, Tuple[int, int]]:
        """What :meth:`entries` must equal, counted afresh from ``edges``."""
        uses = Counter(v for edge in edges for v in edge.vertices)
        return {v: (n, shard_of_vertex(v, k)) for v, n in uses.items()}


def proposal_vertices(index: EndpointIndex) -> Dict[int, List[Vertex]]:
    """Phase-1 query plan: for each shard, the distinct endpoint vertices
    of the live cross edges it hosts (in no particular order).

    One pass over the index; the lists together hold every indexed
    vertex exactly once.  The router sends one ``cover_of_many`` request
    per listed shard — the freeness report both phases consume.
    """
    k = index.k
    parts: List[List[Vertex]] = [[] for _ in range(k)]
    append = [part.append for part in parts]
    for v, value in index._packed.items():
        append[value % k](v)
    return {s: part for s, part in enumerate(parts) if part}


def resolve(
    cross: Mapping[EdgeId, Edge],
    cover: Mapping[Vertex, EdgeId],
    index: EndpointIndex,
) -> HandoffResult:
    """Run both phases over the live cross-edge set.

    ``cross`` maps every live cross edge's id to the edge and ``index``
    is the endpoint index of exactly those edges.  ``cover`` is the
    merged phase-1 freeness report: vertex → the id of the shard-local
    match covering it; a free vertex is absent (or maps to ``None``).
    Fully deterministic: edges are processed in ascending ``eid``.
    """
    result = HandoffResult()
    matched, witness = result.matched, result.witness
    reserved: Dict[Vertex, EdgeId] = {}
    packed, k = index._packed, index.k
    shared = 2 * k  # packed value of an endpoint of two or more cross edges
    proposals = rejects_local = rejects_cross = 0

    for eid in sorted(cross):
        vertices = cross[eid].vertices

        # Phase 1: the owner proposes only if its own endpoints are free
        # of its local matching.  Only a covered endpoint can block, so
        # the owner is looked up only when the edge has one.
        owner_block: Optional[EdgeId] = None
        for v in vertices:
            if cover.get(v) is not None:
                owner = min([packed[u] % k for u in vertices])
                for u in vertices:
                    local = cover.get(u)
                    if local is not None and packed[u] % k == owner:
                        owner_block = local
                        break
                break
        if owner_block is not None:
            witness[eid] = owner_block
            rejects_local += 1
            continue
        proposals += 1

        # Phase 2: peers accept/reject against their local matchings and
        # the reservations made by earlier accepted proposals.
        blocker: Optional[EdgeId] = None
        blocked_by_cross = False
        for v in vertices:
            local = cover.get(v)
            if local is not None:
                blocker = local
                break
            prior = reserved.get(v)
            if prior is not None:
                blocker = prior
                blocked_by_cross = True
                break
        if blocker is None:
            matched.append(eid)
            # A reservation can only block a later edge through a vertex
            # that another live cross edge shares, so only those are
            # reserved.  This relies on exact index counts and keeps the
            # router's largest per-batch temporary small.
            for v in vertices:
                if packed[v] >= shared:
                    reserved[v] = eid
        else:
            witness[eid] = blocker
            if blocked_by_cross:
                rejects_cross += 1
            else:
                rejects_local += 1

    result.proposals = proposals
    result.accepts = len(matched)
    result.rejects_local = rejects_local
    result.rejects_cross = rejects_cross
    return result
