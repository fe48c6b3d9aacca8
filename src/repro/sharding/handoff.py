"""Incremental cross-shard handoff: re-decide only what a batch touches.

A cross-shard edge cannot be settled by any single shard: its endpoints
live in two or more local matchings.  The cross matching is defined as a
pure function of ``(live cross edges, merged local cover)``:

    a live cross edge is **matched** iff none of its endpoints is
    covered by a shard's local matching and no cross edge with a lower
    id sharing one of its endpoints is matched.

That is the greedy maximal matching, in ascending edge id, over the
cross edges whose endpoints are all locally free; it is unique, so any
algorithm that maintains it reproduces the full resolve bit for bit.

State lives where the vertices live:

* **Shards** keep a :class:`Frontier`: each *frontier vertex* they own
  (an endpoint of a live cross edge) with its incident live cross edge
  ids.  After every apply a shard reports a *frontier report*
  ``{v: (local cover or None, incident eids)}`` for the frontier
  vertices its epoch tracker saw born into or dying out of a local
  match since the last apply (O(local matching changes)), plus the newly
  registered endpoints that are covered or shared.  A free endpoint of a
  single cross edge is the default and is left out.
* **The router** keeps a :class:`CrossState`: the covered frontier
  vertices (``cov``), the endpoints shared by two or more live cross
  edges (``multi``) and the unmatched live cross edges (``unmatched``).

:func:`resolve` folds one batch into the state and re-decides, in
ascending edge id, only the inserted edges, the edges at vertices whose
covered-ness changed, and the higher-id neighbours of any edge whose
status flips (the *cascade*).  Witnesses are not stored: :func:`derive`
recomputes them from the state with the two-phase rule (the owner, the
lowest endpoint shard, rejects on its own covered endpoints first; then
the first endpoint covered locally or by a lower-id matched cross edge)
whenever a certificate is asked for.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.hypergraph.edge import Edge, EdgeId, Vertex
from repro.sharding.partition import shard_of_vertex

#: One frontier report entry: the vertex's local cover (None when free)
#: and its incident live cross edge ids — an id for one, a list for more.
ReportEntry = Tuple[Optional[EdgeId], object]


@dataclass
class HandoffResult:
    """The cross matching with its certificate, as a full two-phase pass
    over the live cross edges would produce it.

    ``matched`` is sorted ascending (decision order); ``witness`` maps
    every *unmatched* live cross edge to a matched edge id blocking it
    (local or cross) — together they extend a merged matching
    certificate.  ``proposals`` counts the edges whose owner-side
    endpoints are free; the rejects split by blocker kind.
    """

    matched: List[EdgeId] = field(default_factory=list)
    witness: Dict[EdgeId, EdgeId] = field(default_factory=dict)
    proposals: int = 0
    accepts: int = 0
    rejects_local: int = 0  # blocked by a shard-local match
    rejects_cross: int = 0  # blocked by an earlier accepted cross edge


class Decisions(NamedTuple):
    """What one :func:`resolve` call re-decided."""

    decided: int  # edges re-decided
    accepts: int  # re-decided edges now matched
    cascade: int  # longest chain of status flips, each caused by the last


def _ids(eids) -> Sequence[EdgeId]:
    return eids if isinstance(eids, list) else (eids,)


class Frontier:
    """A shard's half of the handoff state: each frontier vertex it owns
    → its incident live cross edge ids (an id for one edge, a list for
    several).

    The router sends registrations as flat parallel lists: endpoint
    ``xv[i]`` of cross edge ``xe[i]``.
    """

    __slots__ = ("adj",)

    def __init__(self) -> None:
        self.adj: Dict[Vertex, object] = {}

    def register(self, xv: Sequence[Vertex], xe: Sequence[EdgeId]) -> None:
        adj = self.adj
        for v, e in zip(xv, xe):
            old = adj.get(v)
            if old is None:
                adj[v] = e
            elif isinstance(old, list):
                old.append(e)
            else:
                adj[v] = [old, e]

    def unregister(self, xv: Sequence[Vertex], xe: Sequence[EdgeId]) -> None:
        adj = self.adj
        for v, e in zip(xv, xe):
            old = adj[v]
            if not isinstance(old, list):
                del adj[v]
            else:
                old.remove(e)
                if len(old) == 1:
                    adj[v] = old[0]

    def entry(self, v: Vertex, cover: Optional[EdgeId]) -> ReportEntry:
        """``v``'s report entry (a copy: the router keeps it)."""
        eids = self.adj[v]
        return cover, (list(eids) if isinstance(eids, list) else eids)

    def report(
        self,
        touched: Iterable[Vertex],
        registered: Iterable[Vertex],
        cover_of: Callable[[Vertex], Optional[EdgeId]],
    ) -> Dict[Vertex, ReportEntry]:
        """Entries for every ``touched`` frontier vertex (its local cover
        may have changed) and every ``registered`` one that is covered
        or shared."""
        adj = self.adj
        out: Dict[Vertex, ReportEntry] = {}
        for v in touched:
            if v in adj:
                out[v] = self.entry(v, cover_of(v))
        for v in registered:
            if v not in out:
                m = cover_of(v)
                eids = adj[v]
                if isinstance(eids, list):
                    out[v] = (m, list(eids))
                elif m is not None:
                    out[v] = (m, eids)
        return out


class CrossState:
    """The router's half of the handoff state.

    ``cross`` is the router's live cross-edge registry (shared, not
    copied); ``cov`` maps every covered frontier vertex to its local
    match; ``multi`` maps every endpoint of two or more live cross edges
    to their ids; ``unmatched`` holds the unmatched live cross edges —
    a live cross edge is matched iff it is not in it.
    """

    __slots__ = ("cross", "cov", "multi", "unmatched")

    def __init__(self, cross: Mapping[EdgeId, Edge]) -> None:
        self.cross = cross
        self.cov: Dict[Vertex, EdgeId] = {}
        self.multi: Dict[Vertex, List[EdgeId]] = {}
        self.unmatched: Set[EdgeId] = set()

    def matched(self) -> List[EdgeId]:
        """The matched live cross edges, ascending."""
        unmatched = self.unmatched
        return sorted(e for e in self.cross if e not in unmatched)

    def num_matched(self) -> int:
        return len(self.cross) - len(self.unmatched)

    def matchable(self, eid: EdgeId) -> bool:
        """The status rule: no endpoint covered locally, and no lower-id
        neighbour matched."""
        cov, multi, unmatched = self.cov, self.multi, self.unmatched
        for v in self.cross[eid].vertices:
            if v in cov:
                return False
            for f in multi.get(v, ()):
                if f < eid and f not in unmatched:
                    return False
        return True


def proposal_vertices(
    edges: Iterable[Edge], k: int
) -> List[Tuple[List[Vertex], List[EdgeId]]]:
    """Per-shard registration plan: for each shard, the flat parallel
    lists ``(xv, xe)`` of the endpoints it owns of ``edges`` and the
    cross edge each belongs to."""
    plan: List[Tuple[List[Vertex], List[EdgeId]]] = [([], []) for _ in range(k)]
    for edge in edges:
        eid = edge.eid
        for v in edge.vertices:
            xv, xe = plan[shard_of_vertex(v, k)]
            xv.append(v)
            xe.append(eid)
    return plan


def resolve(
    state: CrossState,
    inserted: Sequence[Edge],
    deleted: Sequence[Edge],
    report: Mapping[Vertex, ReportEntry],
) -> Decisions:
    """Fold one batch into ``state`` and re-decide what it touches.

    ``state.cross`` already holds the batch's ``inserted`` cross edges
    and no longer holds its ``deleted`` ones; ``report`` is the merged
    frontier report of every shard.  Deletions are applied first,
    against the pre-batch ``multi``; then the report is folded into
    ``cov`` and ``multi``; then a min-heap of edge ids is drained in
    ascending order.  A flip pushes the flipped edge's higher-id
    neighbours, which are the only edges whose status reads it.
    """
    cross, cov, multi, unmatched = state.cross, state.cov, state.multi, state.unmatched
    heap: List[EdgeId] = []
    push = heap.append

    # Deletions.  A deleted matched edge may have been blocking higher-id
    # neighbours; a deleted unmatched one blocked nothing.  An endpoint
    # outside ``multi`` was used by the deleted edge alone and leaves the
    # frontier.
    gone = {edge.eid for edge in deleted}
    for edge in deleted:
        e = edge.eid
        was_matched = e not in unmatched
        unmatched.discard(e)
        for v in edge.vertices:
            eids = multi.get(v)
            if eids is None:
                cov.pop(v, None)
                continue
            if was_matched:
                for f in eids:
                    if f > e and f not in gone:
                        push(f)
            eids.remove(e)
            if len(eids) == 1:
                del multi[v]

    # Insertions start unmatched, so deciding one matched is a flip.
    for edge in inserted:
        unmatched.add(edge.eid)
        push(edge.eid)

    # The report: the status rule reads only whether a vertex is
    # covered, so only a change of covered-ness re-decides its edges.
    for v, (m, eids) in report.items():
        if isinstance(eids, list):
            multi[v] = eids
        else:
            multi.pop(v, None)
        if m is None:
            flipped = cov.pop(v, None) is not None
        else:
            flipped = v not in cov
            cov[v] = m
        if flipped:
            heap.extend(_ids(eids))

    # Ascending drain.  Every push names a higher id than the edge being
    # decided, so all lower ids are final when an edge is popped and
    # repeated pushes of one id pop back to back.
    heapq.heapify(heap)
    chain: Dict[EdgeId, int] = {}  # pushed edge -> length of its causing chain
    pop, hpush = heapq.heappop, heapq.heappush
    decided = accepts = cascade = 0
    last: Optional[EdgeId] = None
    while heap:
        e = pop(heap)
        if e == last:
            continue
        last = e
        decided += 1
        free = state.matchable(e)
        if free:
            accepts += 1
        if free == (e in unmatched):  # status flips
            if free:
                unmatched.discard(e)
            else:
                unmatched.add(e)
            depth = chain.get(e, 0) + 1
            if depth > cascade:
                cascade = depth
            for v in cross[e].vertices:
                eids = multi.get(v)
                if eids is not None:
                    for f in eids:
                        if f > e:
                            hpush(heap, f)
                            if chain.get(f, 0) < depth:
                                chain[f] = depth
    return Decisions(decided, accepts, cascade)


def derive(state: CrossState, k: int) -> HandoffResult:
    """The cross matching with a witness for every unmatched live cross
    edge, recomputed from ``state`` with the two-phase rule.

    An unmatched edge that no endpoint blocks gets no witness, so a
    caller can check ``set(witness) == unmatched``.
    """
    cross, cov, multi, unmatched = state.cross, state.cov, state.multi, state.unmatched
    result = HandoffResult(matched=state.matched())
    witness = result.witness
    owner_rejects = rejects_local = rejects_cross = 0
    for eid in sorted(unmatched):
        vertices = cross[eid].vertices
        # Phase 1: the owner (lowest endpoint shard) rejects the edge on
        # its own first covered endpoint.
        if any(v in cov for v in vertices):
            shards = [shard_of_vertex(v, k) for v in vertices]
            owner = min(shards)
            blocker = next(
                (cov[v] for v, s in zip(vertices, shards) if s == owner and v in cov),
                None,
            )
            if blocker is not None:
                witness[eid] = blocker
                owner_rejects += 1
                continue
        # Phase 2: the first endpoint covered locally or by a lower-id
        # matched cross edge.
        for v in vertices:
            if v in cov:
                witness[eid] = cov[v]
                rejects_local += 1
                break
            prior = next(
                (f for f in multi.get(v, ()) if f < eid and f not in unmatched),
                None,
            )
            if prior is not None:
                witness[eid] = prior
                rejects_cross += 1
                break
    result.accepts = len(result.matched)
    result.proposals = len(cross) - owner_rejects
    result.rejects_local = owner_rejects + rejects_local
    result.rejects_cross = rejects_cross
    return result
