"""The leveled matching structure (Definition 4.1, Table 1).

This module is the *data-structure layer* of the dynamic algorithm: it
maintains edge records, vertex records, the matched-edge set ``M``, sample
sets ``S(m)``, cross sets ``C(m)``, vertex covers ``p(v)`` and the
per-vertex per-level cross-edge index ``P(v, l)``.  The *algorithm layer*
(:mod:`repro.core.dynamic_matching`) composes the four structure-editing
operations defined here — ``add_match``, ``remove_match``,
``add_cross_edge``, ``remove_cross_edge`` — into the batch operations of
Fig. 2.

Invariants (Definition 4.1), checked by :meth:`LeveledStructure.check_invariants`:

1. every edge is a cross edge or a sampled edge (matched edges are sampled
   edges that own themselves);
2. every edge is owned by an incident matched edge;
3. every matched edge owning ``s`` sample edges *at settle time* sits on
   level ``floor(log_alpha s)`` (the scheme is lazy: the live sample set
   only shrinks under user deletions and the level does not move);
4. the owner of a cross edge is on the maximum level of the matched edges
   incident on it.

The invariants hold between batch operations; they are deliberately
violated mid-operation (edges pass through the transient ``UNSETTLED``
type while being resettled).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.hypergraph.edge import Edge, EdgeId, Vertex
from repro.parallel.dictionary import BatchSet
from repro.parallel.ledger import Ledger, log2ceil, parallel_for


class EdgeType(Enum):
    """Table 1: TYPE(e)."""

    MATCHED = "matched"
    SAMPLED = "sampled"
    CROSS = "cross"
    UNSETTLED = "unsettled"


#: Integer code of each edge type (code = index): the array backend's
#: type column and the type column of version-3 snapshots.
EDGE_TYPE_CODES = (EdgeType.UNSETTLED, EdgeType.MATCHED, EdgeType.SAMPLED, EdgeType.CROSS)
_TYPE_CODE = {t: i for i, t in enumerate(EDGE_TYPE_CODES)}


class EdgeRecord:
    """Per-edge state: the edge itself, its type and owner, and (for
    matched edges) the match bookkeeping S(m), C(m), level."""

    __slots__ = ("edge", "type", "owner", "samples", "cross", "level", "settle_size")

    def __init__(self, edge: Edge) -> None:
        self.edge = edge
        self.type = EdgeType.UNSETTLED
        self.owner: Optional[EdgeId] = None
        # Matched-only fields:
        self.samples: Optional[BatchSet] = None  # S(m): edge ids
        self.cross: Optional[BatchSet] = None  # C(m): edge ids
        self.level: int = -1  # l(m)
        self.settle_size: int = 0  # |S(m)| at settle time (level basis)

    @property
    def eid(self) -> EdgeId:
        return self.edge.eid

    def clear_match_state(self) -> None:
        self.samples = None
        self.cross = None
        self.level = -1
        self.settle_size = 0

    def __repr__(self) -> str:
        return f"EdgeRecord({self.edge!r}, type={self.type.value}, owner={self.owner})"


class VertexRecord:
    """Per-vertex state: covering match p(v) and the level index P(v, l)."""

    __slots__ = ("p", "P")

    def __init__(self) -> None:
        self.p: Optional[EdgeId] = None
        self.P: Dict[int, BatchSet] = {}


def level_of(sample_size: int, alpha: int) -> int:
    """``floor(log_alpha(sample_size))`` computed exactly in integers.

    ``alpha`` is the level gap — 2 in the paper (§5.2 explains why a
    constant gap, not Θ(r), is essential to the charging argument).
    """
    if sample_size < 1:
        raise ValueError("sample size must be >= 1")
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    lvl = 0
    threshold = alpha
    while threshold <= sample_size:
        lvl += 1
        threshold *= alpha
    return lvl


class LeveledStructure:
    """The leveled matching structure: state + the four edit operations.

    Parameters
    ----------
    rank:
        Upper bound ``r`` on edge cardinality; enters the heavy threshold.
    ledger:
        Cost ledger shared with the algorithm layer.
    alpha:
        Level gap (default 2, per the paper).
    heavy_factor:
        The constant in ``isHeavy``: heavy iff
        ``|C(m)| >= heavy_factor * r^2 * alpha^level``.  Default 4 (paper).
    """

    def __init__(
        self,
        rank: int,
        ledger: Ledger,
        alpha: int = 2,
        heavy_factor: float = 4.0,
    ) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.ledger = ledger
        self.alpha = alpha
        self.heavy_factor = heavy_factor
        self.recs: Dict[EdgeId, EdgeRecord] = {}
        self.verts: Dict[Vertex, VertexRecord] = {}
        self.matched: Set[EdgeId] = set()
        # Fault-injection hook: when set, called with a phase name at the
        # batch-granularity entry points (never charged to the ledger).
        self.phase_hook = None

    # ------------------------------------------------------------------ #
    # Registry
    # ------------------------------------------------------------------ #
    def register(self, edge: Edge) -> EdgeRecord:
        """Create the record for a brand-new edge (type UNSETTLED)."""
        if edge.eid in self.recs:
            raise KeyError(f"edge {edge.eid} already in structure")
        if edge.cardinality > self.rank:
            raise ValueError(
                f"edge {edge.eid} has cardinality {edge.cardinality} > rank bound {self.rank}"
            )
        rec = EdgeRecord(edge)
        self.recs[edge.eid] = rec
        for v in edge.vertices:
            if v not in self.verts:
                self.verts[v] = VertexRecord()
        self.ledger.charge(work=edge.cardinality, depth=1, tag="register")
        return rec

    def unregister(self, eid: EdgeId) -> None:
        """Drop a fully-detached edge record (post user deletion)."""
        rec = self.recs.pop(eid)
        self.ledger.charge(work=rec.edge.cardinality, depth=1, tag="register")

    def rec(self, eid: EdgeId) -> EdgeRecord:
        return self.recs[eid]

    def cover_of(self, v: Vertex) -> Optional[EdgeId]:
        """p(v): the matched edge covering v, or None."""
        vr = self.verts.get(v)
        return vr.p if vr is not None else None

    def is_free_edge(self, edge: Edge) -> bool:
        """True iff no endpoint of ``edge`` is covered by a match."""
        self.ledger.charge(work=edge.cardinality, depth=1, tag="free_check")
        return all(self.cover_of(v) is None for v in edge.vertices)

    # ------------------------------------------------------------------ #
    # isHeavy (Fig. 2)
    # ------------------------------------------------------------------ #
    def is_heavy(self, rec: EdgeRecord) -> bool:
        """|C(m)| >= heavy_factor * r^2 * alpha^level."""
        if rec.cross is None:
            raise ValueError(f"edge {rec.eid} is not matched")
        threshold = self.heavy_factor * (self.rank**2) * (self.alpha**rec.level)
        self.ledger.charge(work=1, depth=1, tag="is_heavy")
        return len(rec.cross) >= threshold

    # ------------------------------------------------------------------ #
    # The four structure edits (Fig. 2, left column)
    # ------------------------------------------------------------------ #
    def add_match(self, edge: Edge, samples: Sequence[Edge]) -> EdgeRecord:
        """addMatch(m, S_e): install a match with its sample edges.

        ``samples`` must contain ``edge`` itself.  Sets the level from the
        sample size (Invariant 3) and points every covered vertex at m.
        """
        rec = self.recs[edge.eid]
        if edge.eid in self.matched:
            raise ValueError(f"edge {edge.eid} is already matched")
        if not any(s.eid == edge.eid for s in samples):
            raise ValueError("a match must belong to its own sample space")
        self.matched.add(edge.eid)
        rec.samples = BatchSet(self.ledger)
        rec.samples.insert_batch([s.eid for s in samples])
        rec.cross = BatchSet(self.ledger)
        rec.settle_size = len(samples)
        rec.level = level_of(len(samples), self.alpha)
        for s in samples:
            srec = self.recs[s.eid]
            srec.type = EdgeType.SAMPLED
            srec.owner = edge.eid
        rec.type = EdgeType.MATCHED
        rec.owner = edge.eid
        for v in edge.vertices:
            self.verts[v].p = edge.eid
        self.ledger.charge(
            work=len(samples) + edge.cardinality,
            depth=log2ceil(max(len(samples), 2)),
            tag="add_match",
        )
        return rec

    def remove_match(self, eid: EdgeId) -> List[Edge]:
        """removeMatch(m): detach a match, returning its owned cross edges.

        Assumes the caller already converted S(m) to cross edges (or, for a
        user deletion, that S(m) is irrelevant).  The returned edges are
        fully unlinked (type UNSETTLED, no owner, no P entries) and ready
        to be rematched or resettled.  Frees m's vertices that still point
        at it (a vertex may already have been claimed by a newer match).
        """
        rec = self.recs[eid]
        if eid not in self.matched:
            raise ValueError(f"edge {eid} is not matched")
        self.matched.discard(eid)
        owned_ids = rec.cross.elements() if rec.cross is not None else []
        out: List[Edge] = []
        # Unlinking the owned cross edges is a parfor: depth is the max
        # branch, not the sum.
        with self.ledger.parallel() as region:
            for ceid in owned_ids:
                with region.branch():
                    crec = self.recs[ceid]
                    for v in crec.edge.vertices:
                        self._level_index_discard(v, rec.level, ceid)
                    crec.type = EdgeType.UNSETTLED
                    crec.owner = None
                    out.append(crec.edge)
                    self.ledger.charge(
                        work=crec.edge.cardinality, depth=1, tag="remove_match"
                    )
        for v in rec.edge.vertices:
            if self.verts[v].p == eid:
                self.verts[v].p = None
        rec.clear_match_state()
        if rec.type == EdgeType.MATCHED:
            rec.type = EdgeType.UNSETTLED
            rec.owner = None
        self.ledger.charge(
            work=rec.edge.cardinality,
            depth=log2ceil(max(len(owned_ids), 2)),
            tag="remove_match",
        )
        return out

    def add_cross_edge(self, edge: Edge) -> None:
        """addCrossEdge(e): attach e to the max-level incident match.

        Requires at least one endpoint covered by a match (guaranteed by
        maximality whenever the algorithm calls this).
        """
        rec = self.recs[edge.eid]
        best: Optional[EdgeRecord] = None
        for v in edge.vertices:
            p = self.verts[v].p
            if p is not None:
                prec = self.recs[p]
                if best is None or prec.level > best.level:
                    best = prec
        if best is None:
            raise ValueError(f"cross edge {edge.eid} has no incident match")
        rec.type = EdgeType.CROSS
        rec.owner = best.eid
        best.cross.insert_one(edge.eid)
        for v in edge.vertices:
            self._level_index_add(v, best.level, edge.eid)
        self.ledger.charge(work=edge.cardinality, depth=1, tag="add_cross_edge")

    def remove_cross_edge(self, edge: Edge) -> None:
        """removeCrossEdge(e): detach a cross edge from owner and indexes."""
        rec = self.recs[edge.eid]
        if rec.type != EdgeType.CROSS:
            raise ValueError(f"edge {edge.eid} is not a cross edge")
        owner_rec = self.recs[rec.owner]
        owner_rec.cross.delete_one(edge.eid)
        for v in edge.vertices:
            self._level_index_discard(v, owner_rec.level, edge.eid)
        rec.type = EdgeType.UNSETTLED
        rec.owner = None
        self.ledger.charge(work=edge.cardinality, depth=1, tag="remove_cross_edge")

    # ------------------------------------------------------------------ #
    # P(v, l) maintenance
    # ------------------------------------------------------------------ #
    def _level_index_add(self, v: Vertex, level: int, eid: EdgeId) -> None:
        vr = self.verts[v]
        bucket = vr.P.get(level)
        if bucket is None:
            bucket = BatchSet(self.ledger)
            vr.P[level] = bucket
        bucket.insert_one(eid)

    def _level_index_discard(self, v: Vertex, level: int, eid: EdgeId) -> None:
        vr = self.verts.get(v)
        if vr is None:
            return
        bucket = vr.P.get(level)
        if bucket is None:
            return
        bucket.delete_one(eid)
        if not bucket:
            del vr.P[level]

    def cross_edges_below(self, v: Vertex, level: int) -> List[EdgeId]:
        """All cross-edge ids in P(v, i) for i in [0, level) — the edges
        adjustCrossEdges must re-own after a settle raises v's match."""
        vr = self.verts.get(v)
        if vr is None:
            return []
        out: List[EdgeId] = []
        for lvl, bucket in vr.P.items():
            if lvl < level:
                out.extend(bucket.elements())
        self.ledger.charge(work=max(len(out), 1), depth=log2ceil(max(len(out), 2)), tag="level_scan")
        return out

    # ------------------------------------------------------------------ #
    # Batch API (shared with ArrayLeveledStructure)
    # ------------------------------------------------------------------ #
    # The algorithm layer talks to either backend through these entry
    # points only.  Here each ``*_batch`` method is ``parallel_for`` over
    # the per-element operation — one ledger frame per branch, the
    # original charging — which makes this class the *oracle* the array
    # backend's batched charges are tested against.
    def __contains__(self, eid: EdgeId) -> bool:
        return eid in self.recs

    def register_batch(self, edges: Sequence[Edge]) -> None:
        if self.phase_hook is not None:
            self.phase_hook("structure.register_batch")
        parallel_for(self.ledger, edges, self.register)

    def unregister_batch(self, eids: Sequence[EdgeId]) -> None:
        if self.phase_hook is not None:
            self.phase_hook("structure.unregister_batch")
        parallel_for(self.ledger, eids, self.unregister)

    def free_flags(self, edges: Sequence[Edge], frame=None) -> List[bool]:
        """Per-edge "all vertices uncovered" flags; ``frame`` (the array
        backend's columnar input) is ignored."""
        return parallel_for(self.ledger, edges, self.is_free_edge)

    def heavy_flags(self, mids: Sequence[EdgeId]) -> List[bool]:
        return parallel_for(self.ledger, mids, lambda mid: self.is_heavy(self.recs[mid]))

    def type_of(self, eid: EdgeId) -> EdgeType:
        return self.recs[eid].type

    def owner_of(self, eid: EdgeId) -> Optional[EdgeId]:
        return self.recs[eid].owner

    def edge_of(self, eid: EdgeId) -> Edge:
        return self.recs[eid].edge

    def level_of_match(self, eid: EdgeId) -> int:
        return self.recs[eid].level

    def settle_size_of(self, eid: EdgeId) -> int:
        return self.recs[eid].settle_size

    def owner_pairs(self) -> Iterable:
        """(edge id, owner id) for every registered edge."""
        return ((eid, rec.owner) for eid, rec in self.recs.items())

    def split_matched(self, eids: Sequence[EdgeId]) -> Tuple[List[EdgeId], List[EdgeId]]:
        """Partition ids into (matched, unmatched), preserving order.
        Raises ``KeyError`` on any absent id before returning; uncharged."""
        types = [self.recs[eid].type for eid in eids]
        matched = [e for e, t in zip(eids, types) if t == EdgeType.MATCHED]
        unmatched = [e for e, t in zip(eids, types) if t != EdgeType.MATCHED]
        return matched, unmatched

    def add_level0_batch(self, edges: Sequence[Edge]) -> None:
        """addMatch(e, {e}) for every freshly matched level-0 edge."""
        parallel_for(self.ledger, edges, lambda e: self.add_match(e, [e]))

    def install_match_batch(self, matches: Sequence) -> List[int]:
        """addMatch(m, S_m) over ``Matched(edge, samples)`` records;
        returns the new level per match."""
        return parallel_for(
            self.ledger, matches, lambda m: self.add_match(m.edge, m.samples).level
        )

    def samples_of(self, mid: EdgeId) -> List[Edge]:
        """S(m) extracted as edges (elements() charge, lookups free)."""
        return [self.recs[sid].edge for sid in self.recs[mid].samples.elements()]

    def samples_of_batch(self, mids: Sequence[EdgeId]) -> List[Edge]:
        """``samples_of`` per match, concatenated."""
        subs = parallel_for(self.ledger, mids, self.samples_of)
        return [e for sub in subs for e in sub]

    def sample_discard_self_batch(self, mids: Sequence[EdgeId]) -> None:
        """Discard each match from its own S(m)."""
        parallel_for(self.ledger, mids, lambda mid: self.recs[mid].samples.delete_one(mid))

    def detach_unmatched(self, eid: EdgeId) -> None:
        """Detach an unmatched deleted edge (cross or sampled)."""
        rec = self.recs[eid]
        if rec.type == EdgeType.CROSS:
            self.remove_cross_edge(rec.edge)
        elif rec.type == EdgeType.SAMPLED:
            # Lazy: leave the owner's level alone, just shrink S.
            self.recs[rec.owner].samples.delete_one(eid)
            rec.type = EdgeType.UNSETTLED
            rec.owner = None
        else:  # pragma: no cover — structure guarantees settled types
            raise AssertionError(f"unsettled edge {eid} in structure")

    def detach_unmatched_batch(self, eids: Sequence[EdgeId]) -> None:
        parallel_for(self.ledger, eids, self.detach_unmatched)

    def add_cross_edge_batch(self, edges: Sequence[Edge]) -> None:
        parallel_for(self.ledger, edges, self.add_cross_edge)

    def remove_cross_edge_batch(self, edges: Sequence[Edge]) -> None:
        parallel_for(self.ledger, edges, self.remove_cross_edge)

    def remove_match_batch(self, eids: Sequence[EdgeId]) -> List[Edge]:
        """``remove_match`` per match; the owned edges, concatenated."""
        subs = parallel_for(self.ledger, eids, self.remove_match)
        return [e for sub in subs for e in sub]

    def adjust_scan_batch(self, new_matches: Sequence[Edge]) -> List[EdgeId]:
        """adjustCrossEdges' scan: for each new match, the cross edges
        below its level at each of its vertices, concatenated in scan
        order."""

        def scan(m_edge: Edge) -> List[EdgeId]:
            level = self.recs[m_edge.eid].level
            out: List[EdgeId] = []
            for v in m_edge.vertices:
                out.extend(self.cross_edges_below(v, level))
            return out

        subs = parallel_for(self.ledger, new_matches, scan)
        return [ceid for sub in subs for ceid in sub]

    # ------------------------------------------------------------------ #
    # Snapshot restore (shared with ArrayLeveledStructure)
    # ------------------------------------------------------------------ #
    def restore_match(
        self,
        eid: EdgeId,
        samples: Sequence[EdgeId],
        cross: Sequence[EdgeId],
        level: int,
        settle_size: int,
        scap: Optional[int] = None,
        ccap: Optional[int] = None,
    ) -> None:
        from repro.parallel.dictionary import BatchSet

        rec = self.recs[eid]
        self.matched.add(eid)
        rec.type = EdgeType.MATCHED
        rec.owner = eid
        rec.samples = BatchSet(self.ledger, samples)
        rec.cross = BatchSet(self.ledger, cross)
        # Capacity is history, not content: the shrink hysteresis means a
        # rebuilt set can sit at a smaller capacity than the original, which
        # would skew future rehash charges.  Snapshots that captured the
        # capacities reinstate them so the copy is behaviorally exact.
        if scap is not None:
            rec.samples._capacity = int(scap)
        if ccap is not None:
            rec.cross._capacity = int(ccap)
        rec.level = level
        rec.settle_size = settle_size
        for v in rec.edge.vertices:
            self.verts[v].p = eid

    def restore_attached(self, eid: EdgeId, etype: EdgeType, owner: Optional[EdgeId]) -> None:
        rec = self.recs[eid]
        if owner is None or owner not in self.matched:
            raise ValueError(f"edge {eid}: owner {owner!r} is not a match")
        rec.owner = owner
        rec.type = etype
        if etype == EdgeType.CROSS:
            owner_rec = self.recs[owner]
            if eid not in owner_rec.cross:
                raise ValueError(f"cross edge {eid} missing from C({owner})")
            for v in rec.edge.vertices:
                self._level_index_add(v, owner_rec.level, eid)
        elif etype == EdgeType.SAMPLED:
            if eid not in self.recs[owner].samples:
                raise ValueError(f"sampled edge {eid} missing from S({owner})")
        else:
            raise ValueError(f"edge {eid} has transient type {etype.value!r}")

    def snapshot_columns(self) -> Dict[str, Dict[str, list]]:
        """The structure as the flat parallel columns of a version-3
        snapshot (see :mod:`repro.core.snapshot`), built from the records.

        Read-only and uncharged.  Sets and buckets are listed in iteration
        order and with their simulated capacities: both are history
        artifacts that feed future behavior (scan order and rehash
        charges) and cannot be rederived from the content alone.
        """
        eid: List[EdgeId] = []
        card: List[int] = []
        etype: List[int] = []
        owner: List[Optional[EdgeId]] = []
        verts: List[Vertex] = []
        m: Dict[str, list] = {
            k: [] for k in ("level", "settle", "scap", "ccap", "slen", "samples", "clen", "cross")
        }
        for rec in self.recs.values():
            edge = rec.edge
            eid.append(edge.eid)
            card.append(edge.cardinality)
            etype.append(_TYPE_CODE[rec.type])
            owner.append(rec.owner)
            verts.extend(edge.vertices)
            if rec.type is EdgeType.MATCHED:
                m["level"].append(rec.level)
                m["settle"].append(rec.settle_size)
                m["scap"].append(rec.samples.capacity)
                m["ccap"].append(rec.cross.capacity)
                m["slen"].append(len(rec.samples))
                m["samples"].extend(rec.samples)
                m["clen"].append(len(rec.cross))
                m["cross"].extend(rec.cross)
        P: Dict[str, list] = {k: [] for k in ("vertex", "level", "cap", "count", "members")}
        for v, vr in self.verts.items():
            for lvl, b in vr.P.items():
                P["vertex"].append(v)
                P["level"].append(lvl)
                P["cap"].append(b.capacity)
                P["count"].append(len(b))
                P["members"].extend(b)
        return {
            "edges": {"eid": eid, "card": card, "type": etype, "owner": owner, "vertices": verts},
            "matches": m,
            "P": P,
        }

    def restore_level_index(self, P: Dict[str, Sequence]) -> None:
        """Overwrite P(v, l) wholesale from the ``P`` columns of
        :meth:`snapshot_columns` (bucket order and capacities included)."""
        from repro.parallel.dictionary import BatchSet

        for vr in self.verts.values():
            vr.P = {}
        members = P["members"]
        off = 0
        for v, lvl, cap, count in zip(P["vertex"], P["level"], P["cap"], P["count"]):
            b = BatchSet(self.ledger, members[off : off + count])
            b._capacity = int(cap)
            self.verts[v].P[int(lvl)] = b
            off += count

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def matched_ids(self) -> List[EdgeId]:
        return sorted(self.matched)

    def matching_edges(self) -> List[Edge]:
        return [self.recs[eid].edge for eid in sorted(self.matched)]

    def all_edges(self) -> List[Edge]:
        return [rec.edge for rec in self.recs.values()]

    def num_edges(self) -> int:
        return len(self.recs)

    # ------------------------------------------------------------------ #
    # Invariant checking (test-only; never charged to the ledger)
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Verify Definition 4.1 plus structural consistency.

        Raises AssertionError with a descriptive message on violation.
        Intended for tests and debugging — O(total structure size).
        """
        # Vertex covers are consistent and matches are pairwise disjoint.
        for v, vr in self.verts.items():
            if vr.p is not None:
                assert vr.p in self.matched, f"p({v})={vr.p} is not matched"
                assert v in self.recs[vr.p].edge.vertices, f"p({v}) not incident on {v}"
        cover_count: Dict[Vertex, int] = {}
        for mid in self.matched:
            mrec = self.recs[mid]
            assert mrec.type == EdgeType.MATCHED, f"match {mid} has type {mrec.type}"
            for v in mrec.edge.vertices:
                cover_count[v] = cover_count.get(v, 0) + 1
                assert cover_count[v] == 1, f"vertex {v} covered by two matches"
                assert self.verts[v].p == mid, f"p({v}) != covering match {mid}"

        sample_owner: Dict[EdgeId, EdgeId] = {}
        for mid in self.matched:
            mrec = self.recs[mid]
            # Invariant 3 (lazy form): level derives from settle-time size,
            # and the live sample set can only have shrunk since.
            assert mrec.level == level_of(mrec.settle_size, self.alpha), (
                f"match {mid}: level {mrec.level} != level_of({mrec.settle_size})"
            )
            assert len(mrec.samples) <= mrec.settle_size, (
                f"match {mid}: sample set grew after settling"
            )
            assert mid in mrec.samples, f"match {mid} missing from own sample space"
            for sid in mrec.samples:
                assert sid not in sample_owner, f"edge {sid} in two sample spaces"
                sample_owner[sid] = mid
                srec = self.recs[sid]
                assert srec.owner == mid, f"sample {sid}: owner {srec.owner} != {mid}"
                assert srec.edge.intersects(mrec.edge), f"sample {sid} not incident on {mid}"
                if sid != mid:
                    assert srec.type == EdgeType.SAMPLED, (
                        f"sample {sid} has type {srec.type}"
                    )

        for eid, rec in self.recs.items():
            # Invariant 1: no unsettled edges between operations.
            assert rec.type != EdgeType.UNSETTLED, f"edge {eid} left unsettled"
            if rec.type == EdgeType.SAMPLED:
                # reverse membership: the owner's S(m) must list this edge
                assert eid in sample_owner and sample_owner[eid] == rec.owner, (
                    f"sampled edge {eid} not in S({rec.owner})"
                )
            # Invariant 2: owner is an incident match.
            assert rec.owner is not None, f"edge {eid} has no owner"
            assert rec.owner in self.matched, f"edge {eid} owner {rec.owner} not matched"
            assert rec.edge.intersects(self.recs[rec.owner].edge) or rec.owner == eid, (
                f"edge {eid} not incident on its owner {rec.owner}"
            )
            if rec.type == EdgeType.CROSS:
                owner_rec = self.recs[rec.owner]
                assert eid in owner_rec.cross, f"cross {eid} missing from C({rec.owner})"
                # Invariant 4: owner on the max incident level.
                max_level = max(
                    (
                        self.recs[self.verts[v].p].level
                        for v in rec.edge.vertices
                        if self.verts[v].p is not None
                    ),
                    default=-1,
                )
                assert max_level >= 0, f"cross edge {eid} incident on no match"
                assert owner_rec.level == max_level, (
                    f"cross {eid}: owner level {owner_rec.level} != max incident {max_level}"
                )
                # P(v, l) completeness.
                for v in rec.edge.vertices:
                    bucket = self.verts[v].P.get(owner_rec.level)
                    assert bucket is not None and eid in bucket, (
                        f"cross {eid} missing from P({v}, {owner_rec.level})"
                    )

        # P(v, l) soundness: no stale entries.
        for v, vr in self.verts.items():
            for lvl, bucket in vr.P.items():
                for eid in bucket:
                    rec = self.recs.get(eid)
                    assert rec is not None, f"P({v},{lvl}) holds deleted edge {eid}"
                    assert rec.type == EdgeType.CROSS, (
                        f"P({v},{lvl}) holds non-cross edge {eid}"
                    )
                    owner_rec = self.recs[rec.owner]
                    assert owner_rec.level == lvl, (
                        f"P({v},{lvl}) holds edge {eid} owned at level {owner_rec.level}"
                    )
                    assert v in rec.edge.vertices, f"P({v},{lvl}) holds non-incident {eid}"

        # C(m) soundness.
        for mid in self.matched:
            for ceid in self.recs[mid].cross:
                crec = self.recs.get(ceid)
                assert crec is not None, f"C({mid}) holds deleted edge {ceid}"
                assert crec.type == EdgeType.CROSS and crec.owner == mid, (
                    f"C({mid}) holds edge {ceid} with type {crec.type}, owner {crec.owner}"
                )
