"""EpochView: an immutable per-epoch snapshot of the matching state.

A view is published at a batch boundary (the write path is quiescent)
and covers exactly the columns reads need — the matched edge-id set, the
vertex → matched-edge cover, and the per-match level — rather than a
full snapshot-v2 state dump.

**Publish must be O(1) on the write path, not O(batch).**  Even a
per-item Python loop over the batch delta costs ~2.5µs/item, which blows
the query tier's ≤5% write-overhead budget against the vectorized apply
path (benchmarks/bench_queries.py asserts the budget).  The fix is that
the write path already *keeps* the event stream the query tier needs:
the epoch tracker's columnar birth log (each record carrying the settle
level and the matched edge's vertices) and death log (each record
carrying the birth's sequence number, edge id and vertices), addressed
by absolute sequence numbers.  The matching, cover and level columns at
any batch boundary are a pure function of the two log prefixes, so:

* :meth:`EpochLogIndex.publish` — the writer side — just pins the two
  log positions and the live-edge count into a stub view: O(1), no
  per-item work at all;
* the **first reader** of an epoch materializes its delta layer by
  replaying the log window between cursors (under the index lock, each
  epoch built exactly once, in order), so capture cost lands on reader
  threads and only for epochs actually read.

Materialized views are **overlay chains**: each built epoch prepends one
small delta layer (new values plus tombstones) to an immutable tuple of
layers, and the chain is collapsed into a single base dict (one C-speed
``dict`` copy) every :data:`COLLAPSE_EVERY` builds, so point reads stay
O(chain depth) and the amortized copy cost is
``O(matching / COLLAPSE_EVERY)`` per epoch — on reader time.

Layers are frozen once attached — the builder writes only into dicts no
view references yet — so a built view can be handed to any number of
reader threads without locks.  Each view carries a ``fingerprint``
derived from order-independent XOR accumulators over its contents,
maintained incrementally by the builder; readers re-derive it from
scratch (:meth:`EpochView.verify_consistent`) to prove a returned view
never mixes two epochs (the torn-read check of the concurrency
harness).

Sharded capture stays eager: it fans out one ``query_snapshot`` request
per shard, then **reconciles the per-shard epoch vector** — every shard
must report the same applied-batch count before a cross-shard aggregate
is published.  A skewed vector raises :class:`EpochSkew` instead of
publishing a view that mixes shard states from different batches.
"""

from __future__ import annotations

import threading
from collections import deque
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.hypergraph.edge import EdgeId, Vertex

#: Level recorded for cross-shard matches (they live in the router's
#: handoff registry, outside any shard's leveled structure).
CROSS_LEVEL = -1

#: Collapse an overlay chain into one base dict after this many layers.
#: Bounds point-read cost at ``COLLAPSE_EVERY`` dict probes and amortizes
#: the C-speed base copy to ``O(matching / COLLAPSE_EVERY)`` per epoch.
COLLAPSE_EVERY = 16


class _Tomb:
    """Deletion marker inside an overlay layer."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<tombstone>"


TOMB = _Tomb()


class EpochSkew(RuntimeError):
    """Per-shard epochs disagree; a merged view would mix batches."""


def _chain_get(chain: Tuple[Mapping, ...], key, _miss=object()):
    """Newest-first overlay lookup; tombstones read as absent."""
    for layer in chain:
        v = layer.get(key, _miss)
        if v is not _miss:
            return None if v is TOMB else v
    return None


def _materialize(chain: Tuple[Mapping, ...]) -> Dict:
    """Flatten an overlay chain (oldest layer first) into one dict."""
    out: Dict = {}
    for layer in reversed(chain):
        out.update(layer)
    return {k: v for k, v in out.items() if v is not TOMB}


def _acc(mapping: Mapping) -> int:
    """Order-independent XOR accumulator over a column's items.  The
    builder maintains the same quantity incrementally (xor is its own
    inverse), so readers can recompute it from view contents alone."""
    acc = 0
    for item in mapping.items():
        acc ^= hash(item)
    return acc


def _fingerprint(
    epoch: int,
    epoch_vector: Tuple[int, ...],
    matching_size: int,
    live_edges: int,
    cover_acc: int,
    levels_acc: int,
) -> int:
    """Deterministic content hash for torn-read detection (per-process;
    never persisted)."""
    return hash((epoch, epoch_vector, matching_size, live_edges,
                 cover_acc, levels_acc))


class EpochView:
    """One published epoch: every read answers from exactly one of these.

    ``epoch`` is the number of update batches the view reflects (0 = the
    pristine structure).  ``epoch_vector`` is the per-shard applied-batch
    vector it was reconciled from — ``(epoch,)`` for unsharded capture.

    A view is born either **eager** (:meth:`build` — full columns in
    hand) or **lazy** (:meth:`EpochLogIndex.publish` — only the log
    cursors pinned).  A lazy view materializes on first read access via
    its index (:meth:`_ensure`); ``_attach`` sets ``_lev_chain`` last,
    so readers double-check that one field lock-free.

    Point reads walk the overlay chain directly (O(chain depth) dict
    probes); the full ``matched`` / ``cover`` / ``levels`` columns
    materialize lazily on first access and are cached, so only readers
    that need whole-column views (certification, torn-read verification)
    pay the O(matching) flatten.
    """

    __slots__ = (
        "epoch", "epoch_vector", "live_edges",
        "_index", "_b", "_d", "_fp",
        "_msize", "_counts", "_cov_chain", "_lev_chain",
        "_matched", "_cover", "_levels",
    )

    def __init__(
        self,
        epoch: int,
        epoch_vector: Tuple[int, ...],
        live_edges: int,
    ) -> None:
        self.epoch = epoch
        self.epoch_vector = epoch_vector
        self.live_edges = live_edges
        self._index: Optional["EpochLogIndex"] = None
        self._b = 0
        self._d = 0
        self._fp: Optional[int] = None
        self._msize = 0
        self._counts: Optional[Dict[int, int]] = None
        self._cov_chain: Optional[Tuple[Mapping, ...]] = None
        self._lev_chain: Optional[Tuple[Mapping, ...]] = None
        self._matched: Optional[frozenset] = None
        self._cover: Optional[Mapping] = None
        self._levels: Optional[Mapping] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        epoch: int,
        matched,
        cover: Dict[Vertex, EdgeId],
        levels: Dict[EdgeId, int],
        live_edges: int,
        epoch_vector: Optional[Tuple[int, ...]] = None,
    ) -> "EpochView":
        """Eager single-layer view from full columns — the one-shot
        capture used by oracle replays and sharded fan-out merges."""
        matched = frozenset(matched)
        vector = tuple(epoch_vector) if epoch_vector is not None else (epoch,)
        cov = dict(cover)
        lev = dict(levels)
        counts: Dict[int, int] = {}
        for lvl in lev.values():
            counts[lvl] = counts.get(lvl, 0) + 1
        fp = _fingerprint(epoch, vector, len(matched), live_edges,
                          _acc(cov), _acc(lev))
        view = cls(epoch, vector, live_edges)
        view._attach(fp, len(matched), counts, (cov,), (lev,))
        view._matched = matched
        view._cover = MappingProxyType(cov)
        view._levels = MappingProxyType(lev)
        return view

    @classmethod
    def _lazy(
        cls,
        index: "EpochLogIndex",
        epoch: int,
        live_edges: int,
        b: int,
        d: int,
    ) -> "EpochView":
        """Stub view pinning log cursors; materialized by ``index`` on
        first read access."""
        view = cls(epoch, (epoch,), live_edges)
        view._index = index
        view._b = b
        view._d = d
        return view

    def _attach(
        self,
        fp: int,
        msize: int,
        counts: Dict[int, int],
        cov_chain: Tuple[Mapping, ...],
        lev_chain: Tuple[Mapping, ...],
    ) -> None:
        self._fp = fp
        self._msize = msize
        self._counts = counts
        self._cov_chain = cov_chain
        # Readiness flag for lock-free double-checking: must be set
        # last — a reader that sees it non-None sees everything above
        # (the GIL orders the attribute writes).
        self._lev_chain = lev_chain

    def _ensure(self) -> None:
        if self._lev_chain is None:
            self._index._build_to(self)

    # ------------------------------------------------------------------ #
    # Whole columns (lazy; cached; immutable)
    # ------------------------------------------------------------------ #
    @property
    def matched(self) -> frozenset:
        m = self._matched
        if m is None:
            m = frozenset(self.levels)
            self._matched = m
        return m

    @property
    def cover(self) -> Mapping[Vertex, EdgeId]:
        c = self._cover
        if c is None:
            self._ensure()
            c = MappingProxyType(_materialize(self._cov_chain))
            self._cover = c
        return c

    @property
    def levels(self) -> Mapping[EdgeId, int]:
        l = self._levels
        if l is None:
            self._ensure()
            l = MappingProxyType(_materialize(self._lev_chain))
            self._levels = l
        return l

    # ------------------------------------------------------------------ #
    # Point reads (O(chain depth) dict probes)
    # ------------------------------------------------------------------ #
    def is_matched(self, v: Vertex) -> bool:
        """Is vertex ``v`` covered by the matching at this epoch?"""
        self._ensure()
        return _chain_get(self._cov_chain, v) is not None

    def match_of(self, v: Vertex) -> Optional[EdgeId]:
        """The matched edge covering ``v`` at this epoch, or None."""
        self._ensure()
        return _chain_get(self._cov_chain, v)

    def is_matched_edge(self, eid: EdgeId) -> bool:
        """Is edge ``eid`` in the matching at this epoch?"""
        self._ensure()
        return _chain_get(self._lev_chain, eid) is not None

    # ------------------------------------------------------------------ #
    # Aggregates (O(1) / O(#levels) after first access)
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> int:
        """Content hash for torn-read detection."""
        self._ensure()
        return self._fp

    @property
    def matching_size(self) -> int:
        self._ensure()
        return self._msize

    def level_stats(self) -> Dict[int, int]:
        """Matches per level (``CROSS_LEVEL`` buckets cross-shard
        matches, which have no level)."""
        self._ensure()
        return dict(self._counts)

    # ------------------------------------------------------------------ #
    # Consistency (torn-read detection)
    # ------------------------------------------------------------------ #
    def verify_consistent(self) -> None:
        """Prove this view is internally one epoch: the fingerprint and
        the stored aggregates re-derive from the materialized contents,
        the cover points only at matched edges, and every matched edge
        has a level.  Raises ``AssertionError`` on the first violation."""
        cover = self.cover
        levels = self.levels
        matched = self.matched
        fp = _fingerprint(
            self.epoch, self.epoch_vector, self._msize, self.live_edges,
            _acc(cover), _acc(levels),
        )
        assert fp == self.fingerprint, (
            f"fingerprint mismatch at epoch {self.epoch}: view was mutated "
            "or mixes two epochs"
        )
        assert len(matched) == self._msize, (
            f"matching_size {self._msize} != |matched| {len(matched)}"
        )
        counts: Dict[int, int] = {}
        for lvl in levels.values():
            counts[lvl] = counts.get(lvl, 0) + 1
        assert counts == self._counts, (
            "level_stats disagree with the levels column"
        )
        assert set(cover.values()) <= matched, (
            "cover references an unmatched edge"
        )
        assert set(levels.keys()) == set(matched), (
            "levels and matched set disagree"
        )
        assert len(set(self.epoch_vector)) <= 1, (
            f"published epoch vector is skewed: {self.epoch_vector}"
        )

    def to_dict(self) -> Dict:
        """JSON-friendly summary (the HTTP ``/epoch`` payload)."""
        return {
            "epoch": self.epoch,
            "epoch_vector": list(self.epoch_vector),
            "matching_size": self.matching_size,
            "live_edges": self.live_edges,
            "levels": {str(k): v for k, v in sorted(self.level_stats().items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = self._msize if self._lev_chain is not None else "<lazy>"
        return (
            f"EpochView(epoch={self.epoch}, matching_size={size}, "
            f"live_edges={self.live_edges})"
        )


# --------------------------------------------------------------------- #
# Capture
# --------------------------------------------------------------------- #
def _capture_unsharded(dm, epoch: int) -> EpochView:
    s = dm.structure
    edge_of = s.edge_of
    level_of = s.level_of_match
    cover: Dict[Vertex, EdgeId] = {}
    levels: Dict[EdgeId, int] = {}
    matched = list(s.matched)
    for mid in matched:
        levels[mid] = level_of(mid)
        for v in edge_of(mid).vertices:
            cover[v] = mid
    return EpochView.build(
        epoch=epoch,
        matched=matched,
        cover=cover,
        levels=levels,
        live_edges=s.num_edges(),
    )


def _capture_sharded(router, epoch: int) -> EpochView:
    # One fan-out round: shard snapshots pipeline across shard processes.
    for host in router.hosts:
        host.request("query_snapshot")
    snaps = [host.response() for host in router.hosts]

    vector = tuple(snap["applied"] for snap in snaps)
    if len(set(vector)) > 1:
        raise EpochSkew(
            f"per-shard epoch vector {vector} is skewed; refusing to merge "
            "shard states from different batches"
        )

    matched: List[EdgeId] = []
    cover: Dict[Vertex, EdgeId] = {}
    levels: Dict[EdgeId, int] = {}
    live = 0
    for snap in snaps:
        matched.extend(snap["matched"])
        cover.update(snap["cover"])
        levels.update(snap["levels"])
        live += snap["live_edges"]
    # Cross-shard matches come from the router's handoff registry.
    for eid in router.cross_matched():
        matched.append(eid)
        levels[eid] = CROSS_LEVEL
        for v in router._cross[eid].vertices:
            cover[v] = eid
    live += len(router._cross)
    return EpochView.build(
        epoch=epoch,
        matched=matched,
        cover=cover,
        levels=levels,
        live_edges=live,
        epoch_vector=vector,
    )


class EpochLogIndex:
    """Event-sourced lazy capture for one DynamicMatching.

    The write path's :meth:`publish` is O(1): it pins the epoch
    tracker's two log positions (``tracker.births``, ``tracker.deaths``)
    plus the live-edge count into a stub :class:`EpochView` and appends
    it to the pending queue — no per-item work at all.  The log prefix up
    to a batch-boundary position pair is a *consistent cut*: deaths
    precede rebirths in event order, so every death whose birth lies
    below a window's birth cursor names a match the index's masters
    hold, and in-window birth/death pairs net to zero.

    The index is a registered reader of the tracker
    (:meth:`~repro.core.epochs.EpochTracker.register_reader`): its
    cursor pins the log from the oldest epoch not yet built, and
    advances as epochs are built, so the tracker trims what every
    built epoch has consumed.  An index that is dropped (with its
    service) stops pinning the log once it is garbage-collected.

    The **first reader** of an epoch materializes it: ``_build_to``
    takes the index lock and replays each pending epoch's log window (in
    epoch order) against private master copies of the cover/levels
    columns and their XOR content accumulators, producing one overlay
    layer per epoch (collapsed every :data:`COLLAPSE_EVERY` builds).
    Each epoch is built exactly once; concurrent readers of the same
    epoch serialize on the lock and double-check the view's readiness
    flag.  The writer never takes the lock, so a slow reader-side
    collapse cannot stall the write path.

    Construction seeds the masters with one full scan of the current
    matching (reading vertices from the live structure, not the birth
    records), so an index attached to a recovered replica — whose
    tracker only lists the live births a checkpoint restored — still
    starts from the true state.
    """

    def __init__(self, dm) -> None:
        self.dm = dm
        self._lock = threading.Lock()
        self._pending: "deque[EpochView]" = deque()
        s = dm.structure
        tr = dm.tracker
        cover: Dict[Vertex, EdgeId] = {}
        levels: Dict[EdgeId, int] = {}
        verts: Dict[EdgeId, Tuple[Vertex, ...]] = {}
        counts: Dict[int, int] = {}
        for mid in s.matched:
            lvl = s.level_of_match(mid)
            vs = s.edge_of(mid).vertices
            levels[mid] = lvl
            verts[mid] = vs
            counts[lvl] = counts.get(lvl, 0) + 1
            for v in vs:
                cover[v] = mid
        self._cover = cover
        self._levels = levels
        self._verts = verts
        self._counts = counts
        self._cov_acc = _acc(cover)
        self._lev_acc = _acc(levels)
        self._cursor = tr.register_reader()
        self._cov_chain: Tuple[Mapping, ...] = (dict(cover),)
        self._lev_chain: Tuple[Mapping, ...] = (dict(levels),)
        self._built = 0

    # ------------------------------------------------------------------ #
    # Writer side — O(1), lock-free
    # ------------------------------------------------------------------ #
    def publish(self, epoch: int) -> EpochView:
        """Pin the current log cursors into a lazy view (writer thread,
        at a batch boundary).  ``deque.append`` is atomic under the GIL,
        so the writer never contends with reader-side builds."""
        tr = self.dm.tracker
        view = EpochView._lazy(
            self, epoch, self.dm.structure.num_edges(),
            tr.births, tr.deaths,
        )
        self._pending.append(view)
        return view

    # ------------------------------------------------------------------ #
    # Reader side — builds under the index lock
    # ------------------------------------------------------------------ #
    def _build_to(self, view: EpochView) -> None:
        with self._lock:
            if view._lev_chain is not None:
                return  # lost the race to another reader; already built
            pending = self._pending
            while pending:
                stub = pending[0]
                self._build_one(stub)
                pending.popleft()
                if stub is view:
                    return
            raise RuntimeError(
                f"epoch {view.epoch} is neither built nor pending"
            )  # pragma: no cover - unreachable by construction

    def _build_one(self, stub: EpochView) -> None:
        # One log generation for the whole window: compaction swaps in a
        # new one whole and keeps everything at or above this cursor.
        log = self.dm.tracker.log
        cur = self._cursor
        b0, d0 = cur.births, cur.deaths
        b1, d1 = stub._b, stub._d

        cover, levels, verts = self._cover, self._levels, self._verts
        counts = self._counts
        cov_acc, lev_acc = self._cov_acc, self._lev_acc
        layer_cov: Dict[Vertex, object] = {}
        layer_lev: Dict[EdgeId, object] = {}

        # Column slices below the pinned positions are frozen history —
        # safe to read while the writer appends.
        dead = log.deaths("dbseq", d0, d1)
        dead_set = set(dead)

        # Kills first: a death whose birth lies below b0 names a match
        # the masters hold (it was live at the previous cut — its death
        # would otherwise have been replayed already).  Its cover slots
        # may be re-occupied by this window's births, which then
        # overwrite the tombstones.  In-window births that died (birth
        # >= b0, in ``dead_set``) net to zero and are skipped by both
        # passes.
        for bseq, mid in zip(dead, log.deaths("deid", d0, d1)):
            if bseq >= b0:
                continue
            ol = levels.pop(mid, None)
            if ol is None:
                continue
            lev_acc ^= hash((mid, ol))
            counts[ol] -= 1
            if not counts[ol]:
                del counts[ol]
            layer_lev[mid] = TOMB
            for v in verts.pop(mid, ()):
                if cover.get(v) == mid:
                    del cover[v]
                    cov_acc ^= hash((v, mid))
                    layer_cov[v] = TOMB

        # Births in log order.  The tracker's no-live-rebirth rule means
        # a reborn id's previous epoch was already killed above, so each
        # surviving birth applies cleanly once; the birth record's level
        # and vertices are authoritative (level changes always go
        # through death + rebirth).
        for seq, mid, nl, vs in zip(
            range(b0, b1),
            log.births("eid", b0, b1),
            log.births("level", b0, b1),
            log.births("verts", b0, b1),
        ):
            if seq in dead_set:
                continue
            ol = levels.get(mid)
            if ol is not None:  # defensive; unreachable by construction
                lev_acc ^= hash((mid, ol))
                counts[ol] -= 1
                if not counts[ol]:
                    del counts[ol]
            levels[mid] = nl
            lev_acc ^= hash((mid, nl))
            counts[nl] = counts.get(nl, 0) + 1
            layer_lev[mid] = nl
            verts[mid] = vs
            for v in vs:
                om = cover.get(v)
                if om == mid:
                    continue
                if om is not None:
                    cov_acc ^= hash((v, om))
                cover[v] = mid
                cov_acc ^= hash((v, mid))
                layer_cov[v] = mid

        self._cov_acc, self._lev_acc = cov_acc, lev_acc
        cur.births, cur.deaths = b1, d1

        # Publish the layers: frozen from here on.
        self._built += 1
        if self._built >= COLLAPSE_EVERY:
            self._cov_chain = (dict(cover),)
            self._lev_chain = (dict(levels),)
            self._built = 0
        else:
            self._cov_chain = (layer_cov,) + self._cov_chain
            self._lev_chain = (layer_lev,) + self._lev_chain

        msize = len(levels)
        fp = _fingerprint(stub.epoch, stub.epoch_vector, msize,
                          stub.live_edges, cov_acc, lev_acc)
        stub._attach(fp, msize, dict(counts), self._cov_chain,
                     self._lev_chain)


def make_captor(algo):
    """The cheapest correct capture callable for ``algo``.

    Sharded routers fan out per-shard snapshots; a DynamicMatching with
    an epoch tracker gets the event-sourced lazy
    :class:`EpochLogIndex` (O(1) on the writer); anything else
    (tracker-less baselines) falls back to the full column copy.
    """
    if hasattr(algo, "hosts"):  # ShardedMatching duck-type
        return lambda epoch: _capture_sharded(algo, epoch)
    if hasattr(algo, "tracker") and hasattr(algo, "structure"):
        return EpochLogIndex(algo).publish
    return lambda epoch: _capture_unsharded(algo, epoch)


def capture_view(algo, epoch: int) -> EpochView:
    """One-shot copy-on-publish capture of ``algo``'s current state.

    Must be called at a batch boundary (the structure quiescent).  This
    is the *full* capture — oracle replays and replica certification use
    it; :class:`repro.query.service.QueryService` holds a
    :func:`make_captor` callable instead, which defers capture cost to
    the readers that actually look at each epoch.
    """
    if hasattr(algo, "hosts"):  # ShardedMatching duck-type
        return _capture_sharded(algo, epoch)
    return _capture_unsharded(algo, epoch)
