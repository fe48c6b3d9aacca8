"""Parallel batch-dynamic maximal matching (Fig. 2; Theorem 1.1).

:class:`DynamicMatching` maintains a maximal matching of a hypergraph under
batches of edge insertions and deletions, in O(r^3) expected amortized work
per edge update and O(log^3 m) depth per batch whp (O(1) work per update
for ordinary graphs, r = 2).

Structure of a batch deletion (the interesting case):

1. unmatched deleted edges are detached directly (cross edges unlink from
   their owner; sampled edges leave their owner's sample set — *lazy*, the
   owner's level does not move);
2. matched deleted edges are removed from their own sample space and handed
   to ``deleteMatchedEdges``, which converts their surviving samples to
   cross edges, rematches the *light* matches' owned edges directly, and
   sends the *heavy* matches' owned edges to random settling;
3. randomSettle rounds run the random greedy matcher over the pooled
   edges, install the new matches with their fresh sample spaces, raise
   lower-level cross edges onto the new matches (``adjustCrossEdges``),
   and queue *stolen* (pre-existing matches incident on new ones) and
   *bloated* (new matches that collected too many cross edges) matches for
   deletion in the next round;
4. rounds stop once the pending pool is small relative to the samples
   already taken (``2|E'| <= sampledEdges``); the leftovers are reinserted
   like a fresh insertion batch.

Every step charges the simulated fork-join ledger, so experiments read
work/depth per batch straight off the structure.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.hypergraph.edge import Edge, EdgeId, Vertex
from repro.hypergraph.hypergraph import Hypergraph
from repro.parallel.ledger import Ledger, log2ceil
from repro.core.epochs import (
    BLOATED,
    NATURAL,
    STOLEN,
    BatchStats,
    EpochTracker,
    SettleRound,
)
from repro.core.arraystore import ArrayLeveledStructure
from repro.core.level_structure import EdgeType, LeveledStructure
from repro.native import ColumnArena
from repro.parallel.frames import BatchFrame
from repro.static_matching.parallel_greedy import (
    parallel_greedy_match,
    should_vectorize,
)

#: Available structure backends.  "array" (default) is the flat-array
#: hot-path engine; "dict" is the original record-dict implementation,
#: kept as the behavioral oracle for differential tests.  Both charge the
#: ledger identically; for a fixed seed they produce the same matching
#: trajectory and the same work/depth totals.
BACKENDS = {"array": ArrayLeveledStructure, "dict": LeveledStructure}


class DynamicMatching:
    """Batch-dynamic maximal matching on hypergraphs of bounded rank.

    Parameters
    ----------
    rank:
        Upper bound ``r`` on edge cardinality (2 for ordinary graphs).
    seed / rng:
        Randomness for the greedy matcher's permutations.  The oblivious
        adversary must not observe it.
    alpha:
        Level gap (2 in the paper; settable for the E11 ablation).
    heavy_factor:
        Heavy threshold constant (4 in the paper; E11 ablation).
    ledger:
        Externally supplied cost ledger (a fresh one by default).
    backend:
        Structure backend: "array" (flat-array hot-path engine, default)
        or "dict" (the original record-dict oracle).  Identical behavior
        and ledger totals; the array backend is simply faster.  Both
        run one pipeline: every batch phase calls the structure's
        ``*_batch`` methods.  The array backend's calls pick their route
        by size (docs/hotpath.md, "Route selection"): calls of at least
        :data:`repro.native.VEC_MIN` items take the columnar route
        (:class:`~repro.parallel.frames.BatchFrame`, the vector matcher,
        the edit kernels), smaller calls the scalar matcher and the
        per-edge edits.  On both routes its edits apply their charges by
        direct field arithmetic, so the array backend takes only a plain
        :class:`Ledger` (``TypeError`` otherwise).  The dict backend's
        ``*_batch`` methods are ``parallel_for`` over its per-edge ops,
        which charge through the ``charge()`` protocol, for any ledger.

    Notes
    -----
    Between batch operations the structure satisfies Definition 4.1
    (:meth:`check_invariants`), in particular the matching is maximal on
    the current edge set.
    """

    def __init__(
        self,
        rank: int = 2,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        alpha: int = 2,
        heavy_factor: float = 4.0,
        ledger: Optional[Ledger] = None,
        backend: str = "array",
    ) -> None:
        self.ledger = ledger if ledger is not None else Ledger()
        try:
            structure_cls = BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}"
            ) from None
        self.backend = backend
        self._vec = backend == "array"
        #: Fast-path accounting, surfaced through observability
        #: (repro_dynamic_batch_* metrics): BatchFrames built, and batches
        #: applied by the array backend vs the dict oracle.
        self.vec_stats: Dict[str, int] = {
            "frames": 0,
            "vector_batches": 0,
            "object_batches": 0,
        }
        #: Per-instance scratch arena backing the fast path's transient
        #: columns (frames, matcher ev/done/CSR offsets) — reused across
        #: batches, bounded by the largest batch seen.
        self.arena = ColumnArena() if self._vec else None
        self.structure = structure_cls(
            rank=rank, ledger=self.ledger, alpha=alpha, heavy_factor=heavy_factor
        )
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.tracker = EpochTracker()
        self.batch_stats: List[BatchStats] = []
        self._updates_processed = 0
        # Fault-injection hook: when set (via set_phase_hook), called with a
        # phase name at the marked points inside batch operations.  Raising
        # from the hook models a crash mid-batch; the instance must then be
        # discarded (recovery goes through repro.durability).
        self.phase_hook = None

    # ------------------------------------------------------------------ #
    # Public queries
    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        return self.structure.rank

    def matching(self) -> List[Edge]:
        """The current maximal matching (sorted by edge id)."""
        return self.structure.matching_edges()

    def matched_ids(self) -> List[EdgeId]:
        return self.structure.matched_ids()

    def matching_size(self) -> int:
        return len(self.structure.matched)

    def match_of(self, vertex: Vertex) -> Optional[EdgeId]:
        """The matched edge covering ``vertex``, or None (O(1) expected)."""
        return self.structure.cover_of(vertex)

    def is_matched(self, eid: EdgeId) -> bool:
        return eid in self.structure.matched

    def __contains__(self, eid: EdgeId) -> bool:
        return eid in self.structure

    def __len__(self) -> int:
        return self.structure.num_edges()

    @property
    def num_updates(self) -> int:
        """Total edge insertions + deletions processed so far."""
        return self._updates_processed

    def edge_type(self, eid: EdgeId) -> EdgeType:
        return self.structure.type_of(eid)

    def current_graph(self) -> Hypergraph:
        """A plain :class:`Hypergraph` mirror of the current edge set
        (reference/testing convenience; O(m'))."""
        return Hypergraph(self.structure.all_edges())

    def set_phase_hook(self, hook) -> None:
        """Install (or clear, with None) the phase hook on this instance
        *and* its structure backend.

        The hook is called with a phase-name string at batch boundaries and
        inside the phases of each batch operation.  It must not mutate the
        structure; raising an exception simulates a mid-phase crash (the
        fault-injection use, :class:`repro.testing.faults.CrashInjector`).
        Observability (:meth:`repro.obs.Observer.attach_matching`) chains
        onto whatever hook is installed rather than replacing it, so
        tracing and fault injection coexist; only one hook is *stored*
        at a time, and a later ``set_phase_hook`` replaces the chain.
        """
        self.phase_hook = hook
        self.structure.phase_hook = hook

    def _phase(self, name: str) -> None:
        if self.phase_hook is not None:
            self.phase_hook(name)

    def check_invariants(self) -> None:
        """Definition 4.1 plus epoch-tracking consistency."""
        self.structure.check_invariants()
        live = set(self.tracker.live_ids())
        assert live == set(self.structure.matched), (
            f"live epochs {live} != matched set {set(self.structure.matched)}"
        )

    # ------------------------------------------------------------------ #
    # Vectorized fast-path plumbing
    # ------------------------------------------------------------------ #
    def _count_batch(self) -> None:
        """Per-batch vec_stats accounting (no ledger charges)."""
        key = "vector_batches" if self._vec else "object_batches"
        self.vec_stats[key] += 1

    def _attach_dense(self, frame: BatchFrame) -> None:
        """Attach the structure's interned dense-id column to ``frame``.

        Array backend only: the frame then carries stable dense vertex
        ids, so ``free_flags`` gathers coverage from the cover column
        and the matcher labels the batch's vertices by their narrow
        dense ids instead of the raw vertex column.
        """
        structure = self.structure
        frame.attach_dense(structure.frame_dense(frame), structure.interner)

    def _columnar(self, n: int) -> bool:
        """Whether a call of ``n`` edges takes the columnar route: the
        array backend at :func:`should_vectorize` sizes, unless a vertex
        or edge id outside int64 (which no raw-id frame column can hold)
        has been seen — then every call takes the charge-identical
        per-edge route.  The structure flags such an id on its interner
        when it first registers, before any frame could be built over
        it."""
        return (
            self._vec
            and should_vectorize(self.ledger, n)
            and not self.structure.interner.wide
        )

    def _greedy(
        self,
        edges: Sequence[Edge],
        collect_samples: bool = True,
        frame: Optional[BatchFrame] = None,
    ):
        """Greedy matcher call with fast-path column reuse.

        When the vectorized matcher will engage, build the
        :class:`BatchFrame` here so its eid/cardinality/vertex columns are
        extracted once per batch (callers that already hold a frame over
        ``edges`` — e.g. a :meth:`BatchFrame.select` of the batch frame —
        pass it in); the dict oracle pins the scalar matcher.
        ``collect_samples=False`` is passed by the level-0 settle, which
        resets every new match's sample space to the singleton and never
        reads the matcher's (the vector path then returns its matches by
        position — same matching, same order, same charges).
        """
        columnar = self._columnar(len(edges))
        if frame is None and columnar:
            frame = BatchFrame.from_edges(edges, arena=self.arena, tag="greedy")
            self.vec_stats["frames"] += 1
            self._attach_dense(frame)
        return parallel_greedy_match(
            edges,
            self.ledger,
            rng=self.rng,
            vectorize=None if columnar else False,
            frame=frame,
            collect_samples=collect_samples,
            arena=self.arena,
        )

    # ------------------------------------------------------------------ #
    # User interface: insertEdges
    # ------------------------------------------------------------------ #
    def insert_edges(self, edges: Sequence[Edge]) -> BatchStats:
        """Insert a batch of new edges; returns the batch's statistics."""
        edges = list(edges)
        ids = [e.eid for e in edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids within the batch")
        # validate the whole batch BEFORE registering anything, so a
        # rejected batch leaves no half-applied state behind
        structure = self.structure
        rank = structure.rank
        slot = getattr(structure, "_slot", None)
        present = (
            not slot.keys().isdisjoint(ids)
            if slot is not None
            else any(eid in structure for eid in ids)
        )
        if present or any(len(e.vertices) > rank for e in edges):
            for e in edges:
                if e.eid in structure:
                    raise KeyError(f"edge {e.eid} already present")
                if e.cardinality > rank:
                    raise ValueError(
                        f"edge {e.eid} has cardinality {e.cardinality} > rank "
                        f"bound {rank}"
                    )

        self._phase("insert.begin")
        self._count_batch()
        stats = BatchStats(kind="insert", batch_index=self.tracker.batch_index,
                           batch_size=len(edges))
        with self.ledger.measure() as span:
            self.structure.register_batch(edges)
            self._phase("insert.registered")
            self._insert_existing(edges, stats)
            self._phase("insert.settled")
        stats.work, stats.depth = span.cost.work, span.cost.depth
        self.batch_stats.append(stats)
        self._updates_processed += len(edges)
        self.tracker.next_batch()
        return stats

    # ------------------------------------------------------------------ #
    # User interface: deleteEdges
    # ------------------------------------------------------------------ #
    def delete_edges(self, eids: Sequence[EdgeId]) -> BatchStats:
        """Delete a batch of existing edges; returns batch statistics."""
        eids = list(eids)
        if len(set(eids)) != len(eids):
            raise ValueError("duplicate edge ids within the batch")
        # KeyError here (before any mutation) if an edge is absent
        matched, unmatched = self.structure.split_matched(eids)

        self._phase("delete.begin")
        self._count_batch()
        stats = BatchStats(kind="delete", batch_index=self.tracker.batch_index,
                           batch_size=len(eids))
        with self.ledger.measure() as span:
            # Unmatched deletions: cheap, fully detach and forget.
            self.structure.detach_unmatched_batch(unmatched)
            self.structure.unregister_batch(unmatched)
            self._phase("delete.detached")

            # Matched deletions: natural epoch deaths.  Remove each from its
            # own sample space so it is never reinserted.
            self.structure.sample_discard_self_batch(matched)
            self.tracker.death_batch(matched, NATURAL)
            stats.natural_deaths += len(matched)

            pool = self._delete_matched_edges(matched, stats)
            self._phase("delete.converted")

            # randomSettle rounds with the doubling termination rule.
            sampled_edges = 0
            while 2 * len(pool) > sampled_edges:
                sampled_edges += len(pool)
                pool = self._random_settle(pool, stats)
                self._phase("delete.settle_round")
            self._insert_existing(pool, stats)
            self._phase("delete.settled")

            self.structure.unregister_batch(matched)
        stats.work, stats.depth = span.cost.work, span.cost.depth
        self.batch_stats.append(stats)
        self._updates_processed += len(eids)
        self.tracker.next_batch()
        return stats

    # ------------------------------------------------------------------ #
    # Single-update convenience (batch of one)
    # ------------------------------------------------------------------ #
    def insert_edge(self, edge: Edge) -> BatchStats:
        """Insert one edge — the classic (non-batch) dynamic interface."""
        return self.insert_edges([edge])

    def delete_edge(self, eid: EdgeId) -> BatchStats:
        """Delete one edge — the classic (non-batch) dynamic interface."""
        return self.delete_edges([eid])

    # ------------------------------------------------------------------ #
    # insertEdges body (shared by public insert and settle leftovers)
    # ------------------------------------------------------------------ #
    def _insert_existing(self, edges: Sequence[Edge], stats: BatchStats) -> None:
        """Match the free edges greedily (level-0 singleton samples) and
        attach everything else as cross edges."""
        if not edges:
            return
        # One batch frame serves both the columnar free_flags sweep and —
        # via select() — the greedy matcher's columns, so the batch's
        # vertices are extracted from the Edge objects exactly once.
        frame = None
        if self._columnar(len(edges)):
            frame = BatchFrame.from_edges(edges, arena=self.arena, tag="frame")
            self.vec_stats["frames"] += 1
            self._attach_dense(frame)
        free_flags = self.structure.free_flags(edges, frame)
        free = list(compress(edges, free_flags))
        self.ledger.charge(
            work=len(edges), depth=log2ceil(max(len(edges), 2)), tag="insert_filter"
        )

        sub = fmask = None
        if frame is not None and self._columnar(len(free)):
            fmask = np.fromiter(free_flags, dtype=np.bool_, count=len(edges))
            sub = frame.select(fmask)
        result = self._greedy(free, collect_samples=False, frame=sub)
        if result.positions is not None:
            # Level-0 matches by position (docs/hotpath.md): the vector
            # matcher's positions index ``free``; the free mask maps them
            # back to ``edges``, and the rest keeps input order.
            mpos = np.flatnonzero(fmask)[result.positions]
            rest_mask = np.ones(len(edges), dtype=np.bool_)
            rest_mask[mpos] = False
            new_matches = list(map(edges.__getitem__, mpos.tolist()))
            rest = list(compress(edges, rest_mask.tolist()))
        else:
            matched_ids: Set[EdgeId] = set(result.matched_ids)
            new_matches = result.matched_edges
            rest = [e for e in edges if e.eid not in matched_ids]

        self.structure.add_level0_batch(new_matches)
        self.tracker.birth_level0_batch(new_matches)
        stats.new_epochs += len(new_matches)

        self.structure.add_cross_edge_batch(rest)

    # ------------------------------------------------------------------ #
    # deleteMatchedEdges (Fig. 2)
    # ------------------------------------------------------------------ #
    def _delete_matched_edges(
        self, match_ids: Sequence[EdgeId], stats: BatchStats
    ) -> List[Edge]:
        """Convert samples to cross edges, rematch light matches' owned
        edges, and return the heavy matches' owned edges for settling.

        Epoch deaths are recorded by the caller (user deletions are
        natural; stolen/bloated are recorded in ``_random_settle``).
        """
        if not match_ids:
            return []

        # Convert every surviving sample edge (including the match itself,
        # for induced deletions) into a cross edge.  The dying matches are
        # still present, so conversions may attach to them — those edges
        # are recovered below by remove_match.
        sample_edges = self.structure.samples_of_batch(match_ids)
        self.structure.add_cross_edge_batch(sample_edges)

        heavy_flags = self.structure.heavy_flags(match_ids)
        heavy = [mid for mid, f in zip(match_ids, heavy_flags) if f]
        light = [mid for mid, f in zip(match_ids, heavy_flags) if not f]
        stats.heavy_matches += len(heavy)
        stats.light_matches += len(light)

        light_edges = self.structure.remove_match_batch(light)
        self._insert_existing(light_edges, stats)

        return self.structure.remove_match_batch(heavy)

    # ------------------------------------------------------------------ #
    # randomSettle (Fig. 2)
    # ------------------------------------------------------------------ #
    def _random_settle(self, pool: Sequence[Edge], stats: BatchStats) -> List[Edge]:
        """One settle round: rematch the pool with fresh random samples."""
        rnd = SettleRound(input_edges=len(pool))

        result = self._greedy(pool)

        # Existing matches incident on the new ones must be deleted (stolen).
        stolen_ids: Set[EdgeId] = set()
        for matched in result.matches:
            for v in matched.edge.vertices:
                p = self.structure.cover_of(v)
                if p is not None:
                    stolen_ids.add(p)
        self.ledger.charge(
            work=sum(m.edge.cardinality for m in result.matches),
            depth=log2ceil(max(len(result.matches), 2)),
            tag="settle_stolen",
        )

        levels = self.structure.install_match_batch(result.matches)
        self.tracker.birth_batch(
            (m.edge.eid, lvl, len(m.samples), m.edge.vertices)
            for m, lvl in zip(result.matches, levels)
        )
        rnd.new_matches = len(result.matches)
        rnd.added_sample = sum(len(m.samples) for m in result.matches)
        stats.new_epochs += rnd.new_matches

        self._adjust_cross_edges([m.edge for m in result.matches])

        new_ids = [m.edge.eid for m in result.matches]
        heavy_flags = self.structure.heavy_flags(new_ids)
        bloated = [mid for mid, f in zip(new_ids, heavy_flags) if f]
        stolen = sorted(stolen_ids)

        settle_size_of = self.structure.settle_size_of
        self.tracker.death_batch(stolen, STOLEN)
        rnd.stolen = len(stolen)
        rnd.stolen_sample = sum(map(settle_size_of, stolen))
        self.tracker.death_batch(bloated, BLOATED)
        rnd.bloated = len(bloated)
        rnd.bloated_sample = sum(map(settle_size_of, bloated))
        stats.induced_deaths += len(stolen) + len(bloated)
        stats.settle_rounds.append(rnd)

        return self._delete_matched_edges(bloated + stolen, stats)

    # ------------------------------------------------------------------ #
    # adjustCrossEdges (Fig. 2)
    # ------------------------------------------------------------------ #
    def _adjust_cross_edges(self, new_matches: Sequence[Edge]) -> None:
        """Re-own cross edges sitting below a new match's level
        (restores Invariant 4.1.4)."""
        flat = self.structure.adjust_scan_batch(new_matches)
        collect: Dict[EdgeId, Edge] = {}
        for ceid in flat:
            if ceid not in collect:
                collect[ceid] = self.structure.edge_of(ceid)
        self.ledger.charge(
            work=len(flat),
            depth=log2ceil(max(len(flat), 2)),
            tag="adjust_dedupe",
        )
        edges = list(collect.values())
        self.structure.remove_cross_edge_batch(edges)
        self.structure.add_cross_edge_batch(edges)
