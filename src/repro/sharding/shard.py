"""One shard: a DynamicMatching + write-ahead journal + local metrics.

A :class:`Shard` hosts the per-partition state of the sharded service:
its own :class:`~repro.core.DynamicMatching` (seeded deterministically
from the service seed via :func:`repro.sharding.partition.shard_rng`),
an optional per-shard :class:`~repro.durability.DurabilityManager`
(journal + rolling checkpoints in ``<root>/shard-XX/``), and cumulative
local counters the router merges into the ``repro_shard_*`` metrics.

The same class runs in both transports: in-process (inline) or inside a
forked shard process (:mod:`repro.sharding.transport`) — every public
method takes and returns picklable values only.

Cross frontier: at K >= 2 the shard also keeps the cross-edge
adjacency of the frontier vertices it owns
(:class:`~repro.sharding.handoff.Frontier`) and returns a frontier
report with every apply; see :mod:`repro.sharding.handoff`.

Durability protocol: the shard journals **every router batch** it is
dispatched, including empty sub-batches, so shard journal sequence
numbers align 1:1 with the router journal.  Coordinated recovery uses
that alignment to top up a shard that crashed behind the router (see
:mod:`repro.sharding.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.dynamic_matching import DynamicMatching
from repro.hypergraph.edge import Edge, EdgeId, Vertex
from repro.sharding.handoff import Frontier, ReportEntry
from repro.sharding.partition import shard_rng
from repro.workloads.streams import UpdateBatch


@dataclass
class ShardConfig:
    """Everything needed to build a shard in any process."""

    shard_id: int
    shards: int
    seed: int
    rank: int = 2
    alpha: int = 2
    heavy_factor: float = 4.0
    backend: str = "array"
    durability_dir: Optional[str] = None
    checkpoint_every: int = 16
    keep: int = 2
    fsync: bool = True


class Shard:
    """Per-partition matching state behind the router."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.dm = DynamicMatching(
            rank=config.rank,
            rng=shard_rng(config.seed, config.shards, config.shard_id),
            alpha=config.alpha,
            heavy_factor=config.heavy_factor,
            backend=config.backend,
        )
        self.manager = None
        if config.durability_dir is not None:
            from repro.durability import DurabilityManager

            self.manager = DurabilityManager.create(
                config.durability_dir,
                self.dm,
                checkpoint_every=config.checkpoint_every,
                keep=config.keep,
                fsync=config.fsync,
            )
        self.stats: Dict[str, int] = {"batches": 0, "updates": 0}
        self._cursor = None
        self._reset_cursors()

    @classmethod
    def adopt(cls, config: ShardConfig, dm: DynamicMatching, manager=None) -> "Shard":
        """Wrap an already-built (e.g. recovered) structure without
        constructing a fresh one — used by coordinated recovery."""
        self = cls.__new__(cls)
        self.config = config
        self.dm = dm
        self.manager = manager
        self.stats = {"batches": 0, "updates": 0}
        self._cursor = None
        self._reset_cursors()
        return self

    def _reset_cursors(self) -> None:
        """An empty frontier, with the epoch-log reader at the logs' ends.

        Only a shard of two or more reports its frontier, so only then
        is it a registered reader of its tracker; the reset releases the
        previous cursor, which stops pinning the log.
        """
        self.frontier = Frontier()
        tracker = self.dm.tracker
        tracker.release_reader(self._cursor)
        self._cursor = tracker.register_reader() if self.config.shards > 1 else None

    # ------------------------------------------------------------------ #
    # Batch application (write-ahead when durable)
    # ------------------------------------------------------------------ #
    def apply(
        self,
        kind: str,
        payload: Sequence,
        xv: Sequence[Vertex] = (),
        xe: Sequence[EdgeId] = (),
    ) -> Dict[str, Any]:
        """Apply one (possibly empty) local sub-batch.

        Journals the sub-batch before applying (write-ahead), then applies
        and acknowledges.  Returns the per-batch reading the router folds
        into its merged ledger and metrics — work/depth deltas, matching
        size, and live edge count.

        ``xv``/``xe`` register (insert batch) or unregister (delete
        batch) endpoint ``xv[i]`` of cross edge ``xe[i]``.  With two or
        more shards the reading also carries the ``frontier`` report.
        """
        batch = (
            UpdateBatch.insert(list(payload))
            if kind == "insert"
            else UpdateBatch.delete(list(payload))
        )
        if self.manager is not None:
            self.manager.log_batch(batch)
        led = self.dm.ledger
        w0, d0 = led.work, led.depth
        if kind == "insert":
            self.dm.insert_edges(list(payload))
        else:
            self.dm.delete_edges(list(payload))
        if self.manager is not None:
            self.manager.note_applied(self.dm)
        self.stats["batches"] += 1
        self.stats["updates"] += len(payload)
        reading = {
            "applied": len(payload),
            "work": led.work - w0,
            "depth": led.depth - d0,
            "matching_size": len(self.dm.structure.matched),
            "live_edges": len(self.dm),
        }
        if self.config.shards > 1:
            if kind == "insert":
                self.frontier.register(xv, xe)
                reading["frontier"] = self._frontier_report(xv)
            else:
                self.frontier.unregister(xv, xe)
                reading["frontier"] = self._frontier_report(())
        return reading

    # ------------------------------------------------------------------ #
    # Cross frontier
    # ------------------------------------------------------------------ #
    def _frontier_report(self, registered: Sequence[Vertex]) -> Dict[Vertex, ReportEntry]:
        """The frontier vertices born into or dying out of a local match
        since the last report, plus the ``registered`` ones that are
        covered or shared."""
        tracker = self.dm.tracker
        log = tracker.log
        cur = self._cursor
        b1, d1 = tracker.births, tracker.deaths
        adj = self.frontier.adj
        touched = set()
        if adj:
            for vs in chain(
                log.births("verts", cur.births, b1),
                log.deaths("dverts", cur.deaths, d1),
            ):
                for v in vs:
                    if v in adj:
                        touched.add(v)
        cur.births, cur.deaths = b1, d1
        return self.frontier.report(touched, registered, self.dm.structure.cover_of)

    def reset_frontier(
        self, xv: Sequence[Vertex], xe: Sequence[EdgeId]
    ) -> Dict[Vertex, ReportEntry]:
        """Rebuild the frontier from scratch (coordinated recovery):
        register every pair and report every covered or shared one."""
        self._reset_cursors()
        self.frontier.register(xv, xe)
        return self.frontier.report((), xv, self.dm.structure.cover_of)

    def cross_cover(self, v: Vertex) -> ReportEntry:
        """``v``'s local cover and incident live cross edge ids (None
        off the frontier) — all a merged point read needs."""
        cover = self.dm.structure.cover_of(v)
        if v in self.frontier.adj:
            return self.frontier.entry(v, cover)
        return cover, None

    def frontier_entries(self) -> Dict[Vertex, ReportEntry]:
        """Every frontier vertex with its local cover and sorted incident
        ids (invariant checks)."""
        cover_of = self.dm.structure.cover_of
        return {
            v: (cover_of(v), sorted(eids) if isinstance(eids, list) else [eids])
            for v, eids in self.frontier.adj.items()
        }

    # ------------------------------------------------------------------ #
    # Merge/inspection queries (picklable returns)
    # ------------------------------------------------------------------ #
    def matched_ids(self) -> List[EdgeId]:
        return self.dm.matched_ids()

    def all_edges(self) -> List[Edge]:
        return self.dm.structure.all_edges()

    def num_edges(self) -> int:
        return len(self.dm)

    def ledger_totals(self) -> Tuple[float, float, Dict[str, float]]:
        led = self.dm.ledger
        return led.work, led.depth, dict(led.by_tag)

    def certificate_pairs(self) -> List[Tuple[EdgeId, EdgeId]]:
        """(edge, witness) pairs for every local non-matched edge — the
        shard's contribution to the merged matching certificate."""
        matched = set(self.dm.matched_ids())
        return [
            (eid, owner)
            for eid, owner in self.dm.structure.owner_pairs()
            if eid not in matched
        ]

    def query_snapshot(self) -> Dict[str, Any]:
        """Columns the query tier merges into a cross-shard EpochView.

        ``applied`` is this shard's epoch: the durable acknowledged-batch
        count when journaling, else the in-memory batch count.  Shard
        journals record every router batch (including empty sub-batches),
        so all shards of a healthy service report the same value — the
        router's epoch-vector reconciliation rejects anything else.
        """
        s = self.dm.structure
        cover: Dict[Vertex, EdgeId] = {}
        levels: Dict[EdgeId, int] = {}
        matched = list(s.matched)
        for mid in matched:
            levels[mid] = s.level_of_match(mid)
            for v in s.edge_of(mid).vertices:
                cover[v] = mid
        return {
            "applied": (
                self.manager.applied if self.manager is not None
                else self.stats["batches"]
            ),
            "matched": matched,
            "cover": cover,
            "levels": levels,
            "live_edges": len(self.dm),
        }

    def check_invariants(self) -> bool:
        self.dm.check_invariants()
        return True

    def checkpoint_now(self) -> Optional[str]:
        if self.manager is None:
            return None
        return self.manager.checkpoint_now(self.dm)

    # ------------------------------------------------------------------ #
    # Fault injection (tests)
    # ------------------------------------------------------------------ #
    def install_crash_hook(self, at: int) -> bool:
        """Arm a :class:`repro.testing.faults.CrashInjector` at phase
        event ``at`` inside this shard's DynamicMatching."""
        from repro.testing.faults import CrashInjector

        self.dm.set_phase_hook(CrashInjector(at))
        return True

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close()
            self.manager = None
