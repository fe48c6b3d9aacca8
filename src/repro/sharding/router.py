"""ShardRouter: vertex-partitioned sharding behind one matching facade.

:class:`ShardedMatching` hash-partitions the vertex universe across ``K``
shards (:mod:`repro.sharding.partition`), each hosting its own
:class:`~repro.core.DynamicMatching` with a per-shard write-ahead journal
and metrics — in-process or in ``K`` forked shard processes
(:mod:`repro.sharding.transport`).  Every incoming batch is:

1. **journaled** at the router (write-ahead, when durable);
2. **split** into shard-local sub-batches plus cross-shard edges;
3. **dispatched**: every shard receives its sub-batch and the
   registrations of the batch's cross-edge endpoints it owns (pipelined
   across shard processes, so local settling runs concurrently),
   journals it, settles it with its local algorithm, and answers with a
   frontier report of the cross-frontier vertices whose local cover
   changed;
4. **resolved**: the incremental handoff (:mod:`repro.sharding.handoff`)
   re-decides, in ascending edge id, only the cross edges the batch
   touches, keeping the cross matching equal to the greedy two-phase
   resolve of the whole live cross-edge set; witnesses for rejected
   cross edges are derived from the state on demand.

The merged result — union of shard-local matchings and accepted cross
edges — is a certified maximal matching of the whole graph
(:meth:`certificate` returns an independently verifiable
:class:`~repro.core.certify.MatchingCertificate`).

Sharded settling is **not** bit-identical to the unsharded pipeline for
``K >= 2`` (each shard draws from its own RNG stream, and cross edges are
settled by the handoff rather than by random settling); it *is*
bit-identical at ``K == 1``, where the single shard sees exactly the
unsharded batch sequence with exactly the unsharded seed.  Correctness at
any K is instead certified per batch by the invariant-based differential
suite (tests/sharding/): matching validity, maximality, conservation of
edges across the split/merge, and merged-ledger == sum-of-shard-ledgers.

Duck-typing: the router exposes the algorithm interface the workload
runner expects (``insert_edges`` / ``delete_edges`` / ``matched_ids`` /
``matching_size`` / ``ledger`` / ``__len__``), so
``run_stream(router, stream, check=True)`` certifies merged maximality
batch by batch with zero special-casing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hypergraph.edge import Edge, EdgeId, Vertex
from repro.parallel.ledger import Ledger, log2ceil
from repro.core.certify import MatchingCertificate
from repro.sharding.partition import (
    BatchSplit,
    shard_of_vertex,
    split_delete,
    split_insert,
)
from repro.sharding import handoff
from repro.sharding.handoff import CrossState, ReportEntry
from repro.sharding.shard import ShardConfig
from repro.sharding.transport import TRANSPORTS, make_host
from repro.workloads.streams import UpdateBatch

#: Manifest file marking a durability root as a *sharded* run.
MANIFEST_FILE = "sharding.json"
#: Subdirectory holding the router's own write-ahead journal.
ROUTER_DIR = "router"
#: Buckets of the per-batch handoff cascade histogram.
CASCADE_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def shard_dir(root: str, shard_id: int) -> str:
    return os.path.join(root, f"shard-{shard_id:02d}")


class MergedLedger:
    """A read-only ledger view summing router + all shard ledgers.

    Duck-types the ``work`` / ``depth`` / ``by_tag`` read API of
    :class:`repro.parallel.ledger.Ledger` so the workload runner and the
    analysis helpers consume sharded runs unchanged.  Shard totals come
    from the router's per-batch response cache — no extra round trips.
    """

    def __init__(self, router: "ShardedMatching") -> None:
        self._router = router

    @property
    def work(self) -> float:
        return self._router.router_ledger.work + sum(self._router._shard_work)

    @property
    def depth(self) -> float:
        return self._router.router_ledger.depth + sum(self._router._shard_depth)

    @property
    def by_tag(self) -> Dict[str, float]:
        merged = dict(self._router.router_ledger.by_tag)
        for _, _, _, tags in self._router.ledger_breakdown()["shards"]:
            for tag, w in tags.items():
                merged[tag] = merged.get(tag, 0.0) + w
        return merged


@dataclass(slots=True)
class ShardBatchStats:
    """Per-batch measurements of one routed batch."""

    kind: str
    batch_index: int
    batch_size: int
    n_local: int = 0
    n_cross: int = 0
    work: float = 0.0
    depth: float = 0.0
    proposals: int = 0  # cross edges re-decided
    accepts: int = 0  # re-decided edges now matched
    rejects: int = 0  # re-decided edges now unmatched
    cascade: int = 0  # longest chain of status flips


class ShardedMatching:
    """A maximal matching served by K vertex-partitioned shards.

    Parameters
    ----------
    shards:
        Number of shards K.  ``K == 1`` degenerates to the unsharded
        pipeline (bit-identical trajectory) behind the router facade.
    seed:
        Service seed.  Shard s draws from a deterministic child stream
        (:func:`repro.sharding.partition.shard_rng`); at K == 1 the seed
        is used directly.
    transport:
        ``"inline"`` (shards in the router process), ``"process"`` (one
        forked long-lived process per shard), or None — inline for K == 1,
        process otherwise.
    durability_root:
        When set, the service is durable: the directory gets a
        ``sharding.json`` manifest, a ``router/`` write-ahead journal of
        every incoming batch, and one ``shard-XX/`` durability directory
        (journal + rolling checkpoints) per shard.  Recover with
        :func:`repro.sharding.recovery.recover_sharded`.
    """

    def __init__(
        self,
        shards: int = 2,
        rank: int = 2,
        seed: int = 0,
        alpha: int = 2,
        heavy_factor: float = 4.0,
        backend: str = "array",
        transport: Optional[str] = None,
        durability_root: Optional[str] = None,
        checkpoint_every: int = 16,
        keep: int = 2,
        fsync: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if transport is None:
            transport = "inline" if shards == 1 else "process"
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown shard transport {transport!r}; expected {TRANSPORTS}"
            )
        self.k = shards
        self.rank = rank
        self.seed = seed
        self.transport = transport
        self.config = {
            "shards": shards,
            "rank": rank,
            "seed": seed,
            "alpha": alpha,
            "heavy_factor": heavy_factor,
            "backend": backend,
            "checkpoint_every": checkpoint_every,
            "keep": keep,
        }
        self.router_ledger = Ledger()
        self.durability_root = durability_root
        self._journal = None
        if durability_root is not None:
            self._journal = self._create_durable_root(durability_root, fsync)

        self.hosts = []
        for s in range(shards):
            cfg = ShardConfig(
                shard_id=s,
                shards=shards,
                seed=seed,
                rank=rank,
                alpha=alpha,
                heavy_factor=heavy_factor,
                backend=backend,
                durability_dir=(
                    shard_dir(durability_root, s)
                    if durability_root is not None
                    else None
                ),
                checkpoint_every=checkpoint_every,
                keep=keep,
                fsync=fsync,
            )
            self.hosts.append(make_host(transport, cfg))

        # Routing state: each live edge is recorded once — local edges
        # as eid -> shard id, cross edges as eid -> edge — plus the
        # handoff's cross state over the registry.
        self._location: Dict[EdgeId, int] = {}
        self._cross: Dict[EdgeId, Edge] = {}
        self._state = CrossState(self._cross)
        # Per-shard caches refreshed from every apply response.
        self._shard_work = [0.0] * shards
        self._shard_depth = [0.0] * shards
        self._shard_matching = [0] * shards
        self._shard_live = [0] * shards
        self.batch_stats: List[ShardBatchStats] = []
        self.shard_stats: Dict[str, int] = {
            "batches": 0,
            "local_updates": 0,
            "cross_updates": 0,
            "proposals": 0,
            "accepts": 0,
            "rejects": 0,
        }
        self._ledger_view = MergedLedger(self)
        self._metrics = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Durability plumbing
    # ------------------------------------------------------------------ #
    def _create_durable_root(self, root: str, fsync: bool):
        from repro.durability.journal import JournalError, JournalWriter

        os.makedirs(root, exist_ok=True)
        manifest_path = os.path.join(root, MANIFEST_FILE)
        if os.path.exists(manifest_path):
            raise JournalError(
                f"{root} already holds a sharded run ({MANIFEST_FILE} exists); "
                "use recover_sharded() or a fresh directory"
            )
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, **self.config}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        router_dir = os.path.join(root, ROUTER_DIR)
        os.makedirs(router_dir, exist_ok=True)
        return JournalWriter.create(
            os.path.join(router_dir, "journal.jsonl"),
            config=dict(self.config),
            rng_state={"sharded_router": True},
            fsync=fsync,
        )

    @classmethod
    def _adopted(cls, config: dict, hosts, journal, state) -> "ShardedMatching":
        """Internal: build a router around already-recovered shards
        (used by :func:`repro.sharding.recovery.resume_sharded`)."""
        self = cls.__new__(cls)
        self.k = int(config["shards"])
        self.rank = int(config["rank"])
        self.seed = config["seed"]
        self.transport = "inline"
        self.config = dict(config)
        self.router_ledger = Ledger()
        self.durability_root = state.get("durability_root")
        self._journal = journal
        self.hosts = list(hosts)
        self._location = dict(state["location"])
        self._cross = dict(state["cross"])
        self._state = CrossState(self._cross)
        self._shard_work = [0.0] * self.k
        self._shard_depth = [0.0] * self.k
        self._shard_matching = [0] * self.k
        self._shard_live = [0] * self.k
        self.batch_stats = []
        self.shard_stats = {
            "batches": 0, "local_updates": 0, "cross_updates": 0,
            "proposals": 0, "accepts": 0, "rejects": 0,
        }
        self._ledger_view = MergedLedger(self)
        self._metrics = None
        self._closed = False
        self._refresh_shard_caches()
        return self

    def _refresh_shard_caches(self) -> None:
        for host in self.hosts:
            host.request("ledger_totals")
        for s, host in enumerate(self.hosts):
            work, depth, _ = host.response()
            self._shard_work[s] = work
            self._shard_depth[s] = depth
        for host in self.hosts:
            host.request("num_edges")
        for s, host in enumerate(self.hosts):
            self._shard_live[s] = host.response()

    # ------------------------------------------------------------------ #
    # Public queries (algorithm duck-type + merge views)
    # ------------------------------------------------------------------ #
    @property
    def ledger(self) -> MergedLedger:
        """Merged cost view: router charges + every shard's ledger."""
        return self._ledger_view

    def __len__(self) -> int:
        return sum(self._shard_live) + len(self._cross)

    def __contains__(self, eid: EdgeId) -> bool:
        return eid in self._location or eid in self._cross

    @property
    def num_updates(self) -> int:
        return self.shard_stats["local_updates"] + self.shard_stats["cross_updates"]

    def matched_ids(self) -> List[EdgeId]:
        """The merged maximal matching: shard-local + accepted cross."""
        for host in self.hosts:
            host.request("matched_ids")
        merged: List[EdgeId] = []
        for host in self.hosts:
            merged.extend(host.response())
        merged.extend(self._state.matched())
        return sorted(merged)

    def matching_size(self) -> int:
        """Size of the merged matching, from the cached shard sizes."""
        return sum(self._shard_matching) + self._state.num_matched()

    def cross_matched(self) -> List[EdgeId]:
        """The accepted cross edges, ascending."""
        return self._state.matched()

    def all_edges(self) -> List[Edge]:
        """Every live edge across shards and the cross registry."""
        for host in self.hosts:
            host.request("all_edges")
        edges: List[Edge] = []
        for host in self.hosts:
            edges.extend(host.response())
        edges.extend(self._cross.values())
        return edges

    def match_of(self, v: Vertex) -> Optional[EdgeId]:
        """The merged matching's cover of ``v`` (local first, then cross):
        one call to ``v``'s shard, then a scan of ``v``'s cross edges."""
        local, eids = self.hosts[shard_of_vertex(v, self.k)].call("cross_cover", v)
        if local is not None or eids is None:
            return local
        unmatched = self._state.unmatched
        for eid in eids if isinstance(eids, list) else (eids,):
            if eid not in unmatched:
                return eid
        return None

    def ledger_breakdown(self) -> Dict:
        """Per-shard ledger totals plus the router's own charges.

        The differential suite certifies ``merged == router + sum(shards)``
        — the conservation law of the cost accounting.
        """
        for host in self.hosts:
            host.request("ledger_totals")
        shards = []
        for s, host in enumerate(self.hosts):
            work, depth, by_tag = host.response()
            self._shard_work[s] = work
            self._shard_depth[s] = depth
            shards.append((s, work, depth, by_tag))
        return {
            "shards": shards,
            "router": (self.router_ledger.work, self.router_ledger.depth,
                       dict(self.router_ledger.by_tag)),
            "merged_work": self.router_ledger.work + sum(w for _, w, _, _ in shards),
            "merged_depth": self.router_ledger.depth + sum(d for _, _, d, _ in shards),
        }

    def certificate(self) -> MatchingCertificate:
        """An independently verifiable proof of merged maximality.

        Local witnesses come from each shard's owner pointers; cross
        witnesses are derived from the handoff state.  Verify with
        ``certificate().verify(router.all_edges())``.
        """
        matched = tuple(self.matched_ids())
        witness: Dict[EdgeId, EdgeId] = {}
        for host in self.hosts:
            host.request("certificate_pairs")
        for host in self.hosts:
            witness.update(dict(host.response()))
        witness.update(handoff.derive(self._state, self.k).witness)
        return MatchingCertificate(matched=matched, witness=witness)

    def check_invariants(self) -> None:
        """Per-shard Definition 4.1 invariants + router bookkeeping
        consistency + an end-to-end certificate verification."""
        for host in self.hosts:
            host.request("check_invariants")
        for host in self.hosts:
            host.response()
        state = self._state
        assert state.cross is self._cross, "cross state lost the registry"
        assert state.unmatched <= self._cross.keys(), "unmatched cross edge not live"
        assert not self._cross.keys() & self._location.keys(), (
            "an edge is recorded both as local and as cross"
        )
        for host in self.hosts:
            host.request("all_edges")
        edges: List[Edge] = []
        for s, host in enumerate(self.hosts):
            local = host.response()
            assert {e.eid for e in local} == {
                eid for eid, loc in self._location.items() if loc == s
            }, f"location map disagrees with shard {s}'s edges"
            edges.extend(local)
        # Shard frontiers against a recount of the registry, and the
        # router's cov and multi against the shards' own covers.
        recount: Dict[Vertex, List[EdgeId]] = {}
        for eid in sorted(self._cross):
            for v in self._cross[eid].vertices:
                recount.setdefault(v, []).append(eid)
        for host in self.hosts:
            host.request("frontier_entries")
        frontier: Dict[Vertex, tuple] = {}
        for s, host in enumerate(self.hosts):
            for v, entry in host.response().items():
                assert shard_of_vertex(v, self.k) == s, f"shard {s} holds vertex {v}"
                frontier[v] = entry
        assert {v: eids for v, (_, eids) in frontier.items()} == recount, (
            "shard frontiers disagree with the cross registry"
        )
        assert state.cov == {
            v: m for v, (m, _) in frontier.items() if m is not None
        }, "router cov disagrees with the shards' covers"
        assert {v: sorted(eids) for v, eids in state.multi.items()} == {
            v: eids for v, eids in recount.items() if len(eids) > 1
        }, "router multi disagrees with the shared endpoints"
        # Every status follows the rule: matched edges are matchable, and
        # every unmatched edge has a witness.
        derived = handoff.derive(state, self.k)
        assert all(state.matchable(e) for e in derived.matched), (
            "a matched cross edge breaks the greedy rule"
        )
        assert derived.witness.keys() == state.unmatched, (
            "an unmatched cross edge has no blocker"
        )
        edges.extend(self._cross.values())
        self.certificate().verify(edges)

    # ------------------------------------------------------------------ #
    # Batch interface
    # ------------------------------------------------------------------ #
    def insert_edges(self, edges: Sequence[Edge]) -> ShardBatchStats:
        edges = list(edges)
        ids = [e.eid for e in edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids within the batch")
        for e in edges:
            if e.eid in self._location or e.eid in self._cross:
                raise KeyError(f"edge {e.eid} already present")
            if e.cardinality > self.rank:
                raise ValueError(
                    f"edge {e.eid} has cardinality {e.cardinality} > rank "
                    f"bound {self.rank}"
                )
        return self._apply(UpdateBatch.insert(edges))

    def delete_edges(self, eids: Sequence[EdgeId]) -> ShardBatchStats:
        eids = list(eids)
        if len(set(eids)) != len(eids):
            raise ValueError("duplicate edge ids within the batch")
        for eid in eids:
            if eid not in self._location and eid not in self._cross:
                raise KeyError(eid)
        return self._apply(UpdateBatch.delete(eids))

    def apply_batch(self, batch: UpdateBatch) -> ShardBatchStats:
        if batch.kind == "insert":
            return self.insert_edges(list(batch.edges))
        return self.delete_edges(list(batch.eids))

    # ------------------------------------------------------------------ #
    def _apply(self, batch: UpdateBatch) -> ShardBatchStats:
        if self._closed:
            raise RuntimeError("router is closed")
        # 1. Write-ahead at the router: the full batch is durable before
        #    any shard sees its part.
        if self._journal is not None:
            self._journal.append_batch(batch)

        stats = ShardBatchStats(
            kind=batch.kind,
            batch_index=self.shard_stats["batches"],
            batch_size=batch.size,
        )
        w0 = self.ledger.work
        d0 = self.ledger.depth

        # 2. Split (pure function of batch + K).
        if batch.kind == "insert":
            split = split_insert(batch.edges, self.k)
        else:
            split = split_delete(batch.eids, self._location, self._cross, self.k)
        self.router_ledger.charge(
            work=batch.size, depth=log2ceil(max(batch.size, 2)), tag="shard_split"
        )
        stats.n_local = split.n_local
        stats.n_cross = split.n_cross

        # 3. Dispatch every shard's sub-batch (empty ones included, so
        #    shard journals stay seq-aligned with the router journal) and
        #    its cross-endpoint registrations; shard processes settle
        #    concurrently.
        location, cross = self._location, self._cross
        if batch.kind == "insert":
            cross_edges, plan = split.cross, split.plan
        else:
            cross_edges = [cross[eid] for eid in split.cross]
            plan = handoff.proposal_vertices(cross_edges, self.k)
        report, readings = self._dispatch(split, plan)

        # Routing-map and cross-registry maintenance, after every shard
        # acknowledged.
        if batch.kind == "insert":
            for s, part in enumerate(split.locals_):
                for e in part:
                    location[e.eid] = s
            for e in cross_edges:
                cross[e.eid] = e
            inserted, deleted = cross_edges, ()
        else:
            for part in split.locals_:
                for eid in part:
                    del location[eid]
            for eid in split.cross:
                del cross[eid]
            inserted, deleted = (), cross_edges

        # 4. Incremental handoff over what the batch touched.
        if cross_edges or report:
            self._resolve_cross(inserted, deleted, report, stats)

        stats.work = self.ledger.work - w0
        stats.depth = self.ledger.depth - d0
        self.shard_stats["batches"] += 1
        self.shard_stats["local_updates"] += split.n_local
        self.shard_stats["cross_updates"] += split.n_cross
        self.batch_stats.append(stats)
        self._publish_metrics(stats, readings)
        return stats

    def _dispatch(
        self,
        split: BatchSplit,
        plan: List[Tuple[List[Vertex], List[EdgeId]]],
    ) -> Tuple[Dict[Vertex, ReportEntry], List[dict]]:
        """Send every shard its sub-batch and registrations; return the
        merged frontier report (shards own disjoint vertices) and the
        shards' readings, in shard order."""
        for s, host in enumerate(self.hosts):
            xv, xe = plan[s]
            host.request("apply", (split.kind, split.locals_[s], xv, xe))
        report: Dict[Vertex, ReportEntry] = {}
        readings = []
        for s, host in enumerate(self.hosts):
            reading = host.response()
            frontier = reading.pop("frontier", None)
            if frontier:
                report.update(frontier)
            self._shard_work[s] += reading["work"]
            self._shard_depth[s] += reading["depth"]
            self._shard_matching[s] = reading["matching_size"]
            self._shard_live[s] = reading["live_edges"]
            readings.append(reading)
        return report, readings

    def _resolve_cross(
        self,
        inserted: Sequence[Edge],
        deleted: Sequence[Edge],
        report: Dict[Vertex, ReportEntry],
        stats: ShardBatchStats,
    ) -> None:
        n_report = len(report)
        self.router_ledger.charge(
            work=n_report, depth=log2ceil(max(n_report, 2)), tag="handoff_propose"
        )
        decided, accepts, cascade = handoff.resolve(
            self._state, inserted, deleted, report
        )
        self.router_ledger.charge(
            work=decided, depth=log2ceil(max(decided, 2)), tag="handoff_decide"
        )
        stats.proposals = decided
        stats.accepts = accepts
        stats.rejects = decided - accepts
        stats.cascade = cascade
        self.shard_stats["proposals"] += decided
        self.shard_stats["accepts"] += accepts
        self.shard_stats["rejects"] += stats.rejects

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def attach_observer(self, observer) -> None:
        """Register the ``repro_shard_*`` metric catalog (idempotent per
        registry) and start publishing per-batch shard readings."""
        reg = observer.registry
        self._metrics = {
            "count": reg.gauge("repro_shard_count", "Number of shards"),
            "batches": reg.counter(
                "repro_shard_batches_total", "Batches routed through the shard router"
            ),
            "local": reg.counter(
                "repro_shard_local_updates_total",
                "Updates routed to a single shard", ("shard",),
            ),
            "cross_live": reg.gauge(
                "repro_shard_cross_edges", "Live cross-shard edges"
            ),
            "cross_matched": reg.gauge(
                "repro_shard_cross_matched", "Cross-shard edges in the merged matching"
            ),
            "proposals": reg.counter(
                "repro_shard_handoff_proposals_total",
                "Cross edges re-decided by the incremental handoff",
            ),
            "accepts": reg.counter(
                "repro_shard_handoff_accepts_total", "Re-decided cross edges matched"
            ),
            "rejects": reg.counter(
                "repro_shard_handoff_rejects_total", "Re-decided cross edges unmatched"
            ),
            "cascade": reg.histogram(
                "repro_shard_handoff_cascade",
                "Longest chain of cross-edge status flips per batch",
                buckets=CASCADE_BUCKETS,
            ),
            "matching": reg.gauge(
                "repro_shard_matching_size", "Local matching size", ("shard",)
            ),
            "work": reg.gauge(
                "repro_shard_ledger_work", "Cumulative shard ledger work", ("shard",)
            ),
        }
        self._metrics["count"].set(self.k)
        self._published = dict(self.shard_stats)
        self._published_local = [0] * self.k

    def _publish_metrics(self, stats: ShardBatchStats, readings: List[dict]) -> None:
        if self._metrics is None:
            return
        m = self._metrics
        prev = self._published
        m["batches"].inc(self.shard_stats["batches"] - prev["batches"])
        m["proposals"].inc(self.shard_stats["proposals"] - prev["proposals"])
        m["accepts"].inc(self.shard_stats["accepts"] - prev["accepts"])
        m["rejects"].inc(self.shard_stats["rejects"] - prev["rejects"])
        self._published = dict(self.shard_stats)
        m["cross_live"].set(len(self._cross))
        m["cross_matched"].set(self._state.num_matched())
        m["cascade"].observe(stats.cascade)
        for s, reading in enumerate(readings):
            m["local"].labels(shard=str(s)).inc(reading["applied"])
            m["matching"].labels(shard=str(s)).set(self._shard_matching[s])
            m["work"].labels(shard=str(s)).set(self._shard_work[s])

    def resettle_cross(self) -> ShardBatchStats:
        """Rebuild the shard frontiers and the cross state from the cross
        registry, outside a batch.

        Coordinated recovery uses this: once the shards are recovered and
        the cross registry is rebuilt from the router journal, the cross
        matching is a pure function of ``(live cross edges, shard
        covers)``, and the incremental handoff seeded with every live
        cross edge reproduces it exactly.
        """
        stats = ShardBatchStats(
            kind="resettle", batch_index=self.shard_stats["batches"], batch_size=0
        )
        self._state = CrossState(self._cross)
        edges = list(self._cross.values())
        if edges:
            plan = handoff.proposal_vertices(edges, self.k)
            for host, (xv, xe) in zip(self.hosts, plan):
                host.request("reset_frontier", (xv, xe))
            report: Dict[Vertex, ReportEntry] = {}
            for host in self.hosts:
                report.update(host.response())
            self._resolve_cross(edges, (), report, stats)
        return stats

    # ------------------------------------------------------------------ #
    def checkpoint_now(self) -> None:
        """Force a checkpoint on every durable shard."""
        for host in self.hosts:
            host.request("checkpoint_now")
        for host in self.hosts:
            host.response()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for host in self.hosts:
            try:
                host.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "ShardedMatching":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
