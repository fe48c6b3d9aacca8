"""Coordinated recovery of a sharded durability root.

A durable sharded run persists three things under its root directory:
``sharding.json`` (the service manifest), ``router/journal.jsonl`` (the
router's write-ahead journal of every *full* incoming batch), and one
``shard-XX/`` durability directory per shard (journal + rolling
checkpoints, maintained by the shard itself).

Because the router journals a batch **before** dispatching it, and every
shard journals its (possibly empty) sub-batch **before** applying it,
shard journal sequence numbers align 1:1 with router sequence numbers,
and the router journal's trusted batch count ``R`` is the commit point of
the whole service.  Recovery is then:

1. **Recover each shard independently** from its own directory
   (:func:`repro.durability.recover` — newest valid checkpoint + journal
   tail replay, individually certified against its own journal oracle).
2. **Top up lagging shards.**  A shard that crashed behind the router
   (applied ``A < R`` batches) is fed the missing sub-batches — recomputed
   by *replaying the pure split* of router batches ``[A, R)`` — through
   the normal write-ahead protocol, so its journal catches up to ``R``.
3. **Rebuild unusable shards from the router journal alone.**  A shard
   whose directory is too damaged to recover (or that disagrees with the
   recomputed splits, or ran *ahead* of the trusted router prefix) is
   rebuilt from scratch: fresh structure, fresh per-shard journal, all
   ``R`` sub-batches replayed through the write-ahead protocol.  The
   router journal is a complete backup of every shard.
4. **Re-run the handoff.**  The cross registry at sequence ``R`` falls
   out of the split replay; the cross matching is a pure, history-free
   function of (live cross edges, shard covers), so
   :meth:`~repro.sharding.router.ShardedMatching.resettle_cross` —
   which rebuilds every shard's frontier from the registry and runs the
   incremental handoff seeded with every live cross edge — reproduces
   it exactly.
5. **Certify** (unless ``do_certify=False``): every shard journal's
   content must equal the recomputed splits record-for-record, and the
   recovered merged state must agree — matching ids, live edge set, and
   per-shard float-exact ledger totals — with a from-scratch sharded
   oracle replaying the router journal.  The merged matching certificate
   is verified against every live edge.

The returned router is live (inline transport, journals resumed) and can
continue serving batches.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.dynamic_matching import DynamicMatching
from repro.durability.journal import JOURNAL_FILE, JournalData, read_journal
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import RecoveryError, recover
from repro.hypergraph.edge import Edge, EdgeId
from repro.sharding.partition import (
    BatchSplit,
    shard_rng,
    split_delete,
    split_insert,
)
from repro.sharding.router import (
    MANIFEST_FILE,
    ROUTER_DIR,
    ShardedMatching,
    shard_dir,
)
from repro.sharding.shard import Shard, ShardConfig
from repro.sharding.transport import InlineShardHost
from repro.workloads.streams import UpdateBatch


class ShardedRecoveryError(RecoveryError):
    """The sharded root could not be recovered to a certified state."""


@dataclass
class ShardedRecoveryResult:
    """What :func:`recover_sharded` produced and how."""

    router: ShardedMatching
    applied: int  # router batches the recovered service reflects (R)
    per_shard: List[Dict[str, Any]] = field(default_factory=list)
    anomalies: List[str] = field(default_factory=list)
    certified: bool = False
    report: Dict[str, Any] = field(default_factory=dict)


def read_manifest(directory: str) -> Dict[str, Any]:
    path = os.path.join(directory, MANIFEST_FILE)
    if not os.path.exists(path):
        raise ShardedRecoveryError(f"{directory} has no {MANIFEST_FILE} manifest")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def is_sharded_root(directory: str) -> bool:
    """True when ``directory`` holds a sharded durability root."""
    return os.path.exists(os.path.join(directory, MANIFEST_FILE))


def replay_splits(
    batches: List[UpdateBatch], k: int
) -> Tuple[List[BatchSplit], Dict[EdgeId, int], Dict[EdgeId, Edge]]:
    """Pure split replay of the router journal's trusted prefix.

    Returns the per-batch splits plus the router's two edge records as of
    the last batch: the eid → shard map of the live local edges and the
    live cross-edge registry.  Deterministic: splitting depends only on
    the batch contents and K.
    """
    location: Dict[EdgeId, int] = {}
    cross: Dict[EdgeId, Edge] = {}
    splits: List[BatchSplit] = []
    for batch in batches:
        if batch.kind == "insert":
            split = split_insert(batch.edges, k)
            for s, part in enumerate(split.locals_):
                for e in part:
                    location[e.eid] = s
            for e in split.cross:
                cross[e.eid] = e
        else:
            try:
                split = split_delete(batch.eids, location, cross, k)
            except KeyError as exc:
                raise ShardedRecoveryError(
                    f"router journal deletes unknown edge {exc}"
                ) from exc
            for part in split.locals_:
                for eid in part:
                    del location[eid]
            for eid in split.cross:
                del cross[eid]
        splits.append(split)
    return splits, location, cross


def _sub_batch(split: BatchSplit, s: int) -> UpdateBatch:
    part = split.locals_[s]
    if split.kind == "insert":
        return UpdateBatch.insert(list(part))
    return UpdateBatch.delete(list(part))


def _apply_sub(dm: DynamicMatching, batch: UpdateBatch) -> None:
    if batch.kind == "insert":
        dm.insert_edges(list(batch.edges))
    else:
        dm.delete_edges(list(batch.eids))


def _journal_matches_splits(
    journal: JournalData, splits: List[BatchSplit], s: int
) -> Optional[str]:
    """Replay-consistency: the shard's journaled sub-batches must equal
    the splits recomputed from the router journal, record for record."""
    for seq, batch in enumerate(journal.batches):
        if seq >= len(splits):
            return f"shard journal seq {seq} beyond router trusted prefix"
        expect = _sub_batch(splits[seq], s)
        if batch.kind != expect.kind:
            return f"seq {seq}: kind {batch.kind!r} != expected {expect.kind!r}"
        got = [e.eid for e in batch.edges] if batch.kind == "insert" else list(batch.eids)
        want = (
            [e.eid for e in expect.edges] if expect.kind == "insert" else list(expect.eids)
        )
        if got != want:
            return f"seq {seq}: ids {got} != expected {want}"
    return None


def _shard_config(config: Dict[str, Any], s: int, root: str, fsync: bool) -> ShardConfig:
    return ShardConfig(
        shard_id=s,
        shards=int(config["shards"]),
        seed=config["seed"],
        rank=int(config["rank"]),
        alpha=int(config["alpha"]),
        heavy_factor=float(config["heavy_factor"]),
        backend=config.get("backend", "array"),
        durability_dir=shard_dir(root, s),
        checkpoint_every=int(config.get("checkpoint_every", 16)),
        keep=int(config.get("keep", 2)),
        fsync=fsync,
    )


def _rebuild_shard(
    cfg: ShardConfig, splits: List[BatchSplit], upto: int
) -> Tuple[DynamicMatching, DurabilityManager]:
    """Rebuild a shard from nothing but the router journal: wipe its
    directory and replay its ``upto`` sub-batches through the normal
    write-ahead protocol (fresh journal, fresh checkpoints)."""
    shutil.rmtree(cfg.durability_dir, ignore_errors=True)
    dm = DynamicMatching(
        rank=cfg.rank,
        rng=shard_rng(cfg.seed, cfg.shards, cfg.shard_id),
        alpha=cfg.alpha,
        heavy_factor=cfg.heavy_factor,
        backend=cfg.backend,
    )
    manager = DurabilityManager.create(
        cfg.durability_dir,
        dm,
        checkpoint_every=cfg.checkpoint_every,
        keep=cfg.keep,
        fsync=cfg.fsync,
    )
    for seq in range(upto):
        batch = _sub_batch(splits[seq], cfg.shard_id)
        manager.log_batch(batch)
        _apply_sub(dm, batch)
        manager.note_applied(dm)
    return dm, manager


def recover_sharded(
    directory: str,
    do_certify: bool = True,
    fsync: bool = True,
) -> ShardedRecoveryResult:
    """Recover a sharded durability root to a live, certified router.

    See the module docstring for the protocol.  The result's ``router``
    uses the inline transport with every journal resumed — it can keep
    serving batches (and keeps journaling them durably).
    """
    config = read_manifest(directory)
    k = int(config["shards"])

    router_journal = read_journal(
        os.path.join(directory, ROUTER_DIR, JOURNAL_FILE)
    )
    anomalies = [f"router: {a}" for a in router_journal.anomalies]
    commit = len(router_journal.batches)
    splits, location, cross = replay_splits(router_journal.batches, k)

    hosts: List[InlineShardHost] = []
    per_shard: List[Dict[str, Any]] = []
    for s in range(k):
        cfg = _shard_config(config, s, directory, fsync)
        info: Dict[str, Any] = {"shard": s, "rebuilt": False, "topped_up": 0}
        dm = manager = None
        reason: Optional[str] = None
        try:
            res = recover(cfg.durability_dir, backend=cfg.backend, do_certify=do_certify)
        except (RecoveryError, OSError, AssertionError) as exc:
            reason = f"recover failed: {exc}"
        else:
            info["anomalies"] = list(res.anomalies)
            anomalies.extend(f"shard {s}: {a}" for a in res.anomalies)
            if res.applied > commit:
                reason = (
                    f"shard applied {res.applied} batches but router trusts "
                    f"only {commit}"
                )
            else:
                reason = _journal_matches_splits(res.journal, splits, s)
                if reason is None:
                    dm = res.dm
                    manager = DurabilityManager.resume(
                        cfg.durability_dir,
                        applied=res.applied,
                        checkpoint_every=cfg.checkpoint_every,
                        keep=cfg.keep,
                        fsync=fsync,
                    )
                    # Top up a lagging shard through the normal protocol.
                    for seq in range(res.applied, commit):
                        batch = _sub_batch(splits[seq], s)
                        manager.log_batch(batch)
                        _apply_sub(dm, batch)
                        manager.note_applied(dm)
                    info["recovered_applied"] = res.applied
                    info["topped_up"] = commit - res.applied

        if dm is None:
            # Last resort: the router journal is a complete backup.
            info["rebuilt"] = True
            info["rebuild_reason"] = reason
            anomalies.append(f"shard {s}: rebuilt from router journal ({reason})")
            dm, manager = _rebuild_shard(cfg, splits, commit)

        hosts.append(InlineShardHost.adopt(cfg, Shard.adopt(cfg, dm, manager)))
        per_shard.append(info)

    from repro.durability.journal import JournalWriter

    writer = JournalWriter.resume(
        os.path.join(directory, ROUTER_DIR, JOURNAL_FILE),
        next_seq=commit,
        fsync=fsync,
    )
    router = ShardedMatching._adopted(
        config,
        hosts,
        writer,
        {"location": location, "cross": cross, "durability_root": directory},
    )
    router.resettle_cross()

    result = ShardedRecoveryResult(
        router=router,
        applied=commit,
        per_shard=per_shard,
        anomalies=anomalies,
    )
    if do_certify:
        result.report = certify_sharded_recovery(result, router_journal, config)
        result.certified = True
    return result


def certify_sharded_recovery(
    result: ShardedRecoveryResult,
    router_journal: JournalData,
    config: Dict[str, Any],
) -> Dict[str, Any]:
    """Prove the recovered service equals an uninterrupted sharded run.

    Replays the router journal's trusted prefix through a fresh inline
    :class:`ShardedMatching` (same manifest, no durability) and checks the
    merged matching ids, the live edge set, and per-shard float-exact
    ledger totals; then verifies the merged matching certificate and the
    per-shard Definition 4.1 invariants on the *recovered* router.
    Raises :class:`ShardedRecoveryError` on the first disagreement.
    """
    router = result.router
    oracle = ShardedMatching(
        shards=int(config["shards"]),
        rank=int(config["rank"]),
        seed=config["seed"],
        alpha=int(config["alpha"]),
        heavy_factor=float(config["heavy_factor"]),
        backend=config.get("backend", "array"),
        transport="inline",
    )
    failures: List[str] = []
    try:
        for batch in router_journal.batches:
            oracle.apply_batch(batch)

        rec_m, ora_m = router.matched_ids(), oracle.matched_ids()
        if rec_m != ora_m:
            failures.append(f"merged matching differs: {rec_m} != {ora_m}")
        rec_e = sorted(e.eid for e in router.all_edges())
        ora_e = sorted(e.eid for e in oracle.all_edges())
        if rec_e != ora_e:
            failures.append(f"live edge sets differ: {rec_e} != {ora_e}")
        rec_led = router.ledger_breakdown()["shards"]
        ora_led = oracle.ledger_breakdown()["shards"]
        for (s, rw, rd, _), (_, ow, od, _) in zip(rec_led, ora_led):
            if rw != ow or rd != od:
                failures.append(
                    f"shard {s} ledger differs: ({rw}, {rd}) != ({ow}, {od})"
                )
        if not failures:
            try:
                router.check_invariants()
            except AssertionError as exc:
                failures.append(f"certificate/invariant check failed: {exc}")
    finally:
        oracle.close()

    if failures:
        raise ShardedRecoveryError(
            "recovered sharded state is not equivalent to an uninterrupted run:\n  - "
            + "\n  - ".join(failures)
        )
    return {
        "batches": result.applied,
        "shards": int(config["shards"]),
        "matching_size": len(router.matched_ids()),
        "live_edges": len(router),
        "cross_edges": len(router._cross),
        "rebuilt": [i["shard"] for i in result.per_shard if i["rebuilt"]],
        "topped_up": {
            i["shard"]: i["topped_up"] for i in result.per_shard if i["topped_up"]
        },
        "anomalies": list(result.anomalies),
    }
