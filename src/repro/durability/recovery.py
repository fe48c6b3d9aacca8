"""Crash recovery: checkpoint + journal replay, with certified equivalence.

``recover`` rebuilds a :class:`~repro.core.DynamicMatching` from a
durability directory: it loads the newest *valid* checkpoint (corrupt or
journal-inconsistent ones are skipped), replays the journal tail with the
persisted RNG stream, and — when asked — **certifies** that the result is
bit-identical to an uninterrupted run.

The certification oracle is a fresh instance built from the journal
header (initial config + initial RNG state) replaying every trusted batch
from sequence 0.  Because the journal is written ahead of every apply and
snapshots are behaviorally exact state copies, the recovered
instance must agree with the oracle on:

* the matching (edge ids, exactly);
* the live edge set;
* the ledger's work and depth totals (float-exact — the same charge
  sequence produces the same floats);
* an independently verified :func:`repro.core.certify.certify`
  certificate, plus the full Definition 4.1 invariant check.

Any disagreement raises :class:`RecoveryCertificationError` — recovery is
*certified*, not merely "it didn't throw": the leveled structure carries
invariants (levels, sample spaces, owners) that silent corruption can
break without changing the matching.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.certify import certify
from repro.core.dynamic_matching import DynamicMatching
from repro.core.snapshot import rng_from_state
from repro.durability.checkpoint import latest_valid_checkpoint, restore_from_checkpoint
from repro.durability.journal import JOURNAL_FILE, JournalData, read_journal
from repro.workloads.streams import UpdateBatch


class RecoveryError(RuntimeError):
    """Recovery could not produce a structure (e.g. unusable journal)."""


class RecoveryCertificationError(RecoveryError):
    """The recovered structure does not match the uninterrupted oracle."""


@dataclass
class RecoveryResult:
    """What :func:`recover` produced and how."""

    dm: DynamicMatching
    applied: int  # batches absorbed by the recovered instance
    journal: JournalData
    checkpoint_applied: Optional[int]  # None => full replay from scratch
    replayed: int  # batches replayed on top of the checkpoint
    anomalies: List[str] = field(default_factory=list)
    certified: bool = False
    report: Dict[str, Any] = field(default_factory=dict)


def _fresh_from_header(journal: JournalData, backend: Optional[str]) -> DynamicMatching:
    cfg = journal.config
    return DynamicMatching(
        rank=int(cfg["rank"]),
        rng=rng_from_state(journal.rng_state),
        alpha=int(cfg["alpha"]),
        heavy_factor=float(cfg["heavy_factor"]),
        backend=backend or cfg.get("backend", "array"),
    )


def _apply(dm: DynamicMatching, batch: UpdateBatch) -> None:
    if batch.kind == "insert":
        dm.insert_edges(list(batch.edges))
    else:
        dm.delete_edges(list(batch.eids))


def replay_journal(
    journal: JournalData,
    upto: Optional[int] = None,
    backend: Optional[str] = None,
) -> DynamicMatching:
    """An uninterrupted run over the journal's trusted batches [0, upto)."""
    dm = _fresh_from_header(journal, backend)
    batches = journal.batches if upto is None else journal.batches[:upto]
    for batch in batches:
        _apply(dm, batch)
    return dm


def recover(
    directory: str,
    backend: Optional[str] = None,
    do_certify: bool = True,
) -> RecoveryResult:
    """Recover the structure persisted in ``directory``.

    Loads the newest valid checkpoint (if any), replays the journal tail,
    and certifies the result against a from-scratch oracle replay unless
    ``do_certify`` is False.  ``backend`` overrides the structure backend
    for the *recovered* instance (checkpoints and journals are
    backend-neutral); the oracle always uses the journal's own config.

    Cost note: certification builds its oracle by replaying **every**
    trusted batch from sequence 0 — it is O(full journal history) no
    matter how recent the checkpoint, because the oracle is what proves
    the checkpoint itself was honest.  Recovery without certification is
    O(journal tail past the checkpoint).  For long-running services,
    either bound the journal length (start a fresh durability directory
    after a certified recovery) or pass ``do_certify=False`` and certify
    offline.
    """
    journal = read_journal(os.path.join(directory, JOURNAL_FILE))
    anomalies = list(journal.anomalies)

    payload, skipped = latest_valid_checkpoint(directory, max_applied=len(journal.batches))
    anomalies.extend(skipped)

    if payload is not None:
        dm = restore_from_checkpoint(payload, backend=backend)
        start = int(payload["applied"])
        checkpoint_applied: Optional[int] = start
    else:
        dm = _fresh_from_header(journal, backend)
        start = 0
        checkpoint_applied = None

    for batch in journal.batches[start:]:
        _apply(dm, batch)

    result = RecoveryResult(
        dm=dm,
        applied=len(journal.batches),
        journal=journal,
        checkpoint_applied=checkpoint_applied,
        replayed=len(journal.batches) - start,
        anomalies=anomalies,
    )
    if do_certify:
        result.report = certify_against_oracle(result)
        result.certified = True
    return result


def certify_against_oracle(result: RecoveryResult) -> Dict[str, Any]:
    """Prove the recovered instance equals an uninterrupted run.

    Replays the full trusted journal into a fresh oracle and checks
    matching ids, edge sets, ledger totals, the matching certificate, and
    the structure invariants.  Returns a report dict on success; raises
    :class:`RecoveryCertificationError` on the first disagreement.

    This is O(full journal history): the oracle starts from the header's
    initial RNG state and replays from sequence 0 regardless of which
    checkpoint recovery used, since a checkpoint cannot vouch for itself.
    """
    dm = result.dm
    oracle = replay_journal(result.journal)

    failures: List[str] = []
    rec_matched, ora_matched = dm.matched_ids(), oracle.matched_ids()
    if rec_matched != ora_matched:
        failures.append(f"matching differs: recovered {rec_matched} != oracle {ora_matched}")
    rec_edges = {e.eid for e in dm.structure.all_edges()}
    ora_edges = {e.eid for e in oracle.structure.all_edges()}
    if rec_edges != ora_edges:
        failures.append(
            f"edge sets differ: only-recovered {sorted(rec_edges - ora_edges)}, "
            f"only-oracle {sorted(ora_edges - rec_edges)}"
        )
    if dm.ledger.work != oracle.ledger.work:
        failures.append(f"ledger work differs: {dm.ledger.work} != {oracle.ledger.work}")
    if dm.ledger.depth != oracle.ledger.depth:
        failures.append(f"ledger depth differs: {dm.ledger.depth} != {oracle.ledger.depth}")

    if not failures:
        try:
            dm.check_invariants()
            certify(dm).verify(oracle.current_graph().edges())
        except AssertionError as exc:
            failures.append(f"certificate/invariant check failed: {exc}")

    if failures:
        raise RecoveryCertificationError(
            "recovered state is not equivalent to the uninterrupted run:\n  - "
            + "\n  - ".join(failures)
        )
    return {
        "batches": result.applied,
        "replayed": result.replayed,
        "checkpoint_applied": result.checkpoint_applied,
        "matching_size": len(rec_matched),
        "live_edges": len(rec_edges),
        "work": dm.ledger.work,
        "depth": dm.ledger.depth,
        "anomalies": list(result.anomalies),
    }
