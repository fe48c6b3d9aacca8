"""Checkpoint files: periodic full-state snapshots beside the journal.

A checkpoint is a single JSON file ``checkpoint-<applied>.json`` holding a
:mod:`repro.core.snapshot` state (structure + RNG stream + capacity/order
history; version 3 is written, versions 1-3 load) plus the run telemetry
a snapshot deliberately excludes: ledger totals, per-tag work, update
counters and the epoch tracker's running aggregates (death counts by
kind, sample sums, total added sample).  ``applied`` is the number of
journal batches absorbed when the checkpoint was taken, so recovery
resumes replay at exactly that offset.

Checkpoints are written atomically (temp file + ``os.replace``) and
checksummed the same way as journal records: ``crc`` is the CRC-32 of the
canonical JSON of the other fields (sorted keys, no whitespace), and the
file is the canonical JSON of all of them.  Both encodings are one-shot
``json.dumps`` calls, which take the C encoder (``json.dump`` to a file
never does).  A corrupt checkpoint is detected by CRC (or JSON) failure
and simply skipped — recovery falls back to the previous checkpoint, or
to a full journal replay.  A checkpoint claiming more applied batches
than the journal holds violates the write-ahead discipline (batches are
fsynced before they are applied) and is likewise skipped as
untrustworthy.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.core.dynamic_matching import DynamicMatching
from repro.core.snapshot import load_state, save_state

CHECKPOINT_VERSION = 1

_CKPT_RE = re.compile(r"^checkpoint-(\d+)\.json$")


def checkpoint_name(applied: int) -> str:
    return f"checkpoint-{applied:08d}.json"


def _canonical(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def checkpoint_payload(dm: DynamicMatching, applied: int) -> Dict[str, Any]:
    """The full recoverable state of ``dm`` after ``applied`` batches."""
    ledger = dm.ledger
    return {
        "version": CHECKPOINT_VERSION,
        "applied": applied,
        "state": save_state(dm),
        "ledger": {
            "work": ledger.work,
            "depth": ledger.depth,
            "by_tag": dict(ledger.by_tag),
        },
        "updates_processed": dm.num_updates,
        "batch_index": dm.tracker.batch_index,
        "tracker": dm.tracker.sums(),
        "backend": dm.backend,
    }


def write_checkpoint(directory: str, dm: DynamicMatching, applied: int) -> str:
    """Atomically write a checkpoint; returns its path."""
    payload = checkpoint_payload(dm, applied)
    payload["crc"] = zlib.crc32(_canonical(payload))
    data = _canonical(payload)
    path = os.path.join(directory, checkpoint_name(applied))
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def list_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """(applied, path) for every checkpoint file, newest first."""
    out: List[Tuple[int, str]] = []
    for name in os.listdir(directory):
        m = _CKPT_RE.match(name)
        if m:
            out.append((int(m.group(1)), os.path.join(directory, name)))
    out.sort(reverse=True)
    return out


def load_checkpoint(path: str) -> Optional[Dict[str, Any]]:
    """Parse and verify one checkpoint file; None if corrupt."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "crc" not in payload:
        return None
    claimed = payload["crc"]
    body = {k: v for k, v in payload.items() if k != "crc"}
    if zlib.crc32(_canonical(body)) != claimed:
        return None
    if payload.get("version") != CHECKPOINT_VERSION:
        return None
    return payload


def latest_valid_checkpoint(
    directory: str, max_applied: Optional[int] = None
) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    """The newest checkpoint that verifies and is consistent with the
    journal (``applied <= max_applied``); plus notes on skipped ones."""
    skipped: List[str] = []
    for applied, path in list_checkpoints(directory):
        if max_applied is not None and applied > max_applied:
            skipped.append(
                f"{os.path.basename(path)}: claims {applied} applied batches but the "
                f"journal only holds {max_applied}; skipped as inconsistent"
            )
            continue
        payload = load_checkpoint(path)
        if payload is None:
            skipped.append(f"{os.path.basename(path)}: corrupt (checksum/parse); skipped")
            continue
        return payload, skipped
    return None, skipped


def restore_from_checkpoint(
    payload: Dict[str, Any], backend: Optional[str] = None
) -> DynamicMatching:
    """Rebuild a :class:`DynamicMatching` from a verified checkpoint.

    The snapshot restore re-derives structure state (charging the ledger
    as it goes); the saved ledger totals, counters and tracker aggregates
    are then reinstated so the instance is indistinguishable from one
    that never stopped.  A checkpoint without saved aggregates keeps the
    ones the restore derives from the live matches.
    """
    dm = load_state(payload["state"], backend=backend or payload.get("backend", "array"))
    led = payload["ledger"]
    dm.ledger.restore(led["work"], led["depth"], led.get("by_tag"))
    dm._updates_processed = int(payload.get("updates_processed", 0))
    dm.tracker.batch_index = int(payload.get("batch_index", 0))
    if payload.get("tracker") is not None:
        dm.tracker.restore_sums(payload["tracker"])
    return dm


def prune_checkpoints(directory: str, keep: int) -> None:
    """Delete all but the ``keep`` newest checkpoint files."""
    for _, path in list_checkpoints(directory)[max(keep, 1):]:
        try:
            os.remove(path)
        except OSError:
            pass
