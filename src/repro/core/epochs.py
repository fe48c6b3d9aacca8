"""Epoch lifecycle tracking and per-batch statistics (§5).

An *epoch* is the lifetime of a match, from the ``add_match`` that creates
it to the deletion that destroys it.  The paper's charging argument hinges
on classifying epoch deaths:

* **natural** — the user deleted the matched edge (``delete_edges``);
* **stolen** — a randomSettle matched a new edge incident on it;
* **bloated** — after adjustCrossEdges it owned too many cross edges for
  its level and was resettled.

Stolen and bloated deaths are the *induced* deletions; Lemma 5.6/5.7 bound
their total sample space by that of natural deletions.  The tracker keeps
the §5 aggregates experiments E1, E2, E7 and E16 read (death counts by
kind, settle-time sample sums, total added sample) as running sums, and an
event log of births and deaths for consumers that replay it (the query
tier's lazy epoch capture, the shards' cross-frontier reports).

**The log is columnar and trimmed.**  Births and deaths are numbered by
absolute sequence numbers (``births``/``deaths`` count every event ever
recorded) and stored as typed columns, not one object per epoch.  A
consumer registers a reader (:meth:`EpochTracker.register_reader`) and
advances its :class:`LogCursor` as it consumes; the *low watermark* is the
oldest registered cursor, or the start of the current batch when no
reader is registered.  Compaction drops every dead birth below the
watermark and every death below it, so the retained log stays
O(live matches + unread events).  A death record carries the birth
sequence number, the edge id and the vertices, so a reader never needs a
birth that was trimmed.  :class:`Epoch` is a read-only view into the
retained window, built only for callers that ask for one.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.hypergraph.edge import EdgeId

NATURAL = "natural"
STOLEN = "stolen"
BLOATED = "bloated"
INDUCED_KINDS = (STOLEN, BLOATED)

#: Death-kind codes of the ``kind`` column (0 = alive).
_KINDS = (None, NATURAL, STOLEN, BLOATED)
_KIND_CODE = {NATURAL: 1, STOLEN: 2, BLOATED: 3}


class Epoch:
    """Read-only view of one match lifetime in the tracker's retained log.

    Fields are read from the tracker's columns on access, so a view taken
    at birth reports the death once it happens.  Reading a view whose
    record compaction has dropped raises ``LookupError``.
    """

    __slots__ = ("_tracker", "seq")

    def __init__(self, tracker: "EpochTracker", seq: int) -> None:
        self._tracker = tracker
        self.seq = seq

    def _get(self, column: str):
        log = self._tracker._log
        return getattr(log, column)[log.pos(self.seq)]

    @property
    def eid(self) -> EdgeId:
        return self._get("eid")

    @property
    def level(self) -> int:
        return self._get("level")

    @property
    def sample_size(self) -> int:
        """|S(m)| at settle time."""
        return self._get("size")

    @property
    def birth_batch(self) -> int:
        return self._get("bbatch")

    @property
    def death_batch(self) -> Optional[int]:
        b = self._get("dbatch")
        return None if b < 0 else b

    @property
    def death_kind(self) -> Optional[str]:
        """NATURAL / STOLEN / BLOATED, or None while alive."""
        return _KINDS[self._get("kind")]

    @property
    def vertices(self) -> Tuple:
        """The matched edge's vertices (shared with the Edge, no copy)."""
        return self._get("verts")

    @property
    def alive(self) -> bool:
        return self._get("kind") == 0

    @property
    def induced(self) -> bool:
        return self.death_kind in INDUCED_KINDS

    def __repr__(self) -> str:
        return f"Epoch(seq={self.seq})"


class EpochLog:
    """One generation of the tracker's columns; compaction replaces it whole.

    Readers take a generation (:attr:`EpochTracker.log`) once per read
    and slice the columns they need between two sequence numbers with
    :meth:`births` and :meth:`deaths`: rows below the current ends are
    frozen, so the slices are safe while the writer appends.

    Birth positions ``[0, len(pseq))`` hold live records kept from below
    the watermark of the compaction that built this generation (their
    sequence numbers in ``pseq``, ascending); positions from there on are
    the contiguous births ``b0, b0 + 1, ...``, so ``pos = seq + shift``.
    Death positions are ``seq - d0``.  Columns are only ever appended to
    after construction, so a reader that took this generation keeps a
    consistent view while the writer moves on.
    """

    __slots__ = (
        "b0", "shift", "pseq", "eid", "level", "size", "bbatch", "dbatch",
        "kind", "verts", "d0", "dbseq", "deid", "dverts",
    )

    def __init__(self) -> None:
        self.pseq = array("q")
        self.b0 = 0
        self.shift = 0
        self.eid: list = []  # a list: edge ids may exceed 64 bits
        self.level = array("i")
        self.size = array("q")
        self.bbatch = array("q")
        self.dbatch = array("q")  # -1 while alive
        self.kind = array("b")  # 0 alive, else a _KIND_CODE
        self.verts: list = []
        self.d0 = 0
        self.dbseq = array("q")
        self.deid: list = []
        self.dverts: list = []

    def pos(self, seq: int) -> int:
        """Column position of birth ``seq`` (LookupError once trimmed)."""
        if seq >= self.b0:
            p = seq + self.shift
            if p < len(self.level):
                return p
        else:
            p = bisect_left(self.pseq, seq)
            if p < len(self.pseq) and self.pseq[p] == seq:
                return p
        raise LookupError(f"epoch record {seq} is not in the retained log")

    def seq_at(self, p: int) -> int:
        return self.pseq[p] if p < len(self.pseq) else p - self.shift

    def births(self, column: str, start: int, stop: int):
        """Birth column ``column`` for sequence numbers ``[start, stop)``
        (``start`` at or above this generation's ``b0``)."""
        return getattr(self, column)[start + self.shift : stop + self.shift]

    def deaths(self, column: str, start: int, stop: int):
        """Death column ``column`` (``dbseq``, ``deid`` or ``dverts``) for
        sequence numbers ``[start, stop)``."""
        return getattr(self, column)[start - self.d0 : stop - self.d0]

    def _copy(self) -> "EpochLog":
        new = EpochLog.__new__(EpochLog)
        for name in EpochLog.__slots__:
            setattr(new, name, getattr(self, name))
        return new

    def with_deaths_from(self, d0: int) -> "EpochLog":
        """This generation with the deaths below ``d0`` dropped (birth
        columns shared)."""
        new = self._copy()
        k = d0 - self.d0
        new.d0 = d0
        new.dbseq = self.dbseq[k:]
        new.deid = self.deid[k:]
        new.dverts = self.dverts[k:]
        return new

    def without_dead_below(self, pw: int) -> "EpochLog":
        """This generation with the dead births at positions below ``pw``
        dropped (death columns shared).  The live ones kept from below
        ``pw`` become the new generation's sparse prefix."""
        kind = np.frombuffer(self.kind, dtype=np.int8)
        keep = np.concatenate((np.flatnonzero(kind[:pw] == 0), np.arange(pw, kind.size)))
        npre = keep.size - (kind.size - pw)
        seqs = np.concatenate((
            np.frombuffer(self.pseq, dtype=np.int64),
            np.arange(self.b0, self.b0 + kind.size - len(self.pseq), dtype=np.int64),
        ))
        new = self._copy()
        new.pseq = array("q", seqs[keep[:npre]].tobytes())
        new.b0 = pw - self.shift
        new.shift = npre - new.b0
        for name in ("level", "size", "bbatch", "dbatch", "kind"):
            old = getattr(self, name)
            col = array(old.typecode)
            col.frombytes(np.frombuffer(old, dtype=f"i{old.itemsize}")[keep].tobytes())
            setattr(new, name, col)
        kept = keep.tolist()
        new.eid = list(map(self.eid.__getitem__, kept))
        new.verts = list(map(self.verts.__getitem__, kept))
        return new


class LogCursor:
    """A registered reader's position in the epoch log: the next birth and
    death sequence numbers it has yet to consume.  The reader advances
    both fields itself; the tracker retains every event at or above the
    oldest registered cursor."""

    __slots__ = ("births", "deaths", "__weakref__")

    def __init__(self, births: int, deaths: int) -> None:
        self.births = births
        self.deaths = deaths


@dataclass
class SettleRound:
    """Per-round accounting inside one ``delete_edges`` call (Lemma 5.6).

    ``added_sample`` is S_a (total sample size of new matches this round);
    ``deleted_sample`` is S_d (total settle-time sample size of this
    round's stolen deletes plus the previous round's bloated deletes).
    """

    input_edges: int = 0
    new_matches: int = 0
    added_sample: int = 0
    stolen: int = 0
    bloated: int = 0
    stolen_sample: int = 0
    bloated_sample: int = 0


@dataclass
class BatchStats:
    """Aggregates for one batch operation (insert or delete)."""

    kind: str  # "insert" / "delete"
    batch_index: int
    batch_size: int
    work: float = 0.0
    depth: float = 0.0
    settle_rounds: List[SettleRound] = field(default_factory=list)
    natural_deaths: int = 0
    induced_deaths: int = 0
    light_matches: int = 0
    heavy_matches: int = 0
    new_epochs: int = 0

    @property
    def num_rounds(self) -> int:
        return len(self.settle_rounds)


class _EpochsView:
    """The retained birth log as a read-only sequence of :class:`Epoch`
    views, oldest first (the whole history while a reader pins 0)."""

    __slots__ = ("_t", "_log")

    def __init__(self, tracker: "EpochTracker") -> None:
        self._t = tracker
        self._log = tracker._log

    def __len__(self) -> int:
        return len(self._log.level)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("epoch index out of range")
        return Epoch(self._t, self._log.seq_at(i))

    def __iter__(self) -> Iterator[Epoch]:
        log, t = self._log, self._t
        return (Epoch(t, log.seq_at(p)) for p in range(len(log.level)))


class EpochTracker:
    """Records epoch births and deaths across the run."""

    def __init__(self) -> None:
        self._log = EpochLog()
        self._live: Dict[EdgeId, int] = {}  # eid -> birth sequence number
        self._readers: "weakref.WeakSet[LogCursor]" = weakref.WeakSet()
        # Dead records in the current generation's birth columns (an
        # upper bound on the droppable births), and the (watermark, size)
        # before which a check that found too little to drop is not
        # repeated.
        self._dead = 0
        self._recheck: Optional[Tuple[int, int]] = None
        # Running §5 aggregates.
        self._count = {NATURAL: 0, STOLEN: 0, BLOATED: 0}
        self._sample = {NATURAL: 0, STOLEN: 0, BLOATED: 0}
        self._added = 0
        self.batch_index = 0

    # ------------------------------------------------------------------ #
    # Log positions and readers
    # ------------------------------------------------------------------ #
    @property
    def log(self) -> EpochLog:
        """The current generation of the log columns (for readers)."""
        return self._log

    @property
    def births(self) -> int:
        """Births ever recorded (the next birth's sequence number)."""
        log = self._log
        return len(log.level) - log.shift

    @property
    def deaths(self) -> int:
        """Deaths ever recorded (the next death's sequence number)."""
        log = self._log
        return log.d0 + len(log.dbseq)

    def register_reader(self) -> LogCursor:
        """A cursor that pins the log from its current ends until it is
        released or garbage-collected.  A reader registered before any
        event keeps the whole history."""
        cursor = LogCursor(self.births, self.deaths)
        self._readers.add(cursor)
        return cursor

    def release_reader(self, cursor: Optional[LogCursor]) -> None:
        """Stop ``cursor`` pinning the log (no-op for None or unknown)."""
        if cursor is not None:
            self._readers.discard(cursor)

    def _watermark(self) -> Tuple[int, int]:
        """(births, deaths) below which no reader needs the log, at a
        batch boundary: the oldest registered cursor, or everything
        recorded so far (the start of the new batch) with no reader."""
        readers = list(self._readers)
        if readers:
            return (min(c.births for c in readers), min(c.deaths for c in readers))
        return self.births, self.deaths

    def retained(self) -> int:
        """Birth plus death records currently held."""
        log = self._log
        return len(log.level) + len(log.dbseq)

    # ------------------------------------------------------------------ #
    # Events (called by DynamicMatching)
    # ------------------------------------------------------------------ #
    def _append_birth(self, eid: EdgeId, level: int, sample_size: int, vertices) -> int:
        live = self._live
        if eid in live:
            raise ValueError(f"edge {eid} already has a live epoch")
        log = self._log
        seq = len(log.level) - log.shift
        log.eid.append(eid)
        log.level.append(level)
        log.size.append(sample_size)
        log.bbatch.append(self.batch_index)
        log.dbatch.append(-1)
        log.kind.append(0)
        log.verts.append(vertices)
        live[eid] = seq
        self._added += sample_size
        return seq

    def birth(
        self, eid: EdgeId, level: int, sample_size: int, vertices: Tuple = ()
    ) -> Epoch:
        return Epoch(self, self._append_birth(eid, level, sample_size, vertices))

    def birth_batch(self, items: Iterable[Tuple]) -> None:
        """Record many births at once: ``(eid, level, sample_size)`` or
        ``(eid, level, sample_size, vertices)`` each.

        Identical semantics to calling :meth:`birth` per item (same
        validation, same epoch order), without building views.
        """
        add = self._append_birth
        for item in items:
            add(item[0], item[1], item[2], item[3] if len(item) > 3 else ())

    def birth_level0_batch(self, edges: Iterable) -> None:
        """Record level-0 singleton births for freshly matched edges.

        Semantically ``birth_batch((e.eid, 0, 1, e.vertices) ...)``, but
        the common all-new case extends every column in bulk.  Falls back
        to the per-item loop (for its exact error and partial-state
        semantics) when any edge already has a live epoch.
        """
        edges = list(edges)
        live = self._live
        ids = [e.eid for e in edges]
        n = len(ids)
        if len(set(ids)) != n or not live.keys().isdisjoint(ids):
            self.birth_batch((e.eid, 0, 1, e.vertices) for e in edges)
            return
        if not n:
            return
        log = self._log
        s0 = len(log.level) - log.shift
        log.eid.extend(ids)
        log.level.extend(array("i", (0,)) * n)
        log.size.extend(array("q", (1,)) * n)
        log.bbatch.extend(array("q", (self.batch_index,)) * n)
        log.dbatch.extend(array("q", (-1,)) * n)
        log.kind.frombytes(bytes(n))
        log.verts.extend([e.vertices for e in edges])
        live.update(zip(ids, range(s0, s0 + n)))
        self._added += n

    def death(self, eid: EdgeId, kind: str) -> Epoch:
        self.death_batch((eid,), kind)
        return Epoch(self, self._log.dbseq[-1])

    def death_batch(self, eids: Sequence[EdgeId], kind: str) -> None:
        """Record many deaths of one kind — same semantics as per-item
        :meth:`death` calls, without building views.

        A batch of at least :data:`repro.native.VEC_MIN` distinct live
        ids is applied in bulk: one pop pass, column scatters of the
        kind and death batch, one gather-sum of the sample sizes and
        bulk appends to the death columns, in batch order.  Any other
        batch takes the per-item loop, which applies the deaths before
        an unknown (or repeated) id and then raises.
        """
        code = _KIND_CODE.get(kind)
        if code is None:
            raise ValueError(f"unknown death kind {kind!r}")
        if not eids:
            return
        if len(eids) >= native.VEC_MIN:
            ids = set(eids)
            if len(ids) == len(eids) and ids <= self._live.keys():
                self._death_bulk(eids, code, kind)
                return
        pop = self._live.pop
        log = self._log
        b0, shift, pos = log.b0, log.shift, log.pos
        kcol, dcol, size, verts = log.kind, log.dbatch, log.size, log.verts
        dbseq, deid, dverts = log.dbseq.append, log.deid.append, log.dverts.append
        bi = self.batch_index
        n = s = 0
        try:
            for eid in eids:
                seq = pop(eid, None)
                if seq is None:
                    raise ValueError(f"edge {eid} has no live epoch")
                p = seq + shift if seq >= b0 else pos(seq)
                kcol[p] = code
                dcol[p] = bi
                s += size[p]
                n += 1
                dbseq(seq)
                deid(eid)
                dverts(verts[p])
        finally:
            self._count[kind] += n
            self._sample[kind] += s
            self._dead += n

    def _death_bulk(self, eids: Sequence[EdgeId], code: int, kind: str) -> None:
        """:meth:`death_batch` over distinct live ids, column-wise."""
        log = self._log
        sq = np.fromiter(map(self._live.pop, eids), dtype=np.int64, count=len(eids))
        pos = sq + log.shift
        low = sq < log.b0
        if low.any():
            # Live births kept from below the last compaction's
            # watermark sit in the sparse prefix, found by bisection.
            pos[low] = np.searchsorted(
                np.frombuffer(log.pseq, dtype=np.int64), sq[low]
            )
        np.frombuffer(log.kind, dtype=np.int8)[pos] = code
        np.frombuffer(log.dbatch, dtype=np.int64)[pos] = self.batch_index
        log.dbseq.frombytes(sq.tobytes())
        log.deid.extend(eids)
        log.dverts.extend(map(log.verts.__getitem__, pos.tolist()))
        self._count[kind] += len(eids)
        self._sample[kind] += int(np.frombuffer(log.size, dtype=np.int64)[pos].sum())
        self._dead += len(eids)

    def next_batch(self) -> None:
        self.batch_index += 1
        self._maybe_compact()

    # ------------------------------------------------------------------ #
    # Trimming
    # ------------------------------------------------------------------ #
    def _maybe_compact(self) -> None:
        """Trim the dead births below the watermark once they are at
        least half of the birth rows held, and the deaths below it (a
        prefix) once they are at least half of the death rows held and
        those outnumber the birth rows.  Each trim is an O(held) rebuild
        paid for by Ω(held) events since the last one, so amortized O(1)
        per event; the common batch only compares counts.  The trimmed
        generation is swapped in whole, so readers holding the previous
        one are undisturbed."""
        log = self._log
        nb, nd = len(log.level), len(log.dbseq)
        births_due = nb and 2 * self._dead >= nb
        if not births_due and (not nd or nd < nb):
            return
        wb, wd = self._watermark()
        new = log
        if births_due:
            rc = self._recheck
            if rc is None or rc[0] != wb or nb >= rc[1]:
                pw = min(max(wb + log.shift, len(log.pseq)), nb)
                drop = pw - log.kind[:pw].tobytes().count(0)
                if drop and 2 * drop >= nb:
                    new = log.without_dead_below(pw)
                    self._dead = len(new.kind) - new.kind.tobytes().count(0)
                    self._recheck = None
                else:
                    self._recheck = (wb, nb + nb // 4 + 1)
        k = min(max(wd - log.d0, 0), nd)
        if k and 2 * k >= nd and nd >= len(new.level):
            new = new.with_deaths_from(log.d0 + k)
        if new is not log:
            self._log = new

    # ------------------------------------------------------------------ #
    # Aggregates (§5 quantities)
    # ------------------------------------------------------------------ #
    def live_ids(self):
        """The edge ids with a live epoch (a read-only keys view)."""
        return self._live.keys()

    def live_epochs(self) -> List[Epoch]:
        return [Epoch(self, s) for s in self._live.values()]

    @property
    def epochs(self) -> _EpochsView:
        """The retained birth log as :class:`Epoch` views."""
        return _EpochsView(self)

    def dead(self, kind: Optional[str] = None) -> List[Epoch]:
        """Views of the dead epochs still in the retained log."""
        log = self._log
        want = None if kind is None else _KIND_CODE.get(kind, -1)
        return [
            Epoch(self, log.seq_at(p))
            for p, k in enumerate(log.kind)
            if k and (want is None or k == want)
        ]

    def total_sample(self, kind: Optional[str] = None) -> int:
        """Total settle-time sample size over dead epochs of a kind
        (S_n for natural, S_i summing stolen+bloated), or all dead."""
        if kind is None:
            return sum(self._sample.values())
        if kind == "induced":
            return self._sample[STOLEN] + self._sample[BLOATED]
        return self._sample.get(kind, 0)

    def total_added_sample(self) -> int:
        """S_a: total sample size over *all* epochs ever created."""
        return self._added

    def counts(self) -> Dict[str, int]:
        out = dict(self._count)
        out["alive"] = len(self._live)
        return out

    def sums(self) -> Dict[str, object]:
        """The running aggregates, JSON-serializable (saved in
        checkpoints so a recovered tracker reports the same totals)."""
        return {
            "counts": dict(self._count),
            "samples": dict(self._sample),
            "added": self._added,
        }

    def restore_sums(self, sums: Dict[str, object]) -> None:
        """Reinstate aggregates saved by :meth:`sums`."""
        self._count = {k: int(sums["counts"][k]) for k in self._count}
        self._sample = {k: int(sums["samples"][k]) for k in self._sample}
        self._added = int(sums["added"])
