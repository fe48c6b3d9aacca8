"""Span-based tracing of the batch lifecycle.

A :class:`Span` covers one timed region (a batch, a journal append, a
checkpoint); point-in-time :meth:`Tracer.event` marks (the phase-hook
events of :class:`~repro.core.DynamicMatching`) attach to whichever span
is currently open.  Finished spans are kept in a bounded in-memory ring
(the single source of truth :class:`repro.analysis.trace.RunTrace` reads
from) and fanned out to sinks — the JSONL event log and the metrics
registry (the batch-seconds histogram) in :mod:`repro.obs.observer`.

Span taxonomy (docs/observability.md):

``batch``
    Root span of one update batch (attrs: ``kind``, ``size``, ``index``;
    closed with ledger/matching attrs by the runner).
``journal.append`` / ``checkpoint``
    Durability children, when a :class:`DurabilityManager` is in play.
``apply``
    The in-memory batch operation; phase-hook marks
    (``insert.registered``, ``delete.settle_round``, ...) land here as
    events, which is how settle rounds become countable per batch.

Tracing is wall-clock only.  It never touches the cost ledger: the
zero-perturbation contract (tests/obs/test_differential.py) is that
work/depth accounting is bit-identical with tracing on or off.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple


class Span:
    """One timed region.  ``dur`` is filled in when the span finishes."""

    __slots__ = ("name", "span_id", "parent_id", "t0", "dur", "attrs", "events")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        t0: float,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = t0  # wall-clock (time.time) start
        self.dur: Optional[float] = None  # seconds, set on finish
        self.attrs: Dict[str, object] = {}
        self.events: List[Tuple[str, float]] = []  # (name, seconds-since-t0)

    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_record(self, kind: str = "span") -> Dict[str, object]:
        """JSON-serializable form (the JSONL exporter's line payload)."""
        return {
            "type": kind,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t0": self.t0,
            "dur": self.dur,
            "attrs": dict(self.attrs),
            "events": [[n, dt] for n, dt in self.events],
        }


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self.span)
        return False


class Tracer:
    """Creates, nests, finishes, and fans out spans.

    Span ids are sequential integers (no randomness: traces are
    reproducible modulo timestamps).  ``keep`` bounds the in-memory
    finished-span ring; sinks see every span regardless.
    """

    def __init__(self, keep: int = 4096) -> None:
        self.finished: Deque[Span] = deque(maxlen=keep)
        self._stack: List[Span] = []
        self._next_id = 0
        self._start_sinks: List[Callable[[Span], None]] = []
        self._finish_sinks: List[Callable[[Span], None]] = []
        # perf_counter anchors dur; time.time anchors t0 for humans
        self._wall = time.time
        self._clock = time.perf_counter
        self._t0_clock: Dict[int, float] = {}

    # -- sinks --------------------------------------------------------- #
    def add_start_sink(self, cb: Callable[[Span], None]) -> None:
        """Called when a span *opens* (lets the event log persist open
        spans, so a crash mid-span leaves a recoverable record)."""
        self._start_sinks.append(cb)

    def add_finish_sink(self, cb: Callable[[Span], None]) -> None:
        self._finish_sinks.append(cb)

    # -- span lifecycle ------------------------------------------------ #
    def span(self, name: str, **attrs: object) -> _SpanHandle:
        """Open a child of the current span (or a root span)."""
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(name, self._next_id, parent, self._wall())
        self._next_id += 1
        sp.attrs.update(attrs)
        self._t0_clock[sp.span_id] = self._clock()
        self._stack.append(sp)
        for cb in self._start_sinks:
            cb(sp)
        return _SpanHandle(self, sp)

    def _finish(self, sp: Span) -> None:
        for i in range(len(self._stack) - 1, -1, -1):
            if self._stack[i] is sp:
                # Mis-nesting (a crash unwound through several handles)
                # closes every span opened after this one too.
                del self._stack[i:]
                break
        start = self._t0_clock.pop(sp.span_id, None)
        sp.dur = (self._clock() - start) if start is not None else 0.0
        self.finished.append(sp)
        for cb in self._finish_sinks:
            cb(sp)

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def event(self, name: str) -> None:
        """Attach a point-in-time mark to the open span (dropped when no
        span is open — phase hooks may fire outside any batch)."""
        if not self._stack:
            return
        sp = self._stack[-1]
        sp.events.append((name, self._clock() - self._t0_clock[sp.span_id]))

    # -- reading ------------------------------------------------------- #
    def finished_spans(self, name: Optional[str] = None) -> List[Span]:
        if name is None:
            return list(self.finished)
        return [s for s in self.finished if s.name == name]
