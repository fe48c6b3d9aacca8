"""The Observer: one handle wiring registry + tracer + sinks.

An :class:`Observer` owns a :class:`MetricsRegistry` and a
:class:`Tracer`, declares the standard metric catalog
(docs/observability.md), and chains onto the **phase hooks** of
:class:`~repro.core.DynamicMatching` and
:class:`~repro.durability.DurabilityManager` (so a previously installed
hook — e.g. a fault injector — keeps firing).  It never touches a
ledger: per-batch figures arrive through :meth:`Observer.finish_batch`,
the per-tag work series as the ``by_tag`` delta the caller measured
around the batch, so observation does no work per charge and changes
no route.

``default_observer()`` returns the process-wide observer the workload
runner emits batch spans into when the caller does not supply one —
live telemetry is on by default, with per-batch O(1) overhead and no
effect on ledger accounting.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.exporters import JsonlEventLog
from repro.obs.registry import (
    DEFAULT_SECONDS_BUCKETS,
    DEFAULT_WORK_BUCKETS,
    MetricsRegistry,
)
from repro.obs.tracing import Span, Tracer

#: Buckets for small nonneg integers (settle rounds per delete batch).
ROUNDS_BUCKETS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)

#: Buckets for native kernel call latency (microseconds to ~100ms —
#: kernels are per-batch, far below the batch-seconds scale).
KERNEL_SECONDS_BUCKETS = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 0.1,
)


class Observer:
    """Wires the observability subsystem around one serving process."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.event_log: Optional[JsonlEventLog] = None
        reg = self.registry
        self.batches = reg.counter(
            "repro_batches_total", "Update batches applied", ("kind",)
        )
        self.updates = reg.counter(
            "repro_updates_total", "Edge updates applied", ("kind",)
        )
        self.batch_work = reg.histogram(
            "repro_batch_work", "Ledger work per batch", ("kind",),
            buckets=DEFAULT_WORK_BUCKETS,
        )
        self.batch_depth = reg.histogram(
            "repro_batch_depth", "Ledger depth per batch", ("kind",),
            buckets=DEFAULT_WORK_BUCKETS,
        )
        self.batch_seconds = reg.histogram(
            "repro_batch_seconds", "Wall-clock seconds per batch", ("kind",),
            buckets=DEFAULT_SECONDS_BUCKETS,
        )
        self.settle_rounds = reg.histogram(
            "repro_batch_settle_rounds", "randomSettle rounds per delete batch",
            buckets=ROUNDS_BUCKETS,
        )
        self.matching_size = reg.gauge(
            "repro_matching_size", "Current maximal matching size"
        )
        self.live_edges = reg.gauge(
            "repro_live_edges", "Edges currently in the structure"
        )
        self.ledger_work = reg.gauge(
            "repro_ledger_work_total", "Cumulative ledger work (paper cost model)"
        )
        self.ledger_depth = reg.gauge(
            "repro_ledger_depth_total", "Cumulative composed ledger depth"
        )
        self.work_by_tag = reg.counter(
            "repro_ledger_work_by_tag_total",
            "Ledger work charged, by accounting tag",
            ("tag",),
        )
        self.phase_events = reg.counter(
            "repro_phase_events_total", "Algorithm phase-hook events", ("phase",)
        )
        self.journal_appends = reg.counter(
            "repro_journal_batches_total", "Batches durably journaled"
        )
        self.checkpoints = reg.counter(
            "repro_checkpoints_total", "Checkpoints written"
        )
        # Dynamic fast path (docs/hotpath.md): BatchFrames built, batches
        # applied by the array backend vs the dict oracle's per-edge
        # pipeline, and the running array-backend fraction.
        self.dynamic_frames = reg.counter(
            "repro_dynamic_batch_frames_total",
            "BatchFrames built by the vectorized dynamic pipeline",
        )
        self.dynamic_vector_batches = reg.counter(
            "repro_dynamic_batch_vectorized_total",
            "Update batches that ran the vectorized fast path",
        )
        self.dynamic_object_batches = reg.counter(
            "repro_dynamic_batch_object_total",
            "Update batches that ran the object (per-edge) pipeline",
        )
        self.dynamic_vectorized_fraction = reg.gauge(
            "repro_dynamic_batch_vectorized_fraction",
            "Fraction of the observed batches that ran vectorized",
        )
        # Numpy hot kernels (docs/hotpath.md): per-kernel call counts
        # and per-call wall-clock timing, fed by repro.native's timing
        # hook (attach_native_kernels).
        self.native_kernel_calls = reg.counter(
            "repro_native_kernel_calls_total",
            "Hot-kernel calls through repro.native",
            ("kernel",),
        )
        self.native_kernel_seconds = reg.histogram(
            "repro_native_kernel_seconds",
            "Wall-clock seconds per native kernel call",
            ("kernel",),
            buckets=KERNEL_SECONDS_BUCKETS,
        )
        #: tag -> its repro_ledger_work_by_tag_total child (one lookup per
        #: published tag instead of a label-set validation)
        self._tag_work: dict = {}
        # Batch wall-clock lands in the histogram when the span closes
        # (its duration is only known then).
        self.tracer.add_finish_sink(self._on_span_finish)

    def _on_span_finish(self, span: Span) -> None:
        if span.name == "batch" and span.dur is not None:
            kind = str(span.attrs.get("kind", ""))
            if kind in ("insert", "delete"):
                self.batch_seconds.labels(kind=kind).observe(span.dur)

    # ------------------------------------------------------------------ #
    # Sinks
    # ------------------------------------------------------------------ #
    def open_event_log(self, path: str) -> JsonlEventLog:
        """Start appending every span to a JSONL file."""
        self.event_log = JsonlEventLog(path).attach(self.tracer)
        return self.event_log

    def close(self) -> None:
        if self.event_log is not None:
            self.event_log.close()
            self.event_log = None

    # ------------------------------------------------------------------ #
    # Attachment to the instrumentation surfaces
    # ------------------------------------------------------------------ #
    def _on_phase(self, name: str) -> None:
        self.phase_events.labels(phase=name).inc()
        self.tracer.event(name)

    def attach_matching(self, dm) -> Callable[[], None]:
        """Chain onto ``dm``'s phase hook.  Returns a zero-arg detach
        that restores exactly what was installed before."""
        prev = dm.phase_hook
        on_phase = self._on_phase

        if prev is None:
            dm.set_phase_hook(on_phase)
        else:
            def chained(name: str, _prev=prev) -> None:
                on_phase(name)  # record first: a crashing prev still leaves a mark
                _prev(name)

            dm.set_phase_hook(chained)

        def detach() -> None:
            dm.set_phase_hook(prev)

        return detach

    def attach_native_kernels(self) -> Callable[[], None]:
        """Feed the ``repro_native_*`` metrics from :mod:`repro.native`'s
        per-call timing hook.  Returns a zero-arg detach that restores
        the previously installed hook."""
        from repro import native

        calls = self.native_kernel_calls
        seconds = self.native_kernel_seconds

        def hook(kernel: str, dt: float) -> None:
            calls.labels(kernel=kernel).inc()
            seconds.labels(kernel=kernel).observe(dt)

        prev = native.set_timing_hook(hook)

        def detach() -> None:
            native.set_timing_hook(prev)

        return detach

    def attach_durability(self, mgr) -> Callable[[], None]:
        """Chain onto a :class:`DurabilityManager`'s phase hook."""
        prev = mgr.phase_hook
        counters = {
            "durability.log_batch": self.journal_appends,
            "durability.checkpoint": self.checkpoints,
        }

        def hook(name: str) -> None:
            c = counters.get(name)
            if c is not None:
                c.inc()
            self._on_phase(name)
            if prev is not None:
                prev(name)

        mgr.phase_hook = hook

        def detach() -> None:
            mgr.phase_hook = prev

        return detach

    # ------------------------------------------------------------------ #
    # Batch lifecycle (used by workloads.runner and cli)
    # ------------------------------------------------------------------ #
    def batch_span(self, kind: str, size: int, index: int):
        """Open the root span of one update batch."""
        return self.tracer.span("batch", kind=kind, size=size, index=index)

    def finish_batch(
        self,
        span: Span,
        *,
        kind: str,
        size: int,
        work: float,
        depth: float,
        matching_size: int,
        live_edges: int,
        settle_rounds: int = 0,
        ledger_work: Optional[float] = None,
        ledger_depth: Optional[float] = None,
        vec_delta: Optional[dict] = None,
        tag_work: Optional[dict] = None,
    ) -> None:
        """Publish one batch's measurements: span attrs + metrics.

        Called while the batch span is still open (its duration is
        recorded by the tracer when the ``with`` block exits).

        ``vec_delta`` is this batch's change in a
        :class:`~repro.core.DynamicMatching`'s ``vec_stats`` (measured by
        the caller); it advances the ``repro_dynamic_batch_*`` counters,
        and the fraction gauge reads those counters' totals.

        ``tag_work`` is this batch's per-tag ledger work (the change in
        ``ledger.by_tag`` across the batch, measured by the caller); it
        advances ``repro_ledger_work_by_tag_total``.  Being per-batch
        deltas, both stay exact when several instances publish into one
        observer."""
        span.set(
            work=work,
            depth=depth,
            matching_size=matching_size,
            live_edges=live_edges,
            settle_rounds=settle_rounds,
        )
        self.batches.labels(kind=kind).inc()
        self.updates.labels(kind=kind).inc(size)
        self.batch_work.labels(kind=kind).observe(work)
        self.batch_depth.labels(kind=kind).observe(depth)
        if kind == "delete":
            self.settle_rounds.observe(settle_rounds)
        self.matching_size.set(matching_size)
        self.live_edges.set(live_edges)
        if ledger_work is not None:
            self.ledger_work.set(ledger_work)
        if ledger_depth is not None:
            self.ledger_depth.set(ledger_depth)
        if vec_delta is not None:
            self._observe_vec_delta(vec_delta)
        if tag_work:
            children = self._tag_work
            for tag, w in tag_work.items():
                child = children.get(tag)
                if child is None:
                    child = children[tag] = self.work_by_tag.labels(tag=tag)
                child.inc(w)

    def _observe_vec_delta(self, vec_delta: dict) -> None:
        """Advance the dynamic fast-path counters by one batch's
        ``vec_stats`` delta, and set the fraction gauge from the
        counters' totals."""
        for key, counter in (
            ("frames", self.dynamic_frames),
            ("vector_batches", self.dynamic_vector_batches),
            ("object_batches", self.dynamic_object_batches),
        ):
            delta = vec_delta.get(key, 0)
            if delta > 0:
                counter.inc(delta)
        vector = self.dynamic_vector_batches.value()
        total = vector + self.dynamic_object_batches.value()
        if total:
            self.dynamic_vectorized_fraction.set(vector / total)

_default: Optional[Observer] = None


def default_observer() -> Observer:
    """The process-wide observer (created on first use).

    This is what :func:`repro.workloads.runner.run_stream` publishes
    batch spans into unless told otherwise, so an embedding service can
    scrape ``python -m repro serve --metrics-port`` without any setup.
    """
    global _default
    if _default is None:
        _default = Observer()
    return _default


def reset_default_observer() -> None:
    """Discard the process-wide observer (tests use this for isolation)."""
    global _default
    _default = None
