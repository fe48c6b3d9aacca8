"""Drive a matching algorithm over an update stream.

Works with anything exposing the duck-typed algorithm interface shared by
:class:`repro.core.DynamicMatching` and every baseline:

* ``insert_edges(edges)`` / ``delete_edges(eids)``;
* ``matched_ids()`` returning the current matching, and
  ``matching_size()`` its size (read after every batch, so it must not
  cost more than the batch: the ids are listed only for ``check=True``);
* a ``ledger`` attribute with ``work``/``depth`` (cost accounting).

The runner measures per-batch ledger cost, optionally mirrors the stream
into a plain :class:`~repro.hypergraph.hypergraph.Hypergraph` and checks
maximality after every batch (slow; for tests), and returns one
:class:`RunRecord` per batch.

With ``durability`` set (a :class:`repro.durability.DurabilityManager`),
the runner follows the write-ahead protocol: each batch is durably
journaled *before* it is applied and acknowledged *after*, so a crash at
any point is recoverable via :func:`repro.durability.recover`.

Observability: every batch is wrapped in a ``batch`` span and published
to an :class:`repro.obs.Observer` — by default the process-wide one
(:func:`repro.obs.default_observer`), so live telemetry needs no setup.
Pass ``observer=False`` to disable observation entirely, or a specific
observer to publish into its registry/tracer.  Observation never touches
the ledger: records, matchings, and totals are identical either way.
For a :class:`~repro.core.DynamicMatching` (the matchings the observer
attaches to), the runner also diffs ``ledger.by_tag`` around each batch
and publishes that per-tag delta; a sharded router's merged ``by_tag``
costs a round trip per shard, so sharded runs publish no per-tag series.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.hypergraph.hypergraph import Hypergraph
from repro.workloads.streams import UpdateBatch


def _dedupe_edges(edges):
    """Drop later duplicates of an edge id within one batch."""
    seen = {}
    for e in edges:
        if e.eid not in seen:
            seen[e.eid] = e
    return list(seen.values())


@dataclass
class RunRecord:
    """Per-batch measurement."""

    kind: str
    size: int
    work: float
    depth: float
    matching_size: int
    live_edges: int

    @property
    def work_per_update(self) -> float:
        return self.work / self.size if self.size else 0.0


def run_stream(
    algo,
    stream: Sequence[UpdateBatch],
    check: bool = False,
    durability=None,
    observer=None,
    query=None,
) -> List[RunRecord]:
    """Apply every batch in order; return per-batch records.

    With ``check=True`` a reference hypergraph mirrors the stream and the
    algorithm's matching is verified maximal after every batch (O(m') per
    batch — test-sized streams only).  The mirror dedupes repeated edge
    ids within a batch: the algorithms treat a duplicate as one logical
    edge, and ``Hypergraph.add_edge`` would reject the second occurrence.

    ``durability`` (a :class:`repro.durability.DurabilityManager`) turns
    the loop into a write-ahead serving loop: journal, apply, acknowledge.

    ``observer`` selects where batch spans and metrics go: ``None``
    (default) publishes to :func:`repro.obs.default_observer`, ``False``
    disables observation, anything else is used as the observer.

    ``query`` (a :class:`repro.query.QueryService`) attaches the
    read-serving tier: after each batch is applied and acknowledged, the
    service publishes a fresh epoch view, so concurrent readers see the
    batch exactly when it becomes durable — never mid-apply.
    """
    if observer is None:
        from repro.obs.observer import default_observer

        obs = default_observer()
    elif observer is False:
        obs = None
    else:
        obs = observer

    detachers = []
    tag_deltas = False
    if obs is not None:
        if hasattr(algo, "set_phase_hook"):
            detachers.append(obs.attach_matching(algo))
            tag_deltas = True
        if durability is not None and hasattr(durability, "phase_hook"):
            detachers.append(obs.attach_durability(durability))
    tracer = obs.tracer if obs is not None else None
    vec_stats = getattr(algo, "vec_stats", None) if obs is not None else None

    mirror = Hypergraph() if check else None
    records: List[RunRecord] = []
    try:
        for index, batch in enumerate(stream):
            span_cm = (
                obs.batch_span(batch.kind, batch.size, index)
                if obs is not None else nullcontext()
            )
            with span_cm as span:
                if durability is not None:
                    with tracer.span("journal.append") if tracer else nullcontext():
                        durability.log_batch(batch)
                w0, d0 = algo.ledger.work, algo.ledger.depth
                tags0 = dict(algo.ledger.by_tag) if tag_deltas else None
                vec0 = dict(vec_stats) if vec_stats is not None else None
                with tracer.span("apply") if tracer else nullcontext():
                    if batch.kind == "insert":
                        stats = algo.insert_edges(list(batch.edges))
                        if mirror is not None:
                            mirror.add_edges(_dedupe_edges(batch.edges))
                    else:
                        stats = algo.delete_edges(list(batch.eids))
                        if mirror is not None:
                            mirror.remove_edges(dict.fromkeys(batch.eids))
                if durability is not None:
                    ckpt_cm = tracer.span("checkpoint") if tracer else nullcontext()
                    with ckpt_cm as ckpt_span:
                        path = durability.note_applied(algo)
                        if ckpt_span is not None:
                            ckpt_span.set(written=path is not None)
                if mirror is not None:
                    assert mirror.is_maximal_matching(algo.matched_ids()), (
                        f"matching not maximal after {batch.kind} batch of {batch.size}"
                    )
                record = RunRecord(
                    kind=batch.kind,
                    size=batch.size,
                    work=algo.ledger.work - w0,
                    depth=algo.ledger.depth - d0,
                    matching_size=algo.matching_size(),
                    live_edges=len(mirror) if mirror is not None else len(algo),
                )
                records.append(record)
                if query is not None:
                    with tracer.span("query.publish") if tracer else nullcontext():
                        query.publish()
                if obs is not None:
                    tag_work = vec_delta = None
                    if tags0 is not None:
                        tag_work = {
                            tag: w - tags0.get(tag, 0.0)
                            for tag, w in algo.ledger.by_tag.items()
                            if w > tags0.get(tag, 0.0)
                        }
                    if vec0 is not None:
                        vec_delta = {k: v - vec0[k] for k, v in vec_stats.items()}
                    obs.finish_batch(
                        span,
                        kind=record.kind,
                        size=record.size,
                        work=record.work,
                        depth=record.depth,
                        matching_size=record.matching_size,
                        live_edges=record.live_edges,
                        settle_rounds=getattr(stats, "num_rounds", 0) or 0,
                        ledger_work=algo.ledger.work,
                        ledger_depth=algo.ledger.depth,
                        vec_delta=vec_delta,
                        tag_work=tag_work,
                    )
    finally:
        for detach in detachers:
            detach()
    return records


def summarize(records: Sequence[RunRecord]) -> dict:
    """Aggregate a run: total work, updates, work/update, depth totals.

    ``total_depth`` is the exact sum of per-batch depths — the depth of
    the whole run on the simulated machine, since batches are applied
    sequentially.  Prefer it over reconstructions from ``mean_depth``
    (mean times an estimated batch count re-introduces rounding the
    per-batch records don't have).
    """
    total_updates = sum(r.size for r in records)
    total_work = sum(r.work for r in records)
    total_depth = sum(r.depth for r in records)
    return {
        "batches": len(records),
        "updates": total_updates,
        "total_work": total_work,
        "work_per_update": total_work / total_updates if total_updates else 0.0,
        "max_depth": max((r.depth for r in records), default=0.0),
        "total_depth": total_depth,
        "mean_depth": total_depth / len(records) if records else 0.0,
    }
