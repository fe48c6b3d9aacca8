"""Observability: metrics registry, batch-lifecycle tracing, exporters.

Dependency-free live telemetry for the serving system (see
docs/observability.md).  The subsystem observes — it never feeds back:
cost-ledger totals, matchings, and recovery certificates are bit-identical
with observability on or off, a contract pinned by ``tests/obs/``.  It
reads the ledger once per batch, never per charge, so an observed run
takes the same code route as an unobserved one.

Quick start::

    from repro.obs import Observer, start_metrics_server

    obs = Observer()
    server = start_metrics_server(obs.registry, port=9100)
    run_stream(dm, stream, observer=obs)  # batch spans + per-batch metrics,
                                          # per-tag work from each batch's
                                          # ledger.by_tag delta
"""

from repro.obs.exporters import (
    CONTENT_TYPE,
    JsonlEventLog,
    iter_events,
    open_spans,
    parse_prometheus_text,
    read_events,
    render_prometheus,
    start_metrics_server,
)
from repro.obs.observer import Observer, default_observer, reset_default_observer
from repro.obs.registry import (
    DEFAULT_SECONDS_BUCKETS,
    DEFAULT_WORK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_WORK_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonlEventLog",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "Observer",
    "Span",
    "Tracer",
    "default_observer",
    "iter_events",
    "open_spans",
    "parse_prometheus_text",
    "read_events",
    "render_prometheus",
    "reset_default_observer",
    "start_metrics_server",
]
