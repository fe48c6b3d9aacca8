"""Exporter tests: the /metrics HTTP endpoint, the JSONL event log, and
their CLI wiring (``run --events/--metrics-port``)."""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro.core import DynamicMatching
from repro.obs import (
    JsonlEventLog,
    MetricsRegistry,
    Observer,
    open_spans,
    parse_prometheus_text,
    read_events,
    start_metrics_server,
)
from repro.workloads import FifoAdversary, erdos_renyi_edges, insert_then_delete_stream
from repro.workloads.runner import run_stream

pytestmark = pytest.mark.obs


def _scrape(port: int, path: str = "/metrics") -> str:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as r:
        assert r.status == 200
        assert r.headers["Content-Type"].startswith("text/plain")
        return r.read().decode("utf-8")


class TestHttpServer:
    def test_serves_live_registry(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_demo_total", "demo")
        server = start_metrics_server(reg, port=0)
        try:
            port = server.server_address[1]
            c.inc(3)
            parsed = parse_prometheus_text(_scrape(port))
            assert parsed[("repro_demo_total", frozenset())] == 3.0
            c.inc(2)  # the endpoint reads live state, not a snapshot
            parsed = parse_prometheus_text(_scrape(port, path="/"))
            assert parsed[("repro_demo_total", frozenset())] == 5.0
        finally:
            server.shutdown()

    def test_unknown_path_404(self):
        server = start_metrics_server(MetricsRegistry(), port=0)
        try:
            port = server.server_address[1]
            with pytest.raises(urllib.error.HTTPError) as exc:
                _scrape(port, path="/nope")
            assert exc.value.code == 404
        finally:
            server.shutdown()


class TestJsonlEventLog:
    def test_span_open_then_span_records(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        obs = Observer()
        with JsonlEventLog(path) as log:
            log.attach(obs.tracer)
            with obs.tracer.span("batch", kind="insert"):
                pass
        events = read_events(path)
        assert [e["type"] for e in events] == ["span_open", "span"]
        assert events[0]["name"] == events[1]["name"] == "batch"
        assert events[0]["span_id"] == events[1]["span_id"]
        assert "dur" not in events[0] and events[1]["dur"] >= 0.0
        assert not open_spans(events)

    def test_every_line_is_self_contained_json(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        obs = Observer()
        obs.open_event_log(path)
        dm = DynamicMatching(rank=2, seed=1, backend="array")
        edges = erdos_renyi_edges(20, 50, rng=np.random.default_rng(1))
        stream = insert_then_delete_stream(edges, 10, adversary=FifoAdversary())
        run_stream(dm, stream, observer=obs)
        obs.close()
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line]
        assert lines
        for line in lines:
            json.loads(line)  # raises if any line is torn mid-run

    def test_reader_skips_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"type": "span", "name": "a", "span_id": 1}\n')
            fh.write('{"type": "span_open", "name":\n')  # torn tail
            fh.write("not json at all\n")
            fh.write('{"type": "span", "name": "b", "span_id": 2}\n')
        events = read_events(path)
        assert [e["name"] for e in events] == ["a", "b"]


class TestCliWiring:
    @pytest.fixture
    def stream_file(self, tmp_path):
        from repro.cli import main

        out = str(tmp_path / "stream.txt")
        assert main(["gen", "--kind", "er", "--n", "20", "--m", "40",
                     "--batch", "8", "--seed", "3", "--out", out]) == 0
        return out

    def test_run_with_events_log(self, tmp_path, stream_file, capsys):
        from repro.cli import main

        events = str(tmp_path / "run-events.jsonl")
        assert main(["run", "--stream", stream_file, "--seed", "3",
                     "--events", events]) == 0
        recs = read_events(events)
        batch_spans = [r for r in recs if r.get("type") == "span"
                       and r.get("name") == "batch"]
        assert batch_spans and all("work" in r["attrs"] for r in batch_spans)
        capsys.readouterr()

    def test_run_with_metrics_port(self, stream_file, capsys):
        from repro.cli import main

        assert main(["run", "--stream", stream_file, "--seed", "3",
                     "--metrics-port", "0"]) == 0
        out = capsys.readouterr().out
        assert "metrics: http://127.0.0.1:" in out

    def test_trace_from_events(self, tmp_path, stream_file, capsys):
        from repro.analysis.trace import RunTrace
        from repro.cli import main

        events = str(tmp_path / "ev.jsonl")
        assert main(["run", "--stream", stream_file, "--seed", "3",
                     "--events", events]) == 0
        capsys.readouterr()
        trace = RunTrace.from_events(events)
        assert trace.points
        assert trace.totals()["updates"] == sum(p.size for p in trace.points)


class TestNativeKernelMetrics:
    def test_calls_labeled_by_kernel_only(self):
        """One numpy backend, so the kernel-call counter carries only the
        ``kernel`` label, and it counts exactly what ``native.stats()``
        counts while attached."""
        from repro import native
        from repro.hypergraph.edge import Edge

        obs = Observer()
        detach = obs.attach_native_kernels()
        try:
            before = native.stats()
            dm = DynamicMatching(rank=2, seed=1)
            dm.insert_edges([Edge(i, (2 * i, 2 * i + 1)) for i in range(100)])
            after = native.stats()
        finally:
            detach()
        fam = obs.native_kernel_calls
        assert fam.labelnames == ("kernel",)
        fired = {
            k: after[k]["calls"] - before.get(k, {}).get("calls", 0)
            for k in after
        }
        assert fired["edit_add_level0"] > 0
        for kernel, n in fired.items():
            assert fam.value(kernel=kernel) == n
        text = obs.registry.expose()
        assert 'repro_native_kernel_calls_total{kernel="edit_add_level0"}' in text
