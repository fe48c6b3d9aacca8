"""Smoke-mode runs of the benchmark harnesses.

``REPRO_BENCH_SMOKE=1`` caps every sweep in ``benchmarks/bench_hotpath.py``,
``benchmarks/bench_dynamic.py``, ``benchmarks/bench_queries.py``,
``benchmarks/bench_checkpoint.py`` and ``benchmarks/bench_state.py`` to tiny sizes, so CI can exercise the full harnesses — workload generation, replay,
ledger capture, JSON output, and the identity/comparison/certification
assertions — in seconds without timing anything meaningful.  Deselect with
``-m "not bench_smoke"`` if even that is too much.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "benchmarks" / "bench_hotpath.py"
BENCH_DYNAMIC = REPO / "benchmarks" / "bench_dynamic.py"
BENCH_QUERIES = REPO / "benchmarks" / "bench_queries.py"
BENCH_CHECKPOINT = REPO / "benchmarks" / "bench_checkpoint.py"
BENCH_STATE = REPO / "benchmarks" / "bench_state.py"


def _run(label: str, out: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    # Respect an explicit REPRO_BENCH_SMOKE from the caller (CI can set it
    # once for the whole job); default to smoke mode only when unset/empty.
    if not env.get("REPRO_BENCH_SMOKE"):
        env["REPRO_BENCH_SMOKE"] = "1"
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, str(BENCH), "--label", label, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        timeout=300,
    )


@pytest.mark.bench_smoke
@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SMOKE") == "0",
    reason="REPRO_BENCH_SMOKE=0 explicitly disables the bench smoke run",
)
def test_bench_hotpath_smoke(tmp_path):
    out = tmp_path / "bench.json"

    first = _run("seed", out)
    assert first.returncode == 0, first.stderr

    second = _run("array", out)
    assert second.returncode == 0, second.stderr

    data = json.loads(out.read_text())
    for label in ("seed", "array"):
        for exp in ("e1", "e5", "e9"):
            assert data[label][exp], f"{label}/{exp} produced no rows"
    # Both labels replay identical seeded workloads in the same codebase,
    # so the comparison rows must report exact ledger parity.
    for row in data["comparison"]["e1"]:
        assert row["work_delta"] == 0
        assert row["depth_delta"] == 0


@pytest.mark.bench_smoke
@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SMOKE") == "0",
    reason="REPRO_BENCH_SMOKE=0 explicitly disables the bench smoke run",
)
def test_bench_dynamic_smoke(tmp_path):
    out = tmp_path / "bench_dynamic.json"
    env = dict(os.environ)
    if not env.get("REPRO_BENCH_SMOKE"):
        env["REPRO_BENCH_SMOKE"] = "1"
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DYNAMIC),
            "--label", "smoke", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

    data = json.loads(out.read_text())
    record = data["smoke"]
    assert record["smoke"] is True
    rows = record["rows"]
    assert {r["stream"] for r in rows} == {
        "insert-heavy", "delete-heavy", "mixed"
    }
    # The harness asserts these before writing a row; re-check the output
    # so a silently weakened harness still fails here.
    for r in rows:
        assert r["matching_identical"] is True
        assert r["ledger_identical"] is True
        assert set(r["updates_per_sec"]) == {"dict", "array"}
    assert "engine_overhead_w1" not in record


@pytest.mark.bench_smoke
@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SMOKE") == "0",
    reason="REPRO_BENCH_SMOKE=0 explicitly disables the bench smoke run",
)
def test_bench_queries_smoke(tmp_path):
    out = tmp_path / "bench_queries.json"
    env = dict(os.environ)
    if not env.get("REPRO_BENCH_SMOKE"):
        env["REPRO_BENCH_SMOKE"] = "1"
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_QUERIES),
            "--label", "smoke", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

    data = json.loads(out.read_text())
    record = data["smoke"]
    assert record["smoke"] is True
    # The harness certifies before writing a row (sampled reads against
    # truncated oracle replays, the write-overhead bound); re-check the
    # output so a silently weakened harness still fails here.
    qps = record["qps"]
    assert qps["reads"] > 0 and qps["epochs_published"] == record["batches"]
    assert qps["certified_samples"] > 0
    assert qps["final_view_certified"] is True
    assert record["http_qps"]["final_view_certified"] is True
    wo = record["write_overhead"]
    assert wo["overhead_fraction"] <= wo["asserted_bound"]


@pytest.mark.bench_smoke
@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SMOKE") == "0",
    reason="REPRO_BENCH_SMOKE=0 explicitly disables the bench smoke run",
)
def test_bench_checkpoint_smoke(tmp_path):
    out = tmp_path / "bench_checkpoint.json"
    env = dict(os.environ)
    if not env.get("REPRO_BENCH_SMOKE"):
        env["REPRO_BENCH_SMOKE"] = "1"
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_CHECKPOINT),
            "--label", "smoke", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

    record = json.loads(out.read_text())["smoke"]
    assert record["smoke"] is True
    rows = record["rows"]
    assert {(r["graph"], r["m"]) for r in rows} == {("churn-r2", 2**11), ("serve-r3", 2**11)}
    # The harness asserts the restore before writing a row; re-check the
    # output so a silently weakened harness still fails here.
    for r in rows:
        assert r["restored_identical"] is True
        assert r["write_s"] > 0 and r["load_s"] > 0 and r["restore_s"] > 0
        assert r["bytes"] > 0
        # Flat columns: a few dozen containers, not one per edge.
        assert r["snapshot_containers"] < 100 < r["live_edges"]


@pytest.mark.bench_smoke
@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SMOKE") == "0",
    reason="REPRO_BENCH_SMOKE=0 explicitly disables the bench smoke run",
)
def test_bench_state_smoke(tmp_path):
    out = tmp_path / "bench_state.json"
    env = dict(os.environ)
    if not env.get("REPRO_BENCH_SMOKE"):
        env["REPRO_BENCH_SMOKE"] = "1"
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, str(BENCH_STATE), "--label", "smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

    record = json.loads(out.read_text())["smoke"]
    assert record["smoke"] is True and record["cpu_count"] >= 1
    rows = record["rows"]
    assert {(r["stream"], r["m"]) for r in rows} == {("churn", 2**11), ("window", 2**11)}
    for r in rows:
        assert r["certified"] is True
        assert r["epoch_bound_asserted"] is True and r["epoch_bound_held"] is True
        assert r["epochs_per_live_match"] <= 2.5
        assert r["work_per_update"] > 0 and r["interned_per_live_vertex"] >= 1
