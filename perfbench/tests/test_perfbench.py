"""Tiny-size tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.core.dynamic_matching import DynamicMatching  # noqa: E402
from repro.hypergraph.edge import Edge  # noqa: E402
from repro.query.service import QueryService  # noqa: E402

from perfbench import gate  # noqa: E402
from perfbench.harness import E2E_METRICS, LAYER_METRICS, layer_metrics, run_workload  # noqa: E402
from perfbench.workloads import SPECS, make_inputs  # noqa: E402


def tiny(name: str):
    spec = SPECS[name]
    rounds = 4
    return dataclasses.replace(
        spec,
        m=256,
        batch=16,
        reads=min(spec.reads, 4),
        round_batches=rounds,
        warmup_batches=rounds - 1 if spec.tail_batches else 2,
        min_rounds=2,
        setup_repeats=2,
        max_rate=10.0,
        tail_batches=2 if spec.tail_batches else 0,
    )


def run_tiny(name: str, tmp_path, trace: bool = False, seed: int = 3):
    return run_workload(tiny(name), seed, 0.01, trace, str(tmp_path / "w"),
                        str(tmp_path / "out"))


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == E2E_METRICS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == LAYER_METRICS
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        s.name: s.why for s in SPECS.values()
    }


def test_inputs_depend_only_on_the_seed():
    spec = tiny("churn-r2")
    a, b, c = (make_inputs(spec, s, 12) for s in (5, 5, 6))
    key = lambda inp: [(x.kind, x.eids or tuple(e.eid for e in x.edges)) for x in inp.stream]
    assert key(a) == key(b)
    assert a.read_vertices == b.read_vertices
    assert key(a) != key(c)


def test_check_matching_catches_wrong_matchings():
    live = {0: Edge(0, (1, 2)), 1: Edge(1, (2, 3)), 2: Edge(2, (4, 5))}
    assert gate.check_matching([0, 2], live) == []
    assert gate.check_matching([0], live)  # edge 2 is free
    assert gate.check_matching([0, 1, 2], live)  # 0 and 1 share vertex 2
    assert gate.check_matching([0, 2, 9], live)  # 9 is not live


@pytest.mark.parametrize("name", sorted(SPECS))
def test_tiny_runs_pass_the_gate(name, tmp_path):
    run, metrics = run_tiny(name, tmp_path)
    assert run.failed == 0, run.failures
    assert sorted(metrics) == sorted(n for n, _ in E2E_METRICS)
    assert all(v > 0 for v in metrics.values())


def test_ledger_counts_repeat_at_a_seed(tmp_path):
    _, first = run_tiny("serve-r3", tmp_path)
    _, second = run_tiny("serve-r3", tmp_path)
    for key in ("ledger_work_per_update", "ledger_depth_per_batch"):
        assert first[key] == second[key]


@pytest.mark.parametrize("name", ["churn-r2", "serve-r3"])
def test_traced_run_reports_every_layer(name, tmp_path):
    run, _ = run_tiny(name, tmp_path, trace=True)
    assert run.failed == 0, run.failures
    layers = layer_metrics(run)
    assert sorted(layers) == sorted(n for n, _ in LAYER_METRICS)
    assert layers["core.apply_s"] > 0 and layers["core.edit_s"] > 0
    if name == "serve-r3":
        assert layers["durability.checkpoint_s"] > 0
        assert layers["query.publish_s"] > 0
        assert layers["durability.recover_load_s"] > 0
    assert os.listdir(tmp_path / "out")  # spans written out


def test_gate_catches_a_wrong_read(tmp_path, monkeypatch):
    real = QueryService.match_of

    def wrong(self, v, *args, **kwargs):
        got = real(self, v, *args, **kwargs)
        return -1 if got is None else None

    monkeypatch.setattr(QueryService, "match_of", wrong)
    run, _ = run_tiny("serve-r3", tmp_path)
    assert run.failed > 0
    assert any("read of vertex" in msg for msg in run.failures)


def test_gate_catches_a_wrong_matching(tmp_path, monkeypatch):
    real = DynamicMatching.matched_ids
    monkeypatch.setattr(DynamicMatching, "matched_ids", lambda self: real(self)[1:])
    run, _ = run_tiny("churn-r2", tmp_path)
    assert run.failed > 0
    assert any("not maximal" in msg for msg in run.failures)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-r2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
