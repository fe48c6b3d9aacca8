"""Router, shard, and transport unit tests: validation, durability
wiring, metrics, and the run_stream duck-type contract."""

import json
import os
import sys

import numpy as np
import pytest

from repro.durability.journal import JournalError
from repro.hypergraph.edge import Edge
from repro.sharding import (
    MANIFEST_FILE,
    ProcessShardHost,
    ShardConfig,
    ShardRemoteError,
    ShardedMatching,
    is_sharded_root,
    read_manifest,
)
from repro.testing.faults import random_batches
from repro.workloads.runner import run_stream, summarize

pytestmark = pytest.mark.sharding


def e(eid, u, v):
    return Edge(eid, (u, v))


class TestValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedMatching(shards=0)

    def test_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            ShardedMatching(shards=2, transport="carrier-pigeon")

    def test_duplicate_ids_in_batch(self):
        with ShardedMatching(shards=2, transport="inline") as r:
            with pytest.raises(ValueError, match="duplicate"):
                r.insert_edges([e(1, 0, 1), e(1, 2, 3)])
            assert len(r) == 0

    def test_insert_present_id_raises_before_mutation(self):
        with ShardedMatching(shards=2, transport="inline") as r:
            r.insert_edges([e(1, 0, 1)])
            with pytest.raises(KeyError):
                r.insert_edges([e(2, 2, 3), e(1, 4, 5)])
            # validate-before-mutate: nothing from the bad batch landed
            assert 2 not in r and len(r) == 1

    def test_delete_absent_id_raises_before_mutation(self):
        with ShardedMatching(shards=2, transport="inline") as r:
            r.insert_edges([e(1, 0, 1)])
            with pytest.raises(KeyError):
                r.delete_edges([1, 99])
            assert 1 in r and len(r) == 1

    def test_rank_bound_enforced(self):
        with ShardedMatching(shards=2, rank=2, transport="inline") as r:
            with pytest.raises(ValueError, match="cardinality"):
                r.insert_edges([Edge(1, (0, 1, 2))])

    def test_first_bad_edge_in_batch_order_names_the_error(self):
        with ShardedMatching(shards=2, rank=2, transport="inline") as r:
            r.insert_edges([e(1, 0, 1)])
            with pytest.raises(ValueError, match="cardinality"):
                r.insert_edges([Edge(5, (2, 3, 4)), e(1, 6, 7)])
            with pytest.raises(KeyError, match="edge 1 already present"):
                r.insert_edges([e(1, 6, 7), Edge(5, (2, 3, 4))])
            with pytest.raises(KeyError, match="98"):
                r.delete_edges([1, 98, 99])
            assert len(r) == 1 and 1 in r and 5 not in r
            r.check_invariants()


class TestDurabilityRoot:
    def test_manifest_written_and_detected(self, tmp_path):
        root = str(tmp_path / "svc")
        with ShardedMatching(
            shards=2, transport="inline", durability_root=root, fsync=False
        ) as r:
            r.insert_edges([e(1, 0, 1)])
        assert is_sharded_root(root)
        manifest = read_manifest(root)
        assert manifest["shards"] == 2
        with open(os.path.join(root, MANIFEST_FILE)) as fh:
            assert json.load(fh) == manifest
        assert os.path.exists(os.path.join(root, "router", "journal.jsonl"))
        for s in range(2):
            assert os.path.exists(
                os.path.join(root, f"shard-{s:02d}", "journal.jsonl")
            )

    def test_refuses_to_reuse_existing_root(self, tmp_path):
        root = str(tmp_path / "svc")
        ShardedMatching(
            shards=2, transport="inline", durability_root=root, fsync=False
        ).close()
        with pytest.raises(JournalError, match="sharding.json"):
            ShardedMatching(shards=2, transport="inline", durability_root=root)

    def test_unsharded_dir_is_not_a_sharded_root(self, tmp_path):
        assert not is_sharded_root(str(tmp_path))


class TestRunStreamContract:
    def test_run_stream_drives_router_with_checks(self):
        batches = random_batches(np.random.default_rng(3), 8, rank=2)
        with ShardedMatching(shards=3, rank=2, seed=5, transport="inline") as r:
            records = run_stream(r, batches, check=True, observer=False)
            s = summarize(records)
            assert s["batches"] == len(batches)
            assert s["total_work"] == pytest.approx(r.ledger.work)
            assert records[-1].matching_size == len(r.matched_ids())

    @staticmethod
    def _assert_match_of_exact(r):
        """``match_of`` names exactly the merged matching's edge covering
        each vertex — local or cross — and None for a free vertex."""
        matched = set(r.matched_ids())
        edges = r.all_edges()
        cover = {v: e.eid for e in edges if e.eid in matched for v in e.vertices}
        for v in {v for e in edges for v in e.vertices} | {-1, 10**6}:
            assert r.match_of(v) == cover.get(v), v

    def test_match_of_agrees_with_certificate(self):
        batches = random_batches(np.random.default_rng(4), 6, rank=2)
        with ShardedMatching(shards=2, rank=2, seed=6, transport="inline") as r:
            for b in batches:
                r.apply_batch(b)
            assert r.cross_matched(), "the trace must exercise cross covers"
            self._assert_match_of_exact(r)

    def test_match_of_exact_rank3_k3_inline(self):
        batches = random_batches(np.random.default_rng(5), 12, rank=3)
        with ShardedMatching(shards=3, rank=3, seed=8, transport="inline") as r:
            for b in batches:
                r.apply_batch(b)
                self._assert_match_of_exact(r)
            assert r.cross_matched(), "the trace must exercise cross covers"

    def test_match_of_exact_k2_process(self):
        batches = random_batches(np.random.default_rng(6), 10, rank=2)
        with ShardedMatching(shards=2, rank=2, seed=9, transport="process") as r:
            for b in batches:
                r.apply_batch(b)
            assert r.cross_matched(), "the trace must exercise cross covers"
            self._assert_match_of_exact(r)


class TestMetrics:
    def test_shard_metric_catalog_published(self):
        from repro.obs import Observer

        obs = Observer()
        batches = random_batches(np.random.default_rng(8), 6, rank=2)
        with ShardedMatching(shards=2, rank=2, seed=2, transport="inline") as r:
            r.attach_observer(obs)
            for b in batches:
                r.apply_batch(b)
            text = obs.registry.expose()
            for name in (
                "repro_shard_count",
                "repro_shard_batches_total",
                "repro_shard_local_updates_total",
                "repro_shard_cross_edges",
                "repro_shard_handoff_proposals_total",
                "repro_shard_handoff_cascade",
                "repro_shard_matching_size",
                "repro_shard_ledger_work",
            ):
                assert name in text, name
            st = r.shard_stats
            fam = obs.registry.get("repro_shard_local_updates_total")
            local = sum(child.value for _, child in fam.samples())
            assert local == st["local_updates"]
            cascade = obs.registry.get("repro_shard_handoff_cascade")
            (_, hist), = cascade.samples()
            assert hist.count == len(batches)
            assert hist.sum == sum(s.cascade for s in r.batch_stats)
            assert obs.registry.get("repro_shard_count").value() == r.k
        obs.close()


def _deep_size(obj, seen=None) -> int:
    """Bytes held by ``obj`` and everything it references, each object
    counted once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_deep_size(k, seen) + _deep_size(v, seen) for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(_deep_size(x, seen) for x in obj)
    else:
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                size += _deep_size(getattr(obj, slot), seen)
        if hasattr(obj, "__dict__"):
            size += _deep_size(obj.__dict__, seen)
    return size


class TestBatchRecords:
    def test_batch_stats_stay_small(self):
        """The router keeps one record per routed batch; the record must
        not carry the shards' readings along with it."""
        rng = np.random.default_rng(11)
        n_batches, batch = 200, 64
        next_eid, live = 0, []
        with ShardedMatching(shards=2, rank=2, seed=3, transport="inline") as r:
            for i in range(n_batches):
                if i % 2 and live:
                    r.delete_edges(live[:batch])
                    live = live[batch:]
                    continue
                edges = []
                for _ in range(batch):
                    u, v = rng.choice(4096, size=2, replace=False).tolist()
                    edges.append(e(next_eid, u, v))
                    live.append(next_eid)
                    next_eid += 1
                r.insert_edges(edges)
            assert len(r.batch_stats) == n_batches
            per_batch = _deep_size(r.batch_stats) / n_batches
        assert per_batch <= 512, f"{per_batch:.0f} B retained per batch"


class TestProcessTransport:
    def test_remote_exception_carries_traceback(self):
        host = ProcessShardHost(ShardConfig(shard_id=0, shards=1, seed=0))
        try:
            with pytest.raises(ShardRemoteError, match="KeyError"):
                host.call("apply", "delete", [42])
            # the host survives an ordinary remote error
            assert host.call("num_edges") == 0
        finally:
            host.close()

    def test_kill_marks_host_broken(self):
        from repro.sharding import ShardCrashError

        host = ProcessShardHost(ShardConfig(shard_id=0, shards=1, seed=0))
        host.kill()
        assert host.broken
        with pytest.raises(ShardCrashError):
            host.call("num_edges")
        host.close()

    def test_process_matches_inline_bit_for_bit(self):
        batches = random_batches(np.random.default_rng(13), 8, rank=2)
        results = {}
        for transport in ("inline", "process"):
            with ShardedMatching(
                shards=2, rank=2, seed=21, transport=transport
            ) as r:
                for b in batches:
                    r.apply_batch(b)
                bd = r.ledger_breakdown()
                results[transport] = (
                    r.matched_ids(),
                    sorted(edge.eid for edge in r.all_edges()),
                    bd["merged_work"],
                    bd["merged_depth"],
                )
        assert results["inline"] == results["process"]
