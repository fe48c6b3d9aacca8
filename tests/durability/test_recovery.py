"""Checkpoint + recovery tests: the certified crash-restart path."""

import numpy as np
import pytest

from repro.core.dynamic_matching import DynamicMatching
from repro.durability import (
    DurabilityManager,
    JournalError,
    RecoveryCertificationError,
    certify_against_oracle,
    recover,
)
from repro.durability.checkpoint import (
    latest_valid_checkpoint,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from repro.testing.faults import random_batches
from repro.workloads.runner import run_stream
from repro.workloads.streams import UpdateBatch


def apply_batch(dm, batch):
    if batch.kind == "insert":
        dm.insert_edges(list(batch.edges))
    else:
        dm.delete_edges(list(batch.eids))


def durable_run(directory, seed, n_batches=16, checkpoint_every=4, backend="array"):
    rng = np.random.default_rng(seed)
    batches = random_batches(rng, n_batches)
    dm = DynamicMatching(rank=3, seed=seed, backend=backend)
    with DurabilityManager.create(
        str(directory), dm, checkpoint_every=checkpoint_every
    ) as mgr:
        for batch in batches:
            mgr.log_batch(batch)
            apply_batch(dm, batch)
            mgr.note_applied(dm)
    return dm, batches


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        dm, _ = durable_run(tmp_path, seed=1)
        path = write_checkpoint(str(tmp_path), dm, applied=16)
        payload = load_checkpoint(path)
        assert payload is not None and payload["applied"] == 16
        assert payload["ledger"]["work"] == dm.ledger.work

    def test_corrupt_detected(self, tmp_path):
        dm, _ = durable_run(tmp_path, seed=2)
        path = write_checkpoint(str(tmp_path), dm, applied=16)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 3] ^= 0x42
        open(path, "wb").write(bytes(data))
        assert load_checkpoint(path) is None

    def test_latest_valid_skips_future(self, tmp_path):
        dm, _ = durable_run(tmp_path, seed=3)
        write_checkpoint(str(tmp_path), dm, applied=99)  # claims too much
        payload, skipped = latest_valid_checkpoint(str(tmp_path), max_applied=16)
        assert payload is not None and payload["applied"] <= 16
        assert any("inconsistent" in s for s in skipped)

    def test_pruning_keeps_newest(self, tmp_path):
        durable_run(tmp_path, seed=4, n_batches=20, checkpoint_every=2)
        ckpts = list_checkpoints(str(tmp_path))
        assert len(ckpts) == 2  # keep=2 default
        assert ckpts[0][0] > ckpts[1][0]


class TestRecover:
    @pytest.mark.parametrize("backend", ["array", "dict"])
    def test_certified_recovery(self, tmp_path, backend):
        dm, _ = durable_run(tmp_path, seed=5, backend=backend)
        res = recover(str(tmp_path))
        assert res.certified
        assert res.applied == 16
        assert res.dm.matched_ids() == dm.matched_ids()
        assert res.dm.ledger.work == dm.ledger.work
        assert res.dm.ledger.depth == dm.ledger.depth

    def test_uses_checkpoint(self, tmp_path):
        durable_run(tmp_path, seed=6, n_batches=10, checkpoint_every=4)
        res = recover(str(tmp_path))
        assert res.checkpoint_applied == 8
        assert res.replayed == 2

    def test_full_replay_without_checkpoints(self, tmp_path):
        durable_run(tmp_path, seed=7, n_batches=6, checkpoint_every=100)
        res = recover(str(tmp_path))
        assert res.checkpoint_applied is None
        assert res.replayed == 6
        assert res.certified

    def test_cross_backend_recovery(self, tmp_path):
        """A journal written by one backend recovers into the other with
        identical matching and costs (checkpoints are backend-neutral)."""
        dm, _ = durable_run(tmp_path, seed=8, backend="array")
        res = recover(str(tmp_path), backend="dict")
        assert res.dm.backend == "dict"
        assert res.dm.matched_ids() == dm.matched_ids()
        assert res.dm.ledger.work == dm.ledger.work

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            recover(str(tmp_path))

    def test_certification_catches_divergence(self, tmp_path):
        durable_run(tmp_path, seed=9)
        res = recover(str(tmp_path), do_certify=False)
        # Sabotage the recovered instance; certification must notice.
        live = [e.eid for e in res.dm.structure.all_edges()]
        if live:
            res.dm.delete_edges([live[0]])
        else:
            from repro.hypergraph.edge import Edge
            res.dm.insert_edges([Edge(10_000, [0, 1, 2])])
        with pytest.raises(RecoveryCertificationError):
            certify_against_oracle(res)

    def test_recovered_instance_continues_identically(self, tmp_path):
        dm, _ = durable_run(tmp_path, seed=10)
        res = recover(str(tmp_path))
        extra = random_batches(np.random.default_rng(99), 8, eid_start=10_000)
        for batch in extra:
            apply_batch(dm, batch)
            apply_batch(res.dm, batch)
        assert res.dm.matched_ids() == dm.matched_ids()
        assert res.dm.ledger.work == dm.ledger.work
        assert res.dm.ledger.depth == dm.ledger.depth


class TestManager:
    def test_create_requires_pristine(self, tmp_path):
        dm = DynamicMatching(rank=3, seed=0)
        from repro.hypergraph.edge import Edge
        dm.insert_edges([Edge(0, [1, 2, 3])])
        with pytest.raises(JournalError):
            DurabilityManager.create(str(tmp_path), dm)

    def test_checkpoint_cadence(self, tmp_path):
        dm = DynamicMatching(rank=3, seed=0)
        batches = random_batches(np.random.default_rng(0), 9)
        with DurabilityManager.create(str(tmp_path), dm, checkpoint_every=3) as mgr:
            paths = []
            for batch in batches:
                mgr.log_batch(batch)
                apply_batch(dm, batch)
                p = mgr.note_applied(dm)
                if p:
                    paths.append(p)
        assert len(paths) == 3  # after batches 3, 6, 9

    def test_resume_appends(self, tmp_path):
        durable_run(tmp_path, seed=11, n_batches=5)
        res = recover(str(tmp_path))
        extra = random_batches(np.random.default_rng(1), 3, eid_start=10_000)
        with DurabilityManager.resume(str(tmp_path), applied=res.applied) as mgr:
            for batch in extra:
                mgr.log_batch(batch)
                apply_batch(res.dm, batch)
                mgr.note_applied(res.dm)
        res2 = recover(str(tmp_path))
        assert res2.applied == 8
        assert res2.certified

    def test_resume_after_torn_tail_keeps_new_batches(self, tmp_path):
        """Regression: batches acknowledged after a torn-tail recovery must
        survive the *next* recovery — resume compacts the damage away
        instead of appending behind it."""
        import os

        durable_run(tmp_path, seed=13, n_batches=6, checkpoint_every=100)
        jpath = os.path.join(str(tmp_path), "journal.jsonl")
        data = open(jpath, "rb").read()
        open(jpath, "wb").write(data[:-15])  # crash mid-write of the last record

        res = recover(str(tmp_path))
        assert res.applied == 5
        assert any("torn" in a for a in res.anomalies)

        extra = random_batches(np.random.default_rng(2), 4, eid_start=10_000)
        with DurabilityManager.resume(str(tmp_path), applied=res.applied) as mgr:
            for batch in extra:
                mgr.log_batch(batch)
                apply_batch(res.dm, batch)
                mgr.note_applied(res.dm)

        res2 = recover(str(tmp_path))
        assert res2.applied == 9  # every post-resume batch still durable
        assert res2.certified
        assert res2.journal.anomalies == []
        assert res2.dm.matched_ids() == res.dm.matched_ids()
        assert res2.dm.ledger.work == res.dm.ledger.work

    def test_resume_rejects_wrong_applied(self, tmp_path):
        durable_run(tmp_path, seed=14, n_batches=4)
        with pytest.raises(JournalError):
            DurabilityManager.resume(str(tmp_path), applied=2)

    def test_create_refuses_stale_checkpoints(self, tmp_path):
        """Regression: a fresh journal next to leftover checkpoint files
        could recover into an unrelated run's state."""
        import os

        durable_run(tmp_path, seed=15, n_batches=8, checkpoint_every=4)
        os.remove(os.path.join(str(tmp_path), "journal.jsonl"))
        assert list_checkpoints(str(tmp_path))  # stale checkpoints remain
        dm = DynamicMatching(rank=3, seed=0)
        with pytest.raises(JournalError):
            DurabilityManager.create(str(tmp_path), dm)


class TestRunnerIntegration:
    def test_run_stream_durable_then_recover(self, tmp_path):
        batches = random_batches(np.random.default_rng(12), 12)
        dm = DynamicMatching(rank=3, seed=12)
        with DurabilityManager.create(str(tmp_path), dm, checkpoint_every=4) as mgr:
            run_stream(dm, batches, check=True, durability=mgr)
        res = recover(str(tmp_path))
        assert res.certified
        assert res.dm.matched_ids() == dm.matched_ids()

    def test_mirror_dedupes_duplicate_ids(self):
        """Regression: a batch repeating an edge id must not crash the
        mirror check when the algorithm treats batches as sets."""
        from repro.hypergraph.edge import Edge
        from repro.hypergraph.hypergraph import Hypergraph
        from repro.parallel.ledger import Ledger

        class SetSemanticsAlgo:
            # Minimal duck-typed algorithm that dedupes within a batch.
            def __init__(self):
                self.ledger = Ledger()
                self.graph = Hypergraph()
                self._matched = []

            def insert_edges(self, edges):
                seen = {}
                for e in edges:
                    if e.eid not in seen and e.eid not in self.graph:
                        seen[e.eid] = e
                self.graph.add_edges(list(seen.values()))
                self._rematch()

            def delete_edges(self, eids):
                self.graph.remove_edges(dict.fromkeys(eids))
                self._rematch()

            def _rematch(self):
                self._matched, used = [], set()
                for e in self.graph.edges():
                    if not used.intersection(e.vertices):
                        used.update(e.vertices)
                        self._matched.append(e.eid)

            def matched_ids(self):
                return list(self._matched)

            def matching_size(self):
                return len(self._matched)

            def __len__(self):
                return len(self.graph)

        stream = [
            UpdateBatch.insert([Edge(0, [1, 2]), Edge(0, [1, 2]), Edge(1, [3, 4])]),
            UpdateBatch.delete([0, 0]),
        ]
        records = run_stream(SetSemanticsAlgo(), stream, check=True)
        assert records[-1].live_edges == 1
