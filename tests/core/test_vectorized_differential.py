"""Array backend vs the dict oracle, on both sides of the route rule.

The acceptance bar for the columnar fast path (docs/hotpath.md) is
*bit-identity*, not mere equivalence: for a fixed seed, the array
backend and the record-dict oracle must agree after every batch on

* the matching (ids, in order),
* every match's sample space (contents and order),
* the live epoch state (level, sample size), and
* the ledger — global work, composed depth, and per-tag totals.

Each trace runs the array backend twice: once with the route constant
``repro.native.VEC_MIN`` monkeypatched to 1, so every call takes the
columnar route (BatchFrame, vector matcher, edit kernels), and once at
its default of 64, so small calls take the scalar matcher and the
per-edge edits while the traces' larger batches take the kernels.

On top of the trace differential this file checks the observer seam (an
attached charge observer routes every call to the per-edge route
without changing one bit), the ``vec_stats``-to-metrics export, and
certified crash recovery of a journal written by the array backend.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro import native
from repro.core.certify import certify
from repro.core.dynamic_matching import DynamicMatching
from repro.hypergraph.edge import Edge

N_TRACES = 50

#: Edit kernels whose calls the differential expects to see.
EDIT_KERNELS = (
    "edit_add_level0", "edit_cross_scan", "edit_remove_match",
    "intern_localize",
)


@pytest.fixture(autouse=True)
def _columnar_every_call(monkeypatch):
    """Drop the route constant so even tiny trace batches take the
    columnar route (tests that need the default raise it back)."""
    monkeypatch.setattr(native, "VEC_MIN", 1)


def _kernel_calls():
    st = native.stats()
    return {k: st.get(k, {}).get("calls", 0) for k in EDIT_KERNELS}


def _script(seed: int):
    """One random batch script: [("insert", edges) | ("delete", eids)].

    About a quarter of the batches are large (64+ updates), so at the
    default route constant a trace mixes columnar and per-edge calls.
    """
    rng = np.random.default_rng(seed)
    max_vertices = int(rng.integers(6, 14))
    rank = int(rng.integers(2, 4))
    steps = int(rng.integers(4, 10))
    script = []
    live: List[int] = []
    next_eid = 0
    for _ in range(steps):
        big = rng.random() < 0.25
        if not live or rng.random() < 0.6:
            k = int(rng.integers(64, 100)) if big else int(rng.integers(1, 7))
            batch = []
            for _ in range(k):
                card = int(rng.integers(1, rank + 1))
                vs = rng.choice(max_vertices, size=card, replace=False)
                batch.append(Edge(next_eid, [int(v) for v in vs]))
                live.append(next_eid)
                next_eid += 1
            script.append(("insert", batch))
        else:
            most = len(live) if big else min(len(live), 6)
            k = int(rng.integers(1, most + 1))
            idx = sorted(rng.choice(len(live), size=k, replace=False), reverse=True)
            eids = [live[i] for i in idx]
            for i in idx:
                live.pop(i)
            script.append(("delete", eids))
    return rank, script


def _apply(dm: DynamicMatching, op) -> None:
    kind, payload = op
    if kind == "insert":
        dm.insert_edges(list(payload))
    else:
        dm.delete_edges(list(payload))


def _fingerprint(dm: DynamicMatching):
    """Everything the bit-identity contract covers, after one batch.

    ``samples_of`` charges the ledger, so the ledger snapshot is taken
    first; the charge itself is part of the contract (both sides pay it
    identically), which keeps later cumulative snapshots comparable.
    """
    led = (dm.ledger.work, dm.ledger.depth, dict(dm.ledger.by_tag))
    matched = dm.matched_ids()
    samples = {
        mid: [e.eid for e in dm.structure.samples_of(mid)] for mid in matched
    }
    epochs = sorted(
        (ep.eid, ep.level, ep.sample_size) for ep in dm.tracker.live_epochs()
    )
    return led, matched, samples, epochs


def _trace(rank: int, script, seed: int, backend: str = "array"):
    """Run ``script`` on a fresh instance; fingerprints per batch."""
    dm = DynamicMatching(rank=rank, seed=seed, backend=backend)
    fps = []
    for op in script:
        _apply(dm, op)
        fps.append(_fingerprint(dm))
        dm.check_invariants()
    return fps, dm


class TestFiveWayDifferential:
    """The array backend at route constant 1 and at 64 against the dict
    oracle."""

    @pytest.mark.parametrize("chunk", range(5))
    def test_traces(self, chunk, monkeypatch):
        """N_TRACES seeded traces: array with every call columnar, array
        with routes mixed by size, and the dict oracle, bit-identical at
        every batch boundary."""
        per = N_TRACES // 5
        fired = {}
        for vec_min in (1, 64):
            monkeypatch.setattr(native, "VEC_MIN", vec_min)
            before = _kernel_calls()
            for seed in range(chunk * per, (chunk + 1) * per):
                rank, script = _script(seed)
                fps_dict, dm_dict = _trace(rank, script, seed + 1, "dict")
                fps_arr, dm_arr = _trace(rank, script, seed + 1)
                for step, (a, b) in enumerate(zip(fps_arr, fps_dict)):
                    assert a == b, (
                        f"seed {seed} step {step}: array (VEC_MIN={vec_min}) "
                        f"!= dict oracle"
                    )
                assert dm_arr.vec_stats["vector_batches"] == len(script)
                assert dm_arr.vec_stats["object_batches"] == 0
                assert dm_dict.vec_stats["object_batches"] == len(script)
                cert_a, cert_d = certify(dm_arr), certify(dm_dict)
                assert cert_a.matched == cert_d.matched
                assert cert_a.witness == cert_d.witness
            after = _kernel_calls()
            fired[vec_min] = {k: after[k] - before[k] for k in EDIT_KERNELS}
        # Every call columnar must exercise every edit kernel; at the
        # default the large batches still reach the kernels.
        assert all(n > 0 for n in fired[1].values()), fired[1]
        assert fired[64]["edit_cross_scan"] > 0, fired[64]
        assert fired[64]["intern_localize"] > 0, fired[64]


class TestObserverFallback:
    def test_default_observer_keeps_vector_path(self):
        """Observation is per-batch sampling: an attached observer
        leaves every batch on the array backend's one charge route."""
        from repro.obs.observer import Observer

        rank, script = _script(7)
        dm = DynamicMatching(rank=rank, seed=8)
        obs = Observer()
        detach = obs.attach_matching(dm)
        try:
            for op in script:
                _apply(dm, op)
        finally:
            detach()
        assert dm.vec_stats["vector_batches"] == len(script)
        assert dm.vec_stats["object_batches"] == 0


class TestMetricsExport:
    def test_vec_stats_reach_registry(self):
        """run_stream publishes vec_stats; the repro_dynamic_batch_*
        counters and the fraction gauge must track them exactly."""
        from repro.obs.observer import Observer
        from repro.workloads.runner import run_stream
        from repro.workloads.streams import UpdateBatch

        rank, script = _script(19)
        stream = [
            UpdateBatch.insert(payload) if kind == "insert"
            else UpdateBatch.delete(payload)
            for kind, payload in script
        ]
        dm = DynamicMatching(rank=rank, seed=20)
        obs = Observer()
        run_stream(dm, stream, observer=obs)
        stats = dm.vec_stats
        assert obs.dynamic_vector_batches.value() == stats["vector_batches"]
        assert obs.dynamic_object_batches.value() == stats["object_batches"]
        assert obs.dynamic_frames.value() == stats["frames"]
        total = stats["vector_batches"] + stats["object_batches"]
        assert total == len(stream)
        assert obs.dynamic_vectorized_fraction.value() == (
            stats["vector_batches"] / total
        )


    def test_shared_observer_counts_each_batch_once(self):
        """Two instances publishing into one observer: the counters
        advance by each batch's own delta, and the fraction gauge reads
        the observer's totals."""
        from repro.obs.observer import Observer
        from repro.workloads.runner import run_stream
        from repro.workloads.streams import UpdateBatch

        dms = [
            DynamicMatching(rank=2, seed=5),
            DynamicMatching(rank=2, seed=5, backend="dict"),
        ]
        obs = Observer()
        for i in range(20):
            batch = UpdateBatch.insert([Edge(i, (2 * i, 2 * i + 1))])
            for dm in dms:
                run_stream(dm, [batch], observer=obs)
        assert obs.dynamic_vector_batches.value() == 20
        assert obs.dynamic_object_batches.value() == 20
        assert obs.dynamic_frames.value() == (
            dms[0].vec_stats["frames"] + dms[1].vec_stats["frames"]
        )
        assert obs.dynamic_vectorized_fraction.value() == 0.5


class TestCrashRecoveryReplay:
    def test_certified_recovery_of_vectorized_run(self, tmp_path):
        """A journal written by an all-columnar array instance recovers
        and certifies against the from-scratch oracle replay."""
        from repro.durability import DurabilityManager, recover
        from repro.testing.faults import random_batches

        rng = np.random.default_rng(31)
        batches = random_batches(rng, 16)
        dm = DynamicMatching(rank=3, seed=31)
        with DurabilityManager.create(
            str(tmp_path), dm, checkpoint_every=4
        ) as mgr:
            for batch in batches:
                mgr.log_batch(batch)
                if batch.kind == "insert":
                    dm.insert_edges(list(batch.edges))
                else:
                    dm.delete_edges(list(batch.eids))
                mgr.note_applied(dm)
        assert dm.vec_stats["vector_batches"] > 0
        res = recover(str(tmp_path))
        assert res.certified
        assert res.dm.matched_ids() == dm.matched_ids()
        assert (res.dm.ledger.work, res.dm.ledger.depth) == (
            dm.ledger.work, dm.ledger.depth
        )

