"""Differential tests: observability must not perturb the algorithms.

The same workload is run with the observer attached and detached; ledger
totals, per-tag work, matchings, and recovery certificates must be
bit-identical.  This is the zero-perturbation contract that lets the
telemetry run in production without invalidating the paper's accounting.
The per-tag work series the observer publishes from each batch's
``ledger.by_tag`` delta must track the ledger exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.profiles import tag_work, work_profile
from repro.core import DynamicMatching
from repro.durability import DurabilityManager, recover
from repro.obs import Observer, default_observer, reset_default_observer
from repro.testing import random_workout
from repro.testing.faults import random_batches
from repro.workloads import (
    FifoAdversary,
    erdos_renyi_edges,
    insert_then_delete_stream,
)
from repro.workloads.runner import run_stream

pytestmark = pytest.mark.obs


def _ledger_fingerprint(dm: DynamicMatching):
    return (dm.ledger.work, dm.ledger.depth, dict(dm.ledger.by_tag))


def _run_workout(seed: int, observed: bool):
    created = []

    def make_algo():
        dm = DynamicMatching(rank=3, seed=seed, backend="array")
        if observed:
            obs = Observer()
            obs.attach_matching(dm)
            dm._test_obs = obs  # keep it (and its hooks) alive for the run
        created.append(dm)
        return dm

    random_workout(make_algo, seed=seed, steps=25, certify_after_each_batch=True)
    (dm,) = created
    return dm


@pytest.mark.parametrize("seed", [3, 11])
def test_workout_obs_on_off_identical(seed):
    plain = _run_workout(seed, observed=False)
    observed = _run_workout(seed, observed=True)
    assert _ledger_fingerprint(plain) == _ledger_fingerprint(observed)
    assert plain.matched_ids() == observed.matched_ids()
    assert {e.eid for e in plain.structure.all_edges()} == {
        e.eid for e in observed.structure.all_edges()
    }


def _stream(seed: int, n: int = 40, m: int = 140, batch_size: int = 12):
    edges = erdos_renyi_edges(n, m, rng=np.random.default_rng(seed))
    return insert_then_delete_stream(
        edges, batch_size=batch_size, adversary=FifoAdversary()
    )


def test_run_stream_publishes_by_tag_exactly(seed=5):
    dm = DynamicMatching(rank=3, seed=seed, backend="array")
    obs = Observer()
    run_stream(dm, _stream(seed, m=300, batch_size=70), observer=obs)
    assert tag_work(obs.registry) == dict(dm.ledger.by_tag)
    # and the rolled-up phase profile agrees between the two sources
    assert work_profile(obs.registry) == work_profile(dm.ledger)


@pytest.mark.parametrize("backend", ["array", "dict"])
def test_tag_series_tracks_by_tag_after_every_batch(backend):
    """Both the small-call and the columnar routes (batches of 12 and
    of 70 edges) publish exactly the ledger's per-tag work."""
    dm = DynamicMatching(rank=2, seed=13, backend=backend)
    obs = Observer()
    # Each stream deletes every edge it inserts, so the second may reuse ids.
    stream = _stream(13, n=60, m=240, batch_size=12) + _stream(14, n=300, m=420, batch_size=70)
    for batch in stream:
        run_stream(dm, [batch], observer=obs)
        assert tag_work(obs.registry) == dict(dm.ledger.by_tag)


def test_shared_default_observer_sums_instances():
    """Two instances publishing into the process-wide observer: the
    series is the sum of both ledgers' per-tag work (per-batch deltas,
    not a last-seen value per observer)."""
    reset_default_observer()
    try:
        a = DynamicMatching(rank=2, seed=1)
        b = DynamicMatching(rank=2, seed=2, backend="dict")
        sa, sb = _stream(1, m=200, batch_size=70), _stream(2)
        for i in range(max(len(sa), len(sb))):
            run_stream(a, sa[i:i + 1])
            run_stream(b, sb[i:i + 1])
        total = dict(a.ledger.by_tag)
        for tag, w in b.ledger.by_tag.items():
            total[tag] = total.get(tag, 0.0) + w
        assert tag_work(default_observer().registry) == total
    finally:
        reset_default_observer()


@pytest.mark.parametrize("backend", ["array", "dict"])
def test_run_stream_obs_on_off_identical(backend):
    results = {}
    for observed in (False, True):
        dm = DynamicMatching(rank=3, seed=9, backend=backend)
        obs = Observer() if observed else False
        run_stream(dm, _stream(seed=9), observer=obs)
        results[observed] = (_ledger_fingerprint(dm), dm.matched_ids())
    assert results[False] == results[True]


def _durable_run(directory, seed: int, observed: bool):
    rng = np.random.default_rng(seed)
    batches = random_batches(rng, 14)
    dm = DynamicMatching(rank=3, seed=seed, backend="array")
    obs = Observer() if observed else None
    detach = obs.attach_matching(dm) if obs else None
    with DurabilityManager.create(
        str(directory), dm, checkpoint_every=4
    ) as mgr:
        if obs:
            obs.attach_durability(mgr)
        for batch in batches:
            mgr.log_batch(batch)
            if batch.kind == "insert":
                dm.insert_edges(list(batch.edges))
            else:
                dm.delete_edges(list(batch.eids))
            mgr.note_applied(dm)
    if detach:
        detach()
    return dm


def test_recovery_certificates_identical(tmp_path):
    plain_dir, obs_dir = tmp_path / "plain", tmp_path / "observed"
    _durable_run(plain_dir, seed=21, observed=False)
    _durable_run(obs_dir, seed=21, observed=True)

    plain = recover(str(plain_dir), do_certify=True)
    observed = recover(str(obs_dir), do_certify=True)
    assert plain.certified and observed.certified
    assert plain.report == observed.report
    assert plain.report["work"] == observed.report["work"]
    assert plain.dm.matched_ids() == observed.dm.matched_ids()
