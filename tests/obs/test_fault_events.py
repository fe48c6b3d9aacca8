"""Crash forensics: the event log must survive a mid-batch crash intact.

A simulated crash (:class:`SimulatedCrash` is a BaseException) fires
inside the apply phase while the observer's JSONL event log is attached.
Afterward the log must parse line by line, the span state must be
recoverable, and durability recovery must certify — a torn span never
poisons ``serve --recover``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import DynamicMatching
from repro.durability import DurabilityManager, recover
from repro.obs import JsonlEventLog, Observer, open_spans, read_events
from repro.testing.faults import CrashInjector, SimulatedCrash, random_batches
from repro.workloads.runner import run_stream

pytestmark = [pytest.mark.obs, pytest.mark.fault]


def _crash_run(tmp_path, crash_at=30, seed=31):
    """Run a durable observed stream until the injector fires.

    Returns (events_path, durability_dir, injector, dm).
    """
    events_path = str(tmp_path / "events.jsonl")
    dur_dir = tmp_path / "dur"
    dur_dir.mkdir()
    rng = np.random.default_rng(seed)
    batches = random_batches(rng, 12)
    dm = DynamicMatching(rank=3, seed=seed, backend="array")
    injector = CrashInjector(at=crash_at)
    dm.set_phase_hook(injector)
    obs = Observer()
    obs.open_event_log(events_path)
    mgr = DurabilityManager.create(str(dur_dir), dm, checkpoint_every=4)
    try:
        with pytest.raises(SimulatedCrash):
            run_stream(dm, batches, durability=mgr, observer=obs)
    finally:
        mgr.close()
        obs.close()
    assert injector.fired, "crash point never reached; lower crash_at"
    return events_path, dur_dir, injector, dm


def test_crash_leaves_parseable_log_and_certified_recovery(tmp_path):
    events_path, dur_dir, injector, dm = _crash_run(tmp_path)

    # every line on disk is a self-contained JSON object
    with open(events_path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    assert lines
    for ln in lines:
        json.loads(ln)

    # the interrupted spans were flushed with the crash recorded on them
    events = read_events(events_path)
    errored = [
        e for e in events
        if e.get("type") == "span" and e.get("attrs", {}).get("error")
    ]
    assert errored, "crash did not mark any span"
    assert all(e["attrs"]["error"] == "SimulatedCrash" for e in errored)
    # the phase event that crashed is on the record, for forensics
    crash_event = injector.events[-1]
    assert any(
        crash_event in [name for name, _t in e.get("events", [])]
        for e in errored
    )

    # the batch that crashed opened a span but produced no finished batch
    opens = [e for e in events if e["type"] == "span_open" and e["name"] == "batch"]
    finished_batches = [
        e for e in events if e["type"] == "span" and e["name"] == "batch"
        and "work" in e.get("attrs", {})
    ]
    assert len(opens) == len(finished_batches) + 1

    # the crash detached nothing it shouldn't: the injector hook is back
    assert dm.phase_hook is injector

    # durability is unpoisoned: recovery replays the journal and certifies
    res = recover(str(dur_dir), do_certify=True)
    assert res.certified
    assert res.report["batches"] >= len(finished_batches)


def test_unfinished_span_recoverable_from_log(tmp_path):
    """Model true process death: a span opens, the process dies before
    the finish record is written.  ``open_spans`` finds it."""
    path = str(tmp_path / "events.jsonl")
    obs = Observer()
    log = JsonlEventLog(path).attach(obs.tracer)
    handle = obs.tracer.span("batch", kind="insert", index=0)
    assert handle.span.name == "batch"  # opened (span_open is on disk)
    with obs.tracer.span("apply"):
        pass
    # power cut here: the batch span never finishes, the log just stops
    log.close()
    events = read_events(path)
    stuck = open_spans(events)
    assert [e["name"] for e in stuck] == ["batch"]
    assert stuck[0]["attrs"]["kind"] == "insert"


def test_torn_tail_in_event_log_is_skipped(tmp_path):
    events_path, dur_dir, _injector, _dm = _crash_run(tmp_path, seed=37)
    before = read_events(events_path)
    # tear the tail mid-record, as a crash during a write would
    with open(events_path, "r+", encoding="utf-8") as fh:
        data = fh.read()
        fh.seek(0)
        fh.truncate()
        fh.write(data + '{"type": "span", "name": "batch", "attrs": {"wor')
    after = read_events(events_path)
    assert after == before  # torn record skipped, nothing else lost
    # and the durability side still certifies
    assert recover(str(dur_dir), do_certify=True).certified
