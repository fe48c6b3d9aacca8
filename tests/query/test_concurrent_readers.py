"""Concurrent stress: N reader threads against a live update stream.

The harness proves the two concurrency contracts of docs/queries.md:

* **No torn reads** — every view a reader gets re-derives its content
  fingerprint and passes the internal cross-checks
  (:meth:`EpochView.verify_consistent`), i.e. it never mixes two epochs;
  and the epochs each thread observes are monotone non-decreasing.
* **Read-your-writes** — after the writer has acknowledged batch ``B``,
  ``read_at(epoch=B)`` (from a different thread) serves a view at epoch
  >= B, immediately.

Both contracts are exercised unsharded and through the K ∈ {1, 2}
sharded router (inline transport), and once over HTTP via QueryClient.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.dynamic_matching import DynamicMatching
from repro.query import (
    EpochNotReady,
    QueryClient,
    QueryService,
    certify_view,
    oracle_view,
    sharded_oracle_view,
    start_query_server,
)
from repro.workloads.runner import run_stream

from tests.query.conftest import churn_stream

pytestmark = pytest.mark.query

N_READERS = 4


class ReaderPool:
    """N threads hammering a QueryService until told to stop; each
    records every violation rather than raising (threads must not die
    silently mid-assert)."""

    def __init__(self, service: QueryService, n: int = N_READERS) -> None:
        self.service = service
        self.stop = threading.Event()
        self.violations = []
        self.reads = 0
        self._lock = threading.Lock()
        self.threads = [
            threading.Thread(target=self._loop, args=(i,), daemon=True)
            for i in range(n)
        ]

    def _loop(self, tid: int) -> None:
        last_epoch = -1
        reads = 0
        while not self.stop.is_set():
            try:
                view = self.service.view()
                view.verify_consistent()  # torn-read check
                if view.epoch < last_epoch:
                    self.violations.append(
                        f"reader {tid}: epoch went backwards "
                        f"{last_epoch} -> {view.epoch}"
                    )
                last_epoch = view.epoch
                # Point reads answer from one consistent view.
                v = (tid * 7 + reads) % 30
                m = self.service.match_of(v)
                if m is not None and not self.service.is_matched_edge(m):
                    # Both reads hit the *newest* view; a mismatch is only
                    # legal if an epoch was published in between.
                    if self.service.epoch == view.epoch:
                        self.violations.append(
                            f"reader {tid}: cover edge {m} not matched "
                            f"within epoch {view.epoch}"
                        )
                reads += 1
            except AssertionError as exc:
                self.violations.append(f"reader {tid}: {exc}")
                break
        with self._lock:
            self.reads += reads

    def __enter__(self) -> "ReaderPool":
        for t in self.threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop.set()
        for t in self.threads:
            t.join(timeout=10)
        assert not self.violations, self.violations


def test_concurrent_readers_unsharded_no_torn_reads():
    stream = churn_stream(batches=14, batch_size=8, seed=3)
    dm = DynamicMatching(rank=2, seed=42)
    service = QueryService(dm)
    with ReaderPool(service) as pool:
        run_stream(dm, stream, query=service, observer=False)
    assert pool.reads > 0
    assert service.epoch == len(stream)
    certify_view(service.view(), oracle_view(stream, len(stream), seed=42))


def test_readers_race_epoch_log_trimming():
    """The writer trims the epoch log behind the index's cursor while
    reader threads build epochs from it; every built epoch feeds the
    next, so one misread window would show in the final certificate."""
    stream = churn_stream(batches=150, batch_size=8, seed=21)
    dm = DynamicMatching(rank=2, seed=42)
    service = QueryService(dm)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ReaderPool(service) as pool:
            run_stream(dm, stream, query=service, observer=False)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool.threads)
    assert pool.reads > 0
    assert dm.tracker.log.b0 > 0, "the log was never trimmed"
    certify_view(service.view(), oracle_view(stream, len(stream), seed=42))


def test_read_your_writes_after_each_acked_batch():
    """After batch B is acked, a reader thread sees epoch >= B at once."""
    stream = churn_stream(batches=10, batch_size=6, seed=5)
    dm = DynamicMatching(rank=2, seed=42)
    service = QueryService(dm)
    results = []

    def probe(upto: int) -> None:
        try:
            view = service.read_at(upto)  # no wait: must already be there
            view.verify_consistent()
            results.append(view.epoch >= upto)
        except EpochNotReady:
            results.append(False)

    for i, batch in enumerate(stream):
        run_stream(dm, [batch], query=service, observer=False)
        t = threading.Thread(target=probe, args=(i + 1,))
        t.start()
        t.join(timeout=10)
    assert results == [True] * len(stream)
    # ...and an epoch nobody acked is rejected with the newest attached.
    with pytest.raises(EpochNotReady) as exc:
        service.read_at(len(stream) + 1)
    assert exc.value.newest == len(stream)


def test_read_at_wait_unblocks_on_publish():
    dm = DynamicMatching(rank=2, seed=1)
    service = QueryService(dm)
    got = []

    def waiter() -> None:
        got.append(service.read_at(1, wait=True, timeout=30).epoch)

    t = threading.Thread(target=waiter)
    t.start()
    stream = churn_stream(batches=1, batch_size=4, seed=9)
    run_stream(dm, stream, query=service, observer=False)
    t.join(timeout=10)
    assert got == [1]

    with pytest.raises(EpochNotReady):
        service.read_at(99, wait=True, timeout=0.05)


@pytest.mark.parametrize("k", [1, 2])
def test_concurrent_readers_sharded(k):
    from repro.sharding import ShardedMatching

    stream = churn_stream(batches=10, batch_size=8, seed=11)
    router = ShardedMatching(shards=k, seed=42, transport="inline")
    try:
        service = QueryService(router)
        with ReaderPool(service) as pool:
            run_stream(router, stream, query=service, observer=False)
        assert pool.reads > 0
        view = service.view()
        assert view.epoch == len(stream)
        assert view.epoch_vector == (len(stream),) * k
        certify_view(
            view, sharded_oracle_view(stream, len(stream), shards=k, seed=42)
        )
    finally:
        router.close()


def test_concurrent_http_readers():
    """The HTTP endpoint under concurrent readers while batches apply."""
    stream = churn_stream(batches=8, batch_size=6, seed=13)
    dm = DynamicMatching(rank=2, seed=42)
    service = QueryService(dm)
    server = start_query_server(service)
    port = server.server_address[1]
    stop = threading.Event()
    errors = []

    def http_reader(tid: int) -> None:
        client = QueryClient("127.0.0.1", port)
        last = -1
        while not stop.is_set():
            try:
                info = client.epoch()
                if info["epoch"] < last:
                    errors.append(f"http reader {tid}: epoch went backwards")
                last = info["epoch"]
                client.is_matched(tid)
                client.matching_size()
            except Exception as exc:  # noqa: BLE001 — collect, don't die
                errors.append(f"http reader {tid}: {exc!r}")
                break

    threads = [threading.Thread(target=http_reader, args=(i,), daemon=True)
               for i in range(2)]
    try:
        for t in threads:
            t.start()
        run_stream(dm, stream, query=service, observer=False)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        server.shutdown()
    assert not errors, errors
    client = QueryClient("127.0.0.1", port)
    # Server is down; the in-process service still answers.
    assert service.matching_size() == service.view().matching_size
