"""Closed-loop harness: set-up, warm-up, timed rounds, correctness gate.

One single-writer client drives one service.  The next batch is sent
only after the previous one returned, and the batch's point reads run in
the same thread right after it (closed loop, no reader threads).  A run:

1. times a fixed pure-Python loop 50 times (``host.calib_ms``, the
   median, and ``host.calib_drift``, after over before the run) so a slow
   host can be told apart from a slow change;
2. generates every input from the seed (:mod:`perfbench.workloads`);
3. builds the service and bulk-loads the initial graph
   ``setup_repeats`` times — ``setup_s`` is the median, and the ledger
   totals of the repeats must be identical;
4. runs the warm-up batches untimed, then ``gc.collect()``;
5. runs whole rounds of ``round_batches`` batches until ``seconds`` have
   passed and at least ``min_rounds`` rounds are done.  Every batch and
   every read is timed on its own; the ledger counts cover exactly the
   first ``min_rounds`` rounds, so they repeat bit for bit at a seed;
6. (durable workload) runs an untimed tail, then recovers;
7. checks the final state (:mod:`perfbench.gate`) and times the loop
   again.

Times are reported at a reference host speed (:class:`HostProbe`): a
0.2 ms pure-Python probe runs between operations, and each operation's
time is scaled by the reference over the probes of its half-second
segment.  On a shared host the raw times of identical runs differ by a
third or more; the scaled ones by a few percent.  The raw medians are
printed beside them (``raw.*``), with the factor (``host.speed_factor``).

With ``trace=True`` odd rounds run with the layer wrappers of
:mod:`perfbench.tracing` installed and even rounds without; per-layer
numbers come from the traced rounds and ``obs.trace_overhead_frac``
compares the two.  End-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.workloads.runner import run_stream

from perfbench import gate
from perfbench.tracing import Recorder, layer_patches, recovery_patches
from perfbench.workloads import Inputs, Spec, make_inputs, stream_length

_ns = time.perf_counter_ns

#: End-to-end metrics: (name, unit).  Every workload reports all of them.
E2E_METRICS: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
    ("rss_growth_mb", "MB"),
    ("ledger_work_per_update", "work/update"),
    ("ledger_depth_per_batch", "depth/batch"),
]

#: Per-layer metrics of the traced run: (name, unit).  A layer a
#: workload never enters reports 0.
LAYER_METRICS: List[Tuple[str, str]] = [
    ("core.apply_s", "s/batch"),
    ("core.edit_s", "s/batch"),
    ("core.settle_rounds_per_delete", "count"),
    ("core.vector_batch_frac", "fraction"),
    ("parallel.frame_s", "s/batch"),
    ("parallel.frames_per_batch", "count"),
    ("static_matching.greedy_s", "s/batch"),
    ("static_matching.calls_per_batch", "count"),
    ("static_matching.scalar_call_frac", "fraction"),
    ("static_matching.match_yield", "fraction"),
    ("native.kernel_s", "s/batch"),
    ("native.kernel_calls_per_batch", "count"),
    ("workloads.record_s", "s/batch"),
    ("ledger.work_per_update.hash_tables", "work/update"),
    ("ledger.work_per_update.structure_edits", "work/update"),
    ("ledger.work_per_update.greedy_match", "work/update"),
    ("ledger.work_per_update.batch_bookkeeping", "work/update"),
    ("ledger.work_per_update.adjust_cross_edges", "work/update"),
    ("ledger.work_per_update.sharding", "work/update"),
    ("ledger.work_per_update.other", "work/update"),
    ("durability.journal_s", "s/batch"),
    ("durability.journal_bytes_per_update", "B/update"),
    ("durability.checkpoint_s", "s"),
    ("durability.checkpoint_mb", "MB"),
    ("durability.recover_s", "s"),
    ("durability.recover_load_s", "s"),
    ("durability.recover_replay_s", "s"),
    ("query.publish_s", "s/batch"),
    ("query.read_p50_us", "us"),
    ("query.read_p99_us", "us"),
    ("query.first_read_us", "us"),
    ("query.cache_hit_ratio", "fraction"),
    ("query.rejected", "count"),
    ("sharding.split_s", "s/batch"),
    ("sharding.handoff_s", "s/batch"),
    ("sharding.ipc_wait_s", "s/batch"),
    ("sharding.cross_frac", "fraction"),
    ("sharding.proposals_per_update", "count"),
    ("sharding.accept_ratio", "fraction"),
    ("sharding.shard_work_skew", "ratio"),
    ("runtime.gc_gen2", "count"),
    ("runtime.gc_pause_s", "s"),
    ("host.calib_ms", "ms"),
    ("host.calib_drift", "ratio"),
    ("host.speed_factor", "ratio"),
    ("obs.residual_s", "s/batch"),
    ("obs.residual_frac", "fraction"),
    ("obs.trace_overhead_frac", "fraction"),
    ("gate.failed_frac", "fraction"),
]

#: Span name -> per-batch self-time metric.
_SELF_TIME = {
    "core.apply": "core.apply_s",
    "core.edit": "core.edit_s",
    "parallel.frame": "parallel.frame_s",
    "static_matching.greedy": "static_matching.greedy_s",
    "native.kernel": "native.kernel_s",
    "workloads.record": "workloads.record_s",
    "durability.journal": "durability.journal_s",
    "query.publish": "query.publish_s",
    "sharding.split": "sharding.split_s",
    "sharding.handoff": "sharding.handoff_s",
    "sharding.ipc_wait": "sharding.ipc_wait_s",
}

#: work_profile phase -> ledger.work_per_update.* suffix.
_PHASE_KEY = {
    "hash tables": "hash_tables",
    "structure edits": "structure_edits",
    "greedy match": "greedy_match",
    "batch bookkeeping": "batch_bookkeeping",
    "adjust cross edges": "adjust_cross_edges",
}

#: Router-side ledger tags of the sharded service.
_ROUTER_TAGS = ("shard_split", "handoff_propose", "handoff_decide")


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    srt = sorted(values)
    return srt[min(len(srt), max(1, math.ceil(q * len(srt)))) - 1]


class GcWatch:
    """``gc.callbacks`` hook: collector pause time and gen-2 collections."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.pause_s = 0.0
        self._t0 = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = _ns()
            return
        self.pause_s += (_ns() - self._t0) * 1e-9
        if info.get("generation") == 2:
            self.gen2 += 1


# ---------------------------------------------------------------------- #
# Services
# ---------------------------------------------------------------------- #
class Service:
    """One service instance under test.  Subclasses implement set-up,
    the per-batch call and the point read through the program's public
    API."""

    durable = False

    def __init__(self, inputs: Inputs, workdir: str, index: int) -> None:
        self.inputs = inputs
        self.spec = inputs.spec
        self.workdir = workdir
        self.index = index
        self.algo_seed = inputs.seed * 7919 + 17

    def setup(self) -> None:
        raise NotImplementedError

    def apply(self, batch) -> None:
        run_stream(self.algo, [batch], observer=False, **self.run_kwargs())

    def run_kwargs(self) -> dict:
        return {}

    def read(self, v):
        raise NotImplementedError

    def expected_read(self, v):
        """The live structure's answer for a read, or ``NotImplemented``
        when checking it per read would cost more than the read."""
        return NotImplemented

    def ledger_state(self) -> Tuple[float, float, Dict[str, float]]:
        led = self.algo.ledger
        return led.work, led.depth, dict(led.by_tag)

    def window_start(self) -> dict:
        return {}

    def window_layers(self, start: dict, batches: int, updates: int) -> Dict[str, float]:
        return {}

    def final_gate(self, live) -> List[List[str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _Unsharded(Service):
    """Shared by the churn and serve workloads (one DynamicMatching)."""

    def make_dm(self):
        from repro.core.dynamic_matching import DynamicMatching

        return DynamicMatching(rank=self.spec.rank, seed=self.algo_seed)

    def window_start(self) -> dict:
        return {"stats": len(self.algo.batch_stats), "vec": dict(self.algo.vec_stats)}

    def window_layers(self, start: dict, batches: int, updates: int) -> Dict[str, float]:
        dm = self.algo
        deletes = [s for s in dm.batch_stats[start["stats"]:] if s.kind == "delete"]
        vec = {k: dm.vec_stats[k] - start["vec"][k] for k in dm.vec_stats}
        counted = vec["vector_batches"] + vec["object_batches"]
        return {
            "core.settle_rounds_per_delete": (
                sum(s.num_rounds for s in deletes) / len(deletes) if deletes else 0.0
            ),
            "core.vector_batch_frac": vec["vector_batches"] / counted if counted else 0.0,
        }

    def final_gate(self, live) -> List[List[str]]:
        from repro.core.certify import certify

        dm = self.algo
        edges = list(live.values())
        return [
            gate.check_raises("check_invariants", dm.check_invariants),
            gate.check_raises("certificate", lambda: certify(dm).verify(edges)),
            gate.check_edge_set((e.eid for e in dm.structure.all_edges()), live),
            gate.check_matching(dm.matched_ids(), live),
        ]


class ChurnService(_Unsharded):
    def setup(self) -> None:
        self.algo = self.make_dm()
        self.apply(self.inputs.initial)


class ServeService(_Unsharded):
    durable = True

    def setup(self) -> None:
        from repro.durability import DurabilityManager
        from repro.query import QueryService

        self.dir = os.path.join(self.workdir, f"serve-{self.index}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.algo = self.make_dm()
        self.mgr = DurabilityManager.create(
            self.dir, self.algo, checkpoint_every=self.spec.round_batches, fsync=False
        )
        self.query = QueryService(self.algo)
        self.apply(self.inputs.initial)

    def run_kwargs(self) -> dict:
        return {"durability": self.mgr, "query": self.query}

    def read(self, v):
        return self.query.match_of(v)

    def expected_read(self, v):
        return self.algo.match_of(v)

    def journal_bytes(self) -> int:
        return os.path.getsize(self.mgr.writer.path)  # every record is flushed

    def window_start(self) -> dict:
        start = super().window_start()
        stats = self.query.stats
        start.update(journal=self.journal_bytes(), hits=stats["cache_hits"],
                     misses=stats["cache_misses"], rejected=stats["rejected"])
        return start

    def window_layers(self, start: dict, batches: int, updates: int) -> Dict[str, float]:
        from repro.durability.checkpoint import list_checkpoints

        out = super().window_layers(start, batches, updates)
        stats = self.query.stats
        hits = stats["cache_hits"] - start["hits"]
        looked = hits + stats["cache_misses"] - start["misses"]
        newest = list_checkpoints(self.dir)[-1][1]
        out.update({
            "durability.journal_bytes_per_update": (
                (self.journal_bytes() - start["journal"]) / updates
            ),
            "durability.checkpoint_mb": os.path.getsize(newest) / 2**20,
            "query.cache_hit_ratio": hits / looked if looked else 0.0,
            "query.rejected": float(stats["rejected"] - start["rejected"]),
        })
        return out

    def close(self) -> None:
        mgr = getattr(self, "mgr", None)
        if mgr is not None:
            mgr.close()
            self.mgr = None


class ShardedService(Service):
    def setup(self) -> None:
        from repro.sharding import ShardedMatching

        self.algo = ShardedMatching(
            shards=2, rank=self.spec.rank, seed=self.algo_seed, transport="process"
        )
        self.apply(self.inputs.initial)

    def read(self, v):
        return self.algo.match_of(v)

    def window_start(self) -> dict:
        bd = self.algo.ledger_breakdown()
        return {"stats": len(self.algo.batch_stats),
                "shard_work": [w for _, w, _, _ in bd["shards"]]}

    def window_layers(self, start: dict, batches: int, updates: int) -> Dict[str, float]:
        stats = self.algo.batch_stats[start["stats"]:]
        bd = self.algo.ledger_breakdown()
        per_shard = [w - w0 for (_, w, _, _), w0 in zip(bd["shards"], start["shard_work"])]
        size = sum(s.batch_size for s in stats)
        proposals = sum(s.proposals for s in stats)
        mean = sum(per_shard) / len(per_shard)
        return {
            "sharding.cross_frac": sum(s.n_cross for s in stats) / size,
            "sharding.proposals_per_update": proposals / size,
            "sharding.accept_ratio": (
                sum(s.accepts for s in stats) / proposals if proposals else 0.0
            ),
            "sharding.shard_work_skew": max(per_shard) / mean if mean else 0.0,
        }

    def final_gate(self, live) -> List[List[str]]:
        router = self.algo
        edges = list(live.values())
        cached_work = router.ledger.work
        bd = router.ledger_breakdown()
        matched = router.matched_ids()
        cover = {v: eid for eid in matched if eid in live for v in live[eid].vertices}
        # Checking every read would cost a full merged matching per batch,
        # so the final state answers 256 of the generated reads instead.
        reads: List[str] = []
        for v in (v for vs in self.inputs.read_vertices[-32:] for v in vs):
            reads += gate.check_read(v, router.match_of(v), cover.get(v))
        return [
            gate.check_raises("check_invariants", router.check_invariants),
            gate.check_raises(
                "merged certificate", lambda: router.certificate().verify(edges)
            ),
            gate.check_edge_set((e.eid for e in router.all_edges()), live),
            gate.check_matching(matched, live),
            gate.check_equal(
                "merged ledger work vs router + sum of shards", cached_work,
                bd["router"][0] + sum(w for _, w, _, _ in bd["shards"]),
            ),
            reads,
        ]

    def close(self) -> None:
        algo = getattr(self, "algo", None)
        if algo is not None:
            algo.close()


SERVICES = {"churn-r2": ChurnService, "serve-r3": ServeService, "sharded-k2": ShardedService}


# ---------------------------------------------------------------------- #
# Host speed
# ---------------------------------------------------------------------- #
#: Iterations of the probe loop: about 0.2 ms of pure Python.
PROBE_N = 4000
#: Probe time in ms on a quiet host.  Time metrics are reported at this
#: host speed: each timed operation is scaled by PROBE_REF_MS over the
#: probe times measured around it.
PROBE_REF_MS = 0.2
#: Stretch of the timed window whose operations share one speed factor.
SEGMENT_NS = 500_000_000


class HostProbe:
    """Samples host speed by timing a fixed pure-Python loop between
    operations, never inside a timed one.

    On a shared host the same code runs up to twice as slow for seconds
    or minutes at a time, because of load the benchmark does not
    control.  The probe slows down with it, so ``time * PROBE_REF_MS /
    probe`` measures the program rather than its neighbours.  Raw times
    are reported next to the scaled ones.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[int, float]] = []  # (start ns, ms)

    def sample(self, times: int = 1) -> List[float]:
        """Time the probe ``times`` times; returns the new samples (ms)."""
        for _ in range(times):
            t0 = _ns()
            acc = 0
            for i in range(PROBE_N):
                acc += i * i
            self.samples.append((t0, (_ns() - t0) * 1e-6))
        return [ms for _, ms in self.samples[-times:]]

    def _median(self, t0: int, t1: int) -> float:
        inside = [ms for t, ms in self.samples if t0 <= t <= t1]
        return statistics.median(inside or [ms for _, ms in self.samples])

    def factor_between(self, t0: int, t1: int) -> float:
        """Speed factor for one operation that ran within [t0, t1]."""
        return PROBE_REF_MS / self._median(t0, t1)

    def segment_factors(self, t0: int, t1: int) -> Callable[[int], float]:
        """Speed factor for an operation starting at ``t`` in [t0, t1]:
        taken from the probes of its half-second segment."""
        n = (t1 - t0) // SEGMENT_NS + 1
        buckets: List[List[float]] = [[] for _ in range(n)]
        for t, ms in self.samples:
            if t0 <= t <= t1:
                buckets[(t - t0) // SEGMENT_NS].append(ms)
        overall = self._median(t0, t1)
        factors = [PROBE_REF_MS / (statistics.median(b) if b else overall)
                   for b in buckets]
        return lambda t: factors[min(n - 1, max(0, (t - t0) // SEGMENT_NS))]


def rss_kb() -> int:
    """Resident set size of this process now, in KiB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)


# ---------------------------------------------------------------------- #
# The run
# ---------------------------------------------------------------------- #
class Run:
    """Mutable state of one benchmark run and its result."""

    def __init__(self, spec: Spec, seed: int, seconds: float, trace: bool,
                 workdir: str, out_dir: str) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir  # scratch for durability directories
        self.out_dir = out_dir  # where the traced run writes its spans
        self.attempted = 0  # batches applied + reads issued + checks made
        self.failed = 0  # failed batches, wrong reads and failed checks
        self.failures: List[str] = []
        self.extra: Dict[str, float] = {}
        self.probe = HostProbe()
        self.rss_peak = 0

    def check(self, failures: List[str]) -> None:
        """Count one correctness check (an operation that can fail)."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def _timed(self, fn) -> Tuple[float, float]:
        """Run ``fn`` between probe bursts: (raw s, host-scaled s)."""
        t0 = _ns()
        self.probe.sample(8)
        start = _ns()
        fn()
        end = _ns()
        self.probe.sample(8)
        raw = (end - start) * 1e-9
        return raw, raw * self.probe.factor_between(t0, _ns())

    def _note_rss(self) -> None:
        self.rss_peak = max(self.rss_peak, rss_kb())

    # ------------------------------------------------------------------ #
    def execute(self) -> Dict[str, float]:
        spec = self.spec
        calib_before = self.probe.sample(50)
        inputs = make_inputs(spec, self.seed, stream_length(spec, self.seconds))
        cls = SERVICES[spec.name]
        gc.collect()
        rss0 = rss_kb()
        svc, setup_s = self._setups(cls, inputs)
        try:
            metrics = self._drive(svc, inputs)
        finally:
            svc.close()
        metrics["setup_s"] = setup_s
        metrics["rss_growth_mb"] = (self.rss_peak - rss0) / 1024.0
        calib_after = self.probe.sample(50)
        self.extra["host.calib_ms"] = statistics.median(calib_before + calib_after)
        self.extra["host.calib_drift"] = (
            statistics.median(calib_after) / statistics.median(calib_before)
        )
        self.extra["gate.failed_frac"] = self.failed / max(self.attempted, 1)
        return metrics

    def _setups(self, cls, inputs: Inputs):
        raw, scaled, ledgers = [], [], []
        svc = None
        for i in range(self.spec.setup_repeats):
            if svc is not None:
                svc.close()
                svc = None
            gc.collect()
            svc = cls(inputs, self.workdir, i)
            try:
                r, s = self._timed(svc.setup)
            except BaseException:
                svc.close()  # stops shard processes a failed set-up forked
                raise
            self._note_rss()
            raw.append(r)
            scaled.append(s)
            work, depth, _ = svc.ledger_state()
            ledgers.append((work, depth))
        self.attempted += len(ledgers)
        self.check(gate.check_equal(
            "ledger totals across set-up repeats", len(set(ledgers)), 1
        ))
        self.extra["raw.setup_s"] = statistics.median(raw)
        return svc, statistics.median(scaled)

    def _drive(self, svc: Service, inputs: Inputs) -> Dict[str, float]:
        spec = self.spec
        stream = inputs.stream
        reads = inputs.read_vertices
        probe = self.probe
        pos = 0
        for _ in range(spec.warmup_batches):
            svc.apply(stream[pos])
            pos += 1
        self.attempted += spec.warmup_batches

        rec = Recorder() if self.trace else None
        patches = layer_patches(rec) if self.trace else None
        watch = GcWatch()
        gc.collect()
        start = svc.window_start()
        ledger0 = svc.ledger_state()
        ledger_prefix = None
        batches: List[Tuple[int, int]] = []  # untraced (start ns, ns)
        read_ops: List[Tuple[int, int, bool]] = []  # untraced (start, ns, first)
        rounds: List[Tuple[bool, int, List[Tuple[int, int]]]] = []
        traced_batches = 0
        window_updates = 0
        prefix_updates = 0
        need = spec.round_batches + spec.tail_batches
        gc.callbacks.append(watch)
        t_window = _ns()
        probe.sample()
        try:
            while pos + need <= len(stream):
                if (len(rounds) >= spec.min_rounds
                        and (_ns() - t_window) * 1e-9 >= self.seconds):
                    break
                traced = self.trace and len(rounds) % 2 == 1
                if traced:
                    patches.install()
                ops: List[Tuple[int, int]] = []
                updates = 0
                for _ in range(spec.round_batches):
                    batch = stream[pos]
                    if traced:
                        rec.batch = pos
                        idx = rec.open("batch")
                    t0 = _ns()
                    svc.apply(batch)
                    dt = _ns() - t0
                    if traced:
                        rec.close(idx)
                        traced_batches += 1
                    else:
                        batches.append((t0, dt))
                    ops.append((t0, dt))
                    updates += batch.size
                    for j, v in enumerate(reads[pos]):
                        if traced:
                            idx = rec.open("read")
                        t0 = _ns()
                        got = svc.read(v)
                        dt = _ns() - t0
                        if traced:
                            rec.close(idx)
                        else:
                            read_ops.append((t0, dt, j == 0))
                        ops.append((t0, dt))
                        expected = svc.expected_read(v)
                        if expected is NotImplemented:
                            self.attempted += 1
                        else:
                            self.check(gate.check_read(v, got, expected))
                    pos += 1
                    if pos % spec.probe_every == 0:
                        probe.sample()
                if traced:
                    patches.remove()
                rounds.append((traced, updates, ops))
                window_updates += updates
                if len(rounds) <= spec.min_rounds:
                    # Memory is read over the fixed prefix only: state
                    # that grows with history must not grow with host speed.
                    self._note_rss()
                if len(rounds) == spec.min_rounds:
                    ledger_prefix = svc.ledger_state()
                    prefix_updates = window_updates
            probe.sample()
        finally:
            gc.callbacks.remove(watch)
            if patches is not None and patches.active:
                patches.remove()
        speed = probe.segment_factors(t_window, _ns())
        window_batches = len(rounds) * spec.round_batches
        self.attempted += window_batches
        layers = svc.window_layers(start, window_batches, window_updates)

        # Untimed tail, recovery and the final gate.
        for _ in range(spec.tail_batches):
            svc.apply(stream[pos])
            pos += 1
        self.attempted += spec.tail_batches
        if svc.durable:
            layers.update(self._recover(svc))
        live = gate.live_after(inputs.initial.edges, stream[:pos])
        for failures in svc.final_gate(live):
            self.check(failures)

        def per_round(traced: bool, scale: bool) -> List[float]:
            return [
                updates / sum(dt * 1e-9 * (speed(t0) if scale else 1.0) for t0, dt in ops)
                for tr, updates, ops in rounds if tr == traced
            ]

        batch_ms = [dt * 1e-6 * speed(t0) for t0, dt in batches]
        raw_ms = [dt * 1e-6 for _, dt in batches]
        untraced = per_round(False, True)
        work0, depth0, tags0 = ledger0
        work1, depth1, tags1 = ledger_prefix
        prefix_batches = spec.min_rounds * spec.round_batches
        metrics = {
            "updates_per_s": statistics.median(untraced),
            "batch_p50_ms": quantile(batch_ms, 0.50),
            "batch_p95_ms": quantile(batch_ms, 0.95),
            "ledger_work_per_update": (work1 - work0) / prefix_updates,
            "ledger_depth_per_batch": (depth1 - depth0) / prefix_batches,
        }
        self.extra.update({
            "raw.updates_per_s": statistics.median(per_round(False, False)),
            "raw.batch_p50_ms": quantile(raw_ms, 0.50),
            "raw.batch_p95_ms": quantile(raw_ms, 0.95),
            "host.speed_factor": statistics.median(speed(t0) for t0, _ in batches),
        })
        layers.update(self._phases(tags0, tags1, prefix_updates))
        layers["runtime.gc_gen2"] = float(watch.gen2)
        layers["runtime.gc_pause_s"] = watch.pause_s
        if read_ops:
            read_us = [dt * 1e-3 * speed(t0) for t0, dt, _ in read_ops]
            layers["query.read_p50_us"] = quantile(read_us, 0.50)
            layers["query.read_p99_us"] = quantile(read_us, 0.99)
            layers["query.first_read_us"] = statistics.median(
                dt * 1e-3 * speed(t0) for t0, dt, first in read_ops if first
            )
        if self.trace:
            traced_speed = statistics.median(
                speed(t0) for tr, _, ops in rounds if tr for t0, _ in ops
            )
            layers.update(self._trace_layers(rec, traced_batches, traced_speed))
            layers["obs.trace_overhead_frac"] = (
                1.0 - statistics.median(per_round(True, True)) / metrics["updates_per_s"]
            )
            os.makedirs(self.out_dir, exist_ok=True)
            rec.dump(os.path.join(
                self.out_dir, f"spans-{spec.name}-seed{self.seed}.jsonl"
            ))
        self.extra.update(layers)
        self.extra["window.rounds"] = float(len(rounds))
        return metrics

    def _recover(self, svc: ServeService) -> Dict[str, float]:
        from repro.durability import recover

        svc.close()  # flushes and closes the journal
        live_matched = svc.algo.matched_ids()
        live_ledger = svc.ledger_state()
        times = []
        results = []
        for _ in range(3):
            _, scaled = self._timed(
                lambda: results.append(recover(svc.dir, do_certify=False))
            )
            times.append(scaled)
        out = {"durability.recover_s": statistics.median(times)}
        result = results[-1]
        dm = result.dm
        self.check(gate.check_equal("recovered matching", dm.matched_ids(), live_matched))
        self.check(gate.check_equal(
            "recovered ledger", (dm.ledger.work, dm.ledger.depth, dict(dm.ledger.by_tag)),
            live_ledger,
        ))
        self.check(gate.check_equal(
            "recovery replayed the tail", result.replayed, self.spec.tail_batches
        ))
        if self.trace:
            rec = Recorder()
            patches = recovery_patches(rec)
            patches.install()
            try:
                raw, scaled = self._timed(lambda: recover(svc.dir, do_certify=False))
            finally:
                patches.remove()
            self_s, _ = rec.self_times()
            for span in ("durability.recover_load", "durability.recover_replay"):
                out[span + "_s"] = self_s.get(span, 0.0) * scaled / raw
        return out

    @staticmethod
    def _phases(tags0, tags1, updates) -> Dict[str, float]:
        from repro.analysis.profiles import work_profile
        from repro.parallel.ledger import Ledger

        delta = {t: w - tags0.get(t, 0.0) for t, w in tags1.items()}
        out = {f"ledger.work_per_update.{k}": 0.0 for k in (*_PHASE_KEY.values(), "other")}
        router = sum(delta.pop(t, 0.0) for t in _ROUTER_TAGS)
        out["ledger.work_per_update.sharding"] = router / updates
        probe = Ledger()
        probe.by_tag.update(delta)
        for phase, work, _ in work_profile(probe):
            out[f"ledger.work_per_update.{_PHASE_KEY.get(phase, 'other')}"] += work / updates
        return out

    @staticmethod
    def _trace_layers(rec: Recorder, batches: int, speed: float) -> Dict[str, float]:
        """Layer metrics of the traced rounds; times are scaled by the
        host-speed factor ``speed`` like the end-to-end ones."""
        self_s, calls = rec.self_times()
        self_s = {name: sec * speed for name, sec in self_s.items()}
        out = {metric: self_s.get(span, 0.0) / batches for span, metric in _SELF_TIME.items()}
        n_ckpt = calls.get("durability.checkpoint", 0)
        out["durability.checkpoint_s"] = (
            self_s["durability.checkpoint"] / n_ckpt if n_ckpt else 0.0
        )
        out["parallel.frames_per_batch"] = calls.get("parallel.frame", 0) / batches
        out["native.kernel_calls_per_batch"] = calls.get("native.kernel", 0) / batches
        c = rec.counts
        greedy_calls = c.get("greedy.calls", 0.0)
        out["static_matching.calls_per_batch"] = greedy_calls / batches
        out["static_matching.scalar_call_frac"] = (
            1.0 - c.get("greedy.vector_calls", 0.0) / greedy_calls if greedy_calls else 0.0
        )
        offered = c.get("greedy.offered", 0.0)
        out["static_matching.match_yield"] = (
            c.get("greedy.matched", 0.0) / offered if offered else 0.0
        )
        e2e = rec.root_seconds() * speed
        residual = sum(self_s.get(name, 0.0) for name in ("batch", "read"))
        out["obs.residual_s"] = residual / batches
        out["obs.residual_frac"] = residual / e2e if e2e else 0.0
        return out


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool,
                 workdir: str, out_dir: str) -> Tuple[Run, Dict[str, float]]:
    """Execute one run; returns the run (failures, extra numbers) and
    its end-to-end metrics."""
    run = Run(spec, seed, seconds, trace, workdir, out_dir)
    metrics = run.execute()
    return run, metrics


def layer_metrics(run: Run) -> Dict[str, float]:
    """Every per-layer metric, 0 for layers the workload never enters."""
    return {name: float(run.extra.get(name, 0.0)) for name, _ in LAYER_METRICS}
