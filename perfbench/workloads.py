"""Workload parameters and seeded input generation.

Every input a run feeds the program — the initial graph, the update
stream and the vertices of every point read — is generated here from
the ``--seed`` argument before any timing starts.  The program under test
receives only these generated inputs.

Streams churn a fixed edge universe: ``m`` edges start live and
``reserve`` (a quarter as many) wait outside the graph.  Batches alternate a delete of
``batch`` random live edges with a re-insert of ``batch`` random absent
ones, so the live count stays within ``[m - batch, m]`` and the edge
objects are reused (the stream costs memory per batch, not per update).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.hypergraph.edge import Edge
from repro.workloads.streams import UpdateBatch


@dataclass(frozen=True)
class Spec:
    """Parameters of one closed-loop workload.

    ``round_batches`` batches make one *round*: throughput is a median
    over rounds, the traced run alternates traced and untraced rounds,
    and on a durable workload every round ends with one checkpoint.
    """

    name: str
    rank: int
    m: int  # live edges after the bulk load
    batch: int  # edges per update batch
    reads: int  # point reads issued after every batch
    round_batches: int
    warmup_batches: int
    min_rounds: int  # rounds always timed; ledger counts cover exactly these
    setup_repeats: int  # set-ups per run; setup_s is their median
    max_rate: float  # batches/s the stream is sized for (an upper bound)
    probe_every: int  # batches between host-speed probes (~0.2 ms each)
    nv_factor: float = 16.0  # vertex universe = nv_factor * m
    tail_batches: int = 0  # untimed batches after the last checkpoint (durable only)
    why: str = ""

    @property
    def nv(self) -> int:
        return int(self.nv_factor * self.m)

    @property
    def reserve(self) -> int:
        return max(self.batch, self.m // 4)


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="churn-r2",
            rank=2,
            m=2**17,
            batch=1024,
            reads=0,
            round_batches=8,
            warmup_batches=16,
            min_rounds=24,
            setup_repeats=5,
            max_rate=160.0,
            probe_every=1,
            why=(
                "rank-2 churn, 2^17 live edges on 2^21 vertices, 1024-edge "
                "batches, no journal or reads: the vectorized core path does "
                "all the work"
            ),
        ),
        Spec(
            name="serve-r3",
            rank=3,
            m=2**14,
            batch=32,
            reads=16,
            round_batches=1024,
            warmup_batches=1023,
            min_rounds=4,
            setup_repeats=15,
            max_rate=2000.0,
            probe_every=4,
            nv_factor=0.125,
            tail_batches=16,
            why=(
                "rank-3, 2^14 live edges on 2^11 vertices, 32-edge batches "
                "journaled, published, checkpointed every 1024, 16 reads each: "
                "scalar path, settling, durability, query"
            ),
        ),
        Spec(
            name="sharded-k2",
            rank=2,
            m=2**14,
            batch=512,
            reads=8,
            round_batches=4,
            warmup_batches=8,
            min_rounds=12,
            setup_repeats=15,
            max_rate=80.0,
            probe_every=1,
            why=(
                "2 shard processes, rank-2 churn, 2^14 live edges, 512-edge "
                "batches, 8 router reads per batch: split, pipe IPC and the "
                "cross-shard handoff dominate"
            ),
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run feeds the program, fixed by the seed."""

    spec: Spec
    seed: int
    edges: List[Edge]  # the whole edge universe, indexed by eid
    initial: UpdateBatch  # bulk load: edges [0, m)
    stream: List[UpdateBatch]
    read_vertices: List[List[int]]  # per stream batch


def _distinct_rows(rng: np.random.Generator, rows: int, rank: int, nv: int) -> np.ndarray:
    """``rows`` x ``rank`` vertex ids in [0, nv), distinct within a row."""
    out = rng.integers(0, nv, size=(rows, rank), dtype=np.int64)
    while rank > 1:
        srt = np.sort(out, axis=1)
        bad = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
        if bad.size == 0:
            break
        out[bad] = rng.integers(0, nv, size=(bad.size, rank), dtype=np.int64)
    return out


def stream_length(spec: Spec, seconds: float) -> int:
    """Batches to generate: enough for the warm-up, a ``seconds`` window
    at ``max_rate``, the guaranteed rounds, one round of slack and the
    tail."""
    timed = max(int(seconds * spec.max_rate), spec.min_rounds * spec.round_batches)
    return spec.warmup_batches + timed + spec.round_batches + spec.tail_batches


def make_inputs(spec: Spec, seed: int, n_batches: int) -> Inputs:
    """Generate the bulk load, ``n_batches`` alternating delete/insert
    batches and the read vertices, deterministically from ``seed``."""
    rng = np.random.default_rng([seed, spec.rank, spec.m, spec.batch])
    total = spec.m + spec.reserve
    verts = _distinct_rows(rng, total, spec.rank, spec.nv).tolist()
    edges = [Edge(eid, vs) for eid, vs in enumerate(verts)]

    live = np.arange(spec.m, dtype=np.int64)
    absent = np.arange(spec.m, total, dtype=np.int64)
    stream: List[UpdateBatch] = []
    for i in range(n_batches):
        if i % 2 == 0:
            pos = rng.choice(live.size, size=spec.batch, replace=False)
            ids = live[pos]
            live = np.delete(live, pos)
            absent = np.concatenate([absent, ids])
            stream.append(UpdateBatch.delete(ids.tolist()))
        else:
            pos = rng.choice(absent.size, size=spec.batch, replace=False)
            ids = absent[pos]
            absent = np.delete(absent, pos)
            live = np.concatenate([live, ids])
            stream.append(UpdateBatch.insert([edges[j] for j in ids.tolist()]))

    # Read targets are endpoints of random universe edges, so about half
    # of them are covered by the matching at any time.
    picks = rng.integers(0, total, size=(n_batches, spec.reads))
    sides = rng.integers(0, spec.rank, size=(n_batches, spec.reads))
    read_vertices = [
        [edges[e].vertices[s] for e, s in zip(er, sr)]
        for er, sr in zip(picks.tolist(), sides.tolist())
    ]
    return Inputs(
        spec=spec,
        seed=seed,
        edges=edges,
        initial=UpdateBatch.insert(edges[: spec.m]),
        stream=stream,
        read_vertices=read_vertices,
    )
