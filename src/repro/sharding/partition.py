"""Vertex hash-partitioning and deterministic batch splitting.

The sharded service partitions the *vertex* universe across ``K`` shards
with a fixed mixing hash (:func:`shard_of_vertex`).  An edge whose
endpoints all land on one shard is **shard-local** and is settled by that
shard's own :class:`~repro.core.DynamicMatching`; an edge spanning two or
more shards is a **cross-shard** edge and is resolved by the router's
two-phase handoff (:mod:`repro.sharding.handoff`).

Everything here is a pure function of ``(batch, K)`` — no RNG, no
state — so the same split can be recomputed during coordinated recovery
and the property tests can certify that a split is a partition: every
edge id lands in exactly one bucket, in stable input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Container, Dict, List, Sequence, Tuple

import numpy as np

from repro.hypergraph.edge import Edge, EdgeId, Vertex

#: Sentinel "shard id" :func:`shard_of_edge` returns for a cross-shard edge.
CROSS = -1

_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier (splitmix64)
_MASK = (1 << 64) - 1


def shard_of_vertex(v: Vertex, k: int) -> int:
    """The shard owning vertex ``v`` out of ``k`` shards.

    A splitmix64-style finalizer decorrelates the shard id from the raw
    vertex integer (plain ``v % k`` would send structured vertex ranges —
    star centers, grid rows — to one shard).  Stable across processes and
    Python versions: pure integer arithmetic, no ``hash()``.
    """
    if k == 1:
        return 0
    z = (v * _MIX) & _MASK
    z ^= z >> 31
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    return int(z % k)


def shard_of_edge(edge: Edge, k: int) -> int:
    """``shard id`` when every endpoint is on one shard, else :data:`CROSS`."""
    if k == 1:
        return 0
    first = shard_of_vertex(edge.vertices[0], k)
    for v in edge.vertices[1:]:
        if shard_of_vertex(v, k) != first:
            return CROSS
    return first


def owner_shard(edge: Edge, k: int) -> int:
    """The proposing shard of a cross edge: the lowest shard id among its
    endpoints (the "lower-shard-id proposes" rule of the handoff)."""
    return min(shard_of_vertex(v, k) for v in edge.vertices)


def shard_rng(seed: int, k: int, shard_id: int) -> np.random.Generator:
    """Deterministic per-shard RNG derivation.

    ``K == 1`` uses the seed *directly* so the single shard's trajectory —
    matching, samples, ledger floats — is bit-identical to an unsharded
    ``DynamicMatching(seed=seed)``.  For ``K >= 2`` each shard gets an
    independent child stream via ``SeedSequence`` spawn keys.
    """
    if k == 1:
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(shard_id,)))


@dataclass
class BatchSplit:
    """One batch split into per-shard local parts plus the cross part.

    Lists preserve the batch's input order (stable split) — the property
    tests assert that concatenating ``locals_ + cross`` in routing order
    recovers every input exactly once.
    """

    kind: str  # "insert" | "delete"
    locals_: List[list] = field(default_factory=list)  # per shard: edges or eids
    cross: list = field(default_factory=list)  # edges (insert) or eids (delete)
    #: Insert splits only: the per-shard cross-endpoint registration plan,
    #: equal to ``handoff.proposal_vertices(cross, k)`` but built in the
    #: split pass from the endpoint hashes it already computed.
    plan: List[Tuple[List[Vertex], List[EdgeId]]] = field(default_factory=list)

    @property
    def n_local(self) -> int:
        return sum(len(part) for part in self.locals_)

    @property
    def n_cross(self) -> int:
        return len(self.cross)


def split_insert(edges: Sequence[Edge], k: int) -> BatchSplit:
    """Route an insert batch: per-shard local edge lists, cross edges, and
    the cross edges' registration plan.  Hashes every endpoint once."""
    split = BatchSplit(
        kind="insert", locals_=[[] for _ in range(k)], plan=[([], []) for _ in range(k)]
    )
    if k == 1:
        split.locals_[0] = list(edges)
        return split
    locals_, cross, plan = split.locals_, split.cross, split.plan
    shards = list(
        map(shard_of_vertex, chain.from_iterable([e.vertices for e in edges]), repeat(k))
    )
    off = 0
    for e in edges:
        vs = e.vertices
        n = len(vs)
        es = shards[off : off + n]
        off += n
        if es.count(es[0]) == n:
            locals_[es[0]].append(e)
            continue
        cross.append(e)
        eid = e.eid
        for v, s in zip(vs, es):
            xv, xe = plan[s]
            xv.append(v)
            xe.append(eid)
    return split


def split_delete(
    eids: Sequence[EdgeId],
    location: Dict[EdgeId, int],
    cross: Container[EdgeId],
    k: int,
) -> BatchSplit:
    """Route a delete batch using the router's two edge records.

    ``location`` maps every live shard-local edge id to its shard id;
    ``cross`` holds every live cross edge id.  Each live edge is in
    exactly one of them.  Raises ``KeyError`` for an id in neither —
    mirroring the unsharded pipeline, which rejects deletes of absent
    edges before mutating.
    """
    split = BatchSplit(kind="delete", locals_=[[] for _ in range(k)])
    parts, cross_part = split.locals_, split.cross
    for eid in eids:
        loc = location.get(eid)
        if loc is not None:
            parts[loc].append(eid)
        elif eid in cross:
            cross_part.append(eid)
        else:
            raise KeyError(eid)  # edge not present anywhere
    return split


def merge_split(split: BatchSplit) -> List:
    """Flatten a split back to one list (shard order, then cross).

    Used by the conservation property tests: the merged multiset must
    equal the input batch exactly — no edge lost, none duplicated.
    """
    out: List = []
    for part in split.locals_:
        out.extend(part)
    out.extend(split.cross)
    return out
