"""The reference two-phase handoff: the plain loop the router's
:func:`repro.sharding.handoff.resolve` must agree with exactly.

It takes the live cross edges as a list and hashes every endpoint with
:func:`~repro.sharding.partition.shard_of_vertex` each time it needs a
shard, keeping no index; ``cover`` may list free vertices as ``None``
or leave them out.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.hypergraph.edge import Edge, EdgeId, Vertex
from repro.sharding.handoff import HandoffResult
from repro.sharding.partition import owner_shard, shard_of_vertex


def reference_resolve(
    cross_edges: Sequence[Edge],
    cover: Dict[Vertex, Optional[EdgeId]],
    k: int,
) -> HandoffResult:
    result = HandoffResult()
    reserved: Dict[Vertex, EdgeId] = {}

    for edge in sorted(cross_edges, key=lambda e: e.eid):
        owner = owner_shard(edge, k)

        # Phase 1: the owner proposes only if its own endpoints are free
        # of its local matching.
        owner_block: Optional[EdgeId] = None
        for v in edge.vertices:
            if shard_of_vertex(v, k) == owner and cover.get(v) is not None:
                owner_block = cover[v]
                break
        if owner_block is not None:
            result.witness[edge.eid] = owner_block
            result.rejects_local += 1
            continue
        result.proposals += 1

        # Phase 2: peers accept/reject against their local matchings and
        # the reservations made by earlier accepted proposals.
        blocker: Optional[EdgeId] = None
        blocked_by_cross = False
        for v in edge.vertices:
            local = cover.get(v)
            if local is not None:
                blocker = local
                break
            prior = reserved.get(v)
            if prior is not None:
                blocker = prior
                blocked_by_cross = True
                break
        if blocker is None:
            result.matched.append(edge.eid)
            result.accepts += 1
            for v in edge.vertices:
                reserved[v] = edge.eid
        else:
            result.witness[edge.eid] = blocker
            if blocked_by_cross:
                result.rejects_cross += 1
            else:
                result.rejects_local += 1
    return result
