"""Correctness gate: checks of the program's outputs against the inputs.

Each check returns a list of failure messages (empty = passed), so the
harness can count failures against attempts instead of stopping at the
first one.  The benchmark tracks the live edge set itself, from the
stream it generated, and checks the program's matching against it —
validity and maximality — independently of the program's own
certificate, which is checked as well.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.hypergraph.edge import Edge, EdgeId, Vertex


def check_matching(matched: Iterable[EdgeId], live: Dict[EdgeId, Edge]) -> List[str]:
    """``matched`` must be a maximal matching of the edges in ``live``:
    every matched edge live, no two sharing a vertex, and every live
    edge touching a matched one."""
    failures: List[str] = []
    cover: Dict[Vertex, EdgeId] = {}
    for eid in matched:
        edge = live.get(eid)
        if edge is None:
            failures.append(f"matched edge {eid} is not live")
            continue
        for v in edge.vertices:
            if v in cover:
                failures.append(f"edges {cover[v]} and {eid} share vertex {v}")
            cover[v] = eid
    for eid, edge in live.items():
        if not any(v in cover for v in edge.vertices):
            failures.append(f"live edge {eid} is free: matching not maximal")
            break
    return failures


def check_edge_set(program_eids: Iterable[EdgeId], live: Dict[EdgeId, Edge]) -> List[str]:
    got = set(program_eids)
    if got == live.keys():
        return []
    return [
        f"live edge sets differ: {len(got - live.keys())} extra, "
        f"{len(live.keys() - got)} missing"
    ]


def check_read(v: Vertex, got: Optional[EdgeId], expected: Optional[EdgeId]) -> List[str]:
    if got == expected:
        return []
    return [f"read of vertex {v} returned {got}, live structure says {expected}"]


def check_equal(what: str, got, expected) -> List[str]:
    if got == expected:
        return []
    return [f"{what}: {got!r} != {expected!r}"]


def check_raises(what: str, fn) -> List[str]:
    """Run a program-side self-check (``check_invariants``, certificate
    verification); an AssertionError or ValueError is a failure."""
    try:
        fn()
    except (AssertionError, ValueError) as exc:
        return [f"{what}: {exc}"]
    return []


def live_after(initial: Sequence[Edge], batches) -> Dict[EdgeId, Edge]:
    """The benchmark's own replay of the live edge set."""
    live = {e.eid: e for e in initial}
    for batch in batches:
        if batch.kind == "insert":
            for e in batch.edges:
                live[e.eid] = e
        else:
            for eid in batch.eids:
                del live[eid]
    return live
