"""Property tests for the router's pure core: split, merge, handoff.

Hypothesis-driven proofs of the bookkeeping laws everything else leans
on: a batch split is a *partition* of the batch (no edge id lost, none
duplicated, input order preserved within every bucket), re-merging
conserves every edge exactly, the shard frontiers always equal a recount
of the live cross edges, and the handoff is a deterministic function of
its inputs that always produces a valid, fully-witnessed cross matching
equal to the reference loop's.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph.edge import Edge
from repro.sharding import (
    CROSS,
    CrossState,
    Frontier,
    derive,
    merge_split,
    owner_shard,
    proposal_vertices,
    resolve,
    shard_of_edge,
    shard_of_vertex,
    shard_rng,
    split_delete,
    split_insert,
)
from tests.sharding.reference_handoff import reference_resolve

pytestmark = pytest.mark.sharding


@st.composite
def edge_batches(draw, max_edges: int = 24, max_vertex: int = 30):
    """A list of distinct-id edges of mixed rank 2-3."""
    n = draw(st.integers(0, max_edges))
    edges = []
    for eid in range(n):
        r = draw(st.integers(2, 3))
        vs = draw(
            st.lists(
                st.integers(0, max_vertex), min_size=r, max_size=r, unique=True
            )
        )
        edges.append(Edge(eid, vs))
    return edges


ks = st.integers(1, 5)


@given(edges=edge_batches(), k=ks)
@settings(max_examples=120, deadline=None)
def test_split_insert_is_partition(edges, k):
    split = split_insert(edges, k)
    assert len(split.locals_) == k
    # Conservation: every id in exactly one bucket, nothing invented.
    merged = merge_split(split)
    assert Counter(e.eid for e in merged) == Counter(e.eid for e in edges)
    assert split.n_local + split.n_cross == len(edges)
    # Routing correctness: local edges sit in their own shard's bucket,
    # cross edges genuinely span shards.
    for s, part in enumerate(split.locals_):
        for e in part:
            assert shard_of_edge(e, k) == s
            assert {shard_of_vertex(v, k) for v in e.vertices} == {s}
    for e in split.cross:
        assert shard_of_edge(e, k) == CROSS
        assert len({shard_of_vertex(v, k) for v in e.vertices}) > 1
    # Stable order: each bucket is a subsequence of the input.
    order = {e.eid: i for i, e in enumerate(edges)}
    for part in list(split.locals_) + [split.cross]:
        ids = [order[e.eid] for e in part]
        assert ids == sorted(ids)


@given(edges=edge_batches(), k=ks, data=st.data())
@settings(max_examples=120, deadline=None)
def test_split_delete_is_partition(edges, k, data):
    # The router's two records: local edges by shard id, cross edges apart.
    location, cross = {}, {}
    for e in edges:
        s = shard_of_edge(e, k)
        if s == CROSS:
            cross[e.eid] = e
        else:
            location[e.eid] = s
    eids = [e.eid for e in edges]
    subset = data.draw(st.permutations(eids)) if eids else []
    split = split_delete(subset, location, cross, k)
    merged = merge_split(split)
    assert Counter(merged) == Counter(subset)
    for s, part in enumerate(split.locals_):
        assert all(location[eid] == s for eid in part)
    assert all(eid in cross and eid not in location for eid in split.cross)
    # Order stability within buckets.
    order = {eid: i for i, eid in enumerate(subset)}
    for part in list(split.locals_) + [split.cross]:
        ids = [order[eid] for eid in part]
        assert ids == sorted(ids)


def test_split_delete_unknown_id_raises_before_any_routing():
    with pytest.raises(KeyError):
        split_delete([7], {}, {}, 2)
    # An id in neither record raises even after routable ones.
    with pytest.raises(KeyError):
        split_delete([1, 2, 7], {1: 0}, {2: Edge(2, (0, 1))}, 2)


@given(v=st.integers(0, 2**40), k=st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_shard_of_vertex_in_range_and_stable(v, k):
    s = shard_of_vertex(v, k)
    assert 0 <= s < k
    assert shard_of_vertex(v, k) == s


def test_shard_of_vertex_spreads_structured_ranges():
    """Consecutive vertex ids (star centers, grid rows) must not all land
    on one shard — the reason for the mixing hash over plain ``v % k``."""
    k = 4
    hits = Counter(shard_of_vertex(v, k) for v in range(256))
    assert len(hits) == k
    assert max(hits.values()) < 2 * 256 // k


def resolve_from_scratch(edges, cover, k):
    """A fresh cross state with every edge inserted at once, reported the
    way recovery's ``reset_frontier`` reports it."""
    frontier = Frontier()
    xv = [v for e in edges for v in e.vertices]
    frontier.register(xv, [e.eid for e in edges for _ in e.vertices])
    state = CrossState({e.eid: e for e in edges})
    resolve(state, edges, (), frontier.report((), xv, cover.get))
    return derive(state, k)


@given(edges=edge_batches(max_vertex=20), k=st.integers(2, 5), data=st.data())
@settings(max_examples=120, deadline=None)
def test_handoff_is_deterministic_valid_and_witnessed(edges, k, data):
    cross = [e for e in edges if shard_of_edge(e, k) == CROSS]
    # A random plausible freeness report: some vertices covered by
    # fictitious local matches (ids disjoint from the cross edge ids),
    # some free vertices listed explicitly as None.
    verts = sorted({v for e in cross for v in e.vertices})
    cover = {}
    for v in verts:
        state = data.draw(st.integers(0, 2))
        if state == 1:
            cover[v] = 10_000 + data.draw(st.integers(0, 5))
        elif state == 2:
            cover[v] = None

    r1 = resolve_from_scratch(cross, cover, k)
    r2 = resolve_from_scratch(cross[::-1], dict(cover), k)
    # Pure function of (edge set, cover): input order is irrelevant, and
    # a free vertex listed as None reads like an absent one.
    assert r1 == r2
    assert r1 == reference_resolve(cross, cover, k)
    covered_only = {v: m for v, m in cover.items() if m is not None}
    assert r1 == resolve_from_scratch(cross, covered_only, k)

    by_id = {e.eid: e for e in cross}
    matched = set(r1.matched)
    # Valid: accepted edges are vertex-disjoint and fully free of covers.
    used = set()
    for eid in r1.matched:
        for v in by_id[eid].vertices:
            assert v not in used, "accepted cross edges collide"
            assert cover.get(v) is None, "accepted edge over a covered vertex"
            used.add(v)
    # Witnessed: every unmatched cross edge names a blocking matched edge
    # (a local cover id or an earlier accepted cross edge sharing a vertex).
    assert set(r1.witness) == set(by_id) - matched
    for eid, w in r1.witness.items():
        if w in matched:
            assert set(by_id[eid].vertices) & set(by_id[w].vertices)
        else:
            assert any(cover.get(v) == w for v in by_id[eid].vertices)
    # Tallies are consistent.
    assert r1.accepts == len(r1.matched)
    assert r1.accepts + r1.rejects_local + r1.rejects_cross == len(cross)
    assert r1.proposals >= r1.accepts


def test_handoff_none_cover_entry_does_not_hide_owner_side_cover():
    # Two owner-side endpoints: the first listed free as None, the second
    # covered.  The covered one must still reject the edge in phase 1.
    k = 2
    a, b = [v for v in range(100) if shard_of_vertex(v, k) == 0][:2]
    c = next(v for v in range(100) if shard_of_vertex(v, k) == 1)
    edge = Edge(1, (a, b, c))
    cover = {a: None, b: 500}
    got = resolve_from_scratch([edge], cover, k)
    assert got == reference_resolve([edge], cover, k)
    assert got.witness == {1: 500} and got.proposals == 0


@given(edges=edge_batches(max_vertex=20), k=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_proposal_vertices_covers_every_endpoint_once(edges, k):
    cross = [e for e in edges if shard_of_edge(e, k) == CROSS]
    plan = proposal_vertices(cross, k)
    assert len(plan) == k
    pairs = [(v, e) for xv, xe in plan for v, e in zip(xv, xe, strict=True)]
    assert len(pairs) == len(set(pairs)), "an endpoint registered twice"
    assert set(pairs) == {(v, e.eid) for e in cross for v in e.vertices}
    for s, (xv, _) in enumerate(plan):
        assert all(shard_of_vertex(v, k) == s for v in xv)
    for e in cross:
        assert owner_shard(e, k) == min(shard_of_vertex(v, k) for v in e.vertices)


@given(edges=edge_batches(max_vertex=20), k=ks)
@settings(max_examples=120, deadline=None)
def test_split_insert_plan_equals_proposal_vertices(edges, k):
    # The insert split builds the registration plan from the endpoint
    # hashes it computes anyway; it must be exactly the plan the handoff
    # would build from the cross edges.
    split = split_insert(edges, k)
    assert split.plan == proposal_vertices(split.cross, k)


#: Vertex ids the frontiers must keep exact: negative, straddling int32,
#: at the int64 limits and beyond 64 bits.
wide_vertices = st.one_of(
    st.integers(-4, 40),
    st.sampled_from(
        [-(2**63), -(2**63) + 1, -(2**31) - 1, -(2**31), 2**31 - 1, 2**31,
         2**32 + 1, 2**63 - 2, 2**63 - 1, 2**64, 2**64 + 1, -(2**70), 10**30]
    ),
)


@given(
    k=st.integers(2, 5),
    ops=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.lists(wide_vertices, min_size=2, max_size=3, unique=True),
        ),
        max_size=40,
    ),
)
@settings(max_examples=150, deadline=None)
def test_shard_frontier_equals_recount_under_churn(k, ops):
    """Registrations planned by ``proposal_vertices`` keep every shard's
    frontier equal to a recount of the live cross edges' endpoints, and
    a report of every endpoint lists exactly the shared ones."""
    frontiers = [Frontier() for _ in range(k)]
    live = {}
    for eid, (deletes, vs) in enumerate(ops):
        if deletes and live:
            # Several deletes in one batch, sharing endpoints or not.
            victims = [live.pop(victim) for victim in sorted(live)[:deletes]]
            for frontier, (xv, xe) in zip(frontiers, proposal_vertices(victims, k)):
                frontier.unregister(xv, xe)
        else:
            e = Edge(eid, vs)
            if shard_of_edge(e, k) != CROSS:
                continue  # the router registers cross edges only
            live[eid] = e
            for frontier, (xv, xe) in zip(frontiers, proposal_vertices([e], k)):
                frontier.register(xv, xe)
        recount = {}
        for e in sorted(live.values(), key=lambda e: e.eid):
            for v in e.vertices:
                recount.setdefault(v, []).append(e.eid)
        for s, frontier in enumerate(frontiers):
            got = {
                v: sorted(x) if isinstance(x, list) else [x]
                for v, x in frontier.adj.items()
            }
            assert got == {
                v: eids for v, eids in recount.items() if shard_of_vertex(v, k) == s
            }
            shared = frontier.report((), list(frontier.adj), lambda v: None)
            assert set(shared) == {v for v in got if len(got[v]) > 1}


def test_shard_rng_k1_matches_unsharded_seed():
    import numpy as np

    a = shard_rng(123, 1, 0)
    b = np.random.default_rng(123)
    assert a.integers(0, 2**31, size=8).tolist() == b.integers(0, 2**31, size=8).tolist()


def test_shard_rng_streams_are_distinct():
    draws = {
        s: tuple(shard_rng(5, 4, s).integers(0, 2**31, size=4).tolist())
        for s in range(4)
    }
    assert len(set(draws.values())) == 4
