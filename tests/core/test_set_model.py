"""The array backend's set-edit model against the dict oracle's ``BatchSet``.

``ArrayLeveledStructure`` edits S(m), C(m) and the P(v, l) buckets
through module-level helpers that return their charges instead of
making them: ``_grow`` and ``_shrink`` (the capacity rule), ``_l_insert``
and ``_l_delete`` (one edge into or out of an S(m)/C(m) linked list in
int columns), ``_p_link`` and ``_p_unlink`` (one cross edge into or out
of the P(v, l) buckets of its vertices, held as int columns too), and
their grouped forms, which apply a whole pass of inserts at once:
``_l_insert_grouped`` and ``_p_link_grouped``.  The dict oracle keeps one
``BatchSet`` per set, which charges a ``Ledger`` as it goes.  These
tests pin the helpers to ``BatchSet`` op by op: capacity, member order,
and the ``dict_batch`` work, ``dict_rehash`` work and depth of every op
(for a grouped pass, against a sequential replay of the same ops).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from array import array

from repro.core.arraystore import (
    _NIL,
    _OUT,
    _grow,
    _l_concat,
    _l_delete,
    _l_insert,
    _l_insert_grouped,
    _p_grow_nodes,
    _p_grow_vertices,
    _p_link,
    _p_link_grouped,
    _p_new,
    _p_unlink,
    _shrink,
    _views,
)
from repro.parallel.dictionary import (
    BatchSet,
    _GROW_AT,
    _MIN_CAPACITY,
    _SHRINK_AT,
)
from repro.parallel.ledger import Ledger

VERTICES = ("a", "b", "c")
DENSE = {v: d for d, v in enumerate(VERTICES)}
LEVELS = (0, 1, 2)


def _charged(led: Ledger):
    bt = led.by_tag
    return bt.get("dict_batch", 0.0), bt.get("dict_rehash", 0.0), led.depth


@pytest.mark.parametrize("cap", [_MIN_CAPACITY << k for k in range(6)])
def test_resize_matches_batchset(cap):
    """Every set size from empty to 4x the capacity: where the grow or
    shrink threshold trips, ``_grow``/``_shrink`` return BatchSet's new
    capacity, rehash work and depth (several doublings or halvings at
    once at the extremes)."""
    for n in range(4 * cap + 1):
        led = Ledger()
        bs = BatchSet(led)
        bs._items = dict.fromkeys(range(n))
        bs._capacity = cap
        bs._resize_if_needed()
        if n > cap * _GROW_AT:
            got = _grow(n, cap)
        elif cap > _MIN_CAPACITY and n < cap * _SHRINK_AT:
            got = _shrink(n, cap)
        else:
            got = (cap, 0.0, 0)
        _, rehash, depth = _charged(led)
        assert got == (bs.capacity, rehash, depth), (n, cap)


# --------------------------------------------------------------------- #
# P(v, l): buckets as int columns, one node per (edge, vertex)
# --------------------------------------------------------------------- #
RANK = 2


class _RefIndex:
    """The dict oracle's P(v, l): a BatchSet per bucket, dropped when it
    empties, and the vertices in P(v) creation order."""

    def __init__(self, led: Ledger) -> None:
        self.led = led
        self.P = {v: {} for v in VERTICES}
        self.order = []

    def link(self, v, lvl, key):
        """One bucket insert; returns its (dict_batch, rehash, depth)."""
        before = _charged(self.led)
        bucket = self.P[v].get(lvl)
        if bucket is None:
            if not self.P[v]:
                self.order.append(v)
            bucket = self.P[v][lvl] = BatchSet(self.led)
        bucket.insert_one(key)
        return tuple(b - a for a, b in zip(before, _charged(self.led)))

    def unlink(self, v, lvl, key):
        """One bucket discard (nothing when the bucket is absent)."""
        before = _charged(self.led)
        bucket = self.P[v].get(lvl)
        if bucket is None:
            return (0.0, 0.0, 0)
        bucket.delete_one(key)
        if not bucket:
            del self.P[v][lvl]
            if not self.P[v]:
                self.order.remove(v)
        return tuple(b - a for a, b in zip(before, _charged(self.led)))


def _index(keys: int):
    """An empty level index over VERTICES, with nodes for ``keys`` edges."""
    P = _p_new()
    _p_grow_nodes(P, RANK * keys)
    _p_grow_vertices(P, len(VERTICES))
    return P


def _assert_same_index(P, ref: _RefIndex, edges, where):
    """Bucket lists, member order, counts and capacities, and the P(v)
    creation order, equal to the oracle's."""
    B, nbkt, blevel, _, bprev, bnext, vhead, vtail, vstamp = P[:9]
    for v in VERTICES:
        d = DENSE[v]
        levels = []
        b = vhead[d]
        p = _NIL
        while b >= 0:
            assert bprev[b] == p, where
            levels.append(blevel[b])
            members = [j // RANK for j in _l_concat(B, (b,))]
            bucket = ref.P[v][blevel[b]]
            assert members == list(bucket), (where, v, blevel[b])
            assert B[2][b] == len(bucket) and B[3][b] == bucket.capacity, (where, v)
            for j in _l_concat(B, (b,)):
                assert nbkt[j] == b and edges[j // RANK][0][j % RANK] == v, where
            p = b
            b = bnext[b]
        assert vtail[d] == p, where
        assert levels == list(ref.P[v]), (where, v)
    live = [v for v in VERTICES if vhead[DENSE[v]] >= 0]
    assert sorted(live, key=lambda v: vstamp[DENSE[v]]) == ref.order, where


@st.composite
def _bucket_scripts(draw):
    """Rounds of (link/unlink, key) ops: each key is an edge on one or
    two of the vertices, linked at one level.  Each round fills one
    (vertices, level) choice past 48 keys (four doublings) and links a
    few live keys again (re-stores), then unlinks some live keys in
    random order among unlinks of absent keys (unlinked before, or
    never linked), and re-links a few, which go to the back; the last
    round drains everything (four halvings, every bucket and P(v)
    dropped).  An earlier round may stop part way, so a later one meets
    its leftovers or another level of the same vertex."""
    choices = [("a",), ("b",), ("a", "b"), ("b", "c")]
    edges = [(draw(st.sampled_from(choices)), draw(st.sampled_from(LEVELS))) for _ in range(3)]
    ops = []
    live = []
    dead = list(range(len(edges)))  # never linked, so far
    rounds = draw(st.integers(2, 4))
    for r in range(rounds):
        vs = draw(st.sampled_from(choices))
        lvl = draw(st.sampled_from(LEVELS))
        top = draw(st.integers(50, 90))
        keys = list(range(len(edges), len(edges) + top))
        edges += [(vs, lvl)] * top
        ops += [("link", k) for k in draw(st.permutations(keys))]
        live += keys
        ops += [("link", k) for k in draw(st.lists(st.sampled_from(live), max_size=8))]
        if r < rounds - 1:
            gone = draw(st.lists(st.sampled_from(live), unique=True))
        else:
            gone = draw(st.permutations(live))
        absent = draw(st.lists(st.sampled_from(dead), max_size=6))
        ops += [("unlink", k) for k in draw(st.permutations(gone + absent))]
        live = [k for k in live if k not in set(gone)]
        dead += gone
        if r < rounds - 1 and gone:
            back = draw(st.lists(st.sampled_from(gone), unique=True, max_size=8))
            ops += [("link", k) for k in back]
            live += back
            dead = [k for k in dead if k not in set(back)]
    return edges, ops


@settings(max_examples=40, deadline=None)
@given(script=_bucket_scripts())
def test_bucket_edits_match_batchset(script):
    """``_p_link``/``_p_unlink`` on the P columns, op by op, against a
    BatchSet per bucket: charges, member order, capacities, a live key
    linked again re-stored in place, a bucket dropped exactly when its
    set empties and P(v) with its last bucket, and P(v)s in creation
    order.  An absent key's nodes are in no bucket, so its unlink costs
    nothing and changes nothing; the oracle agrees where the key's
    vertices have no bucket at its level, and elsewhere charges a no-op
    delete, in a state no structure edit reaches (a cross edge stays
    filed under each of its vertices until it is detached)."""
    edges, ops = script
    P = _index(len(edges))
    led = Ledger()
    ref = _RefIndex(led)
    live = set()
    for kind, key in ops:
        vs, lvl = edges[key]
        if kind == "link":
            want = [ref.link(v, lvl, key) for v in vs]
            w_rehash, depth = _p_link(P, DENSE, vs, RANK * key, lvl)
            got = (float(len(vs)), w_rehash, depth)
            live.add(key)
        else:
            if key in live or all(lvl not in ref.P[v] for v in vs):
                want = [ref.unlink(v, lvl, key) for v in vs]
            else:
                want = [(0.0, 0.0, 0)]
            got = _p_unlink(P, RANK * key, len(vs))
            live.discard(key)
        assert got == tuple(map(sum, zip(*want))), (kind, key)
        _assert_same_index(P, ref, edges, (kind, key))
    assert ref.order == [] and len(P[9]) == len(P[2])


def test_bucket_link_refuses_a_node_filed_at_another_level():
    """A node already in a bucket can only be re-stored there: linking
    it at another level raises, with the index unchanged."""
    P = _index(1)
    led = Ledger()
    ref = _RefIndex(led)
    for v in ("a", "b"):
        ref.link(v, 0, 0)
    _p_link(P, DENSE, ("a", "b"), 0, 0)
    with pytest.raises(ValueError, match="filed in bucket"):
        _p_link(P, DENSE, ("a", "b"), 0, 1)
    _assert_same_index(P, ref, [(("a", "b"), 0)], "after the refused link")


@st.composite
def _grouped_bucket_scripts(draw):
    """Batches of fresh-key links and of live-key unlinks.  The first
    batch puts 49-90 keys into one bucket (several members, four
    doublings in one batch) among a few keys elsewhere; later batches
    hit existing buckets again and make others, unlink most of the big
    bucket at once (several halvings), drain vertices (bucket and P(v)
    drops) and link onto drained vertices again (P(v) re-made)."""
    rnd = draw(st.randoms(use_true_random=False))
    choices = [("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("a", "c")]
    edges = []
    live = []
    batches = []

    def fresh(n, focus=None):
        keys = []
        for _ in range(n):
            e = focus or (rnd.choice(choices), rnd.choice(LEVELS))
            keys.append(len(edges))
            edges.append(e)
        return keys

    big = (rnd.choice(choices), rnd.choice(LEVELS))
    first = fresh(draw(st.integers(49, 90)), big) + fresh(draw(st.integers(1, 12)))
    rnd.shuffle(first)
    batches.append(("link", first))
    live += first
    for _ in range(draw(st.integers(3, 7))):
        kind = draw(st.sampled_from(["link", "unlink", "drain"]))
        if kind == "link":
            keys = fresh(draw(st.integers(1, 20))) + fresh(draw(st.integers(0, 10)), big)
            rnd.shuffle(keys)
            live += keys
        else:
            if kind == "drain":
                v = rnd.choice(VERTICES)
                keys = [k for k in live if v in edges[k][0]]
            else:
                keys = [k for k in live if edges[k] == big]
                keys = keys[: len(keys) - rnd.randint(0, 4)]
                keys += rnd.sample(live, min(len(live), rnd.randint(0, 6)))
                keys = list(dict.fromkeys(keys))
            rnd.shuffle(keys)
            live = [k for k in live if k not in set(keys)]
            kind = "unlink"
        if keys:
            batches.append((kind, keys))
    if live:
        batches.append(("unlink", rnd.sample(live, len(live))))
    return edges, batches


@settings(max_examples=40, deadline=None)
@given(script=_grouped_bucket_scripts())
def test_grouped_bucket_passes_match_sequential_batchset(script):
    """``_p_link_grouped`` over whole batches against a sequential
    replay of BatchSet inserts: per op (one per node) the dict_batch
    work, rehash work and depth, per batch the region's max of the
    per-edge summed depths, and after every batch the buckets, their
    members and capacities, and P(v)s in creation order.  Unlink
    batches run ``_p_unlink`` per key (deletes have no grouped form),
    so the link passes meet shrunk, drained and re-made buckets."""
    edges, batches = script
    P = _index(len(edges))
    led = Ledger()
    ref = _RefIndex(led)
    for kind, keys in batches:
        nodes = [RANK * k + i for k in keys for i in range(len(edges[k][0]))]
        verts = [v for k in keys for v in edges[k][0]]
        lvls = [edges[k][1] for k in keys for _ in edges[k][0]]
        if kind == "unlink":
            for k in keys:
                want = [ref.unlink(v, edges[k][1], k) for v in edges[k][0]]
                got = _p_unlink(P, RANK * k, len(edges[k][0]))
                assert got == tuple(map(sum, zip(*want))), k
            _assert_same_index(P, ref, edges, kind)
            continue
        want = [ref.link(v, lvl, n // RANK) for n, v, lvl in zip(nodes, verts, lvls)]
        w, d = _p_link_grouped(
            P, np.array(nodes, dtype=np.int64), np.array([DENSE[v] for v in verts], dtype=np.int32),
            np.array(lvls, dtype=np.int64),
        )
        got = list(zip([1.0] * len(nodes), w.tolist(), d.tolist()))
        assert got == want, kind
        bounds = np.cumsum([0] + [len(edges[k][0]) for k in keys])
        region = max(sum(x[2] for x in want[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))
        assert int(np.add.reduceat(d, bounds[:-1]).max()) == region
        _assert_same_index(P, ref, edges, kind)
    assert ref.order == [] and len(P[9]) == len(P[2])


# --------------------------------------------------------------------- #
# S(m) and C(m): linked lists in int columns
# --------------------------------------------------------------------- #
HEADS = (0, 1, 2)
POOL = 100  # list h draws its edge slots from [POOL * h, POOL * (h + 1))


def _list_columns():
    """One column group ``(head, tail, count, cap, prev, next)``: every
    list empty at the minimum capacity, every edge slot in no list."""
    n, m = len(HEADS), POOL * len(HEADS)
    return (
        array("i", [_NIL] * n),
        array("i", [_NIL] * n),
        array("i", [0] * n),
        array("q", [_MIN_CAPACITY] * n),
        array("i", [_OUT] * m),
        array("i", [_NIL] * m),
    )


def _backward(cols, h):
    """List ``h`` walked from its tail along the prev links, reversed."""
    out = []
    j = cols[1][h]
    while j >= 0 and len(out) <= POOL:
        out.append(j)
        j = cols[4][j]
    return out[::-1]


@st.composite
def _list_scripts(draw):
    """Rounds of (insert/delete, list, key) ops.  Each round inserts
    50-90 keys into one list (four doublings, to capacity 128), some of
    them twice, deletes keys 0..99 in random order, some of them absent,
    and re-inserts a few deleted keys, which go to the back.  The last
    round drains its list (four halvings); an earlier one may stop part
    way, so a later round can meet its leftovers."""
    ops = []
    rounds = draw(st.integers(2, 4))
    for r in range(rounds):
        h = draw(st.sampled_from(HEADS))
        top = draw(st.integers(50, 90))
        keys = draw(st.permutations(range(top)))
        again = draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=8))
        ops += [("insert", h, k) for k in keys + again]
        gone = draw(st.permutations(range(POOL)))
        back = []
        if r < rounds - 1:
            gone = gone[: draw(st.integers(0, POOL))]
            if gone:
                back = draw(st.lists(st.sampled_from(gone), max_size=8))
        ops += [("delete", h, k) for k in gone]
        ops += [("insert", h, k) for k in back]
    return ops


@settings(max_examples=40, deadline=None)
@given(ops=_list_scripts())
def test_list_edits_match_batchset(ops):
    cols = _list_columns()
    led = Ledger()
    ref = {h: BatchSet(led) for h in HEADS}
    for kind, h, key in ops:
        j = POOL * h + key
        batch0, rehash0, depth0 = _charged(led)
        if kind == "insert":
            ref[h].insert_one(j)
            w_rehash, depth = _l_insert(cols, h, j)
        else:
            ref[h].delete_one(j)
            w_rehash, depth = _l_delete(cols, h, j)
        batch1, rehash1, depth1 = _charged(led)
        assert (1.0, w_rehash, depth) == (
            batch1 - batch0,
            rehash1 - rehash0,
            depth1 - depth0,
        ), (kind, h, key)
        for g in HEADS:
            members = list(ref[g])
            assert _l_concat(cols, (g,)) == members, (kind, h, key, g)
            assert _backward(cols, g) == members, (kind, h, key, g)
            assert cols[2][g] == len(members)
            assert cols[3][g] == ref[g].capacity
        assert (cols[4][j] != _OUT) == (j in ref[h])


@st.composite
def _grouped_list_scripts(draw):
    """Batches of inserts (edge slots in no list) and of deletes (slots
    in a list) over the lists in HEADS.  The first batch puts 49-90
    slots into one list among a few elsewhere (several doublings in one
    batch); later batches insert into lists hit before, delete most of
    the big list at once (several halvings) and re-insert deleted
    slots, which go to the back."""
    rnd = draw(st.randoms(use_true_random=False))
    big = rnd.choice(HEADS)
    free = {h: list(range(POOL * h, POOL * (h + 1))) for h in HEADS}
    held = {h: [] for h in HEADS}
    batches = []

    def take(h, n):
        out = [(h, free[h].pop(rnd.randrange(len(free[h])))) for _ in range(min(n, len(free[h])))]
        held[h] += [j for _, j in out]
        return out

    first = take(big, draw(st.integers(49, 90)))
    for h in HEADS:
        first += take(h, rnd.randint(0, 5))
    rnd.shuffle(first)
    batches.append(("insert", first))
    for _ in range(draw(st.integers(3, 7))):
        if draw(st.booleans()):
            ops = take(big, rnd.randint(0, 8))
            for h in HEADS:
                ops += take(h, rnd.randint(0, 4))
            kind = "insert"
        else:
            ops = []
            for h in HEADS:
                k = len(held[h]) - rnd.randint(0, 4) if h == big else rnd.randint(0, len(held[h]))
                for j in rnd.sample(held[h], max(k, 0)):
                    held[h].remove(j)
                    free[h].append(j)
                    ops.append((h, j))
            kind = "delete"
        rnd.shuffle(ops)
        if ops:
            batches.append((kind, ops))
    return batches


@settings(max_examples=40, deadline=None)
@given(batches=_grouped_list_scripts())
def test_grouped_list_passes_match_sequential_batchset(batches):
    """``_l_insert_grouped`` over whole batches against a sequential
    replay of ``BatchSet.insert_one``: per op the rehash work and depth
    (dict_batch work is one per op), the batch's max depth, and after
    every batch each list's members both ways, count and capacity.
    Delete batches run ``_l_delete`` per op against ``delete_one``."""
    cols = _list_columns()
    led = Ledger()
    ref = {h: BatchSet(led) for h in HEADS}
    for kind, ops in batches:
        want = []
        for h, j in ops:
            before = _charged(led)
            (ref[h].insert_one if kind == "insert" else ref[h].delete_one)(j)
            want.append(tuple(b - a for a, b in zip(before, _charged(led))))
        h = np.array([h for h, _ in ops], dtype=np.int64)
        js = np.array([j for _, j in ops], dtype=np.int64)
        if kind == "insert":
            w, d = _l_insert_grouped(_views(cols), h, js)
        else:
            w, d = map(np.array, zip(*[_l_delete(cols, h, j) for h, j in ops]))
        assert list(zip([1.0] * len(ops), w.tolist(), d.tolist())) == want, kind
        assert int(d.max()) == max(x[2] for x in want)
        for g in HEADS:
            members = list(ref[g])
            assert _l_concat(cols, (g,)) == members, (kind, g)
            assert _backward(cols, g) == members, (kind, g)
            assert cols[2][g] == len(members)
            assert cols[3][g] == ref[g].capacity
