"""The array backend's set-edit model against the dict oracle's ``BatchSet``.

``ArrayLeveledStructure`` edits S(m), C(m) and the P(v, l) buckets
through module-level helpers that return their charges instead of
making them: ``_grow`` and ``_shrink`` (the capacity rule), ``_l_insert``
and ``_l_delete`` (one edge into or out of an S(m)/C(m) linked list in
int columns), and ``_p_link`` and ``_p_unlink`` (one cross edge into or
out of the P(v, l) buckets of its vertices).  The dict oracle keeps one
``BatchSet`` per set, which charges a ``Ledger`` as it goes.  These
tests pin the helpers to ``BatchSet`` op by op: capacity, member order,
and the ``dict_batch`` work, ``dict_rehash`` work and depth of every op.
"""

from __future__ import annotations

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
    _p_link,
    _p_unlink,
    _shrink,
)
from repro.parallel.dictionary import (
    BatchSet,
    _GROW_AT,
    _MIN_CAPACITY,
    _SHRINK_AT,
)
from repro.parallel.ledger import Ledger

VERTICES = ("a", "b")
LEVELS = (0, 1)


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


def _ref_link(ref, led, vertices, lvl, eid):
    """The dict oracle's P(v, l) insert: a BatchSet per bucket."""
    for v in vertices:
        bucket = ref[v].get(lvl)
        if bucket is None:
            bucket = ref[v][lvl] = BatchSet(led)
        bucket.insert_one(eid)


def _ref_unlink(ref, vertices, lvl, eid):
    """The dict oracle's P(v, l) discard; an empty bucket goes."""
    for v in vertices:
        bucket = ref[v].get(lvl)
        if bucket is None:
            continue
        bucket.delete_one(eid)
        if not bucket:
            del ref[v][lvl]


@st.composite
def _scripts(draw):
    """Rounds of (link/unlink, vertices, level, key) ops.  Each round
    fills one level's buckets past 48 keys (four doublings, to capacity
    128), inserting some keys twice, then deletes keys 0..99 in random
    order, some of them absent.  The last round drains its buckets (four
    halvings, and the buckets go); an earlier one may stop part way, so
    a later round can meet its leftovers or use the other level of the
    same vertex."""
    ops = []
    rounds = draw(st.integers(2, 4))
    for r in range(rounds):
        vs = draw(st.sampled_from([("a",), ("b",), ("a", "b")]))
        lvl = draw(st.sampled_from(LEVELS))
        top = draw(st.integers(50, 90))
        keys = draw(st.permutations(range(top)))
        again = draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=8))
        ops += [("link", vs, lvl, k) for k in keys + again]
        gone = draw(st.permutations(range(100)))
        if r < rounds - 1:
            gone = gone[: draw(st.integers(0, 100))]
        ops += [("unlink", vs, lvl, k) for k in gone]
    return ops


@settings(max_examples=40, deadline=None)
@given(ops=_scripts())
def test_bucket_edits_match_batchset(ops):
    P: dict = {}
    ref = {v: {} for v in VERTICES}
    led = Ledger()
    for kind, vs, lvl, key in ops:
        batch0, rehash0, depth0 = _charged(led)
        if kind == "link":
            _ref_link(ref, led, vs, lvl, key)
            w_rehash, depth = _p_link(P, vs, lvl, key)
            w_batch = float(len(vs))
        else:
            _ref_unlink(ref, vs, lvl, key)
            w_batch, w_rehash, depth = _p_unlink(P, vs, lvl, key)
        batch1, rehash1, depth1 = _charged(led)
        assert (w_batch, w_rehash, depth) == (
            batch1 - batch0,
            rehash1 - rehash0,
            depth1 - depth0,
        ), (kind, vs, lvl, key)
        for v in VERTICES:
            # A bucket goes exactly when its set empties, and P(v) with
            # its last bucket; the rest keep the oracle's level order.
            assert (v in P) == bool(ref[v])
            Pv = P.get(v, {})
            assert list(Pv) == list(ref[v])
            for l, bucket in ref[v].items():
                members, cap = Pv[l]
                assert cap == bucket.capacity
                assert list(members) == list(bucket)


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
