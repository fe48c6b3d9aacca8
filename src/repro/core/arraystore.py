"""Array-backed hot-path engine for the leveled matching structure.

:class:`ArrayLeveledStructure` is a drop-in replacement for
:class:`~repro.core.level_structure.LeveledStructure` that stores all
per-edge state in flat, slot-indexed parallel arrays instead of one
``EdgeRecord`` object per edge:

* ``_slot`` maps edge id -> dense slot index (insertion-ordered, so edge
  enumeration order is identical to the record-dict backend);
* slots hold ``(edge, vertices, cardinality, type-code, owner, level,
  settle_size, samples, cross)`` in parallel columns, recycled through a
  free-list on unregister; the owner is held once, as the owning
  match's slot in the int32 column ``_ownslot`` (-1 = none), and edge
  ids are read back as ``_edge[slot].eid``;
* the cover map p(v) is held once, as the int32 column ``_pcol`` over
  the interner's dense vertex ids: ``_pcol[dense(v)]`` is the slot of
  the match covering v (-1 = uncovered);
* sample sets S(m) and cross sets C(m) are doubly linked lists of slots
  in int32 columns, one group per kind (``_S`` and ``_C``): per match
  slot a head, a tail, a count and the simulated capacity (``_scap`` /
  ``_ccap``), and per edge slot a prev and a next link.  A count of
  ``_NOSET`` means "not a match" (no sets); a prev of ``_OUT`` means the
  edge is in no list of that kind.  An insert appends, a delete unlinks
  and a re-insert appends again, which is exactly an insertion-ordered
  dict's order; capacities grow and shrink by
  :class:`~repro.parallel.dictionary.BatchSet`'s rule, written once here
  as :func:`_grow` and :func:`_shrink`, inside :func:`_l_insert` and
  :func:`_l_delete`.  S and C have separate links because an edge sits
  in both for a moment: a dying match's samples (the match itself
  included, on an induced death) join some C(m') before S(m) is dropped
  by its header, unwalked, in ``remove_match``.  That leaves stale
  S-links on those edges, which only a later list build (a new match's
  S) overwrites; nothing reads them before;
* the per-vertex per-level index P(v, l) is int32 columns too (the
  group ``_lidx``, see :func:`_p_new`): a cross edge has one P node per
  endpoint at the fixed position ``slot * rank + k``; each bucket (from a
  free list) is a linked list of nodes with a head, tail, count and
  simulated capacity, and sits on its vertex's bucket list; a vertex
  holds the head and tail of that list and the stamp of P(v)'s creation.
  It is edited per edge by :func:`_p_link` and :func:`_p_unlink` (which
  reads a node's bucket with no lookup) and, in large cross-edge
  inserts, by the grouped pass :func:`_p_link_grouped`; a bucket goes
  when it empties, and P(v) with its last one.

**Cost parity is a hard requirement**: every operation charges the shared
ledger *exactly* what the record-dict backend charges — same work, same
depth, same tags, in the same frame structure — so a fixed seed produces
bit-identical ledger totals on either backend (tier-1 locks this in via
``tests/core/test_determinism.py``).  Where the old backend charged one
ledger call per element inside a uniform-depth parallel loop, this backend
issues a single :meth:`~repro.parallel.ledger.Ledger.charge_parallel`
per batch, which is equivalent by construction.  The structure edits go
further: they accumulate their charges locally and apply them by direct
field arithmetic on the ledger (``work``, the open frame's depth,
``by_tag``; :func:`_emit` for a batch-level region): one charge route,
whichever size route a call takes
(docs/hotpath.md, "Route selection").  That is exact only for the
base :class:`~repro.parallel.ledger.Ledger`, so the constructor rejects
any other ledger type; the dict oracle keeps the ``charge()`` protocol
for any ledger.

Two deliberate representation choices follow from parity, not speed:

* sets keep insertion order (linked lists), never ``set`` — element
  extraction order feeds the greedy matcher's priority assignment, so
  ordering is part of observable determinism;
* P(v) keeps its buckets in creation order (each vertex's bucket list):
  that order fixes the adjust scan's output order (the dict oracle's
  ``cross_edges_below``), which the oracle inherits from bucket creation
  history; and P(v)s listed by creation stamp are the order the
  snapshot's P rows have always had.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress
from operator import attrgetter, not_
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import native
from repro.hypergraph.edge import Edge, EdgeId, Vertex
from repro.parallel.dictionary import _GROW_AT, _MIN_CAPACITY, _SHRINK_AT
from repro.parallel.interning import VertexInterner, fits_int64
from repro.parallel.ledger import Ledger, log2ceil, parallel_for
from repro.core.level_structure import EDGE_TYPE_CODES, EdgeType, level_of

# Type codes for the flat type array (shared with snapshot columns).
_T_UNSETTLED = 0
_T_MATCHED = 1
_T_SAMPLED = 2
_T_CROSS = 3
_TYPE_OBJS = EDGE_TYPE_CODES
_TYPE_CODE = {t: i for i, t in enumerate(_TYPE_OBJS)}

# List sentinels of the S(m)/C(m) columns.
_NIL = -1  # no node: an empty list's head and tail, a list end's link
_OUT = -2  # a prev link: the edge is in no list of that kind
_NOSET = -1  # a count: the slot is not a match, so it has no sets

#: Slots the per-edge registration grows the columns by at a time.
_SLOT_CHUNK = 256


# ---------------------------------------------------------------------- #
# The set-edit model: BatchSet's capacity rule and charges, written once
# ---------------------------------------------------------------------- #


def _grow(n: int, cap: int) -> Tuple[int, float, int]:
    """Double ``cap`` until ``n`` keys fit under the grow threshold.

    Returns ``(capacity, dict_rehash work, depth)``: each doubling costs
    the copy of a 3/4-full table of the new capacity, at depth
    ``log2ceil(n)``.  Callers test ``n > cap * _GROW_AT`` inline first,
    as ``BatchSet.insert_one`` does; :func:`_shrink` likewise.
    """
    w = 0.0
    depth = 0
    dg = log2ceil(n)
    while n > cap * _GROW_AT:
        cap *= 2
        w += cap * _GROW_AT
        depth += dg
    return cap, w, depth


def _shrink(n: int, cap: int) -> Tuple[int, float, int]:
    """Halve ``cap`` (never below the minimum) until ``n`` keys sit at or
    above the shrink threshold; returns ``(capacity, dict_rehash work,
    depth)``, each halving costing ``max(n, 1)`` at depth
    ``log2ceil(max(n, 2))``."""
    w = 0.0
    depth = 0
    ws = max(n, 1)
    ds = log2ceil(max(n, 2))
    while cap > _MIN_CAPACITY and n < cap * _SHRINK_AT:
        cap //= 2
        w += ws
        depth += ds
    return cap, w, depth


# S(m) and C(m) as linked lists.  ``cols`` is one kind's column group
# ``(head, tail, count, cap, prev, next)``: the first four indexed by the
# match's slot, the links by the member edge's slot.


def _l_insert(cols, h: int, j: int) -> Tuple[float, int]:
    """``BatchSet.insert_one``: append edge slot ``j`` to list ``h``,
    unless it is in the list already (a dict re-store keeps its place).

    ``j`` must be in list ``h`` or in no list of this kind.  Returns
    ``(dict_rehash work, depth)``; the dict_batch work is always 1.
    """
    head, tail, cnt, cap, prev, nxt = cols
    n = cnt[h]
    depth = n.bit_length() if n >= 2 else 1  # log2ceil(n + 1)
    if prev[j] == _OUT:
        t = tail[h]
        prev[j] = t
        nxt[j] = _NIL
        if t < 0:
            head[h] = j
        else:
            nxt[t] = j
        tail[h] = j
        n += 1
        cnt[h] = n
    if n > cap[h] * _GROW_AT:
        cap[h], w, dg = _grow(n, cap[h])
        return w, depth + dg
    return 0.0, depth


def _l_delete(cols, h: int, j: int) -> Tuple[float, int]:
    """``BatchSet.delete_one``: unlink edge slot ``j`` from list ``h``
    (nothing when absent), then apply the shrink rule.

    ``j`` must be in list ``h`` or in no list of this kind.  Returns
    ``(dict_rehash work, depth)``; the dict_batch work is always 1.
    """
    head, tail, cnt, cap, prev, nxt = cols
    n = cnt[h]
    depth = n.bit_length() if n >= 2 else 1  # log2ceil(n + 1)
    p = prev[j]
    if p != _OUT:
        q = nxt[j]
        if p < 0:
            head[h] = q
        else:
            nxt[p] = q
        if q < 0:
            tail[h] = p
        else:
            prev[q] = p
        prev[j] = _OUT
        n -= 1
        cnt[h] = n
    c = cap[h]
    if c > _MIN_CAPACITY and n < c * _SHRINK_AT:
        cap[h], w, ds = _shrink(n, c)
        return w, depth + ds
    return 0.0, depth


def _l_build(cols, h: int, js: Sequence[int]) -> None:
    """Make list ``h`` hold exactly the distinct edge slots ``js``, in
    order (the capacity is the caller's)."""
    head, tail, cnt, _, prev, nxt = cols
    t = _NIL
    for j in js:
        prev[j] = t
        if t < 0:
            head[h] = j
        else:
            nxt[t] = j
        t = j
    if t < 0:
        head[h] = _NIL
    else:
        nxt[t] = _NIL
    tail[h] = t
    cnt[h] = len(js)


def _views(cols) -> Tuple[np.ndarray, ...]:
    """Writable numpy views of a column group, for one call (never
    kept: a live view blocks the columns' growth)."""
    return tuple(
        np.frombuffer(c, dtype=np.int64 if c.typecode == "q" else np.int32) for c in cols
    )


def _l_concat(cols, hs) -> List[int]:
    """The members of lists ``hs``, concatenated in list order (an empty
    list, or a slot with no set, contributes nothing)."""
    head, cnt, nxt = cols[0], cols[2], cols[5]
    out: List[int] = []
    app = out.append
    for h in hs:
        if cnt[h] > 0:
            j = head[h]
            while j >= 0:
                app(j)
                j = nxt[j]
    return out


# P(v, l) as int columns.  A cross edge has one P node per endpoint, at
# the fixed position ``slot * rank + k`` (its k-th vertex).  ``P`` is the
# group ``(B, nbkt, blevel, bvert, bprev, bnext, vhead, vtail, vstamp,
# free, clock)``:
#
# * ``B = (head, tail, count, cap, prev, next)`` is a list group shaped
#   like ``_S``/``_C``: the first four indexed by bucket, the links by
#   node (prev ``_OUT``: the node is in no bucket), so the list code
#   (:func:`_l_concat`, the grouped insert, the checker's walk) serves
#   it, and :func:`_p_link`/:func:`_p_unlink` write the append and
#   unlink of :func:`_l_insert`/:func:`_l_delete` inline;
# * ``nbkt`` is each linked node's bucket;
# * ``blevel``, ``bvert``, ``bprev``, ``bnext``: each bucket's level,
#   dense vertex and links in that vertex's bucket list;
# * ``vhead``, ``vtail``, ``vstamp``: per dense vertex, its bucket list
#   (in creation order: P(v)'s level order) and the stamp of P(v)'s
#   creation (P(v)s listed by stamp are in creation order);
# * ``free`` (a list) holds the free bucket ids, lowest on top, and
#   ``clock`` (one int64) the last stamp issued.

#: Buckets the level index grows by at a time.
_BUCKET_CHUNK = 1024


def _p_new() -> tuple:
    """An empty level index: no nodes, buckets or vertices."""
    B = (array("i"), array("i"), array("i"), array("q"), array("i"), array("i"))
    return (B, array("i"), array("i"), array("i"), array("i"), array("i"),
            array("i"), array("i"), array("q"), [], array("q", [0]))


def _p_grow_nodes(P, k: int) -> None:
    """Append ``k`` nodes, each in no bucket."""
    B, nbkt = P[0], P[1]
    B[4].extend(array("i", [_OUT]) * k)
    B[5].frombytes(bytes(4 * k))
    nbkt.extend(array("i", [_NIL]) * k)


def _p_grow_vertices(P, k: int) -> None:
    """Append ``k`` dense vertices, each with no P(v)."""
    P[6].extend(array("i", [_NIL]) * k)
    P[7].extend(array("i", [_NIL]) * k)
    P[8].frombytes(bytes(8 * k))


def _p_reserve(P, k: int) -> None:
    """Make at least ``k`` buckets free, growing the bucket columns by
    at least :data:`_BUCKET_CHUNK`; never while a view is held."""
    free = P[9]
    short = k - len(free)
    if short > 0:
        B = P[0]
        m0 = len(P[2])
        r = max(short, _BUCKET_CHUNK)
        for col in (*B[:4], *P[2:6]):
            col.frombytes(bytes(col.itemsize * r))
        free[:0] = range(m0 + r - 1, m0 - 1, -1)


def _p_link(P, vid, vs: Sequence[Vertex], node: int, lvl: int) -> Tuple[float, int]:
    """Insert a cross edge into P(v, lvl) for each of its vertices ``vs``
    (in vertex order; ``vid`` maps a vertex to its dense id), ``node``
    being the edge's first P node.  ``BatchSet.insert_one`` per bucket: a
    node already in its bucket is re-stored (charged, not moved); a
    missing bucket is made holding just the node (an insert into an
    empty set: depth 1) and appended to P(v), which is stamped when this
    is its first bucket; a node filed in another bucket raises
    ``ValueError``.  The append of :func:`_l_insert` is written inline:
    this runs once per endpoint on the scalar route, where calling the
    helper cost about 0.2 us per endpoint (docs/hotpath.md, "One
    set-edit model").

    Returns ``(dict_rehash work, summed depth)``; the dict_batch work is
    one per vertex.
    """
    B, nbkt, blevel, bvert, bprev, bnext, vhead, vtail, vstamp, free, clock = P
    head, tail, cnt, cap, prev, nxt = B
    w_rehash = 0.0
    depth = 0
    for v in vs:
        d = vid[v]
        b = vhead[d]
        while b >= 0 and blevel[b] != lvl:
            b = bnext[b]
        if prev[node] != _OUT:
            if nbkt[node] != b:
                raise ValueError(f"P node {node} is filed in bucket {nbkt[node]}, not at level {lvl}")
            n = cnt[b]
            depth += n.bit_length() if n >= 2 else 1  # log2ceil(n + 1)
        elif b < 0:
            if not free:
                _p_reserve(P, 1)
            b = free.pop()
            head[b] = tail[b] = node
            cnt[b] = 1
            cap[b] = _MIN_CAPACITY
            prev[node] = nxt[node] = _NIL
            nbkt[node] = b
            blevel[b] = lvl
            bvert[b] = d
            bprev[b] = t = vtail[d]
            bnext[b] = _NIL
            if t < 0:
                vhead[d] = b
                clock[0] = vstamp[d] = clock[0] + 1
            else:
                bnext[t] = b
            vtail[d] = b
            depth += 1
        else:
            n = cnt[b]
            depth += n.bit_length() if n >= 2 else 1  # log2ceil(n + 1)
            prev[node] = t = tail[b]
            nxt[node] = _NIL
            nxt[t] = tail[b] = node
            n += 1
            cnt[b] = n
            nbkt[node] = b
            if n > cap[b] * _GROW_AT:
                cap[b], wr, dg = _grow(n, cap[b])
                w_rehash += wr
                depth += dg
        node += 1
    return w_rehash, depth


def _p_unlink(P, node: int, card: int) -> Tuple[float, float, int]:
    """Delete a cross edge from its P(v, l) buckets: its ``card`` nodes
    from ``node`` on.  ``BatchSet.delete_one`` per linked node, on the
    bucket the node names; a node in no bucket costs nothing (the dict
    oracle would charge a no-op delete if its vertex had another edge at
    that level, a state no edit reaches: a cross edge stays filed under
    each of its vertices until it is detached).  A bucket goes when it
    empties, and P(v) with its last one.  The unlink of :func:`_l_delete`
    is written inline, as :func:`_p_link` writes its append.

    Returns ``(dict_batch work, dict_rehash work, summed depth)``.
    """
    B, nbkt, _, bvert, bprev, bnext, vhead, vtail, _, free, _ = P
    head, tail, cnt, cap, prev, nxt = B
    w_batch = 0.0
    w_rehash = 0.0
    depth = 0
    for j in range(node, node + card):
        p = prev[j]
        if p == _OUT:
            continue
        b = nbkt[j]
        n = cnt[b]
        w_batch += 1.0
        depth += n.bit_length() if n >= 2 else 1  # log2ceil(n + 1)
        q = nxt[j]
        if p < 0:
            head[b] = q
        else:
            nxt[p] = q
        if q < 0:
            tail[b] = p
        else:
            prev[q] = p
        prev[j] = _OUT
        n -= 1
        cnt[b] = n
        c = cap[b]
        if c > _MIN_CAPACITY and n < c * _SHRINK_AT:
            cap[b], wr, ds = _shrink(n, c)
            w_rehash += wr
            depth += ds
        if not n:
            p = bprev[b]
            q = bnext[b]
            if p < 0:
                vhead[bvert[b]] = q
            else:
                bnext[p] = q
            if q < 0:
                vtail[bvert[b]] = p
            else:
                bprev[q] = p
            free.append(b)
    return w_batch, w_rehash, depth


# ---------------------------------------------------------------------- #
# The grouped set-edit model: the same rule over a whole pass of inserts
# ---------------------------------------------------------------------- #
#
# A grouped pass applies a sequence of inserts at once.  Ops are grouped
# by list (``native.group_index``, stable, so each group keeps input
# order); an op's pre-size is its list's count plus its rank in the
# group, and the capacity after it is the capacity ``_grow`` reaches
# from the list's starting capacity at that size (sizes only rise in a
# pass, so the doublings of one op are the difference from its
# predecessor's).  Charges come back per op, in input order, for the
# callers to sum per branch.  Deletes have no grouped form: at the call
# sizes the workloads produce, the per-op loop was never slower.

#: Calls of ``add_cross_edge_batch`` with at least this many edges make
#: their C(m) inserts and P links as grouped passes, smaller ones per
#: edge.  This is the measured crossover (docs/hotpath.md, "Batched
#: structure edits"): on serve-r3's rank-3 settles the passes cost 1.05x
#: the per-edge loop at 112-127 edges, 1.00x at 128-159 and 0.92x at
#: 160-191.
_GROUPED_MIN = 128


def _bitlen(n: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of non-negative integers (frexp's exponent of
    an integer-valued double, exact below 2**53)."""
    return np.frexp(n.astype(np.float64))[1].astype(np.int64)


def _probe_depth(n: np.ndarray) -> np.ndarray:
    """``log2ceil(n + 1)`` (at least 1): the depth of ``insert_one`` or
    ``delete_one`` on a set of ``n`` keys."""
    return np.where(n >= 2, _bitlen(n), 1)


def _grow_all(n: np.ndarray, cap: np.ndarray) -> Tuple[np.ndarray, ...]:
    """:func:`_grow` per element: from capacity ``cap``, the capacity that
    fits ``n`` keys, the cumulative dict_rehash work and the doublings."""
    cap = cap.astype(np.int64)
    w = np.zeros(n.size)
    k = np.zeros(n.size, dtype=np.int64)
    m = n > cap * _GROW_AT
    while m.any():
        cap[m] *= 2
        w[m] += cap[m] * _GROW_AT
        k[m] += 1
        m = n > cap * _GROW_AT
    return cap, w, k


def _groups(h: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Ops grouped by list (``native.group_index``): ``(order, starts,
    sizes, pos, rank)``, ``pos`` being each sorted op's rank in its group
    and ``rank`` the groups in first-occurrence order."""
    order, starts, rank = native.group_index(h)
    sizes = np.diff(np.append(starts, h.size))
    pos = np.arange(h.size) - np.repeat(starts, sizes)
    return order, starts, sizes, pos, rank


def _step(cum: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-op increments of a per-group cumulative series (sorted order)."""
    d = cum.copy()
    d[1:] -= cum[:-1]
    d[starts] = cum[starts]
    return d


def _append_all(head, tail, prev, nxt, g, jo, starts, sizes) -> None:
    """Link surgery of a grouped append: group ``i`` (list ``g[i]``)
    appends ``jo[starts[i]:starts[i] + sizes[i]]`` in that order."""
    k = jo.size
    last = starts + sizes - 1
    t0 = tail[g].astype(np.int64)
    pj = np.empty(k, dtype=np.int64)
    pj[1:] = jo[:-1]
    pj[starts] = t0
    nj = np.empty(k, dtype=np.int64)
    nj[:-1] = jo[1:]
    nj[last] = _NIL
    prev[jo] = pj
    nxt[jo] = nj
    old = t0 >= 0
    nxt[t0[old]] = jo[starts[old]]
    head[g[~old]] = jo[starts[~old]]
    tail[g] = jo[last]


def _l_insert_grouped(cols, h, js, grouping=None) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_l_insert` over ops ``(h[i], js[i])`` in order, as one pass:
    ``cols`` are numpy views of a list group, and every ``js[i]`` is
    distinct and in no list of this kind.  ``grouping`` is
    :func:`_groups` of ``h`` when the caller has it.

    Returns per-op ``(dict_rehash work, depth)``, in input order."""
    head, tail, cnt, cap, prev, nxt = cols
    order, starts, sizes, pos, _ = _groups(h) if grouping is None else grouping
    g = h[order[starts]]
    jo = js[order]
    n0 = cnt[g].astype(np.int64)
    n = np.repeat(n0, sizes) + pos
    c, w, steps = _grow_all(n + 1, np.repeat(cap[g], sizes))
    _append_all(head, tail, prev, nxt, g, jo, starts, sizes)
    cnt[g] = n0 + sizes
    cap[g] = c[starts + sizes - 1]
    out_w = np.empty(js.size)
    out_w[order] = _step(w, starts)
    out_d = np.empty(js.size, dtype=np.int64)
    out_d[order] = _probe_depth(n) * (1 + _step(steps, starts))
    return out_w, out_d


def _p_find(P, ds: np.ndarray, lvls: np.ndarray) -> np.ndarray:
    """The bucket of P(v, l) per (dense vertex, level) pair, found by
    walking P(v); -1 where there is none.  Holds no view past return."""
    blevel, bnext, vhead = (np.frombuffer(P[k], dtype=np.int32) for k in (2, 5, 6))
    b = vhead[ds].astype(np.int64)
    m = b >= 0
    m[m] = blevel[b[m]] != lvls[m]
    while m.any():
        b[m] = bnext[b[m]]
        m = b >= 0
        m[m] = blevel[b[m]] != lvls[m]
    return b


def _p_link_grouped(P, nodes, ds, lvls) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_p_link` over ops ``(nodes[i], ds[i], lvls[i])`` (a node,
    its dense vertex, the level) in order, as one pass; every node is in
    no bucket.  Ops are grouped by (vertex, level); each group's bucket
    is found by walking P(v) (:func:`_p_find`), or made, the new ones
    appended to their P(v) in the ops' first-occurrence order and the
    P(v)s new in this pass stamped in it.

    Returns per-op ``(dict_rehash work, depth)``, in input order."""
    lv = lvls.astype(np.int64)
    grouping = _groups(ds.astype(np.int64) * (int(lv.max()) + 1) + lv)
    order, starts, sizes, _, rank = grouping
    first = order[starts]
    gd = ds[first].astype(np.int64)
    gl = lv[first]
    b = _p_find(P, gd, gl)
    isnew = b < 0
    new = rank[isnew[rank]]
    _p_reserve(P, new.size)
    B = _views(P[0])
    nbkt, blevel, bvert, bprev, bnext, vhead, vtail, vstamp = _views(P[1:9])
    free, clock = P[9], P[10]
    if new.size:
        cut = len(free) - new.size
        ids = np.array(free[cut:][::-1], dtype=np.int64)
        del free[cut:]
        b[new] = ids
        nd = gd[new]
        blevel[ids] = gl[new]
        bvert[ids] = nd
        B[1][ids] = _NIL
        B[2][ids] = 0
        B[3][ids] = _MIN_CAPACITY
        fresh = nd[vhead[nd] < 0]
        fresh = fresh[native.dedup_first_index(fresh)]
        c0 = int(clock[0])
        vstamp[fresh] = np.arange(c0 + 1, c0 + 1 + fresh.size)
        clock[0] = c0 + fresh.size
        vo, vs, _ = native.group_index(nd)
        _append_all(vhead, vtail, bprev, bnext, nd[vo[vs]], ids[vo],
                    vs, np.diff(np.append(vs, nd.size)))
    hb = np.empty(nodes.size, dtype=np.int64)
    hb[order] = np.repeat(b, sizes)
    w, d = _l_insert_grouped(B, hb, nodes, grouping)
    nbkt[nodes] = hb
    return w, d


def _emit(led: Ledger, depth: int, *charges: Tuple[str, float]) -> None:
    """Apply one region's pre-summed charges by direct field arithmetic:
    each ``(tag, work)`` pair (a zero amount is a charge never made, so
    its tag stays absent) and the region's ``depth`` on the open frame.
    Every amount is integer-valued, so this equals the per-charge
    sequence to the bit."""
    bt = led.by_tag
    total = 0.0
    for tag, w in charges:
        if w:
            total += w
            bt[tag] = bt.get(tag, 0.0) + w
    led.work += total
    led._stack[-1].depth += depth


class ArrayLeveledStructure:
    """Flat-array implementation of the leveled matching structure.

    Same constructor, same edit operations, same ledger charges as
    :class:`~repro.core.level_structure.LeveledStructure`; see the module
    docstring for the representation.  The batch entry points
    (``register_batch``, ``free_flags``, ``heavy_flags``,
    ``add_level0_batch``, ...) are the structure API that
    :class:`~repro.core.dynamic_matching.DynamicMatching` calls on
    either backend; here they are the hot path.
    """

    def __init__(
        self,
        rank: int,
        ledger: Ledger,
        alpha: int = 2,
        heavy_factor: float = 4.0,
    ) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if type(ledger) is not Ledger:
            # The edits apply their pre-accumulated charges by direct
            # field arithmetic, which is exact only for the base class.
            raise TypeError(
                f"the array backend needs a plain Ledger, got "
                f"{type(ledger).__name__}; the dict backend takes any Ledger"
            )
        self.rank = rank
        self.ledger = ledger
        self.alpha = alpha
        self.heavy_factor = heavy_factor
        # eid -> slot; dict insertion order == registration order, which the
        # record-dict backend exposes through recs.values().
        self._slot: Dict[EdgeId, int] = {}
        self._free: List[int] = []
        # Slot-parallel arrays.  Object state (edges, vertex tuples)
        # stays in Python lists; everything else forms the *columnar
        # edit plane*: ``array.array`` typecode 'i' (int32) / 'q' (int64)
        # columns whose scalar reads and writes behave exactly like
        # lists, but which expose zero-copy writable numpy views
        # (``np.frombuffer``) to the batched edit kernels.  Views are
        # always taken per-operation and never cached — ``array.extend``
        # is a realloc and raises ``BufferError`` while a view is
        # exporting the buffer.
        self._edge: List[Optional[Edge]] = []
        self._verts: List[Tuple[Vertex, ...]] = []
        self._card = array("i")
        self._type = array("i")
        self._level = array("i")
        self._settle = array("i")
        # The owner of each slot, as the owning match's slot (-1 =
        # none): slots are int32-safe by construction (bounded by the
        # slot count), while edge ids may straddle int32.
        self._ownslot = array("i")
        # S(m) and C(m): per match slot head, tail, count (``_NOSET``:
        # not a match) and capacity; per edge slot prev and next links
        # (prev ``_OUT``: in no list of that kind).
        self._shead, self._stail, self._scnt = array("i"), array("i"), array("i")
        self._sprev, self._snext = array("i"), array("i")
        self._scap = array("q")
        self._chead, self._ctail, self._ccnt = array("i"), array("i"), array("i")
        self._cprev, self._cnext = array("i"), array("i")
        self._ccap = array("q")
        self._S = (self._shead, self._stail, self._scnt, self._scap, self._sprev, self._snext)
        self._C = (self._chead, self._ctail, self._ccnt, self._ccap, self._cprev, self._cnext)
        # P(v, l): the level index's column group (see ``_p_new``), with
        # ``rank`` nodes per slot and one bucket list per dense vertex.
        self._lidx = _p_new()
        # Interned vertex table + columnar vertex state.  Raw vertex
        # ids of any type/magnitude live only as dict keys; the int32
        # plane sees dense ids.  ``_pcol[d]`` is the covering match
        # slot of dense vertex ``d`` (-1 = uncovered) — the cover map
        # p(v); ``_vd_flat``/``_vd_off`` is a CSR pool of each slot's
        # dense vertex ids (segment length = ``_card``).
        self.interner = VertexInterner()
        self._pcol = array("i")
        self._vd_off = array("q")
        self._vd_flat = array("i")
        self._vd_live = 0
        # Every int column indexed by slot, and the values a new edge's
        # slot starts from (``_card`` and ``_vd_off`` are per edge; the
        # capacities, heads, tails and next links are written when a set
        # is made).  register_batch's small-call loop writes the same
        # values by direct stores.
        self._slotcols = (
            self._card, self._type, self._level, self._settle, self._ownslot,
            self._vd_off, *self._S, *self._C,
        )
        self._slot_reset = (
            (self._type, _T_UNSETTLED), (self._ownslot, -1), (self._level, -1),
            (self._settle, 0), (self._scnt, _NOSET), (self._ccnt, _NOSET),
            (self._sprev, _OUT), (self._cprev, _OUT),
        )
        # Vertex state.
        self.matched: Set[EdgeId] = set()
        # Fault-injection hook: when set, called with a phase name at the
        # batch-granularity entry points (never charged to the ledger).
        self.phase_hook = None

    def __contains__(self, eid: EdgeId) -> bool:
        return eid in self._slot

    # ------------------------------------------------------------------ #
    # Columnar edit plane
    # ------------------------------------------------------------------ #
    def _vd_store(self, i: int, vertices: Tuple[Vertex, ...]) -> None:
        """Intern ``vertices`` and append their dense ids to the pool."""
        idx = self.interner._index
        pcol = self._pcol
        vd = self._vd_flat
        off = len(vd)
        for v in vertices:
            d = idx.get(v)
            if d is None:
                d = len(idx)
                idx[v] = d
                pcol.append(-1)
                _p_grow_vertices(self._lidx, 1)
                if not fits_int64((v,)):
                    self.interner.wide = True
            vd.append(d)
        vd_off = self._vd_off
        if i < len(vd_off):
            vd_off[i] = off
        else:
            vd_off.append(off)
        self._vd_live += len(vertices)

    def _vd_compact(self) -> None:
        """Rebuild the dense-vertex pool, dropping leaked segments.

        Slot recycling always appends a fresh segment, so churn leaks
        pool space; compaction (triggered from ``register_batch`` when
        the pool is 4x the live footprint) squeezes it back.  Pure
        representation maintenance — never charged to the ledger.  One
        segmented gather over the live slots, in slot order.
        """
        slot = self._slot
        live = np.fromiter(slot.values(), dtype=np.int64, count=len(slot))
        live.sort()
        cards = np.frombuffer(self._card, dtype=np.int32)[live].astype(np.int64)
        vd_off = np.frombuffer(self._vd_off, dtype=np.int64)
        idx = native.seg_gather_index(vd_off[live], cards, int(cards.sum()))
        new = array("i")
        new.frombytes(np.frombuffer(self._vd_flat, dtype=np.int32)[idx].tobytes())
        vd_off[live] = np.cumsum(cards) - cards
        self._vd_flat = new

    def frame_dense(self, frame) -> np.ndarray:
        """Dense vertex ids (int32) aligned with ``frame.vflat``.

        Every edge in the frame must be registered; gathers from the
        CSR pool, so no per-vertex dict traffic.
        """
        eids = frame.eids.tolist()
        slots = np.fromiter(
            map(self._slot.__getitem__, eids), dtype=np.int64, count=len(eids)
        )
        vd_off = np.frombuffer(self._vd_off, dtype=np.int64)
        starts = vd_off[slots]
        cards = frame.cards.astype(np.int64, copy=False)
        total = int(frame.total_cardinality)
        idx = native.seg_gather_index(starts, cards, total)
        return np.frombuffer(self._vd_flat, dtype=np.int32)[idx]

    # ------------------------------------------------------------------ #
    # Registry
    # ------------------------------------------------------------------ #
    def _grow_columns(self, r: int) -> None:
        """Append ``r`` zeroed slots to every int column, and their P
        nodes to the level index."""
        for col in self._slotcols:
            col.frombytes(bytes(col.itemsize * r))
        _p_grow_nodes(self._lidx, r * self.rank)

    def _alloc(self, edge: Edge) -> int:
        eid = edge.eid
        if eid in self._slot:
            raise KeyError(f"edge {eid} already in structure")
        card = edge.cardinality
        if card > self.rank:
            raise ValueError(
                f"edge {eid} has cardinality {card} > rank bound {self.rank}"
            )
        if not fits_int64((eid,)):
            self.interner.wide = True
        free = self._free
        if not free:
            # Grow every column by a chunk of free slots, the lowest on
            # top, so slots are still taken in ascending order.
            m0 = len(self._edge)
            self._edge.extend([None] * _SLOT_CHUNK)
            self._verts.extend([()] * _SLOT_CHUNK)
            self._grow_columns(_SLOT_CHUNK)
            free.extend(range(m0 + _SLOT_CHUNK - 1, m0 - 1, -1))
        i = free.pop()
        self._edge[i] = edge
        self._verts[i] = edge.vertices
        self._card[i] = card
        for col, v in self._slot_reset:
            col[i] = v
        self._slot[eid] = i
        self._vd_store(i, edge.vertices)
        return i

    def register(self, edge: Edge) -> None:
        self._alloc(edge)
        self.ledger.charge(work=edge.cardinality, depth=1, tag="register")

    def register_batch(self, edges: Sequence[Edge]) -> None:
        """Register a batch of new edges.

        The batch must be valid: distinct ids, none registered, none over
        the rank bound.  ``DynamicMatching.insert_edges`` checks that
        before it registers anything (so a rejected batch mutates
        neither backend); the per-edge :meth:`register` checks its own.
        """
        if self.phase_hook is not None:
            self.phase_hook("structure.register_batch")
        slot = self._slot
        free = self._free
        earr = self._edge
        varr = self._verts
        edges = list(edges)
        ids = [e.eid for e in edges]
        verts = [e.vertices for e in edges]
        n = len(ids)
        if n and not fits_int64(ids):
            # No raw-id frame column can hold this edge id: flag it
            # before anything registers, so every later call takes the
            # per-edge route (DynamicMatching._columnar).
            self.interner.wide = True
        cards = [len(vs) for vs in verts]
        # Columnar plane: intern the batch's vertices once, bulk-append
        # their dense ids to the CSR pool (compacting first when churn
        # has left it 4x the live footprint), grow the cover column for
        # fresh vertices.  All C-level; no per-vertex Python.
        vd = self._vd_flat
        if len(vd) > 4 * max(self._vd_live, 4096):
            self._vd_compact()
            vd = self._vd_flat
        intern = self.interner
        vchain = list(chain.from_iterable(verts))
        prev = intern.count
        dense = intern.add_ids(vchain)
        grown = intern.count - prev
        if grown:
            self._pcol.extend([-1] * grown)
            _p_grow_vertices(self._lidx, grown)
        coff = len(vd)
        vd.frombytes(dense.tobytes())
        self._vd_live += dense.size
        # Slots: recycled ones first, in the free list's pop order, then
        # fresh ones grown onto every column; then the int columns are
        # reset, by one scatter per column on the columnar route.
        k = min(len(free), n)
        cut = len(free) - k
        slots = free[cut:]
        slots.reverse()
        del free[cut:]
        for i, e, vs in zip(slots, edges, verts):
            earr[i] = e
            varr[i] = vs
        if k < n:
            m0 = len(earr)
            r = n - k
            slots.extend(range(m0, m0 + r))
            earr.extend(edges[k:])
            varr.extend(verts[k:])
            self._grow_columns(r)
        slot.update(zip(ids, slots))
        if n >= native.VEC_MIN:
            sl = np.array(slots, dtype=np.int64)
            cn = np.array(cards, dtype=np.int64)
            np.frombuffer(self._card, dtype=np.int32)[sl] = cn
            np.frombuffer(self._vd_off, dtype=np.int64)[sl] = np.cumsum(cn) + (coff - cn)
            for col, v in self._slot_reset:
                np.frombuffer(col, dtype=np.int32)[sl] = v
        else:
            card, vd_off = self._card, self._vd_off
            tarr, oslc, larr, sarr = self._type, self._ownslot, self._level, self._settle
            scnt, ccnt, sprev, cprev = self._scnt, self._ccnt, self._sprev, self._cprev
            for i, c in zip(slots, cards):
                card[i] = c
                vd_off[i] = coff
                coff += c
                tarr[i] = _T_UNSETTLED
                oslc[i] = -1
                larr[i] = -1
                sarr[i] = 0
                scnt[i] = _NOSET
                ccnt[i] = _NOSET
                sprev[i] = _OUT
                cprev[i] = _OUT
        self.ledger.charge_parallel(n, work=sum(cards), depth=1, tag="register")

    def unregister_batch(self, eids: Sequence[EdgeId]) -> None:
        if self.phase_hook is not None:
            self.phase_hook("structure.unregister_batch")
        # A freed slot's int columns keep their values: register_batch
        # resets them when the slot is reused.  On an absent id, the ids
        # before it stay unregistered and their slots free.
        slots: List[int] = []
        try:
            slots.extend(map(self._slot.pop, eids))
        finally:
            earr = self._edge
            for i in slots:
                earr[i] = None
            self._free.extend(slots)
        total = sum(map(self._card.__getitem__, slots))
        self._vd_live -= total
        self.ledger.charge_parallel(len(eids), work=total, depth=1, tag="register")

    # ------------------------------------------------------------------ #
    # Point queries
    # ------------------------------------------------------------------ #
    def cover_of(self, v: Vertex) -> Optional[EdgeId]:
        d = self.interner._index.get(v)
        if d is None:
            return None
        i = self._pcol[d]
        return None if i < 0 else self._edge[i].eid

    def _owner_of(self, i: int) -> Optional[EdgeId]:
        """The edge id of slot ``i``'s owner (None when it has none)."""
        o = self._ownslot[i]
        return None if o < 0 else self._edge[o].eid

    def owner_of(self, eid: EdgeId) -> Optional[EdgeId]:
        return self._owner_of(self._slot[eid])

    def type_of(self, eid: EdgeId) -> EdgeType:
        return _TYPE_OBJS[self._type[self._slot[eid]]]

    def split_matched(self, eids: Sequence[EdgeId]) -> Tuple[List[EdgeId], List[EdgeId]]:
        """Partition ids into (matched, unmatched), preserving order.

        Raises ``KeyError`` on any absent id before returning; charges
        nothing, like :meth:`type_of`.  Calls of at least
        :data:`repro.native.VEC_MIN` ids take one slot gather and a type
        mask.
        """
        slot = self._slot
        tarr = self._type
        if len(eids) >= native.VEC_MIN:
            slots = np.fromiter(
                map(slot.__getitem__, eids), dtype=np.int64, count=len(eids)
            )
            is_m = (np.frombuffer(tarr, dtype=np.int32)[slots] == _T_MATCHED).tolist()
            return list(compress(eids, is_m)), list(compress(eids, map(not_, is_m)))
        matched: List[EdgeId] = []
        unmatched: List[EdgeId] = []
        ma = matched.append
        ua = unmatched.append
        for eid in eids:
            if tarr[slot[eid]] == _T_MATCHED:
                ma(eid)
            else:
                ua(eid)
        return matched, unmatched

    def edge_of(self, eid: EdgeId) -> Edge:
        return self._edge[self._slot[eid]]

    def level_of_match(self, eid: EdgeId) -> int:
        return self._level[self._slot[eid]]

    def settle_size_of(self, eid: EdgeId) -> int:
        return self._settle[self._slot[eid]]

    def owner_pairs(self) -> Iterator[Tuple[EdgeId, Optional[EdgeId]]]:
        """(edge id, owner id) for every registered edge."""
        owner_of = self._owner_of
        return ((eid, owner_of(i)) for eid, i in self._slot.items())

    def free_flags(self, edges: Sequence[Edge], frame=None) -> List[bool]:
        """Per-edge "all vertices uncovered" flags: one parallel region,
        one charge.

        With a :class:`~repro.parallel.frames.BatchFrame` over ``edges``,
        the per-edge vertex loops collapse to one covered-lookup sweep
        plus a segmented any-reduction.  The charge is identical either
        way — the scalar loop's early break never reduces the charged
        work (the region prices every vertex visit of the batch).
        """
        pcol = self._pcol
        vid = self.interner._index.get
        n = len(edges)
        if (
            frame is not None
            and len(frame) == n
            and n > 0
            and int(frame.cards.min()) > 0
        ):
            total = frame.total_cardinality
            dense = getattr(frame, "dense", None)
            if dense is not None:
                # Columnar path: the frame carries interned dense ids,
                # so coverage is a single int32 gather — no per-vertex
                # dict traffic at all.
                covered = np.frombuffer(pcol, dtype=np.int32)[dense] >= 0
            else:
                covered = np.fromiter(
                    (d is not None and pcol[d] >= 0 for d in map(vid, frame.vflat.tolist())),
                    dtype=np.bool_, count=total,
                )
            free = ~np.logical_or.reduceat(covered, frame.voff[:-1])
            self.ledger.charge_parallel(n, work=total, depth=1, tag="free_check")
            return free.tolist()
        total = 0
        flags: List[bool] = []
        append = flags.append
        for e in edges:
            vs = e.vertices
            total += len(vs)
            free = True
            for v in vs:
                d = vid(v)
                if d is not None and pcol[d] >= 0:
                    free = False
                    break
            append(free)
        self.ledger.charge_parallel(n, work=total, depth=1, tag="free_check")
        return flags

    def _slots_of(self, eids: Sequence[EdgeId]) -> Optional[np.ndarray]:
        """The slots of ``eids`` as one int64 gather, or None when an id
        is absent (the caller's per-item loop then raises at it)."""
        try:
            return np.fromiter(
                map(self._slot.__getitem__, eids), dtype=np.int64, count=len(eids)
            )
        except KeyError:
            return None

    # ------------------------------------------------------------------ #
    # isHeavy (Fig. 2)
    # ------------------------------------------------------------------ #
    def heavy_flags(self, mids: Sequence[EdgeId]) -> List[bool]:
        """isHeavy per match: one parallel region, one charge.  Calls of
        at least :data:`repro.native.VEC_MIN` ids gather the C(m) counts
        and levels."""
        base = self.heavy_factor * (self.rank**2)
        alpha = self.alpha
        n = len(mids)
        slots = self._slots_of(mids) if n >= native.VEC_MIN else None
        if slots is not None:
            cnt = np.frombuffer(self._ccnt, dtype=np.int32)[slots]
            if cnt.min() >= 0:  # else the loop raises at the first non-match
                lv = np.frombuffer(self._level, dtype=np.int32)[slots]
                lvls, inv = np.unique(lv, return_inverse=True)
                th = np.array([base * (alpha**l) for l in lvls.tolist()])
                self.ledger.charge_parallel(n, work=n, depth=1, tag="is_heavy")
                return (cnt >= th[inv]).tolist()
        slot = self._slot
        ccnt = self._ccnt
        level = self._level
        thresholds: Dict[int, float] = {}
        flags: List[bool] = []
        fapp = flags.append
        for mid in mids:
            i = slot[mid]
            c = ccnt[i]
            if c < 0:
                raise ValueError(f"edge {mid} is not matched")
            lv = level[i]
            t = thresholds.get(lv)
            if t is None:
                t = thresholds[lv] = base * (alpha ** lv)
            fapp(c >= t)
        self.ledger.charge_parallel(n, work=n, depth=1, tag="is_heavy")
        return flags

    # ------------------------------------------------------------------ #
    # Set construction (BatchSet charge model)
    # ------------------------------------------------------------------ #
    def _charge_new_set(self, k: int, n: int) -> int:
        """Charge a fresh ``BatchSet(ledger, keys)`` of ``k`` keys, ``n``
        of them distinct (nothing when empty); returns its capacity."""
        cap = _MIN_CAPACITY
        if k:
            self.ledger.charge(work=k, depth=log2ceil(max(k, 2)), tag="dict_batch")
            if n > cap * _GROW_AT:
                cap, w, depth = _grow(n, cap)
                self.ledger.charge(work=w, depth=depth, tag="dict_rehash")
        return cap

    # ------------------------------------------------------------------ #
    # The four structure edits (Fig. 2, left column)
    # ------------------------------------------------------------------ #
    def add_level0_batch(self, edges: Sequence[Edge]) -> None:
        """Batched addMatch(e, {e}) for freshly matched level-0 edges.

        Every branch of the old per-edge loop charged depth 1 for the
        singleton sample-set build plus depth 1 for the match install, so
        the whole region prices as two uniform batched charges.  Calls of
        at least :data:`repro.native.VEC_MIN` edges run the
        ``edit_add_level0`` kernel, smaller ones the scalar loop below;
        the charges are identical.
        """
        n = len(edges)
        if n == 0:
            return
        slot = self._slot
        matched = self.matched
        sarr = self._settle
        larr = self._level
        tarr = self._type
        oslc = self._ownslot
        card = self._card
        pcol = self._pcol
        if n >= native.VEC_MIN:
            ids = [e.eid for e in edges]
            slots = None
            if len(set(ids)) == n and matched.isdisjoint(ids):
                slots = self._slots_of(ids)
            if slots is not None:
                carr_np = np.frombuffer(card, dtype=np.int32)
                cards = carr_np[slots].astype(np.int64)
                total_c = int(cards.sum())
                vd_off = np.frombuffer(self._vd_off, dtype=np.int64)
                idx = native.seg_gather_index(vd_off[slots], cards, total_c)
                dflat = np.frombuffer(self._vd_flat, dtype=np.int32)[idx]
                total = native.edit_add_level0(
                    slots,
                    cards,
                    dflat,
                    np.frombuffer(tarr, dtype=np.int32),
                    np.frombuffer(larr, dtype=np.int32),
                    np.frombuffer(sarr, dtype=np.int32),
                    np.frombuffer(oslc, dtype=np.int32),
                    _views(self._S),
                    _views(self._C),
                    np.frombuffer(pcol, dtype=np.int32),
                )
                matched.update(ids)
                self.ledger.charge_parallel(n, work=n, depth=1, tag="dict_batch")
                self.ledger.charge_parallel(n, work=total, depth=1, tag="add_match")
                return
            # Validation failed: replay the scalar loop below so the
            # error (and partial-application semantics) match exactly.
        vid = self.interner._index
        madd = matched.add
        shead, stail, scnt, scap, sprev, snext = self._S
        chead, ctail, ccnt, ccap = self._C[:4]
        total = 0
        for e in edges:
            eid = e.eid
            i = slot[eid]
            if eid in matched:
                raise ValueError(f"edge {eid} is already matched")
            madd(eid)
            # The kernel's column stores, per edge: S(m) = {m}, C(m) empty.
            shead[i] = stail[i] = i
            scnt[i] = 1
            scap[i] = _MIN_CAPACITY
            sprev[i] = snext[i] = _NIL
            chead[i] = ctail[i] = _NIL
            ccnt[i] = 0
            ccap[i] = _MIN_CAPACITY
            sarr[i] = 1
            larr[i] = 0
            tarr[i] = _T_MATCHED
            oslc[i] = i
            for v in e.vertices:
                pcol[vid[v]] = i
            total += 1 + card[i]
        self.ledger.charge_parallel(n, work=n, depth=1, tag="dict_batch")
        self.ledger.charge_parallel(n, work=total, depth=1, tag="add_match")

    def remove_match(self, eid: EdgeId) -> List[Edge]:
        """removeMatch(m): detach a match, returning its owned cross edges.

        C(m) is walked for the owned edges; S(m) is dropped by its header,
        unwalked (its members are cross edges by now, see the module
        docstring)."""
        i = self._slot[eid]
        if eid not in self.matched:
            raise ValueError(f"edge {eid} is not matched")
        self.matched.discard(eid)
        n = self._ccnt[i]
        w_elems = 0.0
        d_total = 0
        if n >= 0:
            w_elems = float(max(n, 1))
            d_total = (n - 1).bit_length() if n > 1 else 1
        owned = _l_concat(self._C, (i,))
        out: List[Edge] = []
        verts = self._verts
        tarr = self._type
        oslc = self._ownslot
        cprev = self._cprev
        edges = self._edge
        cards = self._card
        P = self._lidx
        r = self.rank
        # The unlink loop is one parallel region: each branch pays its
        # P-bucket discards plus a unit charge, the region contributes the
        # max branch depth.
        w_batch = 0.0
        w_rehash = 0.0
        w_rm = 0.0
        max_bd = 0
        for j in owned:
            c = cards[j]
            wb, wr, bd = _p_unlink(P, j * r, c)
            w_batch += wb
            w_rehash += wr
            tarr[j] = _T_UNSETTLED
            oslc[j] = -1
            cprev[j] = _OUT
            out.append(edges[j])
            w_rm += c
            bd += 1
            if bd > max_bd:
                max_bd = bd
        d_total += max_bd
        pcol = self._pcol
        vid = self.interner._index
        for v in verts[i]:
            d = vid[v]
            if pcol[d] == i:
                pcol[d] = -1
        self._scnt[i] = _NOSET
        self._ccnt[i] = _NOSET
        self._level[i] = -1
        self._settle[i] = 0
        if tarr[i] == _T_MATCHED:
            tarr[i] = _T_UNSETTLED
            oslc[i] = -1
        w_rm += cards[i]
        no = len(owned)
        d_total += (no - 1).bit_length() if no > 1 else 1
        led = self.ledger
        led.work += w_elems + w_batch + w_rehash + w_rm
        led._stack[-1].depth += d_total
        bt = led.by_tag
        if w_elems:
            bt["dict_elements"] = bt.get("dict_elements", 0.0) + w_elems
        if w_batch:
            bt["dict_batch"] = bt.get("dict_batch", 0.0) + w_batch
        if w_rehash:
            bt["dict_rehash"] = bt.get("dict_rehash", 0.0) + w_rehash
        bt["remove_match"] = bt.get("remove_match", 0.0) + w_rm
        return out

    def add_cross_edge(self, edge: Edge) -> None:
        """addCrossEdge(e): attach e to the max-level incident match.

        An edge attached to that match already is re-stored in C(m) and
        its P buckets, charged as the oracle's inserts; one attached to
        another match raises ``ValueError``."""
        w_rehash, card, bd = self._ace_acc(edge)
        _emit(
            self.ledger,
            bd,
            ("dict_batch", 1.0 + card),
            ("dict_rehash", w_rehash),
            ("add_cross_edge", float(card)),
        )

    def _ace_acc(self, edge: Edge) -> Tuple[float, int, int]:
        """:meth:`add_cross_edge` without charge emission: returns
        ``(w_rehash, card, branch_depth)``, the dict_batch work being
        ``1 + card`` (see :meth:`_rce_acc`)."""
        eid = edge.eid
        i = self._slot[eid]
        pcol = self._pcol
        vid = self.interner._index
        level = self._level
        bi = -1
        best_lvl = -1
        for v in edge.vertices:
            j = pcol[vid[v]]
            if j >= 0:
                l = level[j]
                if bi < 0 or l > best_lvl:
                    bi = j
                    best_lvl = l
        if bi < 0:
            raise ValueError(f"cross edge {eid} has no incident match")
        if self._cprev[i] != _OUT and self._ownslot[i] != bi:
            raise ValueError(f"cross edge {eid} is attached to another match")
        self._type[i] = _T_CROSS
        self._ownslot[i] = bi
        w_rehash, d_total = _l_insert(self._C, bi, i)
        wr, dp = _p_link(self._lidx, vid, edge.vertices, i * self.rank, best_lvl)
        return w_rehash + wr, self._card[i], d_total + dp + 1

    # ------------------------------------------------------------------ #
    # Sample-set helpers
    # ------------------------------------------------------------------ #
    def samples_of(self, mid: EdgeId) -> List[Edge]:
        """S(m) extracted as edges (elements() charge, lookups free)."""
        i = self._slot[mid]
        n = self._scnt[i]
        if n < 0:
            raise ValueError(f"edge {mid} is not matched")
        self.ledger.charge(work=max(n, 1), depth=log2ceil(max(n, 2)), tag="dict_elements")
        return list(map(self._edge.__getitem__, _l_concat(self._S, (i,))))

    # ------------------------------------------------------------------ #
    # Batched structure edits (vectorized dynamic pipeline)
    # ------------------------------------------------------------------ #
    #
    # Each ``*_batch`` method replays the exact mutations of the dict
    # oracle's per-edge op over a whole batch, but prices the batch the
    # way ``parallel_for(ledger, items, op)`` does: per-tag work summed
    # across branches, region depth = MAX branch depth.  A plain Ledger
    # only keeps order-insensitive totals, so the single aggregated
    # emission is bit-identical to running the per-edge region.
    # For calls below ``native.VEC_MIN`` items, and when their edit
    # kernel bails out, ``add_cross_edge_batch`` sums its per-edge ops
    # (``_ace_acc``) and ``remove_match_batch`` takes the per-edge route
    # (``parallel_for`` over ``remove_match``).

    def _rce_acc(self, i: int, edge: Edge) -> Tuple[float, float, int, int]:
        """removeCrossEdge(e): detach the cross edge in slot ``i`` from its
        owner and the P index, without charge emission.

        Returns ``(w_batch, w_rehash, card, branch_depth)`` — exactly the
        amounts the per-edge op would charge — for the batch callers to
        accumulate (sum the work, max the depth).
        """
        eid = edge.eid
        if self._type[i] != _T_CROSS:
            raise ValueError(f"edge {eid} is not a cross edge")
        w_rehash, bd = _l_delete(self._C, self._ownslot[i], i)
        card = self._card[i]
        wb, wr, dp = _p_unlink(self._lidx, i * self.rank, card)
        self._type[i] = _T_UNSETTLED
        self._ownslot[i] = -1
        return 1.0 + wb, w_rehash + wr, card, bd + dp + 1

    def _p_nodes(self, slots: np.ndarray, cards: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The P nodes of edge slots ``slots`` (cardinalities ``cards``),
        each edge's in vertex order, and each edge's offset among them."""
        eoff = np.cumsum(cards) - cards
        nodes = np.arange(int(cards.sum()), dtype=np.int64)
        nodes += np.repeat(slots * self.rank - eoff, cards)
        return nodes, eoff

    def _kernel_add_cross(self, edges: Sequence[Edge]) -> bool:
        """Columnar fast path for :meth:`add_cross_edge_batch`.

        Returns True when the batch was fully applied (mutations and
        charges bit-identical to the per-edge route); False when a
        validation fails, in which case *nothing user-visible changed*
        beyond idempotent type/owner-slot column writes and the caller
        must run the per-edge route for exact error and
        partial-application semantics.  Calls of at least
        :data:`_GROUPED_MIN` edges make the C(m) inserts and P links as
        grouped passes (:func:`_l_insert_grouped`,
        :func:`_p_link_grouped`), smaller ones per edge; a branch's depth
        is its C(m) insert's plus its endpoints' P links', plus one.
        """
        n = len(edges)
        ids = [e.eid for e in edges]
        if len(set(ids)) != n or len(self._pcol) == 0:
            return False
        slots = self._slots_of(ids)
        if slots is None:
            return False
        carr_np = np.frombuffer(self._card, dtype=np.int32)
        cards = carr_np[slots].astype(np.int64)
        total_c = int(cards.sum())
        if total_c == 0:
            return False
        # Attached edges (in some C(m), and so filed in P) take the
        # per-edge route, which re-stores them (add_cross_edge).
        if not (np.frombuffer(self._cprev, dtype=np.int32)[slots] == _OUT).all():
            return False
        vd_off = np.frombuffer(self._vd_off, dtype=np.int64)
        idx = native.seg_gather_index(vd_off[slots], cards, total_c)
        dflat = np.frombuffer(self._vd_flat, dtype=np.int32)[idx]
        best, ok = native.edit_cross_scan(
            slots,
            cards,
            dflat,
            np.frombuffer(self._pcol, dtype=np.int32),
            np.frombuffer(self._level, dtype=np.int32),
            np.frombuffer(self._type, dtype=np.int32),
            np.frombuffer(self._ownslot, dtype=np.int32),
        )
        if not ok:
            # Some edge has no incident match; the per-edge route raises
            # the exact error after applying the preceding edges.
            return False
        if n >= _GROUPED_MIN:
            nodes, eoff = self._p_nodes(slots, cards)
            best = best.astype(np.int64)
            w_c, d_c = _l_insert_grouped(_views(self._C), best, slots)
            lv = np.frombuffer(self._level, dtype=np.int32)[best]
            w_p, d_p = _p_link_grouped(self._lidx, nodes, dflat, np.repeat(lv, cards))
            max_bd = int((d_c + np.add.reduceat(d_p, eoff)).max()) + 1
            w_rehash = float(w_c.sum() + w_p.sum())
        else:
            # Each edge's C(m) insert and P links, in batch order, as in
            # add_cross_edge.
            C = self._C
            larr = self._level
            P = self._lidx
            vid = self.interner._index
            r = self.rank
            w_rehash = 0.0
            max_bd = 0
            for edge, j, bs in zip(edges, slots.tolist(), best.tolist()):
                wr, bd = _l_insert(C, bs, j)
                wp, dp = _p_link(P, vid, edge.vertices, j * r, larr[bs])
                w_rehash += wr + wp
                bd += dp + 1
                if bd > max_bd:
                    max_bd = bd
        # Every edge pays 1 + cardinality dict_batch work unconditionally,
        # so the batch total collapses to a constant.
        _emit(
            self.ledger,
            max_bd,
            ("dict_batch", float(n + total_c)),
            ("dict_rehash", w_rehash),
            ("add_cross_edge", float(total_c)),
        )
        return True

    def add_cross_edge_batch(self, edges: Sequence[Edge]) -> None:
        """Batched ``add_cross_edge`` over one parallel region: the edit
        kernels for large calls, else (or when the kernel bails out) the
        per-edge ops (:meth:`_ace_acc`), their charges summed and emitted
        once."""
        if not edges:
            return
        if len(edges) >= native.VEC_MIN and self._kernel_add_cross(edges):
            return
        w_rehash = 0.0
        w_card = 0.0
        max_bd = 0
        n = 0
        acc = self._ace_acc
        try:
            for edge in edges:
                wr, card, bd = acc(edge)
                n += 1
                w_rehash += wr
                w_card += card
                if bd > max_bd:
                    max_bd = bd
        finally:
            # Emitted even when an edge raises: the edges before it stay
            # attached and charged, as under parallel_for.
            _emit(
                self.ledger,
                max_bd,
                ("dict_batch", n + w_card),
                ("dict_rehash", w_rehash),
                ("add_cross_edge", w_card),
            )

    def remove_cross_edge_batch(self, edges: Sequence[Edge]) -> None:
        """Batched removeCrossEdge over one parallel region."""
        if not edges:
            return
        w_batch = 0.0
        w_rehash = 0.0
        w_card = 0.0
        max_bd = 0
        slot = self._slot
        for edge in edges:
            wb, wr, card, bd = self._rce_acc(slot[edge.eid], edge)
            w_batch += wb
            w_rehash += wr
            w_card += card
            if bd > max_bd:
                max_bd = bd
        _emit(
            self.ledger,
            max_bd,
            ("dict_batch", w_batch),
            ("dict_rehash", w_rehash),
            ("remove_cross_edge", w_card),
        )

    def detach_unmatched_batch(self, eids: Sequence[EdgeId]) -> None:
        """Detach unmatched deleted edges over one parallel region: a
        cross edge leaves its owner and the P index; a sampled edge
        leaves its owner's S (lazy: the owner's level does not move)."""
        if not eids:
            return
        slot = self._slot
        tarr = self._type
        oslc = self._ownslot
        edges = self._edge
        S = self._S
        w_batch = 0.0
        w_rehash = 0.0
        w_cross = 0.0
        max_bd = 0
        for eid in eids:
            i = slot[eid]
            t = tarr[i]
            if t == _T_CROSS:
                wb, wr, card, bd = self._rce_acc(i, edges[i])
                w_batch += wb
                w_rehash += wr
                w_cross += card
            elif t == _T_SAMPLED:
                wr, bd = _l_delete(S, oslc[i], i)
                w_batch += 1.0
                w_rehash += wr
                tarr[i] = _T_UNSETTLED
                oslc[i] = -1
            else:  # pragma: no cover — structure guarantees settled types
                raise AssertionError(f"unsettled edge {eid} in structure")
            if bd > max_bd:
                max_bd = bd
        _emit(
            self.ledger,
            max_bd,
            ("dict_batch", w_batch),
            ("dict_rehash", w_rehash),
            ("remove_cross_edge", w_cross),
        )

    def sample_discard_self_batch(self, mids: Sequence[EdgeId]) -> None:
        """Discard each match from its own S(m) over one parallel region.

        On the columnar route every singleton S(m) = {m} at the minimum
        capacity (every level-0 match) is emptied by column scatters, at
        branch depth 1 and no rehash; the loop unlinks the rest.
        """
        if not mids:
            return
        max_bd = 0
        loop = mids
        slots = self._slots_of(mids) if len(mids) >= native.VEC_MIN else None
        if slots is not None:
            head, tail, cnt, cap, prev, _ = _views(self._S)
            c = cnt[slots]
            if c.min() >= 0:  # else the loop raises at the first non-match
                single = (c == 1) & (head[slots] == slots) & (cap[slots] == _MIN_CAPACITY)
                if single.any():
                    ss = slots[single]
                    cnt[ss] = 0
                    head[ss] = _NIL
                    tail[ss] = _NIL
                    prev[ss] = _OUT
                    max_bd = 1
                    loop = list(compress(mids, (~single).tolist()))
        slot = self._slot
        scnt = self._scnt
        S = self._S
        w_rehash = 0.0
        for mid in loop:
            i = slot[mid]
            if scnt[i] < 0:
                raise ValueError(f"edge {mid} is not matched")
            wr, bd = _l_delete(S, i, i)
            w_rehash += wr
            if bd > max_bd:
                max_bd = bd
        _emit(self.ledger, max_bd, ("dict_batch", float(len(mids))), ("dict_rehash", w_rehash))

    def samples_of_batch(self, mids: Sequence[EdgeId]) -> List[Edge]:
        """Batched ``samples_of``; returns the concatenated sample edges
        (the scalar call sites flatten with a plain list comp, uncharged).
        Calls of at least :data:`repro.native.VEC_MIN` ids gather the
        S(m) counts and walk only the non-empty lists."""
        if not mids:
            return []
        slots = self._slots_of(mids) if len(mids) >= native.VEC_MIN else None
        if slots is not None:
            cnt = np.frombuffer(self._scnt, dtype=np.int32)[slots]
            if cnt.min() >= 0:  # else the loop raises at the first non-match
                w = float(np.maximum(cnt, 1).sum())
                max_n = max(int(cnt.max()), 2)
                members = _l_concat(self._S, slots[cnt > 0].tolist())
                _emit(self.ledger, log2ceil(max_n), ("dict_elements", w))
                return list(map(self._edge.__getitem__, members))
        slot = self._slot
        scnt = self._scnt
        hs: List[int] = []
        w = 0.0
        max_n = 2
        for mid in mids:
            i = slot[mid]
            n = scnt[i]
            if n < 0:
                raise ValueError(f"edge {mid} is not matched")
            w += float(max(n, 1))
            if n > max_n:
                max_n = n
            hs.append(i)
        members = _l_concat(self._S, hs)
        _emit(self.ledger, log2ceil(max_n), ("dict_elements", w))
        return list(map(self._edge.__getitem__, members))

    def _kernel_remove_match(self, eids: Sequence[EdgeId]) -> Optional[List[Edge]]:
        """Columnar fast path for :meth:`remove_match_batch`.

        Returns the owned-edge list on success, or ``None`` when a
        validation fails — the prelude is pure, so the caller can run the
        per-edge route for exact error and partial-state semantics.
        The column resets (types, owner slots, levels, settle sizes, the
        covers in ``_pcol``, both set headers and the owned edges'
        C-links) and the owned-card work total move into the edit
        kernel.  A count gather finds the matches that own cross edges;
        only they walk C(m) and unlink their owned edges' P nodes
        (:func:`_p_unlink`, in the per-edge order).
        A match with an empty C(m) — most level-0 matches — charges
        ``dict_elements`` work 1 and branch depth 2, with no per-match
        Python.
        """
        n = len(eids)
        ids = list(eids)
        matched = self.matched
        if len(set(ids)) != n or not matched.issuperset(ids):
            return None
        mslots = self._slots_of(ids)
        if mslots is None:
            return None
        S = _views(self._S)
        C = _views(self._C)
        ccnt = C[2][mslots]
        # The matches that need the per-item loop: those owning cross
        # edges, and (in hand-built states only) those with no C(m),
        # count -1.
        busy = np.flatnonzero(ccnt)
        bcnt = ccnt[busy].astype(np.int64)
        own_flat_l = _l_concat(self._C, mslots[busy].tolist())
        own_slots = np.array(own_flat_l, dtype=np.int32)
        carr_np = np.frombuffer(self._card, dtype=np.int32)
        mcards = carr_np[mslots].astype(np.int64)
        total_c = int(mcards.sum())
        vd_off = np.frombuffer(self._vd_off, dtype=np.int64)
        idx = native.seg_gather_index(vd_off[mslots], mcards, total_c)
        mdflat = np.frombuffer(self._vd_flat, dtype=np.int32)[idx]
        tarr_np = np.frombuffer(self._type, dtype=np.int32)
        # Cross-list members are always CROSS-typed, so a match that is
        # MATCHED at batch start cannot be reset by an earlier
        # iteration's owned sweep — the start-state mask equals the
        # per-edge at-turn check.
        premask = tarr_np[mslots] == _T_MATCHED
        w_rm = native.edit_remove_match(
            mslots,
            mcards,
            mdflat,
            premask,
            own_slots,
            tarr_np,
            np.frombuffer(self._ownslot, dtype=np.int32),
            np.frombuffer(self._level, dtype=np.int32),
            np.frombuffer(self._settle, dtype=np.int32),
            carr_np,
            np.frombuffer(self._pcol, dtype=np.int32),
            S,
            C,
        )
        matched.difference_update(ids)
        edge = self._edge
        # Per match: dict_elements work max(c, 1) and branch depth
        # 2·log2ceil(c) plus its owned edges' max unlink depth, each edge
        # paying its endpoints' summed P-unlink depths plus one; a match
        # with no C(m) (count -1) pays no work and depth 1.
        n_empty = n - busy.size
        has = bcnt > 0
        w_elems = float(n_empty + bcnt[has].sum())
        max_d = 2 if n_empty else int(not has.all())
        w_batch = 0.0
        w_rehash = 0.0
        if own_slots.size:
            P = self._lidx
            r = self.rank
            card = self._card
            edge_d = []
            for j in own_flat_l:
                wb, wr, bd = _p_unlink(P, j * r, card[j])
                w_batch += wb
                w_rehash += wr
                edge_d.append(bd + 1)
            c = bcnt[has]
            d_total = np.maximum.reduceat(np.array(edge_d), np.cumsum(c) - c)
            d_total += 2 * np.where(c > 1, _bitlen(c - 1), 1)
            max_d = max(max_d, int(d_total.max()))
        out = list(map(edge.__getitem__, own_flat_l))
        _emit(
            self.ledger,
            max_d,
            ("dict_elements", w_elems),
            ("dict_batch", w_batch),
            ("dict_rehash", w_rehash),
            ("remove_match", w_rm),
        )
        return out

    def remove_match_batch(self, eids: Sequence[EdgeId]) -> List[Edge]:
        """Batched ``remove_match``; returns the concatenated owned edges.
        Same route rule as :meth:`add_cross_edge_batch`."""
        if not eids:
            return []
        if len(eids) >= native.VEC_MIN:
            out = self._kernel_remove_match(eids)
            if out is not None:
                return out
        subs = parallel_for(self.ledger, eids, self.remove_match)
        return [e for sub in subs for e in sub]

    def install_match_batch(self, matches: Sequence) -> List[int]:
        """addMatch(m, S_m) over ``Matched(edge, samples)`` records, as one
        parallel region; returns the new level per match (epoch births
        stay with the caller, which charges nothing for them)."""
        if not matches:
            return []
        slot = self._slot
        tarr = self._type
        oslc = self._ownslot
        pcol = self._pcol
        vid = self.interner._index
        S = self._S
        C = self._C
        alpha = self.alpha
        w_set = 0.0
        w_rehash = 0.0
        w_add = 0.0
        max_bd = 0
        levels: List[int] = []
        for mt in matches:
            edge = mt.edge
            samples = mt.samples
            eid = edge.eid
            i = slot[eid]
            if eid in self.matched:
                raise ValueError(f"edge {eid} is already matched")
            if not any(s.eid == eid for s in samples):
                raise ValueError("a match must belong to its own sample space")
            self.matched.add(eid)
            k = len(samples)
            lg_k = log2ceil(max(k, 2))
            js = list(dict.fromkeys([slot[s.eid] for s in samples]))
            n = len(js)
            bd = lg_k
            cap = _MIN_CAPACITY
            if n > cap * _GROW_AT:
                cap, wr, dg = _grow(n, cap)
                w_rehash += wr
                bd += dg
            _l_build(S, i, js)
            self._scap[i] = cap
            _l_build(C, i, ())
            self._ccap[i] = _MIN_CAPACITY
            self._settle[i] = k
            lvl = level_of(k, alpha)
            self._level[i] = lvl
            for j in js:
                tarr[j] = _T_SAMPLED
                oslc[j] = i
            tarr[i] = _T_MATCHED
            oslc[i] = i
            for v in edge.vertices:
                pcol[vid[v]] = i
            w_set += k
            w_add += k + edge.cardinality
            bd += lg_k
            if bd > max_bd:
                max_bd = bd
            levels.append(lvl)
        _emit(
            self.ledger,
            max_bd,
            ("dict_batch", w_set),
            ("dict_rehash", w_rehash),
            ("add_match", w_add),
        )
        return levels

    def adjust_scan_batch(self, new_matches: Sequence[Edge]) -> List[EdgeId]:
        """Batched adjustCrossEdges scan: for each new match, the cross
        edges sitting below its level around its vertices
        (the dict oracle's ``cross_edges_below`` per vertex),
        concatenated in scan order."""
        if not new_matches:
            return []
        slot = self._slot
        level = self._level
        card = self._card
        vd = self._vd_flat
        vd_off = self._vd_off
        edge = self._edge
        r = self.rank
        B, _, blevel, _, _, bnext, vhead = self._lidx[:7]
        bhead, bcnt, nnext = B[0], B[2], B[5]
        w_elems = 0.0
        w_scan = 0.0
        max_bd = 0
        flat: List[EdgeId] = []
        app = flat.append
        for m_edge in new_matches:
            i = slot[m_edge.eid]
            lvl = level[i]
            off = vd_off[i]
            bd = 0
            for d in vd[off : off + card[i]]:
                start = len(flat)
                b = vhead[d]
                while b >= 0:
                    if blevel[b] < lvl:
                        n = bcnt[b]
                        w_elems += float(n)
                        bd += log2ceil(max(n, 2))
                        j = bhead[b]
                        while j >= 0:
                            app(edge[j // r].eid)
                            j = nnext[j]
                    b = bnext[b]
                n_out = len(flat) - start
                w_scan += float(max(n_out, 1))
                bd += log2ceil(max(n_out, 2))
            if bd > max_bd:
                max_bd = bd
        _emit(self.ledger, max_bd, ("dict_elements", w_elems), ("level_scan", w_scan))
        return flat

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def matched_ids(self) -> List[EdgeId]:
        return sorted(self.matched)

    def matching_edges(self) -> List[Edge]:
        slot = self._slot
        edge = self._edge
        return [edge[slot[eid]] for eid in sorted(self.matched)]

    def all_edges(self) -> List[Edge]:
        edge = self._edge
        return [edge[i] for i in self._slot.values()]

    def num_edges(self) -> int:
        return len(self._slot)

    # ------------------------------------------------------------------ #
    # Snapshot restore (shared with LeveledStructure)
    # ------------------------------------------------------------------ #
    def restore_match(
        self,
        eid: EdgeId,
        samples: Sequence[EdgeId],
        cross: Sequence[EdgeId],
        level: int,
        settle_size: int,
        scap: Optional[int] = None,
        ccap: Optional[int] = None,
    ) -> None:
        slot = self._slot
        i = slot[eid]
        self.matched.add(eid)
        self._type[i] = _T_MATCHED
        oslc = self._ownslot
        oslc[i] = i
        for cols, ids, cap in ((self._S, samples, scap), (self._C, cross, ccap)):
            try:
                js = list(dict.fromkeys(map(slot.__getitem__, ids)))
            except KeyError as exc:
                raise ValueError(
                    f"match {eid}: set member {exc.args[0]!r} is not a registered edge"
                ) from None
            c = self._charge_new_set(len(ids), len(js))
            _l_build(cols, i, js)
            # Each member is claimed for this match; restore_attached
            # checks the claim before it writes the recorded owner.
            for j in js:
                oslc[j] = i
            # Shrink hysteresis makes capacity a history artifact;
            # reinstate the captured value so future rehash charges match
            # the original.
            cols[3][i] = c if cap is None else int(cap)
        self._level[i] = level
        self._settle[i] = settle_size
        pcol = self._pcol
        vid = self.interner._index
        for v in self._verts[i]:
            pcol[vid[v]] = i

    def restore_attached(self, eid: EdgeId, etype: EdgeType, owner: Optional[EdgeId]) -> None:
        i = self._slot[eid]
        if owner is None or owner not in self.matched:
            raise ValueError(f"edge {eid}: owner {owner!r} is not a match")
        oi = self._slot[owner]
        claimed = self._ownslot[i] == oi
        self._ownslot[i] = oi
        self._type[i] = _TYPE_CODE[etype]
        if etype == EdgeType.CROSS:
            if not claimed or self._cprev[i] == _OUT:
                raise ValueError(f"cross edge {eid} missing from C({owner})")
            vs = self._verts[i]
            w_rehash, depth = _p_link(
                self._lidx, self.interner._index, vs, i * self.rank, self._level[oi]
            )
            _emit(self.ledger, depth, ("dict_batch", float(len(vs))), ("dict_rehash", w_rehash))
        elif etype == EdgeType.SAMPLED:
            if not claimed or self._sprev[i] == _OUT:
                raise ValueError(f"sampled edge {eid} missing from S({owner})")
        else:
            raise ValueError(f"edge {eid} has transient type {etype.value!r}")

    def snapshot_columns(self) -> Dict[str, Dict[str, list]]:
        """The structure as the flat parallel columns of a version-3
        snapshot (see :mod:`repro.core.snapshot`), gathered from the slot
        arrays.

        Read-only and uncharged.  The owner column holds edge ids, read
        through the ``_ownslot`` column (covers are not stored: a
        restore re-derives them from the matches).  Allocates one list
        per column.
        """
        slot = self._slot
        edge = self._edge
        eid_of = attrgetter("eid")
        slots = np.fromiter(slot.values(), dtype=np.int64, count=len(slot))
        types = np.frombuffer(self._type, dtype=np.int32)[slots]
        mslots = slots[types == _T_MATCHED]
        live = slots.tolist()
        ms = mslots.tolist()
        # P rows: each P(v) in creation (stamp) order, its buckets in list
        # order; a bucket's vertex is read off its head node.
        B, _, blevel, _, _, bnext, vhead, _, vstamp = self._lidx[:9]
        vh = np.frombuffer(vhead, dtype=np.int32)
        pv = np.flatnonzero(vh >= 0)
        pv = pv[np.argsort(np.frombuffer(vstamp, dtype=np.int64)[pv], kind="stable")]
        order: List[int] = []
        for b in vh[pv].tolist():
            while b >= 0:
                order.append(b)
                b = bnext[b]
        bs = np.array(order, dtype=np.int64)
        r = self.rank
        verts = self._verts
        bh, _, bc, bcap = _views(B[:4])
        P = {
            "vertex": [verts[h // r][h % r] for h in bh[bs].tolist()],
            "level": np.frombuffer(blevel, dtype=np.int32)[bs].tolist(),
            "cap": bcap[bs].tolist(),
            "count": bc[bs].tolist(),
            "members": [edge[j // r].eid for j in _l_concat(B, order)],
        }
        return {
            "edges": {
                "eid": list(slot),
                "card": np.frombuffer(self._card, dtype=np.int32)[slots].tolist(),
                "type": types.tolist(),
                "owner": list(map(self._owner_of, live)),
                "vertices": list(chain.from_iterable(map(self._verts.__getitem__, live))),
            },
            "matches": {
                "level": np.frombuffer(self._level, dtype=np.int32)[mslots].tolist(),
                "settle": np.frombuffer(self._settle, dtype=np.int32)[mslots].tolist(),
                "scap": np.frombuffer(self._scap, dtype=np.int64)[mslots].tolist(),
                "ccap": np.frombuffer(self._ccap, dtype=np.int64)[mslots].tolist(),
                "slen": np.frombuffer(self._scnt, dtype=np.int32)[mslots].tolist(),
                "samples": list(map(eid_of, map(edge.__getitem__, _l_concat(self._S, ms)))),
                "clen": np.frombuffer(self._ccnt, dtype=np.int32)[mslots].tolist(),
                "cross": list(map(eid_of, map(edge.__getitem__, _l_concat(self._C, ms)))),
            },
            "P": P,
        }

    def restore_level_index(self, P: Dict[str, Sequence]) -> None:
        """Overwrite P(v, l) wholesale from the ``P`` columns of
        :meth:`snapshot_columns` (row order, member order and capacities
        included): each row's members are linked in order, which makes
        its bucket (and P(v), stamped in row order) on first use.

        Each bucket is charged as a fresh set build, exactly like the dict
        oracle's ``BatchSet`` rebuild, so ``load_state`` costs the same on
        either backend.  A row naming an edge that is not registered on
        its vertex, or one already filed under that vertex, raises
        ``ValueError``."""
        L = self._lidx
        B, nbkt, blevel, free, clock = L[0], L[1], L[2], L[9], L[10]
        np.frombuffer(B[4], dtype=np.int32)[:] = _OUT
        np.frombuffer(L[6], dtype=np.int32)[:] = _NIL
        np.frombuffer(L[7], dtype=np.int32)[:] = _NIL
        free[:] = range(len(blevel) - 1, -1, -1)
        clock[0] = 0
        vid = self.interner._index
        slot = self._slot
        verts = self._verts
        r = self.rank
        members = P["members"]
        off = 0
        for v, lvl, cap, count in zip(P["vertex"], P["level"], P["cap"], P["count"]):
            keys = members[off : off + count]
            off += count
            uniq = list(dict.fromkeys(keys))
            self._charge_new_set(len(keys), len(uniq))
            lvl = int(lvl)
            d = vid.get(v)
            node = -1
            for eid in uniq:
                i = slot.get(eid)
                try:
                    node = i * r + verts[i].index(v)
                except (TypeError, ValueError):
                    node = -1
                if d is None or node < 0 or B[4][node] != _OUT:
                    raise ValueError(
                        f"P({v!r}, {lvl}): edge {eid!r} is not a registered edge on "
                        f"{v!r}, or is filed there twice"
                    )
                _p_link(L, vid, (v,), node, lvl)
            if node >= 0:
                B[3][nbkt[node]] = int(cap)

    # ------------------------------------------------------------------ #
    # Invariant checking (test-only; never charged to the ledger)
    # ------------------------------------------------------------------ #
    def _checked_list(self, cols, kind: str, mid, i: int) -> List[int]:
        """The members of ``kind``(mid), list ``i``, after checking its
        links against each other, its tail and its count."""
        head, tail, cnt, _, prev, nxt = cols
        n = cnt[i]
        assert n >= 0, f"{kind}({mid}) does not exist"
        out: List[int] = []
        p = _NIL
        j = head[i]
        while j >= 0 and len(out) <= n:  # a cycle stops one past the count
            assert prev[j] == p, f"{kind}({mid}): prev of slot {j} is {prev[j]}, not {p}"
            out.append(j)
            p = j
            j = nxt[j]
        assert len(out) == n, f"{kind}({mid}) links {len(out)} members, counts {n}"
        assert tail[i] == p, f"{kind}({mid}): tail {tail[i]}, last member {p}"
        return out

    def _checked_level_index(self, live: Set[int]) -> Set[int]:
        """Walk every P(v) and every bucket, and return the P nodes filed.

        Each vertex's bucket list and each bucket's member list must be
        well linked (prev/next symmetric, tail last, count the walk's
        length); no bucket is empty, dropped (on the free list) or at a
        level its vertex already has, and every allocated bucket is on
        its vertex's list; each member is a node of a live cross edge,
        owned at its bucket's level, whose vertex is the bucket's; and
        exactly the filed nodes are linked."""
        B, nbkt, blevel, bvert, bprev, bnext, vhead, vtail, _, free, _ = self._lidx
        r = self.rank
        edge = self._edge
        verts = self._verts
        tarr = self._type
        level = self._level
        ownslot = self._ownslot
        dropped = set(free)
        walked: Set[int] = set()
        filed: Set[int] = set()
        for v, d in self.interner._index.items():
            b = vhead[d]
            assert (b < 0) == (vtail[d] < 0), f"P({v!r}): head {b}, tail {vtail[d]}"
            p = _NIL
            lvls: Set[int] = set()
            while b >= 0:
                assert b not in dropped, f"P({v!r}) lists dropped bucket {b}"
                assert b not in walked, f"bucket {b} listed twice"
                walked.add(b)
                lvl = blevel[b]
                assert bprev[b] == p, f"P({v!r}): prev of bucket {b} is {bprev[b]}, not {p}"
                assert bvert[b] == d and lvl not in lvls, (
                    f"P({v!r}): bucket {b} (vertex {bvert[b]}, level {lvl}) misfiled"
                )
                lvls.add(lvl)
                nodes = self._checked_list(B, "P", f"{v!r}, {lvl}", b)
                assert nodes, f"P({v!r}, {lvl}) is empty"
                for j in nodes:
                    i, k = divmod(j, r)
                    assert i in live, f"P({v!r}, {lvl}) holds freed slot {i}"
                    eid = edge[i].eid
                    assert nbkt[j] == b, f"P({v!r}, {lvl}): node {j} names bucket {nbkt[j]}"
                    assert tarr[i] == _T_CROSS, f"P({v!r}, {lvl}) holds non-cross edge {eid}"
                    assert level[ownslot[i]] == lvl, (
                        f"P({v!r}, {lvl}) holds edge {eid} owned at level {level[ownslot[i]]}"
                    )
                    assert k < len(verts[i]) and verts[i][k] == v, (
                        f"P({v!r}, {lvl}) holds non-incident {eid}"
                    )
                    filed.add(j)
                p = b
                b = bnext[b]
            assert vtail[d] == p, f"P({v!r}): tail {vtail[d]}, last bucket {p}"
        assert len(walked) + len(dropped) == len(blevel), (
            f"{len(blevel) - len(walked) - len(dropped)} buckets on no P(v)"
        )
        linked = int((np.frombuffer(B[4], dtype=np.int32) != _OUT).sum())
        assert linked == len(filed), f"{linked} P nodes linked, {len(filed)} filed"
        return filed

    def check_invariants(self) -> None:
        """Definition 4.1 plus structural consistency, over the arrays."""
        slot = self._slot
        edge = self._edge
        verts = self._verts
        tarr = self._type
        level = self._level
        ownslot = self._ownslot
        owner_of = self._owner_of
        matched = self.matched
        pcol = self._pcol
        vid = self.interner._index
        live = set(slot.values())

        # Covers: p(v) is a live match incident on v, and every match
        # covers all its vertices.
        assert len(pcol) == len(vid), (
            f"pcol has {len(pcol)} entries for {len(vid)} interned vertices"
        )
        for v, d in vid.items():
            pi = pcol[d]
            if pi >= 0:
                assert pi in live and edge[pi].eid in matched, (
                    f"p({v!r}) is slot {pi}, not a live match"
                )
                assert v in verts[pi], f"p({v!r}) not incident on {v!r}"
        cover_count: Dict[Vertex, int] = {}
        for mid in matched:
            i = slot[mid]
            assert tarr[i] == _T_MATCHED, (
                f"match {mid} has type {_TYPE_OBJS[tarr[i]]}"
            )
            for v in verts[i]:
                cover_count[v] = cover_count.get(v, 0) + 1
                assert cover_count[v] == 1, f"vertex {v} covered by two matches"
                assert pcol[vid[v]] == i, f"p({v}) != covering match {mid}"

        # Owner slots name registered edges (read as ids from here on).
        for eid, i in slot.items():
            o = ownslot[i]
            assert o == -1 or o in live, f"edge {eid}: owner slot {o} holds no edge"

        # S(m) and C(m): well-linked lists of live edges, each member
        # typed and owned as its list says.
        sample_owner: Dict[EdgeId, EdgeId] = {}
        cross_owner: Dict[int, int] = {}
        for mid in matched:
            i = slot[mid]
            assert level[i] == level_of(self._settle[i], self.alpha), (
                f"match {mid}: level {level[i]} != level_of({self._settle[i]})"
            )
            sj = self._checked_list(self._S, "S", mid, i)
            assert len(sj) <= self._settle[i], (
                f"match {mid}: sample set grew after settling"
            )
            assert i in sj, f"match {mid} missing from own sample space"
            for j in sj:
                assert j in live, f"S({mid}) holds freed slot {j}"
                sid = edge[j].eid
                assert sid not in sample_owner, f"edge {sid} in two sample spaces"
                sample_owner[sid] = mid
                assert owner_of(j) == mid, f"sample {sid}: owner {owner_of(j)} != {mid}"
                assert edge[j].intersects(edge[i]), f"sample {sid} not incident on {mid}"
                if sid != mid:
                    assert tarr[j] == _T_SAMPLED, (
                        f"sample {sid} has type {_TYPE_OBJS[tarr[j]]}"
                    )
            for j in self._checked_list(self._C, "C", mid, i):
                assert j in live, f"C({mid}) holds freed slot {j}"
                assert tarr[j] == _T_CROSS and ownslot[j] == i, (
                    f"C({mid}) holds edge {edge[j].eid} with type "
                    f"{_TYPE_OBJS[tarr[j]]}, owner {owner_of(j)}"
                )
                cross_owner[j] = i

        filed = self._checked_level_index(live)

        for eid, i in slot.items():
            assert tarr[i] != _T_UNSETTLED, f"edge {eid} left unsettled"
            owner = owner_of(i)
            if tarr[i] == _T_SAMPLED:
                assert eid in sample_owner and sample_owner[eid] == owner, (
                    f"sampled edge {eid} not in S({owner})"
                )
            assert owner is not None, f"edge {eid} has no owner"
            assert owner in matched, f"edge {eid} owner {owner} not matched"
            oi = ownslot[i]
            assert edge[i].intersects(edge[oi]) or owner == eid, (
                f"edge {eid} not incident on its owner {owner}"
            )
            if tarr[i] == _T_CROSS:
                assert cross_owner.get(i) == oi, f"cross {eid} missing from C({owner})"
                max_level = max(
                    (level[pcol[vid[v]]] for v in verts[i] if pcol[vid[v]] >= 0),
                    default=-1,
                )
                assert max_level >= 0, f"cross edge {eid} incident on no match"
                assert level[oi] == max_level, (
                    f"cross {eid}: owner level {level[oi]} != max incident {max_level}"
                )
                for k, v in enumerate(verts[i]):
                    assert i * self.rank + k in filed, (
                        f"cross {eid} missing from P({v}, {level[oi]})"
                    )

        # The dense-vertex pool holds each slot's interned vertices.
        for eid, i in slot.items():
            off = self._vd_off[i]
            vs = verts[i]
            pool = self._vd_flat[off : off + len(vs)]
            assert list(pool) == [vid[v] for v in vs], (
                f"edge {eid}: vd pool segment out of sync"
            )


class FlatAdjacency:
    """Slot-indexed dynamic edge/incidence store for the baselines.

    The baseline algorithms previously mirrored the graph in a
    :class:`~repro.hypergraph.hypergraph.Hypergraph` (one dict entry +
    incidence sets per edge).  This store keeps the same interface subset
    on slot-recycled parallel arrays — the same backend discipline as
    :class:`ArrayLeveledStructure` — so E8's baseline-vs-paper wall-clock
    comparisons measure the algorithms, not two different container
    stacks.
    """

    __slots__ = ("_slot", "_free", "_edge", "_verts", "_inc")

    def __init__(self, edges: Sequence[Edge] = ()) -> None:
        self._slot: Dict[EdgeId, int] = {}
        self._free: List[int] = []
        self._edge: List[Optional[Edge]] = []
        self._verts: List[Tuple[Vertex, ...]] = []
        self._inc: Dict[Vertex, Set[EdgeId]] = {}
        for e in edges:
            self.add_edge(e)

    def add_edge(self, edge: Edge) -> None:
        eid = edge.eid
        if eid in self._slot:
            raise KeyError(f"edge {eid} already present")
        if self._free:
            i = self._free.pop()
            self._edge[i] = edge
            self._verts[i] = edge.vertices
        else:
            i = len(self._edge)
            self._edge.append(edge)
            self._verts.append(edge.vertices)
        self._slot[eid] = i
        inc = self._inc
        for v in edge.vertices:
            s = inc.get(v)
            if s is None:
                inc[v] = {eid}
            else:
                s.add(eid)

    def add_edges(self, edges: Sequence[Edge]) -> None:
        for e in edges:
            self.add_edge(e)

    def remove_edge(self, eid: EdgeId) -> Edge:
        i = self._slot.pop(eid)
        edge = self._edge[i]
        for v in self._verts[i]:
            s = self._inc.get(v)
            if s is not None:
                s.discard(eid)
                if not s:
                    del self._inc[v]
        self._edge[i] = None
        self._free.append(i)
        return edge

    def remove_edges(self, eids: Sequence[EdgeId]) -> List[Edge]:
        return [self.remove_edge(eid) for eid in eids]

    def edge(self, eid: EdgeId) -> Edge:
        return self._edge[self._slot[eid]]

    def get(self, eid: EdgeId) -> Optional[Edge]:
        i = self._slot.get(eid)
        return None if i is None else self._edge[i]

    def edges(self) -> List[Edge]:
        edge = self._edge
        return [edge[i] for i in self._slot.values()]

    def edge_ids(self) -> List[EdgeId]:
        return list(self._slot)

    def incident_edge_ids(self, vertex: Vertex) -> Set[EdgeId]:
        return self._inc.get(vertex, set())

    def degree(self, vertex: Vertex) -> int:
        return len(self._inc.get(vertex, ()))

    def vertices(self) -> List[Vertex]:
        return list(self._inc)

    def __contains__(self, eid: EdgeId) -> bool:
        return eid in self._slot

    def __len__(self) -> int:
        return len(self._slot)

    def __iter__(self) -> Iterator[Edge]:
        edge = self._edge
        return (edge[i] for i in self._slot.values())

    def num_edges(self) -> int:
        return len(self._slot)

    def total_cardinality(self) -> int:
        verts = self._verts
        return sum(len(verts[i]) for i in self._slot.values())

    def is_matching(self, eids) -> bool:
        used: Set[Vertex] = set()
        for eid in eids:
            i = self._slot.get(eid)
            if i is None:
                return False
            for v in self._verts[i]:
                if v in used:
                    return False
                used.add(v)
        return True

    def is_maximal_matching(self, eids) -> bool:
        eids = set(eids)
        if not self.is_matching(eids):
            return False
        used: Set[Vertex] = set()
        for eid in eids:
            used.update(self._verts[self._slot[eid]])
        for eid, i in self._slot.items():
            if eid in eids:
                continue
            if not any(v in used for v in self._verts[i]):
                return False
        return True
