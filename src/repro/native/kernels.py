"""Pure-numpy bodies of the fast path's hot kernels.

:mod:`repro.native` wraps each function here in a counting timer and
exports it as a module attribute; the callers
(``repro.parallel.semisort``, ``repro.parallel.primitives``, the
columnar greedy matcher, ``BatchFrame``, the vertex interner and the
array structure's batched edits) call those wrappers.

None of these touch the ledger — cost accounting stays at the call
sites, which charge the model work of the operation each kernel
executes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.parallel.dictionary import _MIN_CAPACITY


def group_index(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable grouping skeleton shared by the semisort-family kernels.

    Returns ``(order, starts, rank)`` where ``order`` is the stable sort
    permutation of ``keys``, ``starts`` are the group boundary positions
    in sorted order, and ``rank`` reorders the groups into
    first-occurrence order (stable sort makes ``order[starts[g]]`` the
    earliest original index of group ``g``).
    """
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    edge = np.empty(ks.size, dtype=bool)
    edge[:1] = True
    np.not_equal(ks[1:], ks[:-1], out=edge[1:])
    starts = np.flatnonzero(edge)
    rank = np.argsort(order[starts], kind="stable")
    return order, starts, rank


def seg_gather_index(
    starts: np.ndarray, counts: np.ndarray, total: int
) -> np.ndarray:
    """Concatenated ranges ``[starts[g], starts[g]+counts[g])`` per group.

    The multi-segment gather index used by the semisort permutation
    build and by ``BatchFrame.select``: element ``j`` of group ``g``'s
    output block reads position ``starts[g] + j``.
    """
    if total == 0:
        return np.empty(0, dtype=np.int64)
    counts = counts.astype(np.int64, copy=False)
    cum = np.cumsum(counts)
    idx = np.arange(total, dtype=np.int64)
    idx -= np.repeat(cum - counts, counts)
    idx += np.repeat(starts.astype(np.int64, copy=False), counts)
    return idx


def dedup_first_index(items: np.ndarray) -> np.ndarray:
    """Ascending positions of each value's first occurrence.

    ``items[dedup_first_index(items)]`` is the unique elements in
    first-occurrence order — the ndarray branch of
    :func:`repro.parallel.semisort.remove_duplicates`.
    """
    if items.size == 0:
        return np.empty(0, dtype=np.intp)
    _, first = np.unique(items, return_index=True)
    first.sort()
    return first


def pack_index(flags: np.ndarray) -> np.ndarray:
    """Indices of the true flags (the pack primitive)."""
    return np.flatnonzero(flags)


def first_alive(
    done: np.ndarray,
    csr_edge: np.ndarray,
    boff: np.ndarray,
    bt: np.ndarray,
    bL: np.ndarray,
) -> np.ndarray:
    """First alive position ``j`` in ``[t, L)`` of each vertex's CSR
    list, or ``-1`` when none — the batched execution of ``find_next``.

    Runs the same doubling schedule as the scalar search (round ``k``
    probes the next ``2^(k-1)`` slots of every still-searching vertex).
    The caller derives the model charges from the returned position,
    not from the probe pattern.
    """
    nb = bt.size
    j = np.full(nb, -1, dtype=np.int64)
    active = np.arange(nb, dtype=np.int64)
    k = 1
    while active.size:
        at = bt[active]
        aL = bL[active]
        ws = at + (np.int64(1) << (k - 1)) - 1
        live = ws < aL
        active = active[live]
        if not active.size:
            break
        ws = ws[live]
        we = np.minimum(at[live] + (np.int64(1) << k) - 1, aL[live])
        lens = we - ws
        starts = boff[active] + ws
        total = int(lens.sum())
        cum = np.cumsum(lens)
        idx = np.arange(total, dtype=np.int64)
        idx -= np.repeat(cum - lens, lens)
        idx += np.repeat(starts, lens)
        alive = done[csr_edge[idx]] == 0
        hitpos = np.flatnonzero(alive)
        if hitpos.size:
            seg = np.repeat(np.arange(active.size, dtype=np.int64), lens)
            hseg = seg[hitpos]
            useg, first = np.unique(hseg, return_index=True)
            seg_start = cum - lens
            j[active[useg]] = ws[useg] + hitpos[first] - seg_start[useg]
            keep = np.ones(active.size, dtype=bool)
            keep[useg] = False
            active = active[keep]
        k += 1
    return j


# --------------------------------------------------------------------- #
# Columnar structure-edit kernels (PR 10)
#
# These operate on the int32/int64 edit plane of
# ``repro.core.arraystore.ArrayLeveledStructure`` — numpy views over its
# ``array.array`` columns plus the interned per-vertex cover column
# ``pcol`` (covering match *slot* per dense vertex id, -1 = uncovered).
# Raw vertex/edge ids never reach these kernels: the caller resolves
# them to slots / dense ids first, so int32-straddling ids are handled
# by the interner and the slot table, not here.  Like the skeleton
# kernels above, none of these touch the ledger: the callers reproduce
# the scalar loops' exact charge arithmetic from the values returned.
# --------------------------------------------------------------------- #


def edit_add_level0(
    slots: np.ndarray,
    cards: np.ndarray,
    dflat: np.ndarray,
    tarr: np.ndarray,
    larr: np.ndarray,
    sarr: np.ndarray,
    osl: np.ndarray,
    S: Tuple[np.ndarray, ...],
    C: Tuple[np.ndarray, ...],
    pcol: np.ndarray,
) -> int:
    """Columnar ``add_level0_batch`` body: install level-0 matches.

    ``slots``/``cards`` describe the batch (one fresh match per entry),
    ``dflat`` is the concatenated dense vertex ids in slot order.
    ``S`` and ``C`` are the sample- and cross-list column groups
    ``(head, tail, count, cap, prev, next)``.  Mutates the
    type/level/settle/owner-slot columns, writes S(m) = {m} and an
    empty C(m) for every match, and sets the cover column; returns the
    scalar loop's ``total`` charge term (``n + sum(cards)``).  Vertices
    are pairwise disjoint (a matching), so the scattered writes are
    conflict-free.
    """
    tarr[slots] = 1  # _T_MATCHED
    larr[slots] = 0
    sarr[slots] = 1
    osl[slots] = slots  # a level-0 match owns itself
    head, tail, cnt, cap, prev, nxt = S
    head[slots] = slots  # S(m) = {m}: m is head and tail, no links
    tail[slots] = slots
    cnt[slots] = 1
    cap[slots] = _MIN_CAPACITY
    prev[slots] = -1
    nxt[slots] = -1
    head, tail, cnt, cap = C[:4]
    head[slots] = -1  # C(m) empty
    tail[slots] = -1
    cnt[slots] = 0
    cap[slots] = _MIN_CAPACITY
    pcol[dflat] = np.repeat(slots, cards)
    return int(slots.size + cards.sum())


def edit_cross_scan(
    slots: np.ndarray,
    cards: np.ndarray,
    dflat: np.ndarray,
    pcol: np.ndarray,
    larr: np.ndarray,
    tarr: np.ndarray,
    osl: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Columnar owner scan of ``add_cross_edge_batch``.

    For each edge (CSR segment of ``dflat`` sized by ``cards``), find
    the covering match slot of maximum level, first occurrence winning
    ties — exactly the scalar scan's "first strictly greater" rule.
    When every edge has an owner, marks the batch ``_T_CROSS``, records
    owner slots, and returns ``(best, 1)``.  When any edge has no
    covered vertex, returns ``(all -1, 0)`` WITHOUT mutating anything,
    so the caller can replay the scalar loop for exact error semantics.
    """
    n = slots.size
    pm = pcol[dflat]
    lv = np.where(pm >= 0, larr[np.maximum(pm, 0)], np.int32(-1))
    cards = cards.astype(np.int64, copy=False)
    cum = np.cumsum(cards)
    voff = cum - cards
    segmax = np.maximum.reduceat(lv, voff)
    if not bool((segmax >= 0).all()):
        return np.full(n, -1, dtype=np.int32), 0
    cand = np.flatnonzero(lv == np.repeat(segmax, cards))
    seg = np.repeat(np.arange(n, dtype=np.int64), cards)
    _, first = np.unique(seg[cand], return_index=True)
    best = pm[cand[first]]
    tarr[slots] = 3  # _T_CROSS
    osl[slots] = best
    return best, 1


def edit_remove_match(
    mslots: np.ndarray,
    mcards: np.ndarray,
    mdflat: np.ndarray,
    premask: np.ndarray,
    own_slots: np.ndarray,
    tarr: np.ndarray,
    osl: np.ndarray,
    larr: np.ndarray,
    sarr: np.ndarray,
    card: np.ndarray,
    pcol: np.ndarray,
    S: Tuple[np.ndarray, ...],
    C: Tuple[np.ndarray, ...],
) -> float:
    """Columnar column-resets of ``remove_match_batch``.

    Detaches every owned cross edge (``own_slots``: type, owner slot and
    C-link) and every dying match (``mslots``), clearing covers in the
    cover map ``pcol`` only where the vertex is still covered by its
    dying match (``pcol == slot``, the guard of the scalar
    ``remove_match``) and dropping both set headers (count -1: no set).
    ``premask`` flags matches still typed ``_T_MATCHED`` at batch start
    — the ones whose type/owner the scalar loop resets.  ``S``/``C`` are
    the list column groups, as in :func:`edit_add_level0`.  Returns the
    ``remove_match`` work term (sum of detached cardinalities).
    """
    tarr[own_slots] = 0  # _T_UNSETTLED
    osl[own_slots] = -1
    C[4][own_slots] = -2  # in no C-list
    w_rm = float(card[own_slots].sum() + card[mslots].sum())
    rep = np.repeat(mslots, mcards)
    sel = pcol[mdflat] == rep
    pcol[mdflat[sel]] = -1
    ms = mslots[premask]
    tarr[ms] = 0
    osl[ms] = -1
    larr[mslots] = -1
    sarr[mslots] = 0
    S[2][mslots] = -1
    C[2][mslots] = -1
    return w_rm


def intern_localize(dense: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batch-local relabeling of a dense vertex-id column.

    Returns ``(vinv, uniq)``: local ids in ascending dense-id order and
    the sorted dense ids present.  One sort of the column, so the cost
    is O(n log n) in the batch and independent of how many vertices
    the interner has ever seen.
    """
    uniq, vinv = np.unique(dense, return_inverse=True)
    return vinv, uniq
