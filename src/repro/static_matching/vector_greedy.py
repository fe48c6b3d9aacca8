"""Vectorized round-synchronous greedy matcher (the dynamic fast path).

This is :func:`~repro.static_matching.parallel_greedy.parallel_greedy_match`
re-expressed over numpy columns: the per-edge state (priorities,
cardinalities, done flags, counters) and the per-vertex incidence (CSR,
priority-ordered) are dense int64 arrays, the per-round aliveness sweep is
one vectorized gather (``_gather_roots``), and ``updateTop`` runs as a
batched doubling search over all touched vertices at once.

The contract is *bit identity* with the scalar matcher: same matches in
the same order, same sample spaces in the same order, same rounds, same
priorities, and the same ledger totals (global work, per-tag work, total
depth).  Two facts about the algorithm make the vectorization exact
rather than approximate:

* Roots of a round are pairwise non-adjacent (every vertex of a root has
  the root on top, and a vertex has one top), so the per-round group-by
  that assigns each dying edge to its minimum-priority adjacent root
  decomposes into an independent per-edge argmin — a lexsort.

* Every member of a root's sample space has strictly larger priority
  than the root (the root is first-alive on a shared vertex list), so
  the scalar's ``sorted(sample, key=(j != w, pri[j]))`` is a plain
  priority sort with the root first, and the global match order is one
  ``lexsort((pri[member], pri[owner]))``.

Ledger parity for the ``updateTop`` region uses the closed form of the
``find_next`` doubling-search charges (see ``_emit_update_top_charges``):
because every charge in the scalar region is a nonnegative number added
to order-insensitive counters (global work, per-tag work, max branch
depth), the region can be settled with two aggregate charges.  The region
emission is only valid on a ledger whose ``charge`` keeps nothing but
those totals — the dispatcher in ``parallel_greedy`` therefore routes
ledger subclasses to the scalar path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import native
from repro.hypergraph.edge import Edge, EdgeId
from repro.parallel.frames import BatchFrame
from repro.parallel.ledger import Ledger, NullLedger, log2ceil
from repro.parallel.random_perm import random_priorities
from repro.static_matching.result import Matched, MatchResult, PositionalMatchResult
from repro.static_matching.sequential_greedy import _assign_priorities

#: Powers of two for vectorized bit_length: searchsorted(_POW2, x, 'right')
#: equals x.bit_length() for 0 <= x < 2**62 (exact integer comparisons —
#: no float log2 edge cases).
_POW2 = np.left_shift(np.int64(1), np.arange(62, dtype=np.int64))

_I32_MAX = np.iinfo(np.int32).max


def _bit_length(x: np.ndarray) -> np.ndarray:
    return np.searchsorted(_POW2, x, side="right")


def vector_greedy_match(
    edges: List[Edge],
    ledger: Ledger,
    rng: Optional[np.random.Generator],
    priorities: Optional[Dict[EdgeId, int]],
    frame: Optional[BatchFrame] = None,
    collect_samples: bool = True,
    arena=None,
) -> MatchResult:
    """Columnar greedy matcher.  Callers go through
    :func:`~repro.static_matching.parallel_greedy.parallel_greedy_match`,
    which validates the input and decides scalar vs vector dispatch;
    ``edges`` is already a deduplicated non-empty list here.

    ``arena`` (a :class:`repro.native.ColumnArena`) backs the per-call
    scratch columns (``ev``, ``done``, CSR offsets) with reusable
    buffers under ``vg.*`` names — callers that thread a frame built
    from the same arena must use a different tag (the dynamic pipeline
    uses ``frame``/``greedy``).

    With ``collect_samples=False`` the result is a
    :class:`~repro.static_matching.result.PositionalMatchResult`: each
    round's priority-sorted roots, concatenated, are its ``positions``
    column, and no ``Matched`` record is built unless a caller reads
    ``matches``.
    """
    m = len(edges)
    pri_map: Optional[Dict[EdgeId, int]] = None
    if priorities is None:
        # Same charges and same values as _assign_priorities' random
        # path, minus the per-edge dict round-trip: random_priorities
        # already hands back the int64 permutation column.
        pri = random_priorities(ledger, m, rng)
    else:
        pri_map = _assign_priorities(edges, ledger, rng, priorities)
        pri = np.fromiter(
            (pri_map[e.eid] for e in edges), dtype=np.int64, count=m
        )

    if frame is None or len(frame) != m:
        frame = BatchFrame.from_edges(edges, arena=arena, tag="vg.frame")
    cards = frame.cards
    voff = frame.voff
    total = frame.total_cardinality

    # Radix sort by priority (Fig. 1).  Priorities are a permutation of
    # 0..m-1, so the sorted position of edge i IS pri[i]; the counting
    # sort reduces to its charge.
    ledger.charge(
        work=m + m, depth=log2ceil(max(m + m, 2)), tag="counting_sort"
    )

    # CSR incidence, per-vertex lists in priority order: intern vertices,
    # then one sort by (vertex, priority) — the vectorized equivalent of
    # appending to per-vertex lists while scanning edges in sorted order.
    # Compact columns: row/edge indices fit int32 whenever m does (the
    # sort key itself stays int64 — vinv * m + pri can exceed 2^31).
    # intern_local: the structure-attached interner labels by dense id
    # rather than raw vertex id; the labeling differs from np.unique over
    # the raw ids only by a permutation of local ids, which everything
    # below is insensitive to (per-vertex CSR segments are re-sorted by
    # priority, and all outputs are edge-indexed).
    vinv, nv = frame.intern_local()
    idt = np.int32 if m <= _I32_MAX else np.int64
    erow = np.repeat(np.arange(m, dtype=idt), cards)
    ksort = np.argsort(
        vinv.astype(np.int64, copy=False) * np.int64(m) + pri[erow]
    )
    csr_edge = erow[ksort]
    csr_cnt = np.bincount(vinv, minlength=nv)
    if arena is not None:
        csr_off = arena.take("vg.csr_off", nv + 1, np.int64)
        csr_off[0] = 0
    else:
        csr_off = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(csr_cnt, out=csr_off[1:])
    r = int(cards.max()) if m else 1
    evdt = np.int32 if nv <= _I32_MAX else np.int64
    if arena is not None:
        ev = arena.take2d("vg.ev", m, r, evdt)
        ev.fill(-1)
    else:
        ev = np.full((m, r), -1, dtype=evdt)
    ev[erow, np.arange(total, dtype=np.int64) - voff[erow]] = vinv

    ledger.charge(work=total, depth=log2ceil(max(m, 2)), tag="par_sort")

    top = np.zeros(nv, dtype=np.int64)
    counter = np.bincount(csr_edge[csr_off[:-1]], minlength=m)
    ledger.charge_parallel(nv, work=nv, depth=1, tag="par_init")
    roots = np.flatnonzero(counter == cards).astype(np.int64)
    ledger.charge(work=m, depth=log2ceil(max(m, 2)), tag="par_init")

    if arena is not None:
        done = arena.take("vg.done", m, np.uint8)
        done.fill(0)
    else:
        done = np.zeros(m, dtype=np.uint8)

    matches: List[Matched] = []
    chunks: List[np.ndarray] = []
    rounds = 0
    # Mark-scratch uniques: cleared back to False after each use, so the
    # per-round cost is O(|set|) after the one-time allocation — replaces
    # the per-round ``np.unique`` sorts over edge/vertex index sets.
    seen_e = np.zeros(m, dtype=np.bool_)
    seen_v = np.zeros(nv, dtype=np.bool_)
    while roots.size:
        rounds += 1
        roots = roots[np.argsort(pri[roots])]
        k = roots.size

        flat, cnts = _gather_roots(csr_off, csr_edge, ev, done, roots, m)

        P = k + flat.size
        ledger.charge(
            work=max(P, 1), depth=log2ceil(max(P, 2)), tag="group_by"
        )

        # Assign every dying edge to its min-priority adjacent root.
        # The model prices the assignment whether or not the sample
        # spaces get materialized, so the charge is unconditional.
        if collect_samples and flat.size:
            owners_n = np.repeat(roots, cnts)
            o2 = np.lexsort((pri[owners_n], flat))
            nf = flat[o2]
            first = np.flatnonzero(np.r_[True, nf[1:] != nf[:-1]])
            uniq_n = nf[first]
            best_w = owners_n[o2][first]
        else:
            uniq_n = flat
            best_w = flat
        ledger.charge(
            work=P, depth=log2ceil(max(P, 2)), tag="par_assign"
        )

        if collect_samples:
            # Global match construction: one lexsort groups members
            # under their owner root (owners in priority order == this
            # round's match order) with the root first in each sample.
            members = np.concatenate([roots, uniq_n])
            owners = np.concatenate([roots, best_w])
            mo = np.lexsort((pri[members], pri[owners]))
            mm = members[mo].tolist()
            ow = pri[owners][mo]
            bounds = np.flatnonzero(np.r_[True, ow[1:] != ow[:-1]])
            spans = np.r_[bounds, len(mm)].tolist()
            append = matches.append
            for gi in range(len(spans) - 1):
                grp = mm[spans[gi]:spans[gi + 1]]
                append(
                    Matched(
                        edge=edges[grp[0]],
                        samples=[edges[i] for i in grp],
                    )
                )
        else:
            # Roots are already in priority order — identical match
            # order without grouping the members.  Samples degenerate
            # to the matched edge (the caller resets them anyway), so
            # the round's roots are its matches, by position.
            chunks.append(roots)

        # finished = W ∪ N(W); roots never appear in neighbor lists
        # (pairwise non-adjacent), so the union is a disjoint concat.
        if flat.size:
            seen_e[flat] = True
            uniq_flat = np.flatnonzero(seen_e)
            seen_e[uniq_flat] = False
            fin = np.concatenate([roots, uniq_flat])
        else:
            fin = roots
        w_delete = int(cards[fin].sum())
        ledger.charge_parallel(
            fin.size, work=w_delete, depth=1, tag="par_delete"
        )
        done[fin] = 1

        fv = ev[fin]
        sel = fv[fv >= 0]
        seen_v[sel] = True
        touched = np.flatnonzero(seen_v)
        seen_v[touched] = False

        roots = _update_top_region(
            ledger, touched, csr_off, csr_edge, done, top, counter, cards
        )

    if not collect_samples:
        positions = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        return PositionalMatchResult(edges, positions, rounds, pri, pri_map)
    if pri_map is None:
        pri_map = dict(zip((e.eid for e in edges), pri.tolist()))
    return MatchResult(matches=matches, rounds=rounds, priorities=pri_map)


def _gather_roots(
    csr_off: np.ndarray,
    csr_edge: np.ndarray,
    ev: np.ndarray,
    done: np.ndarray,
    roots: np.ndarray,
    m: int,
):
    """One round's aliveness sweep: the alive neighbours of every root.

    ``csr_off``/``csr_edge`` is the priority-ordered incidence (edges on
    dense vertex ``v`` are ``csr_edge[csr_off[v]:csr_off[v+1]]``), ``ev``
    the per-edge dense vertex ids padded with ``-1``, ``done`` the uint8
    removed flags.  Returns ``(flat, counts)``: the concatenated neighbour
    lists and the per-root lengths, roots in input order.  Per root the
    order is the scalar matcher's alive-list sweep: vertices in ``ev`` row
    order, per-vertex edges in CSR order, duplicates collapsed to their
    first occurrence, the root excluded.
    """
    k = int(roots.shape[0])
    if k == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)

    vs = ev[roots]                                    # (k, r) dense vertex ids
    vmask = vs >= 0
    vflat = vs[vmask]                                 # root-major, vertex order
    rootpos = np.broadcast_to(
        np.arange(k, dtype=np.int64)[:, None], vs.shape
    )[vmask]

    starts = csr_off[vflat]
    counts = csr_off[vflat + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.zeros(k, np.int64)

    # Vectorized multi-segment gather: for each incident vertex, the CSR
    # slice [start, start+count), laid out in segment order.
    cum = np.cumsum(counts)
    idx = np.arange(total, dtype=np.int64)
    idx -= np.repeat(cum - counts, counts)
    idx += np.repeat(starts, counts)
    edges = csr_edge[idx]
    root_of = np.repeat(rootpos, counts)

    keep = (done[edges] == 0) & (edges != roots[root_of])
    edges = edges[keep]
    root_of = root_of[keep]
    if edges.size:
        # First-occurrence dedup per root, preserving the sweep order:
        # unique() finds each (root, edge) key's first position; sorting
        # those positions restores the original (root-major) order.
        key = root_of * np.int64(m) + edges
        _, first = np.unique(key, return_index=True)
        first.sort()
        edges = edges[first]
        root_of = root_of[first]
    cnts = np.bincount(root_of, minlength=k).astype(np.int64)
    return edges.astype(np.int64, copy=False), cnts


def _update_top_region(
    ledger: Ledger,
    touched: np.ndarray,
    csr_off: np.ndarray,
    csr_edge: np.ndarray,
    done: np.ndarray,
    top: np.ndarray,
    counter: np.ndarray,
    cards: np.ndarray,
) -> np.ndarray:
    """Batched ``updateTop`` over all touched vertices; returns new roots.

    Mutates ``top`` and ``counter`` exactly as the scalar per-vertex loop,
    and settles the whole parallel region's ledger cost with aggregate
    charges whose totals equal the scalar region's: per-branch work sums
    per tag, and the region contributes the max branch depth.
    """
    if touched.size == 0:
        return np.empty(0, dtype=np.int64)

    off = csr_off[touched]
    L = csr_off[touched + 1] - off
    t = top[touched]
    in_range = t < L
    top_edge = csr_edge[off + np.minimum(t, L - 1)]
    case_b = in_range & (done[top_edge] == 1)
    n_a = int(touched.size - np.count_nonzero(case_b))

    new_roots = np.empty(0, dtype=np.int64)
    w_fn = 0
    n_hit = 0
    region_depth = 1.0 if n_a else 0.0

    if np.any(case_b):
        boff = off[case_b]
        bt = t[case_b]
        bL = L[case_b]
        j = native.first_alive(done, csr_edge, boff, bt, bL)
        hit = j >= 0
        top[touched[case_b]] = np.where(hit, j, bL)

        D = bL - bt
        if np.any(hit):
            d = j[hit] - bt[hit]
            kstar = _bit_length(d + 1)
            half = np.int64(1) << (kstar - 1)
            w_bin = np.minimum(half, D[hit] - half + 1)
            # find_next, hit: pre-hit windows (half - 1 probes) + the hit
            # window probe + the binary-search charge (w_bin each); depth
            # is one per doubling round plus the binary search.
            fn_w = half - 1 + 2 * w_bin
            fn_d = kstar + np.maximum(_bit_length(np.maximum(w_bin - 1, 1)), 1)
            w_fn += int(fn_w.sum())
            n_hit = int(np.count_nonzero(hit))
            region_depth = max(region_depth, float(fn_d.max() + 1))

            ie = csr_edge[boff[hit] + j[hit]]
            inc_full = np.bincount(ie, minlength=counter.size)
            ue = np.flatnonzero(inc_full)
            inc = inc_full[ue]
            pre = counter[ue]
            counter[ue] = pre + inc
            new_roots = ue[
                (pre < cards[ue]) & (pre + inc >= cards[ue])
            ].astype(np.int64, copy=False)
        if not np.all(hit):
            # find_next, exhausted: the windows tile [t, L) exactly.
            Dn = D[~hit]
            w_fn += int(Dn.sum())
            region_depth = max(region_depth, float(_bit_length(Dn).max()))

    if w_fn:
        ledger.charge(work=w_fn, depth=0.0, tag="find_next")
    w_up = n_a + n_hit
    if w_up:
        ledger.charge(work=w_up, depth=region_depth, tag="update_top")
    elif region_depth:
        ledger.charge(work=0.0, depth=region_depth)
    return new_roots
