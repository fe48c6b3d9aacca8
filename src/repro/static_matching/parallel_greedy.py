"""Work-efficient parallel greedy maximal matching (Fig. 1, right).

Round-synchronous simulation of the paper's algorithm:

* each vertex ``v`` keeps ``edges(v)`` — its incident edges sorted by
  priority — and a pointer ``top(v)`` to the highest-priority remaining one;
* each edge keeps a counter of how many of its vertices currently have it
  on top; an edge is a *root* when the counter reaches its cardinality;
* each round matches all roots, assigns every remaining edge adjacent to a
  root to the sample space of its minimum-priority adjacent root, removes
  the finished edges, and advances top pointers with ``findNext``
  (``updateTop``), which may surface new roots.

Cost (Theorem 3.3): O(m') expected work — the top pointers slide a total of
O(m') positions (Lemma 3.2) — and O(log^2 m) depth whp: O(log m) rounds
(Fischer–Noever) times O(log m) depth per round.

The MATCHING is identical to
:func:`~repro.static_matching.sequential_greedy.sequential_greedy_match`
run with the same priorities (Blelloch–Fineman–Shun); the test suite
verifies this exhaustively.  The SAMPLE SPACES can differ: this code
follows the paper's pseudocode, which assigns each removed edge to its
minimum-priority adjacent root *of the round it dies in*, whereas the
sequential pass assigns it to the match that kills it in priority order.
Both assignments satisfy Lemma 3.1, and experiment E6 verifies the §3.1
price bound empirically for both (see EXPERIMENTS.md, "Deviations").

Implementation note: all per-edge state lives in flat lists indexed by the
edge's position in the input (``pri_arr``, ``counter``, ``done``, ...), and
the per-vertex incidence/aliveness structures hold indices rather than
``Edge`` objects.  Uniform-depth regions (init, delete) are priced with
:meth:`Ledger.charge_parallel`; only ``updateTop`` — whose ``findNext``
branches charge variable depth — keeps a real parallel region.  The charge
sequence is unchanged from the object-based version.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import native
from repro.hypergraph.edge import Edge, EdgeId, Vertex
from repro.parallel.ledger import Ledger, NullLedger, log2ceil, parallel_for
from repro.parallel.findnext import find_next
from repro.parallel.semisort import group_by
from repro.parallel.sorting import sort_by_priority
from repro.static_matching.result import Matched, MatchResult
from repro.static_matching.sequential_greedy import _assign_priorities


def _ledger_compatible(ledger: Ledger) -> bool:
    """True when the vectorized path's aggregated charge emission is
    indistinguishable from the scalar path's per-call charges.

    A plain :class:`Ledger` only keeps order-insensitive totals (global
    work, per-tag work, max-branch depth), so collapsing a parallel
    region into aggregate charges is exact.  Subclasses may override
    ``charge`` arbitrarily and must take the scalar path;
    :class:`NullLedger` discards everything.
    """
    return type(ledger) is Ledger or isinstance(ledger, NullLedger)


def should_vectorize(
    ledger: Ledger,
    m: int,
    vectorize: Optional[bool] = None,
) -> bool:
    """Dispatch decision shared with the dynamic pipeline's accounting.

    ``vectorize=None`` is auto: the columnar route for calls of at least
    :data:`repro.native.VEC_MIN` edges on a compatible ledger; ``True``
    requests the vector path whenever the ledger permits it; ``False``
    forces scalar.
    """
    if vectorize is False:
        return False
    if not _ledger_compatible(ledger):
        return False
    if vectorize is True:
        return True
    return m >= native.VEC_MIN


def parallel_greedy_match(
    edges: Sequence[Edge],
    ledger: Optional[Ledger] = None,
    rng: Optional[np.random.Generator] = None,
    priorities: Optional[Dict[EdgeId, int]] = None,
    vectorize: Optional[bool] = None,
    frame=None,
    collect_samples: bool = True,
    arena=None,
) -> MatchResult:
    """Round-synchronous random greedy maximal matching.

    Same interface and output as :func:`sequential_greedy_match`; charges
    the parallel model's work and depth to ``ledger``.

    ``vectorize`` picks between this scalar loop and the columnar
    :func:`~repro.static_matching.vector_greedy.vector_greedy_match`
    (None = auto by input size; both produce bit-identical results and
    ledger totals).  ``frame`` optionally supplies a prebuilt
    :class:`~repro.parallel.frames.BatchFrame` over ``edges`` so the
    dynamic pipeline's columns are reused instead of re-extracted.

    ``collect_samples=False`` lets the vector path skip *materializing*
    sample spaces for callers that discard them — the dynamic level-0
    settle, which by the paper's rule resets every new match's sample to
    the singleton.  It then returns a
    :class:`~repro.static_matching.result.PositionalMatchResult`: the
    matched input positions as one column, with each match, read, the
    matched edge alone in its samples.  The matching, the match order
    and every ledger charge (including the group-by that the model still
    prices) are unchanged; the scalar path ignores the flag and always
    materializes.
    """
    if ledger is None:
        ledger = NullLedger()
    edges = list(edges)
    if len({e.eid for e in edges}) != len(edges):
        raise ValueError("duplicate edge ids in input")
    m = len(edges)
    if m == 0:
        return MatchResult(matches=[], rounds=0, priorities={})

    if should_vectorize(ledger, m, vectorize):
        from repro.static_matching.vector_greedy import vector_greedy_match

        return vector_greedy_match(
            edges, ledger, rng, priorities, frame=frame,
            collect_samples=collect_samples, arena=arena,
        )

    pri = _assign_priorities(edges, ledger, rng, priorities)

    # Dense per-edge state, indexed by position in the input list.
    pri_arr: List[int] = [pri[e.eid] for e in edges]
    verts_arr: List[tuple] = [e.vertices for e in edges]
    card_arr: List[int] = [e.cardinality for e in edges]

    # edges(v): incident edge indices sorted by priority.  Per Fig. 1,
    # radix sort E once globally by pi, then append to the per-vertex lists
    # in that order — each list comes out sorted, O(m') total.
    order = sort_by_priority(ledger, list(range(m)), lambda i: pri_arr[i], m)
    vertex_edges: Dict[Vertex, List[int]] = {}
    for i in order:
        for v in verts_arr[i]:
            vertex_edges.setdefault(v, []).append(i)
    top: Dict[Vertex, int] = {v: 0 for v in vertex_edges}
    counter: List[int] = [0] * m
    done: List[bool] = [False] * m
    # alive(v) "linked list": insertion-ordered dict of alive edge indices.
    alive: Dict[Vertex, Dict[int, None]] = {
        v: dict.fromkeys(lst) for v, lst in vertex_edges.items()
    }

    m_prime = sum(card_arr)
    # Distributing the sorted edges into per-vertex lists: O(m') work.
    ledger.charge(work=m_prime, depth=log2ceil(max(m, 2)), tag="par_sort")

    # Initial top counters and root set.
    for lst in vertex_edges.values():
        counter[lst[0]] += 1
    nv = len(vertex_edges)
    ledger.charge_parallel(nv, work=nv, depth=1, tag="par_init")
    roots: List[int] = [i for i in range(m) if counter[i] == card_arr[i]]
    ledger.charge(work=m, depth=log2ceil(max(m, 2)), tag="par_init")

    def alive_neighbors(i: int) -> List[int]:
        """Remaining edges incident on edge ``i`` (excluding itself)."""
        seen = {i}
        out: List[int] = []
        for v in verts_arr[i]:
            for j in alive[v]:
                if j not in seen:
                    seen.add(j)
                    out.append(j)
        return out

    matches: List[Matched] = []
    rounds = 0
    while roots:
        rounds += 1
        # Deterministic processing order (priority) — matches are
        # reported in the same order regardless of root-set iteration
        # order.
        roots.sort(key=lambda i: pri_arr[i])

        # One aliveness sweep per root, shared by the assignment and
        # the removal phases below (no state changes in between).
        nbrs = [alive_neighbors(w) for w in roots]

        # (n, w) pairs: every remaining edge adjacent to a root, plus
        # the root itself, keyed by the non-root edge n.
        pairs = []
        for w, nb in zip(roots, nbrs):
            pairs.append((w, w))
            for n in nb:
                pairs.append((n, w))
        grouped = group_by(ledger, pairs)

        # Each edge n goes to the sample space of its min-priority
        # adjacent root (the root itself trivially maps to itself).
        sample_of: Dict[int, List[int]] = {w: [] for w in roots}
        for n_idx, adj_roots in grouped:
            best = min(adj_roots, key=lambda w: pri_arr[w])
            sample_of[best].append(n_idx)
        ledger.charge(work=len(pairs), depth=log2ceil(max(len(pairs), 2)), tag="par_assign")

        for w in roots:
            samp = sorted(sample_of[w], key=lambda j: (j != w, pri_arr[j]))
            matches.append(
                Matched(edge=edges[w], samples=[edges[j] for j in samp])
            )

        # finished = W ∪ N(W): mark done, unlink, gather touched
        # vertices.
        finished: Dict[int, None] = {}
        for w, nb in zip(roots, nbrs):
            finished[w] = None
            for n in nb:
                finished[n] = None
        touched: Dict[Vertex, None] = {}
        w_delete = 0
        for i in finished:
            done[i] = True
            w_delete += card_arr[i]
            for v in verts_arr[i]:
                touched[v] = None
        ledger.charge_parallel(len(finished), work=w_delete, depth=1, tag="par_delete")
        for i in finished:
            for v in verts_arr[i]:
                alive[v].pop(i, None)

        # updateTop on every touched vertex; new roots surface here.
        new_roots: List[int] = []

        def _update_top(v: Vertex) -> None:
            lst = vertex_edges[v]
            t = top[v]
            if t >= len(lst) or not done[lst[t]]:
                ledger.charge(work=1, depth=1, tag="update_top")
                return
            t = find_next(ledger, t, len(lst), lambda j: not done[lst[j]])
            top[v] = t
            if t == len(lst):
                return
            i_t = lst[t]
            counter[i_t] += 1
            ledger.charge(work=1, depth=1, tag="update_top")
            if counter[i_t] == card_arr[i_t]:
                new_roots.append(i_t)

        parallel_for(ledger, touched, _update_top)
        roots = new_roots

    return MatchResult(matches=matches, rounds=rounds, priorities=pri)
