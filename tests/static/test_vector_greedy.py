"""Columnar greedy matcher vs the scalar loop: bit-identical everything.

``vector_greedy_match`` is the numpy rewrite of the round-synchronous
matcher that the dynamic fast path dispatches to (docs/hotpath.md).  Its
contract is total observational equivalence with the scalar loop for the
same rng stream: the same matches in the same order, the same sample
spaces, the same round count and priorities, and the same ledger totals
tag by tag.  ``collect_samples=False`` may skip *materializing* sample
spaces (each degenerates to the matched edge itself) but must not change
the matching, the order, or a single charge.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro import native
from repro.parallel.frames import BatchFrame
from repro.parallel.ledger import Ledger, NullLedger
from repro.static_matching.parallel_greedy import (
    parallel_greedy_match,
    should_vectorize,
)
from repro.static_matching.vector_greedy import _gather_roots
from repro.workloads.generators import erdos_renyi_edges, random_hypergraph_edges


def _edges_for(trace: int):
    rng = np.random.default_rng(4000 + trace)
    nv = int(rng.integers(5, 50))
    m = int(rng.integers(1, min(200, nv * (nv - 1) // 2)))
    if trace % 3 == 2:
        return random_hypergraph_edges(nv, m, 3, rng)
    return erdos_renyi_edges(nv, m, rng)


def _run(edges, trace, **kw):
    led = Ledger()
    res = parallel_greedy_match(
        edges, led, rng=np.random.default_rng(trace), **kw
    )
    return res, led


def _fingerprint(result):
    return [
        (m.edge.eid, tuple(s.eid for s in m.samples)) for m in result.matches
    ]


class TestVectorScalarParity:
    def test_forty_random_traces(self):
        """Matching, samples, rounds, priorities, and per-tag ledger
        totals all identical between the scalar and vector paths."""
        for trace in range(40):
            edges = _edges_for(trace)
            scalar, led_s = _run(edges, trace, vectorize=False)
            vector, led_v = _run(edges, trace, vectorize=True)
            assert _fingerprint(scalar) == _fingerprint(vector), f"trace {trace}"
            assert scalar.rounds == vector.rounds, f"trace {trace}"
            assert scalar.priorities == vector.priorities, f"trace {trace}"
            assert (led_s.work, led_s.depth) == (led_v.work, led_v.depth), (
                f"trace {trace}: ledger totals diverged"
            )
            assert dict(led_s.by_tag) == dict(led_v.by_tag), f"trace {trace}"

    def test_frame_reuse_identical(self):
        """A prebuilt BatchFrame must not change results or charges."""
        for trace in range(8):
            edges = _edges_for(trace)
            plain, led_p = _run(edges, trace, vectorize=True)
            framed, led_f = _run(
                edges, trace, vectorize=True, frame=BatchFrame.from_edges(edges)
            )
            assert _fingerprint(plain) == _fingerprint(framed)
            assert (led_p.work, led_p.depth) == (led_f.work, led_f.depth)
            assert dict(led_p.by_tag) == dict(led_f.by_tag)


class TestCollectSamplesFlag:
    def test_matching_and_charges_unchanged(self):
        """collect_samples=False: same matched edges in the same order,
        samples degenerate to the singleton, every charge identical."""
        for trace in range(20):
            edges = _edges_for(trace)
            full, led_full = _run(edges, trace, vectorize=True)
            lean, led_lean = _run(
                edges, trace, vectorize=True, collect_samples=False
            )
            assert [m.edge.eid for m in full.matches] == [
                m.edge.eid for m in lean.matches
            ], f"trace {trace}"
            for m in lean.matches:
                assert [s.eid for s in m.samples] == [m.edge.eid]
            assert lean.rounds == full.rounds
            assert (led_full.work, led_full.depth) == (
                led_lean.work, led_lean.depth
            ), f"trace {trace}: the model still prices the skipped group-by"
            assert dict(led_full.by_tag) == dict(led_lean.by_tag)

    def test_scalar_path_ignores_flag(self):
        edges = _edges_for(5)
        full, led_full = _run(edges, 5, vectorize=False)
        lean, led_lean = _run(edges, 5, vectorize=False, collect_samples=False)
        assert _fingerprint(full) == _fingerprint(lean)
        assert (led_full.work, led_full.depth) == (led_lean.work, led_lean.depth)


class TestShouldVectorize:
    def test_false_forces_scalar(self):
        assert not should_vectorize(Ledger(), 10**6, vectorize=False)

    def test_true_needs_compatible_ledger(self):
        assert should_vectorize(Ledger(), 1, vectorize=True)
        assert should_vectorize(NullLedger(), 1, vectorize=True)

    def test_auto_threshold(self):
        assert native.VEC_MIN == 64
        assert not should_vectorize(Ledger(), 63)
        assert should_vectorize(Ledger(), 64)

    def test_subclass_forces_scalar(self):
        class Sub(Ledger):
            pass

        assert not should_vectorize(Sub(), 10**6, vectorize=True)


# --------------------------------------------------------------------- #
# The per-round gather vs a straight-line reference
# --------------------------------------------------------------------- #
def gather_roots_reference(csr_off, csr_edge, ev, done, roots) -> List[List[int]]:
    """Straight-line reference of ``_gather_roots``: per root, its alive
    neighbours in the scalar matcher's sweep order."""
    out: List[List[int]] = []
    for i in roots:
        seen = {int(i)}
        nbrs: List[int] = []
        for v in ev[i]:
            if v < 0:
                continue
            for j in csr_edge[csr_off[v]:csr_off[v + 1]]:
                j = int(j)
                if not done[j] and j not in seen:
                    seen.add(j)
                    nbrs.append(j)
        out.append(nbrs)
    return out


def _random_instance(rng, nv, m, rank):
    """Random CSR incidence + ev table + done flags, matcher-shaped."""
    verts = [
        sorted(rng.choice(nv, size=rng.integers(2, rank + 1), replace=False))
        for _ in range(m)
    ]
    vertex_edges = {}
    for i in rng.permutation(m):
        for v in verts[i]:
            vertex_edges.setdefault(int(v), []).append(int(i))
    vids = {v: d for d, v in enumerate(vertex_edges)}
    off = np.zeros(len(vids) + 1, dtype=np.int64)
    np.cumsum([len(l) for l in vertex_edges.values()], out=off[1:])
    ce = np.fromiter(
        (i for l in vertex_edges.values() for i in l), np.int64, int(off[-1])
    )
    ev = np.full((m, rank), -1, dtype=np.int64)
    for i, vs in enumerate(verts):
        for j, v in enumerate(vs):
            ev[i, j] = vids[int(v)]
    done = (rng.random(m) < 0.3).astype(np.uint8)
    return off, ce, ev, done


class TestGatherRoots:
    @pytest.mark.parametrize("rank", [2, 3])
    def test_matches_reference(self, rank):
        rng = np.random.default_rng(7 + rank)
        for trial in range(20):
            nv = int(rng.integers(4, 40))
            m = int(rng.integers(1, 120))
            off, ce, ev, done = _random_instance(rng, nv, m, rank)
            k = int(rng.integers(1, m + 1))
            roots = rng.choice(m, size=k, replace=False).astype(np.int64)
            flat, cnts = _gather_roots(off, ce, ev, done, roots, m)
            ref = gather_roots_reference(off, ce, ev, done, roots)
            assert cnts.tolist() == [len(r) for r in ref]
            got, pos = [], 0
            for c in cnts.tolist():
                got.append(flat[pos:pos + c].tolist())
                pos += c
            assert got == ref

    def test_empty_roots(self):
        flat, cnts = _gather_roots(
            np.zeros(1, np.int64),
            np.zeros(0, np.int64),
            np.zeros((0, 2), np.int64),
            np.zeros(0, np.uint8),
            np.zeros(0, np.int64),
            0,
        )
        assert flat.size == 0 and cnts.size == 0
