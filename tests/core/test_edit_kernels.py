"""Columnar structure-edit kernels vs the per-edge route and the dict oracle.

The batched edit kernels (``edit_add_level0`` / ``edit_cross_scan`` /
``edit_remove_match`` / ``intern_localize``) are
the columnar twins of ``ArrayLeveledStructure``'s per-edge edits.  Which
one runs is decided per call by size (``repro.native.VEC_MIN``): calls
of at least that many items take the kernels, smaller calls the scalar
matcher and the per-edge edits.  The contract is the same bit-identity
bar as the rest of the fast path: with every call on the kernel route
(constant 1), every call on the per-edge route (constant above any batch
size) and on the dict oracle, a fixed-seed run must agree after every
batch on the matching, every sample space, the live epochs, and the
ledger's work/depth/per-tag totals — including streams whose edge and
vertex ids straddle the int32 boundary (the frame columns widen; the
dense interned ids the kernels consume stay narrow).

Three layers:

* **trace parity** (hypothesis) — random update scripts through the
  kernel route, the per-edge route and the dict oracle, full-state
  fingerprints per batch plus ``check_invariants`` (which asserts the
  columnar mirrors against the dicts);
* **route rule** — calls of 64+ items fire the kernels, a 63-item call
  fires none and still charges exactly what the oracle charges;
* **kernel-level parity** (hypothesis) — ``intern_localize`` vs
  ``np.unique``.  The capacity simulation the edits share with the dict
  oracle's ``BatchSet`` is pinned in ``tests/core/test_set_model.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.dynamic_matching import DynamicMatching
from repro.core.level_structure import EdgeType
from repro.hypergraph.edge import Edge
from repro.native import kernels as npk

#: Edge/vertex id offset that puts ids astride the int32 boundary.
BIG = 2**31 - 2

#: A route constant no test batch reaches: every call per-edge.
PER_EDGE = 10**9

EDIT_KERNELS = (
    "edit_add_level0", "edit_cross_scan", "edit_remove_match",
    "intern_localize",
)


def _kernel_calls():
    stats = native.stats()
    return {k: stats.get(k, {}).get("calls", 0) for k in EDIT_KERNELS}


def _fingerprint(dm):
    led = (dm.ledger.work, dm.ledger.depth, dict(dm.ledger.by_tag))
    matched = dm.matched_ids()
    samples = {
        mid: [e.eid for e in dm.structure.samples_of(mid)] for mid in matched
    }
    epochs = sorted(
        (ep.eid, ep.level, ep.sample_size) for ep in dm.tracker.live_epochs()
    )
    return led, matched, samples, epochs


def _run_script(rank, script, seed, vec_min=None, backend="array"):
    """One DynamicMatching pass with the route constant pinned to
    ``vec_min`` (None keeps the default), fingerprinting after every
    batch."""
    prev = native.VEC_MIN
    if vec_min is not None:
        native.VEC_MIN = vec_min
    try:
        dm = DynamicMatching(rank=rank, seed=seed, backend=backend)
        fps = []
        for kind, payload in script:
            if kind == "insert":
                dm.insert_edges(list(payload))
            else:
                dm.delete_edges(list(payload))
            fps.append(_fingerprint(dm))
            dm.check_invariants()
        return fps, dm
    finally:
        native.VEC_MIN = prev


@st.composite
def _scripts(draw):
    """A random batch script plus its rank, over a small vertex pool
    (small pools force settles, steals and cross-edge churn)."""
    rank = draw(st.integers(2, 3))
    nv = draw(st.integers(5, 12))
    big = draw(st.booleans())
    voff = BIG if big else 0
    eoff = BIG if big else 0
    steps = draw(st.integers(2, 6))
    script = []
    live = []
    next_eid = 0
    for _ in range(steps):
        if not live or draw(st.booleans()) or draw(st.booleans()):
            k = draw(st.integers(1, 5))
            batch = []
            for _ in range(k):
                card = draw(st.integers(1, rank))
                vs = draw(
                    st.lists(
                        st.integers(0, nv - 1),
                        min_size=card, max_size=card, unique=True,
                    )
                )
                batch.append(Edge(eoff + next_eid, [voff + v for v in vs]))
                live.append(eoff + next_eid)
                next_eid += 1
            script.append(("insert", batch))
        else:
            k = draw(st.integers(1, min(len(live), 4)))
            idx = draw(
                st.lists(
                    st.integers(0, len(live) - 1),
                    min_size=k, max_size=k, unique=True,
                )
            )
            eids = [live[i] for i in sorted(idx)]
            for i in sorted(idx, reverse=True):
                live.pop(i)
            script.append(("delete", eids))
    return rank, script


class TestTraceParity:
    @settings(max_examples=40, deadline=None)
    @given(data=_scripts(), seed=st.integers(0, 9))
    def test_edits_on_off_bit_identical(self, data, seed):
        """Kernel route (every call columnar) vs per-edge route vs the
        dict oracle."""
        rank, script = data
        fps_on, dm_on = _run_script(rank, script, seed + 1, vec_min=1)
        fps_off, _ = _run_script(rank, script, seed + 1, vec_min=PER_EDGE)
        fps_dict, _ = _run_script(rank, script, seed + 1, backend="dict")
        for step, (a, b, c) in enumerate(zip(fps_on, fps_off, fps_dict)):
            assert a == b, f"step {step}: kernel route != per-edge route"
            assert a == c, f"step {step}: kernel route != dict oracle"
        assert dm_on.vec_stats["vector_batches"] == len(script)

    def test_kernels_actually_fire(self):
        """At the default route constant, an insert/delete/insert stream
        of 64+ item batches must run through the columnar edit kernels
        (no silent per-edge route)."""
        assert native.VEC_MIN == 64
        edges = [Edge(i, (2 * i, 2 * i + 1)) for i in range(240)]
        script = [
            ("insert", edges[:160]),
            ("delete", [e.eid for e in edges[:80]]),
            ("insert", edges[160:]),
        ]
        before = _kernel_calls()
        _run_script(2, script, 5)
        after = _kernel_calls()
        for k in ("edit_add_level0", "edit_remove_match", "intern_localize"):
            assert after[k] > before[k], f"{k} never fired"


class TestRouteRule:
    def test_63_item_call_takes_per_edge_route(self):
        """A 63-item insert (all of it cross edges) fires no edit kernel
        and charges the dict oracle's ledger bit for bit."""
        assert native.VEC_MIN == 64
        base = [Edge(i, (2 * i, 2 * i + 1)) for i in range(100)]
        extra = [Edge(1000 + i, (2 * i, 2 * i + 3)) for i in range(63)]
        dm = DynamicMatching(rank=2, seed=5)
        oracle = DynamicMatching(rank=2, seed=5, backend="dict")
        for d in (dm, oracle):
            d.insert_edges(base)
        assert _fingerprint(dm) == _fingerprint(oracle)
        before = _kernel_calls()
        for d in (dm, oracle):
            d.insert_edges(extra)
        assert _kernel_calls() == before
        assert all(dm.structure.type_of(e.eid) == EdgeType.CROSS for e in extra)
        assert _fingerprint(dm) == _fingerprint(oracle)
        dm.check_invariants()


# --------------------------------------------------------------------- #
# Kernel-level parity
# --------------------------------------------------------------------- #
class TestInternLocalize:
    @settings(max_examples=80, deadline=None)
    @given(dense=st.lists(st.integers(0, 30), min_size=1, max_size=60))
    def test_matches_np_unique(self, dense):
        dense = np.array(dense, dtype=np.int32)
        vinv, uniq = npk.intern_localize(dense)
        exp_uniq, exp_inv = np.unique(dense, return_inverse=True)
        assert np.array_equal(uniq, exp_uniq)
        assert np.array_equal(vinv.astype(np.int64), exp_inv.astype(np.int64))
