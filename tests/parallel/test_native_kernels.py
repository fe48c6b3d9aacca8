"""The numpy hot kernels: parity, overflow guards, arena, counting.

Four contracts from docs/hotpath.md:

* **Kernel parity** — every kernel in ``repro.native.kernels`` must be
  output-identical to a direct reference implementation.
* **Overflow guards** — :class:`BatchFrame`'s int32 compaction must
  widen transparently when edge/vertex ids straddle the int32 boundary:
  the compact run and the pinned-int64 run are bit-identical through the
  full columnar matcher (matching, sample spaces, ledger).
* **Arena semantics** — :class:`ColumnArena` reuses named buffers
  (zero-copy between batches), keys by dtype so widening never aliases
  a narrow buffer, and grows capacity in powers of two.
* **Counting** — every call through ``repro.native`` is counted in
  ``stats()`` and reported to the timing hook.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.hypergraph.edge import Edge
from repro.native import kernels as npk
from repro.native.arena import ColumnArena
from repro.parallel.frames import BatchFrame
from repro.parallel.ledger import Ledger
from repro.static_matching.parallel_greedy import parallel_greedy_match

I32_MAX = np.iinfo(np.int32).max


# --------------------------------------------------------------------- #
# Reference implementations (deliberately naive)
# --------------------------------------------------------------------- #
def _group_index_ref(keys: np.ndarray):
    """Dict-of-lists grouping, the semantics _group_index must encode."""
    groups: dict = {}
    for i, k in enumerate(keys.tolist()):
        groups.setdefault(k, []).append(i)
    return groups  # first-occurrence key order, ascending indices


def _first_alive_ref(done, csr_edge, boff, bt, bL):
    """Per-vertex linear scan: first j in [t, L) whose edge is alive."""
    out = np.full(bt.size, -1, dtype=np.int64)
    for b in range(bt.size):
        for j in range(int(bt[b]), int(bL[b])):
            if done[csr_edge[int(boff[b]) + j]] == 0:
                out[b] = j
                break
    return out


def _reconstruct_groups(keys, order, starts, rank):
    """Expand a (order, starts, rank) skeleton back to dict-of-lists."""
    spans = np.r_[starts, keys.size]
    out: dict = {}
    for g in rank.tolist():
        idxs = order[spans[g]:spans[g + 1]]
        out[keys[idxs[0]].item()] = idxs.tolist()
    return out


# --------------------------------------------------------------------- #
# Kernel parity vs references
# --------------------------------------------------------------------- #
keys_arrays = st.lists(st.integers(-5, 5), max_size=60).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


class TestNumpyKernelParity:
    @given(keys_arrays.filter(lambda a: a.size > 0))
    def test_group_index(self, keys):
        order, starts, rank = npk.group_index(keys)
        assert _reconstruct_groups(keys, order, starts, rank) == _group_index_ref(keys)
        # stable: indices within each group ascend
        spans = np.r_[starts, keys.size]
        for g in range(starts.size):
            seg = order[spans[g]:spans[g + 1]]
            assert np.all(np.diff(seg) > 0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 6)), max_size=20
        )
    )
    def test_seg_gather_index(self, segs):
        starts = np.array([s for s, _ in segs], dtype=np.int64)
        counts = np.array([c for _, c in segs], dtype=np.int64)
        total = int(counts.sum())
        expect = [s + j for s, c in segs for j in range(c)]
        got = npk.seg_gather_index(starts, counts, total)
        assert got.tolist() == expect

    @given(keys_arrays)
    def test_dedup_first_index(self, items):
        got = npk.dedup_first_index(items)
        seen: dict = {}
        for i, x in enumerate(items.tolist()):
            seen.setdefault(x, i)
        assert got.tolist() == sorted(seen.values())
        # gathering through it yields first-occurrence order
        assert items[got].tolist() == list(seen.keys())

    @given(st.lists(st.booleans(), max_size=60))
    def test_pack_index(self, flags):
        arr = np.array(flags, dtype=bool)
        assert npk.pack_index(arr).tolist() == [
            i for i, f in enumerate(flags) if f
        ]

    @given(st.data())
    def test_first_alive(self, data):
        ne = data.draw(st.integers(1, 10))
        done = np.array(
            data.draw(
                st.lists(st.integers(0, 1), min_size=ne, max_size=ne)
            ),
            dtype=np.uint8,
        )
        nv = data.draw(st.integers(1, 6))
        lists = [
            data.draw(st.lists(st.integers(0, ne - 1), max_size=8))
            for _ in range(nv)
        ]
        bL = np.array([len(l) for l in lists], dtype=np.int64)
        boff = np.zeros(nv, dtype=np.int64)
        np.cumsum(bL[:-1], out=boff[1:])
        csr_edge = np.array(
            [e for l in lists for e in l], dtype=np.int64
        )
        bt = np.array(
            [data.draw(st.integers(0, len(l))) for l in lists],
            dtype=np.int64,
        )
        got = npk.first_alive(done, csr_edge, boff, bt, bL)
        expect = _first_alive_ref(done, csr_edge, boff, bt, bL)
        assert got.tolist() == expect.tolist()

    def test_first_alive_empty(self):
        z = np.zeros(0, dtype=np.int64)
        out = npk.first_alive(np.zeros(0, dtype=np.uint8), z, z, z, z)
        assert out.size == 0


# --------------------------------------------------------------------- #
# Overflow guards: int32 compaction widens transparently
# --------------------------------------------------------------------- #
def _edges_from_pairs(pairs):
    return [Edge(i, vs) for i, vs in enumerate(pairs)]


# Vertex ids straddling the int32 boundary: some below, some above.
straddling_edge_lists = st.lists(
    st.tuples(
        st.integers(I32_MAX - 40, I32_MAX + 40),
        st.integers(I32_MAX - 40, I32_MAX + 40),
    ).filter(lambda p: p[0] != p[1]),
    min_size=1,
    max_size=24,
    unique=True,
)


def _match_fingerprint(res):
    return (
        [
            (m.edge.eid, tuple(sorted(s.eid for s in m.samples)))
            for m in res.matches
        ],
        res.rounds,
        res.priorities,
    )


def _ledger_fingerprint(led):
    return (led.work, led.depth, dict(led.by_tag))


class TestOverflowGuards:
    @given(straddling_edge_lists)
    @settings(max_examples=30, deadline=None)
    def test_frame_widens_and_values_survive(self, pairs):
        edges = _edges_from_pairs(pairs)
        frame = BatchFrame.from_edges(edges)
        # any vertex beyond int32 forces the guard to keep the wide dtype
        needs_wide = max(v for p in pairs for v in p) > I32_MAX
        assert frame.vflat.dtype == (np.int64 if needs_wide else np.int32)
        wide = BatchFrame.from_edges(edges, compact=False)
        assert frame.vflat.tolist() == wide.vflat.tolist()
        assert frame.eids.tolist() == wide.eids.tolist()
        # eids are small here, so the id column does compact
        assert frame.eids.dtype == np.int32

    @given(straddling_edge_lists)
    @settings(max_examples=20, deadline=None)
    def test_matcher_bit_identical_to_int64_run(self, pairs):
        edges = _edges_from_pairs(pairs)
        led_c, led_w = Ledger(), Ledger()
        res_c = parallel_greedy_match(
            edges,
            led_c,
            np.random.default_rng(11),
            vectorize=True,
            frame=BatchFrame.from_edges(edges),
        )
        res_w = parallel_greedy_match(
            edges,
            led_w,
            np.random.default_rng(11),
            vectorize=True,
            frame=BatchFrame.from_edges(edges, compact=False),
        )
        assert _match_fingerprint(res_c) == _match_fingerprint(res_w)
        assert _ledger_fingerprint(led_c) == _ledger_fingerprint(led_w)

    def test_compact_dtype_when_everything_fits(self):
        edges = [Edge(0, (1, 2)), Edge(1, (2, 3))]
        frame = BatchFrame.from_edges(edges)
        assert frame.vflat.dtype == np.int32
        assert frame.eids.dtype == np.int32

    def test_arena_widening_does_not_alias(self):
        arena = ColumnArena()
        small = BatchFrame.from_edges(
            [Edge(0, (1, 2))], arena=arena, tag="t"
        )
        assert small.vflat.dtype == np.int32
        big = BatchFrame.from_edges(
            [Edge(1, (I32_MAX + 1, I32_MAX + 2))], arena=arena, tag="t"
        )
        assert big.vflat.dtype == np.int64
        assert big.vflat.tolist() == [I32_MAX + 1, I32_MAX + 2]


# --------------------------------------------------------------------- #
# ColumnArena semantics
# --------------------------------------------------------------------- #
class TestColumnArena:
    def test_reuse_same_buffer(self):
        arena = ColumnArena()
        a = arena.take("x", 10, np.int64)
        b = arena.take("x", 8, np.int64)
        assert a.base is b.base or a.base is b or b.base is a

    def test_growth_is_pow2_and_monotone(self):
        arena = ColumnArena()
        arena.take("x", 10, np.int64)
        assert arena.nbytes == 64 * 8  # min capacity 64
        arena.take("x", 100, np.int64)
        assert arena.nbytes == 128 * 8
        arena.take("x", 5, np.int64)  # never shrinks
        assert arena.nbytes == 128 * 8

    def test_dtype_keying(self):
        arena = ColumnArena()
        a = arena.take("x", 4, np.int32)
        b = arena.take("x", 4, np.int64)
        a.fill(1)
        b.fill(2)
        assert a.tolist() == [1, 1, 1, 1]
        assert b.tolist() == [2, 2, 2, 2]

    def test_take2d_shape_and_reuse(self):
        arena = ColumnArena()
        m = arena.take2d("ev", 3, 2, np.int64)
        assert m.shape == (3, 2)
        m.fill(7)
        again = arena.take2d("ev", 3, 2, np.int64)
        assert again[0, 0] == 7  # uninitialized contents = previous batch

    def test_clear(self):
        arena = ColumnArena()
        arena.take("x", 4, np.int64)
        arena.clear()
        assert arena.nbytes == 0


# --------------------------------------------------------------------- #
# Call counting
# --------------------------------------------------------------------- #
class TestNativeConfigure:
    """Call counting and the timing hook of :mod:`repro.native`."""

    def test_numpy_mode_counts_dispatches(self):
        native.reset_stats()
        native.pack_index(np.array([True, False, True]))
        assert native.stats()["pack_index"]["calls"] == 1

    def test_timing_hook_fires_and_detaches(self):
        seen = []
        prev = native.set_timing_hook(lambda name, dt: seen.append(name))
        try:
            native.pack_index(np.array([True]))
        finally:
            assert native.set_timing_hook(prev) is not None
        assert seen == ["pack_index"]
