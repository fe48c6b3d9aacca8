"""Edge cases and failure injection for the dynamic matching core.

Covers inputs at the boundary of the model (rank-1 edges, parallel
hyperedges, single-vertex overlap patterns, giant batches, pathological
streams) and verifies the invariant checker actually *catches* each class
of corruption — a checker that never fires is worthless as evidence.
"""

import numpy as np
import pytest

from repro.core.arraystore import _NIL, _OUT, _T_CROSS, _l_concat, _l_delete
from repro.core.dynamic_matching import DynamicMatching
from repro.core.level_structure import EdgeType
from repro.hypergraph.edge import Edge
from repro.parallel.ledger import Ledger, NullLedger
from repro.workloads.generators import complete_graph_edges, erdos_renyi_edges


class TestBoundaryInputs:
    def test_rank_one_edges(self):
        """Singleton hyperedges: each covers one vertex; two singletons on
        the same vertex conflict."""
        dm = DynamicMatching(rank=1, seed=0)
        dm.insert_edges([Edge(0, (5,)), Edge(1, (5,)), Edge(2, (6,))])
        dm.check_invariants()
        assert len(dm.matched_ids()) == 2  # one of {0,1}, plus 2
        dm.delete_edges([0, 1, 2])
        assert len(dm) == 0

    def test_parallel_hyperedges(self):
        """Distinct edges over the identical vertex set."""
        dm = DynamicMatching(rank=3, seed=0)
        dm.insert_edges([Edge(i, (1, 2, 3)) for i in range(6)])
        dm.check_invariants()
        assert len(dm.matched_ids()) == 1
        # delete the matched copy repeatedly; another copy must take over
        for _ in range(5):
            dm.delete_edges(dm.matched_ids())
            dm.check_invariants()
            if len(dm) == 0:
                break
            assert len(dm.matched_ids()) == 1

    def test_complete_graph_churn(self):
        dm = DynamicMatching(rank=2, seed=1)
        edges = complete_graph_edges(12)
        dm.insert_edges(edges)
        dm.check_invariants()
        rng = np.random.default_rng(2)
        ids = [e.eid for e in edges]
        rng.shuffle(ids)
        for i in range(0, len(ids), 11):
            dm.delete_edges(ids[i : i + 11])
            dm.check_invariants()

    def test_single_giant_batch(self):
        edges = erdos_renyi_edges(100, 3000, np.random.default_rng(3))
        dm = DynamicMatching(rank=2, seed=4)
        dm.insert_edges(edges)
        dm.check_invariants()
        dm.delete_edges([e.eid for e in edges])
        assert len(dm) == 0
        dm.check_invariants()

    def test_many_single_edge_batches(self):
        dm = DynamicMatching(rank=2, seed=5)
        edges = erdos_renyi_edges(20, 80, np.random.default_rng(6))
        for e in edges:
            dm.insert_edge(e)
        for e in edges:
            dm.delete_edge(e.eid)
        assert len(dm) == 0
        assert len(dm.batch_stats) == 160

    def test_reinsert_same_id_after_delete(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([Edge(0, (1, 2))])
        dm.delete_edges([0])
        dm.insert_edges([Edge(0, (3, 4))])  # id reuse after deletion is legal
        assert dm.matched_ids() == [0]
        dm.check_invariants()

    def test_alternating_insert_delete_same_vertices(self):
        """Thrash one vertex pair through many epochs."""
        dm = DynamicMatching(seed=7)
        for i in range(30):
            dm.insert_edges([Edge(i, (1, 2))])
            dm.delete_edges([i])
        assert len(dm) == 0
        assert dm.tracker.counts()["natural"] == 30

    def test_empty_delete_batch(self):
        dm = DynamicMatching(seed=0)
        stats = dm.delete_edges([])
        assert stats.batch_size == 0
        dm.check_invariants()

    def test_interleaved_empty_batches(self):
        dm = DynamicMatching(seed=0)
        dm.insert_edges([])
        dm.insert_edges([Edge(0, (1, 2))])
        dm.delete_edges([])
        dm.delete_edges([0])
        assert len(dm) == 0


def _built():
    dm = DynamicMatching(seed=0)
    dm.insert_edges(
        [Edge(0, (1, 2)), Edge(1, (2, 3)), Edge(2, (3, 4)), Edge(3, (4, 5))]
    )
    dm.check_invariants()
    return dm


class TestFailureInjection:
    """Corrupt the array backend's columns in targeted ways; the checker
    must fire."""

    @staticmethod
    def _cross_eid(dm):
        return next(
            e.eid for e in dm.structure.all_edges() if dm.edge_type(e.eid) == EdgeType.CROSS
        )

    def test_detects_vertex_pointer_corruption(self):
        dm = _built()
        s = dm.structure
        v = s.edge_of(dm.matched_ids()[0]).vertices[0]
        s._pcol[s.interner.get(v)] = -1
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_type_corruption(self):
        dm = _built()
        s = dm.structure
        s._type[s._slot[dm.matched_ids()[0]]] = _T_CROSS
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_orphaned_owner(self):
        """An owner that is registered but is not a match."""
        dm = _built()
        s = dm.structure
        cross = self._cross_eid(dm)
        other = next(eid for eid in s._slot if eid != cross and not dm.is_matched(eid))
        s._ownslot[s._slot[cross]] = s._slot[other]
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_cross_set_desync(self):
        """A cross edge unlinked from C(owner) but still typed and owned
        as cross."""
        dm = _built()
        s = dm.structure
        j = s._slot[self._cross_eid(dm)]
        _l_delete(s._C, s._ownslot[j], j)
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_sample_set_desync(self):
        dm = _built()
        s = dm.structure
        i = s._slot[dm.matched_ids()[0]]
        _l_delete(s._S, i, i)  # match must own itself
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_broken_set_link(self):
        """A C(m) member whose next link points back at itself: the walk
        must stop and fire, not loop."""
        dm = _built()
        s = dm.structure
        j = s._slot[self._cross_eid(dm)]
        s._cnext[j] = j
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_set_count_off_by_one(self):
        dm = _built()
        s = dm.structure
        s._ccnt[s._ownslot[s._slot[self._cross_eid(dm)]]] += 1
        with pytest.raises(AssertionError):
            dm.check_invariants()

    @classmethod
    def _filed(cls, dm):
        """The level index, a cross edge's first P node and its bucket."""
        s = dm.structure
        node = s._slot[cls._cross_eid(dm)] * s.rank
        return s._lidx, node, s._lidx[1][node]

    def test_detects_broken_level_index_link(self):
        """A P node whose next link points back at itself: the bucket
        walk must stop and fire, not loop."""
        dm = _built()
        P, node, _ = self._filed(dm)
        P[0][5][node] = node
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_bucket_count_off_by_one(self):
        dm = _built()
        P, _, b = self._filed(dm)
        P[0][2][b] += 1
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_dropped_bucket_left_on_its_vertex(self):
        """A bucket emptied and freed, as a drop does, but left on its
        vertex's bucket list."""
        dm = _built()
        P, _, b = self._filed(dm)
        B = P[0]
        for node in _l_concat(B, (b,)):
            B[4][node] = _OUT
        B[0][b] = B[1][b] = _NIL
        B[2][b] = 0
        P[9].append(b)
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_level_drift(self):
        dm = _built()
        s = dm.structure
        s._level[s._slot[dm.matched_ids()[0]]] += 1
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_tracker_desync(self):
        dm = _built()
        mid = dm.matched_ids()[0]
        dm.tracker.death(mid, "natural")  # tracker thinks the epoch died
        with pytest.raises(AssertionError):
            dm.check_invariants()

    def test_detects_matching_conflict(self):
        dm = _built()
        # force a second "match" adjacent to an existing one
        dm.structure.matched.add(self._cross_eid(dm))
        with pytest.raises(AssertionError):
            dm.check_invariants()


class TestErrorRecovery:
    """Failed validation must not half-apply a batch."""

    def test_failed_insert_leaves_state_clean(self):
        dm = DynamicMatching(rank=2, seed=0)
        dm.insert_edges([Edge(0, (1, 2))])
        with pytest.raises(KeyError):
            dm.insert_edges([Edge(5, (7, 8)), Edge(0, (9, 10))])  # 0 duplicate
        # edge 5 must not have been half-registered
        assert 5 not in dm
        dm.check_invariants()

    def test_failed_delete_leaves_state_clean(self):
        dm = DynamicMatching(rank=2, seed=0)
        dm.insert_edges([Edge(0, (1, 2))])
        with pytest.raises(KeyError):
            dm.delete_edges([0, 99])  # 99 absent
        assert 0 in dm
        dm.check_invariants()

    def test_rank_violation_rejects_whole_batch(self):
        dm = DynamicMatching(rank=2, seed=0)
        with pytest.raises(ValueError):
            dm.insert_edges([Edge(0, (1, 2)), Edge(1, (3, 4, 5))])
        assert 0 not in dm
        dm.check_invariants()


class TestWideVertexIds:
    """Vertex ids outside int64 fit no raw-id frame column; the array
    backend must still accept them exactly as the dict oracle does (same
    matching, same ledger), with no partial mutation."""

    BASE = 2**64

    def _stream(self):
        rng = np.random.default_rng(17)
        wide = [self.BASE + 3 * i for i in range(120)] + [-(2**70) - i for i in range(30)]
        plain = list(range(150))

        def edges(lo, hi, pool):
            return [
                Edge(i, rng.choice(pool, size=2, replace=False).tolist())
                for i in range(lo, hi)
            ]

        # A small (scalar-route) batch introduces wide vertices first, so
        # later large batches and delete pools meet them already interned.
        mixed = wide + plain
        return [
            ("insert", edges(0, 12, wide)),
            ("insert", edges(12, 311, mixed)),
            ("delete", list(range(0, 311, 2))),
            ("insert", edges(311, 600, mixed)),
            ("delete", list(range(1, 600, 3))),
        ]

    def _run(self, algo):
        trail = []
        live = set()
        for kind, items in self._stream():
            if kind == "insert":
                algo.insert_edges(items)
                live.update(e.eid for e in items)
            else:
                items = [eid for eid in items if eid in live]
                algo.delete_edges(items)
                live.difference_update(items)
            algo.check_invariants()
            led = algo.ledger
            trail.append((sorted(algo.matched_ids()), led.work, led.depth, dict(led.by_tag)))
        return trail

    def test_array_matches_dict_oracle(self):
        runs = [self._run(DynamicMatching(rank=2, seed=5, backend=b)) for b in ("array", "dict")]
        assert runs[0] == runs[1]

    def test_array_accepts_a_wide_batch_whole(self):
        dm = DynamicMatching(rank=2, seed=5)
        batch = [Edge(i, (self.BASE + 2 * i, self.BASE + 2 * i + 1)) for i in range(299)]
        dm.insert_edges(batch)
        dm.check_invariants()
        assert len(dm.matched_ids()) == 299
        assert dm.structure.interner.wide

    def test_sharded_k2_inline_matches_dict_shards(self):
        from repro.sharding import ShardedMatching

        runs = []
        for backend in ("array", "dict"):
            with ShardedMatching(shards=2, rank=2, seed=5, backend=backend,
                                 transport="inline") as r:
                runs.append(self._run(r))
        assert runs[0] == runs[1]


class TestWideEdgeIds:
    """Edge ids outside int64 fit no raw-id frame column either: the
    array backend flags them when the batch registers, before any
    mutation, and then matches the dict oracle (same matching, same
    ledger) on the per-edge route."""

    BASES = (2**64, -(2**63) - 1 - 10_000)

    def _stream(self, base):
        rng = np.random.default_rng(23)

        def edges(lo, hi):
            return [
                Edge(base + i, rng.choice(200, size=2, replace=False).tolist())
                for i in range(lo, hi)
            ]

        return [
            ("insert", edges(0, 299)),
            ("delete", [base + i for i in range(0, 299, 2)]),
            ("insert", edges(299, 600)),
            ("delete", [base + i for i in range(1, 600, 3)]),
        ]

    def _run(self, algo, base):
        trail = []
        live = set()
        for kind, items in self._stream(base):
            if kind == "insert":
                algo.insert_edges(items)
                live.update(e.eid for e in items)
            else:
                items = [eid for eid in items if eid in live]
                algo.delete_edges(items)
                live.difference_update(items)
            algo.check_invariants()
            led = algo.ledger
            trail.append((sorted(algo.matched_ids()), led.work, led.depth, dict(led.by_tag)))
        return trail

    @pytest.mark.parametrize("base", BASES)
    def test_array_matches_dict_oracle(self, base):
        runs = [
            self._run(DynamicMatching(rank=2, seed=5, backend=b), base)
            for b in ("array", "dict")
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("base", BASES)
    def test_array_accepts_a_wide_batch_whole(self, base):
        dm = DynamicMatching(rank=2, seed=5)
        dm.insert_edges([Edge(base + i, (2 * i, 2 * i + 1)) for i in range(299)])
        dm.check_invariants()
        assert len(dm.matched_ids()) == 299
        assert dm.structure.interner.wide

    def test_restored_copy_keeps_the_per_edge_route(self):
        from repro.core.snapshot import load_state, save_state

        base = self.BASES[0]
        dm = DynamicMatching(rank=2, seed=5)
        dm.insert_edges([Edge(base + i, (2 * i, 2 * i + 1)) for i in range(10)])
        copy = load_state(save_state(dm), backend="array")
        assert copy.structure.interner.wide
        copy.insert_edges([Edge(base + i, (2 * i, 2 * i + 1)) for i in range(10, 200)])
        copy.check_invariants()

    @pytest.mark.parametrize("base", BASES)
    def test_sharded_k2_inline_matches_dict_shards(self, base):
        from repro.sharding import ShardedMatching

        runs = []
        for backend in ("array", "dict"):
            with ShardedMatching(shards=2, rank=2, seed=5, backend=backend,
                                 transport="inline") as r:
                runs.append(self._run(r, base))
        assert runs[0] == runs[1]


class TestLedgerTypes:
    """The array backend applies its charges by direct field arithmetic,
    exact only for the base Ledger; the dict oracle keeps the charge()
    protocol for any ledger."""

    class _Counting(Ledger):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def charge(self, work=0.0, depth=0.0, tag=None):
            self.calls += 1
            super().charge(work, depth, tag)

    @pytest.mark.parametrize("ledger_cls", [NullLedger, _Counting])
    def test_array_backend_rejects_other_ledgers(self, ledger_cls):
        with pytest.raises(TypeError, match="plain Ledger"):
            DynamicMatching(rank=2, seed=0, ledger=ledger_cls())

    @pytest.mark.parametrize("ledger_cls", [NullLedger, _Counting])
    def test_dict_backend_accepts_them(self, ledger_cls):
        ledger = ledger_cls()
        dm = DynamicMatching(rank=2, seed=0, ledger=ledger, backend="dict")
        dm.insert_edges(erdos_renyi_edges(30, 80, np.random.default_rng(1)))
        dm.delete_edges(list(range(0, 80, 3)))
        dm.check_invariants()
        if ledger_cls is NullLedger:
            assert ledger.work == 0
        else:
            assert ledger.calls > 0 and ledger.work > 0
