"""Level-0 matches by position, and the delete side's bulk resets.

On the columnar route (calls of at least ``repro.native.VEC_MIN``
items) the level-0 settle takes its new matches by position from the
vector matcher, which builds no ``Matched`` record, and the delete side
resets level-0 matches with column scatters and bulk writes
(docs/hotpath.md, "Level-0 matches by position").  Smaller calls keep
the per-item loops.  Three checks:

* the array backend against the dict oracle at batch sizes just below,
  at and above ``VEC_MIN``, on streams that delete matches with and
  without owned cross edges and with singleton and larger S(m): the
  matching, ledger, epochs, every seen vertex's cover and the owner
  pairs after every batch;
* the positional matcher result: no ``Matched`` built for the settle,
  an O(1) ``len``, and ``matches``/``priorities`` equal to the scalar
  path's when read;
* ``EpochTracker.death_batch`` error semantics on the bulk path's
  sizes: an unknown or repeated id raises the per-item loop's
  ``ValueError`` after applying the same deaths.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.dynamic_matching as dmod
from repro import native
from repro.core.arraystore import _l_concat
from repro.core.dynamic_matching import DynamicMatching
from repro.core.epochs import NATURAL, STOLEN, EpochTracker
from repro.hypergraph.edge import Edge
from repro.parallel.ledger import Ledger
from repro.static_matching.parallel_greedy import parallel_greedy_match
from repro.static_matching.result import Matched

SIZES = (native.VEC_MIN - 1, native.VEC_MIN, 4 * native.VEC_MIN)


def _insert_batch(n: int, rng, nv: int, next_eid: int, hub: int):
    """``n`` new edges: a star of 32 on ``hub`` (its match turns heavy,
    and deleting it settles a match with a larger S(m)), the rest on a
    pool of ``nv`` vertices, about as many as a batch, so matches
    collect cross edges."""
    batch = [Edge(next_eid + k, (hub, hub + 1 + k)) for k in range(32)]
    while len(batch) < n:
        u, v = rng.choice(nv, size=2, replace=False)
        batch.append(Edge(next_eid + len(batch), (int(u), int(v))))
    return batch


def _sets(dm: DynamicMatching, eid):
    """(S(m), C(m)) of match ``eid`` as edge-id lists, read uncharged
    from the array backend's list columns."""
    s = dm.structure
    i = s._slot[eid]
    return tuple([s._edge[j].eid for j in _l_concat(cols, (i,))] for cols in (s._S, s._C))


def _delete_batch(dm: DynamicMatching, live: list, n: int, rng):
    """``n`` live ids: the matches with a larger S(m) or a heavy C(m)
    first (up to half the batch), then random fill."""
    first = [
        eid for eid in live
        if dm.is_matched(eid)
        and (len(_sets(dm, eid)[0]) > 1 or len(_sets(dm, eid)[1]) >= 16)
    ][: n // 2]
    chosen = dict.fromkeys(first)
    for i in rng.permutation(len(live)).tolist():
        if len(chosen) == n:
            break
        chosen.setdefault(live[i])
    return list(chosen)


def _seen(arr: DynamicMatching, ref: DynamicMatching) -> list:
    """Every vertex either backend has seen."""
    return sorted(set(arr.structure.interner._index) | set(ref.structure.verts))


def _state(dm: DynamicMatching, vertices: list):
    led = dm.ledger
    return (
        dm.matched_ids(),
        (led.work, led.depth, dict(led.by_tag)),
        dm.tracker.counts(),
        dm.tracker.total_sample(),
        [dm.match_of(v) for v in vertices],
        sorted(dm.structure.owner_pairs()),
    )


class TestArrayVsDictAroundVecMin:
    @pytest.mark.parametrize("n", SIZES)
    def test_bit_identical_after_every_batch(self, n):
        """The delete batches are picked from the array backend's state;
        the two backends see the same stream as long as they agree,
        which is what the test asserts after every batch."""
        rng = np.random.default_rng(n)
        arr = DynamicMatching(rank=2, seed=n, backend="array")
        ref = DynamicMatching(rank=2, seed=n, backend="dict")
        seen = {"owns_cross": 0, "owns_none": 0, "singleton": 0, "larger": 0}
        live: list = []
        next_eid, hub = 0, 10**6
        # Three inserts, then alternating delete/insert: a delete batch
        # takes about a third of the live edges.
        for step in range(13):
            if step < 3 or step % 2 == 0:
                batch = _insert_batch(n, rng, max(2 * n, 48), next_eid, hub)
                next_eid += n
                hub += 10**5
                live.extend(e.eid for e in batch)
                arr.insert_edges(batch)
                ref.insert_edges(batch)
            else:
                eids = _delete_batch(arr, live, n, rng)
                for eid in eids:
                    if arr.is_matched(eid):
                        samples, cross = _sets(arr, eid)
                        seen["owns_cross" if len(cross) else "owns_none"] += 1
                        seen["singleton" if len(samples) == 1 else "larger"] += 1
                gone = set(eids)
                live = [eid for eid in live if eid not in gone]
                arr.delete_edges(eids)
                ref.delete_edges(eids)
            seen_v = _seen(arr, ref)
            assert _state(arr, seen_v) == _state(ref, seen_v), (
                f"step {step} diverged at n={n}"
            )
            arr.check_invariants()
            ref.check_invariants()
        # The stream reaches every form the bulk paths split on.
        assert all(seen.values()), seen


class TestPositionalSettle:
    @pytest.fixture
    def edges(self):
        rng = np.random.default_rng(7)
        pairs = set()
        while len(pairs) < 1024:
            u, v = sorted(int(x) for x in rng.choice(4096, size=2, replace=False))
            pairs.add((u, v))
        return [Edge(i, uv) for i, uv in enumerate(sorted(pairs))]

    @pytest.fixture
    def count_matched(self, monkeypatch):
        calls = [0]
        init = Matched.__init__

        def counting(self, *args, **kwargs):
            calls[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Matched, "__init__", counting)
        return calls

    def test_level0_settle_builds_no_matched(self, edges, count_matched, monkeypatch):
        results = []
        greedy = dmod.parallel_greedy_match

        def keep(*args, **kwargs):
            out = greedy(*args, **kwargs)
            results.append(out)
            return out

        monkeypatch.setattr(dmod, "parallel_greedy_match", keep)
        dm = DynamicMatching(rank=2, seed=3)
        stats = dm.insert_edges(edges)
        (result,) = results
        assert len(result.matches) == stats.new_epochs == dm.matching_size()
        assert count_matched[0] == 0
        dm.check_invariants()

    def test_reads_equal_the_scalar_path(self, edges, count_matched):
        lean = parallel_greedy_match(
            edges, Ledger(), rng=np.random.default_rng(11), collect_samples=False
        )
        assert lean.positions is not None
        assert len(lean.matches) > 0
        assert count_matched[0] == 0
        scalar = parallel_greedy_match(
            edges, Ledger(), rng=np.random.default_rng(11), vectorize=False
        )
        expected = [Matched(edge=m.edge, samples=[m.edge]) for m in scalar.matches]
        assert list(lean.matches) == expected
        assert lean.matches == expected
        assert lean.matches[-1] == expected[-1]
        assert lean.matches[2:5] == expected[2:5]
        assert lean.priorities == scalar.priorities
        assert lean.rounds == scalar.rounds
        assert [edges[p] for p in lean.positions.tolist()] == scalar.matched_edges
        assert scalar.positions is None


def _tracker(n: int) -> EpochTracker:
    t = EpochTracker()
    t.birth_batch((eid, eid % 3, 1 + eid % 4, (2 * eid, 2 * eid + 1)) for eid in range(n))
    t.next_batch()
    return t


def _log_state(t: EpochTracker):
    log = t.log
    return (
        t.counts(),
        t.total_sample(),
        sorted(t.live_ids()),
        list(log.kind),
        list(log.dbatch),
        list(log.dbseq),
        list(log.deid),
        list(log.dverts),
    )


class TestDeathBatchBulk:
    def test_bulk_matches_per_item(self):
        n = 3 * native.VEC_MIN
        bulk, loop = _tracker(n), _tracker(n)
        ids = list(range(5, 5 + 2 * native.VEC_MIN, 2))
        bulk.death_batch(ids, STOLEN)
        for eid in ids:
            loop.death(eid, STOLEN)
        assert _log_state(bulk) == _log_state(loop)

    def test_bulk_after_compaction(self):
        """Live births kept below a compaction's watermark sit in the
        log's sparse prefix; the bulk path finds them by bisection."""
        n = 4 * native.VEC_MIN
        trackers = []
        for _ in range(2):
            t = EpochTracker()
            t.birth_batch((eid, 0, 1, (eid,)) for eid in range(n))
            t.death_batch(list(range(0, n, 4)) + list(range(1, n, 4)), NATURAL)
            t.next_batch()
            assert len(t.log.pseq) > 0
            trackers.append(t)
        bulk, loop = trackers
        ids = list(range(2, n, 4))
        bulk.death_batch(ids, STOLEN)
        for eid in ids:
            loop.death(eid, STOLEN)
        assert _log_state(bulk) == _log_state(loop)

    @pytest.mark.parametrize("bad", ["unknown", "repeated"])
    def test_error_applies_the_same_deaths(self, bad):
        n = 2 * native.VEC_MIN
        bulk, loop = _tracker(n), _tracker(n)
        ids = list(range(native.VEC_MIN + 8))
        ids[40] = 10**9 if bad == "unknown" else ids[12]
        with pytest.raises(ValueError, match="has no live epoch") as got:
            bulk.death_batch(ids, NATURAL)
        with pytest.raises(ValueError) as want:
            for eid in ids:
                loop.death(eid, NATURAL)
        assert str(got.value) == str(want.value)
        assert _log_state(bulk) == _log_state(loop)
        assert bulk.counts()[NATURAL] == 40
