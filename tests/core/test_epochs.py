"""Unit tests for the epoch tracker and batch statistics."""

import pytest

from repro.core.epochs import (
    BLOATED,
    NATURAL,
    STOLEN,
    BatchStats,
    EpochTracker,
    SettleRound,
)


class TestLifecycle:
    def test_birth_and_death(self):
        t = EpochTracker()
        ep = t.birth(5, level=1, sample_size=3)
        assert ep.alive
        t.death(5, NATURAL)
        assert not ep.alive and ep.death_kind == NATURAL

    def test_double_birth_rejected(self):
        t = EpochTracker()
        t.birth(5, 0, 1)
        with pytest.raises(ValueError):
            t.birth(5, 0, 1)

    def test_death_without_birth_rejected(self):
        with pytest.raises(ValueError):
            EpochTracker().death(5, NATURAL)

    def test_unknown_kind_rejected(self):
        t = EpochTracker()
        t.birth(5, 0, 1)
        with pytest.raises(ValueError):
            t.death(5, "mysterious")

    def test_rebirth_after_death(self):
        t = EpochTracker()
        t.birth(5, 0, 1)
        t.death(5, STOLEN)
        ep2 = t.birth(5, 2, 4)
        assert ep2.alive
        assert len(t.epochs) == 2

    def test_batch_stamping(self):
        t = EpochTracker()
        t.birth(1, 0, 1)
        t.next_batch()
        t.next_batch()
        t.death(1, NATURAL)
        ep = t.epochs[0]
        assert ep.birth_batch == 0 and ep.death_batch == 2


class TestAggregates:
    def _populated(self):
        t = EpochTracker()
        t.birth(1, 0, 4)
        t.birth(2, 0, 6)
        t.birth(3, 0, 10)
        t.birth(4, 0, 1)
        t.death(1, NATURAL)
        t.death(2, STOLEN)
        t.death(3, BLOATED)
        return t

    def test_counts(self):
        c = self._populated().counts()
        assert c == {NATURAL: 1, STOLEN: 1, BLOATED: 1, "alive": 1}

    def test_total_sample_by_kind(self):
        t = self._populated()
        assert t.total_sample(NATURAL) == 4
        assert t.total_sample("induced") == 16
        assert t.total_added_sample() == 21

    def test_live_epochs(self):
        t = self._populated()
        assert [e.eid for e in t.live_epochs()] == [4]

    def test_dead_filter(self):
        t = self._populated()
        assert len(t.dead()) == 3
        assert [e.eid for e in t.dead(STOLEN)] == [2]

    def test_induced_property(self):
        t = self._populated()
        assert not t.epochs[0].induced
        assert t.epochs[1].induced and t.epochs[2].induced


class TestBatchStats:
    def test_round_counting(self):
        st = BatchStats(kind="delete", batch_index=0, batch_size=10)
        st.settle_rounds.append(SettleRound(input_edges=5))
        st.settle_rounds.append(SettleRound(input_edges=10))
        assert st.num_rounds == 2

    def test_defaults(self):
        st = BatchStats(kind="insert", batch_index=3, batch_size=7)
        assert st.natural_deaths == 0 and st.new_epochs == 0


class TestLog:
    """The columnar log: sequence numbers, readers and trimming."""

    def _churned(self, t, rounds=20):
        """Each round: one batch in which four births replace four deaths."""
        eid = 0
        for r in range(rounds):
            for _ in range(4):
                t.birth(eid, r % 3, 2 + r, vertices=(eid, eid + 1))
                eid += 1
            for dead in range(eid - 8, eid - 4) if r else ():
                t.death(dead, STOLEN if dead % 2 else NATURAL)
            t.next_batch()
        return eid

    def test_sequence_numbers_count_every_event(self):
        t = EpochTracker()
        self._churned(t)
        assert t.births == 80 and t.deaths == 76
        assert t.counts() == {NATURAL: 38, STOLEN: 38, BLOATED: 0, "alive": 4}

    def test_trimmed_without_readers_sums_kept(self):
        t = EpochTracker()
        self._churned(t)
        assert len(t.epochs) <= 2 * len(t.live_ids())
        assert t.total_added_sample() == sum(4 * (2 + r) for r in range(20))
        assert t.total_sample() == t.total_added_sample() - 4 * 21
        assert t.total_sample(NATURAL) + t.total_sample("induced") == t.total_sample()
        assert [e.eid for e in t.live_epochs()] == [76, 77, 78, 79]

    def test_reader_pins_from_its_cursor(self):
        t = EpochTracker()
        t.birth(10**6, 0, 1)
        t.next_batch()
        cur = t.register_reader()
        assert (cur.births, cur.deaths) == (1, 0)
        self._churned(t)
        assert len(t.epochs) == 81  # the 80 births from 1 on, plus the live 0
        cur.births, cur.deaths = t.births, t.deaths
        t.next_batch()
        assert len(t.epochs) <= 2 * len(t.live_ids())

    def test_released_reader_stops_pinning(self):
        t = EpochTracker()
        cur = t.register_reader()
        self._churned(t)
        assert len(t.epochs) == t.births
        t.release_reader(cur)
        t.next_batch()
        assert len(t.epochs) < t.births

    def test_view_of_trimmed_record(self):
        t = EpochTracker()
        ep = t.birth(0, 0, 1)
        t.death(0, NATURAL)
        assert ep.death_kind == NATURAL and ep.death_batch == 0
        t.next_batch()
        with pytest.raises(LookupError):
            ep.level

    def test_death_view(self):
        t = EpochTracker()
        t.birth(7, 2, 5, vertices=(1, 2))
        t.next_batch()
        ep = t.death(7, BLOATED)
        assert (ep.eid, ep.level, ep.sample_size, ep.vertices) == (7, 2, 5, (1, 2))
        assert ep.induced and ep.death_batch == 1 and ep.birth_batch == 0

    def test_sums_round_trip(self):
        t = EpochTracker()
        self._churned(t)
        fresh = EpochTracker()
        fresh.restore_sums(t.sums())
        assert fresh.total_added_sample() == t.total_added_sample()
        for kind in (None, NATURAL, STOLEN, BLOATED, "induced"):
            assert fresh.total_sample(kind) == t.total_sample(kind)
        assert fresh.counts()[NATURAL] == t.counts()[NATURAL]
