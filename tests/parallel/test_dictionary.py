"""Unit and property tests for the batch set with capacity
simulation (doubling/halving amortization)."""

import pytest
from hypothesis import given, strategies as st

from repro.parallel.dictionary import BatchSet, _MIN_CAPACITY
from repro.parallel.ledger import Ledger


class TestBatchSetBasics:
    def test_insert_and_contains(self, ledger):
        s = BatchSet(ledger)
        s.insert_batch([1, 2, 3])
        assert 2 in s and 5 not in s
        assert len(s) == 3

    def test_insert_idempotent(self, ledger):
        s = BatchSet(ledger)
        s.insert_batch([1, 1, 2])
        assert len(s) == 2

    def test_delete(self, ledger):
        s = BatchSet(ledger, [1, 2, 3])
        s.delete_batch([2, 99])  # deleting absent keys is a no-op
        assert sorted(s.elements()) == [1, 3]

    def test_contains_batch(self, ledger):
        s = BatchSet(ledger, [1, 3])
        assert s.contains_batch([1, 2, 3]) == [True, False, True]

    def test_iteration_insertion_order(self, ledger):
        s = BatchSet(ledger)
        s.insert_batch([5, 1, 9])
        assert list(s) == [5, 1, 9]

    def test_single_element_api(self, ledger):
        s = BatchSet(ledger)
        s.insert_one(7)
        assert 7 in s
        s.delete_one(7)
        assert 7 not in s
        s.discard(7)  # absent — no error

    def test_bool(self, ledger):
        s = BatchSet(ledger)
        assert not s
        s.insert_one(1)
        assert s


class TestBatchSetCapacity:
    def test_grows_on_load(self, ledger):
        s = BatchSet(ledger)
        s.insert_batch(range(100))
        assert s.capacity >= 100 / 0.75
        assert s.rehash_count > 0

    def test_shrinks_when_sparse(self, ledger):
        s = BatchSet(ledger, range(200))
        cap_full = s.capacity
        s.delete_batch(range(195))
        assert s.capacity < cap_full

    def test_never_below_minimum(self, ledger):
        s = BatchSet(ledger, range(100))
        s.delete_batch(range(100))
        assert s.capacity >= _MIN_CAPACITY

    def test_rehash_charges_work(self):
        led = Ledger()
        s = BatchSet(led)
        s.insert_batch(range(1000))
        assert led.by_tag.get("dict_rehash", 0) > 0

    def test_amortized_work_linear(self):
        """Total work including rehashes is O(k) for k batch ops."""
        led = Ledger()
        s = BatchSet(led)
        k = 4096
        s.insert_batch(range(k))
        assert led.work <= 10 * k


@given(
    st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), st.lists(st.integers(0, 40), max_size=15)),
        max_size=30,
    )
)
def test_property_batchset_matches_python_set(script):
    """BatchSet behaves exactly like a built-in set under any op sequence."""
    led = Ledger()
    s = BatchSet(led)
    ref: set = set()
    for op, keys in script:
        if op == "ins":
            s.insert_batch(keys)
            ref.update(keys)
        else:
            s.delete_batch(keys)
            ref.difference_update(keys)
        assert set(s.elements()) == ref
        assert len(s) == len(ref)
        # capacity invariant: load factor within bounds (after resize)
        assert len(s) <= s.capacity
