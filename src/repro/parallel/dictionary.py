"""Batch-parallel hash set with doubling/halving amortization.

The paper assumes a dictionary supporting batches of ``k`` insertions,
deletions, or membership queries in O(k) expected amortized work and
O(log(n+k)) depth whp (Gil–Matias–Vishkin hashing plus the standard
grow/shrink-by-copying trick).  :class:`BatchSet` executes on Python's
built-in hash table but *simulates the capacity dynamics*: it maintains an
explicit power-of-two capacity, and when a batch pushes the load factor past
the grow threshold (or below the shrink threshold) it charges the full copy
cost of rehashing every element — exactly the amortization the analysis
pays for.

All mutating entry points are batch-shaped; single-element conveniences
(``insert_one``/``delete_one``) are provided for the pseudocode's
``insert(S, x)`` calls and charge as a batch of one.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterable, Iterator, List, TypeVar

from repro.parallel.ledger import Ledger, log2ceil

K = TypeVar("K", bound=Hashable)

_MIN_CAPACITY = 8
_GROW_AT = 0.75  # load factor above which we double
_SHRINK_AT = 0.125  # load factor below which we halve


class BatchSet(Generic[K]):
    """A hash set with batch operations and capacity-aware cost charging.

    Iteration order is insertion order (backed by ``dict``), which keeps the
    whole reproduction deterministic for a fixed seed.
    """

    __slots__ = ("_ledger", "_items", "_capacity", "rehash_count")

    def __init__(self, ledger: Ledger, items: Iterable[K] = (), *, _tag: str = "batch_set") -> None:
        self._ledger = ledger
        self._items: Dict[K, None] = {}
        self._capacity = _MIN_CAPACITY
        self.rehash_count = 0
        items = list(items)
        if items:
            self.insert_batch(items)

    # -- capacity simulation ------------------------------------------- #
    def _resize_if_needed(self) -> None:
        n = len(self._items)
        while n > self._capacity * _GROW_AT:
            self._capacity *= 2
            self.rehash_count += 1
            # Copy cost of the rehash that this doubling stands in for: at
            # most a 3/4-full table of the new capacity's predecessor.
            self._ledger.charge(
                work=self._capacity * _GROW_AT,
                depth=log2ceil(max(n, 2)),
                tag="dict_rehash",
            )
        while self._capacity > _MIN_CAPACITY and n < self._capacity * _SHRINK_AT:
            self._capacity //= 2
            self.rehash_count += 1
            self._ledger.charge(work=max(n, 1), depth=log2ceil(max(n, 2)), tag="dict_rehash")

    def _charge_batch(self, k: int) -> None:
        self._ledger.charge(
            work=max(k, 1),
            depth=log2ceil(max(len(self._items) + k, 2)),
            tag="dict_batch",
        )

    # -- batch API ------------------------------------------------------ #
    def insert_batch(self, keys: Iterable[K]) -> None:
        keys = list(keys)
        self._charge_batch(len(keys))
        for k in keys:
            self._items[k] = None
        self._resize_if_needed()

    def delete_batch(self, keys: Iterable[K]) -> None:
        keys = list(keys)
        self._charge_batch(len(keys))
        for k in keys:
            self._items.pop(k, None)
        self._resize_if_needed()

    def contains_batch(self, keys: Iterable[K]) -> List[bool]:
        keys = list(keys)
        self._charge_batch(len(keys))
        return [k in self._items for k in keys]

    def elements(self) -> List[K]:
        """Extract all current elements (O(n) work, O(log n) depth)."""
        n = len(self._items)
        self._ledger.charge(work=max(n, 1), depth=log2ceil(max(n, 2)), tag="dict_elements")
        return list(self._items.keys())

    # -- single-element conveniences ------------------------------------ #
    # Charged exactly like a batch of one, but inlined: no list allocation
    # and no loop for the pseudocode's per-element ``insert(S, x)`` calls.
    def insert_one(self, key: K) -> None:
        items = self._items
        self._ledger.charge(
            work=1, depth=log2ceil(len(items) + 1) if items else 1, tag="dict_batch"
        )
        items[key] = None
        if len(items) > self._capacity * _GROW_AT:
            self._resize_if_needed()

    def delete_one(self, key: K) -> None:
        items = self._items
        self._ledger.charge(
            work=1, depth=log2ceil(len(items) + 1) if items else 1, tag="dict_batch"
        )
        items.pop(key, None)
        if self._capacity > _MIN_CAPACITY and len(items) < self._capacity * _SHRINK_AT:
            self._resize_if_needed()

    def discard(self, key: K) -> None:
        self.delete_one(key)

    # -- free (uncharged) introspection ---------------------------------- #
    def __contains__(self, key: K) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[K]:
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def capacity(self) -> int:
        return self._capacity
