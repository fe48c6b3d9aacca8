"""Semisort and its derived operations: group_by, sum_by, remove_duplicates.

Semisorting (Valiant; Gu–Shun–Sun–Blelloch) arranges keyed records so equal
keys are adjacent, in O(n) expected work and O(log n) depth whp.  The paper
builds its bulk data-structure updates on three derived operations:

* ``group_by`` — unique keys, each with the list of its values;
* ``sum_by`` — unique keys, each with the sum of its (numeric) values;
* ``remove_duplicates`` — unique elements of a multiset.

Our implementations use Python dict grouping (hashing, first-occurrence
order — deterministic for a given input order) and charge the model cost.

The ``*_arrays`` variants at the bottom are the numpy kernels used by the
vectorized dynamic fast path: same first-occurrence ordering contract,
same ledger charges (one ``_charge`` per call, same tag), but the grouping
runs as a stable argsort + boundary scan instead of a Python loop.  The
ordering equivalence is load-bearing — tests/parallel/test_array_kernels.py
checks every kernel against its dict original.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro import native
from repro.parallel.ledger import Ledger, log2ceil

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


def _charge(ledger: Ledger, n: int, tag: str) -> None:
    ledger.charge(work=max(n, 1), depth=log2ceil(max(n, 2)), tag=tag)


def _group_index(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable grouping skeleton shared by the array kernels.

    Returns ``(order, starts, rank)`` where ``order`` is the stable
    sort permutation of ``keys``, ``starts`` are the group boundary
    positions in sorted order (one per unique key, with an extra
    ``len(keys)`` sentinel appended by callers that need spans), and
    ``rank`` reorders the groups into first-occurrence order: because
    the sort is stable, ``order[starts[g]]`` is the earliest original
    index of group ``g``, so sorting groups by it reproduces the dict
    iteration order of the pure-Python originals.
    """
    return native.group_index(keys)


def _seg_index(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Multi-segment gather index."""
    return native.seg_gather_index(starts, counts, total)


def semisort(ledger: Ledger, pairs: Sequence[Tuple[K, V]]) -> List[Tuple[K, V]]:
    """Reorder key-value pairs so equal keys are adjacent.

    Keys appear in first-occurrence order; within a key, values keep their
    relative input order (our dict-based grouping is stable, which is
    stronger than the model requires but convenient for determinism).
    """
    _charge(ledger, len(pairs), "semisort")
    buckets: Dict[K, List[Tuple[K, V]]] = {}
    for k, v in pairs:
        buckets.setdefault(k, []).append((k, v))
    out: List[Tuple[K, V]] = []
    for bucket in buckets.values():
        out.extend(bucket)
    return out


def group_by(ledger: Ledger, pairs: Sequence[Tuple[K, V]]) -> List[Tuple[K, List[V]]]:
    """Group values by key: semisort + prefix-sum partition.

    Returns ``[(key, [values...]), ...]`` with unique keys in
    first-occurrence order.
    """
    _charge(ledger, len(pairs), "group_by")
    buckets: Dict[K, List[V]] = {}
    for k, v in pairs:
        buckets.setdefault(k, []).append(v)
    return list(buckets.items())


def sum_by(ledger: Ledger, pairs: Sequence[Tuple[K, float]]) -> List[Tuple[K, float]]:
    """Sum values per unique key.

    The paper uses this to implement the parallel counter increments in
    ``updateTop`` (many concurrent ``increment(counter(e))`` become one
    ``sum_by`` per round).
    """
    _charge(ledger, len(pairs), "sum_by")
    sums: Dict[K, float] = {}
    for k, v in pairs:
        sums[k] = sums.get(k, 0) + v
    return list(sums.items())


def remove_duplicates(ledger: Ledger, items: Union[Iterable[K], np.ndarray]) -> Union[List[K], np.ndarray]:
    """Unique elements, first-occurrence order (a group_by on unit values).

    The paper's set-builder pseudocode ``{...}`` implicitly calls this.
    ndarray inputs take the numpy kernel and return an ndarray; the
    ordering and the ledger charge are identical to the dict path.
    """
    if isinstance(items, np.ndarray):
        _charge(ledger, items.size, "remove_duplicates")
        if items.size == 0:
            return items.copy()
        return items[native.dedup_first_index(items)]
    items = list(items)
    _charge(ledger, len(items), "remove_duplicates")
    seen: Dict[K, None] = {}
    for x in items:
        if x not in seen:
            seen[x] = None
    return list(seen.keys())


def count_by(ledger: Ledger, keys: Iterable[K]) -> List[Tuple[K, int]]:
    """Multiplicity of each unique key — ``sum_by`` with unit values."""
    keys = list(keys)
    return [(k, int(v)) for k, v in sum_by(ledger, [(k, 1) for k in keys])]


# --------------------------------------------------------------------- #
# Array kernels (vectorized fast path)
# --------------------------------------------------------------------- #

def semisort_arrays(
    ledger: Ledger, keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Array ``semisort``: parallel columns reordered so equal keys are
    adjacent, keys in first-occurrence order, values stable within a key —
    the exact element order of ``semisort`` on ``list(zip(keys, values))``.
    """
    _charge(ledger, keys.size, "semisort")
    if keys.size == 0:
        return keys.copy(), values.copy()
    order, starts, rank = _group_index(keys)
    spans = np.r_[starts, keys.size]
    counts = (spans[1:] - spans[:-1])[rank]
    src_starts = starts[rank]
    # Multi-segment gather: element j of the output block for group g
    # reads order[src_starts[g] + j].
    idx = _seg_index(src_starts, counts, keys.size)
    perm = order[idx]
    return keys[perm], values[perm]


def group_by_arrays(
    ledger: Ledger, keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array ``group_by``: CSR output ``(uniq_keys, offsets, grouped_values)``
    with ``grouped_values[offsets[g]:offsets[g+1]]`` the values of
    ``uniq_keys[g]`` in input order, and unique keys in first-occurrence
    order — the CSR rendering of the dict original's ``[(k, [vs...])]``.
    """
    _charge(ledger, keys.size, "group_by")
    if keys.size == 0:
        return keys.copy(), np.zeros(1, dtype=np.int64), values.copy()
    order, starts, rank = _group_index(keys)
    spans = np.r_[starts, keys.size]
    counts = (spans[1:] - spans[:-1])[rank]
    src_starts = starts[rank]
    offsets = np.zeros(rank.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    idx = _seg_index(src_starts, counts, keys.size)
    return keys[order[starts[rank]]], offsets, values[order[idx]]


def sum_by_arrays(
    ledger: Ledger, keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Array ``sum_by``: per-key sums, unique keys in first-occurrence order."""
    _charge(ledger, keys.size, "sum_by")
    if keys.size == 0:
        return keys.copy(), values.copy()
    order, starts, rank = _group_index(keys)
    sums = np.add.reduceat(values[order], starts)
    return keys[order[starts[rank]]], sums[rank]


def count_by_arrays(ledger: Ledger, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Array ``count_by`` — charges the ``sum_by`` tag exactly like the
    original (which delegates to :func:`sum_by`)."""
    _charge(ledger, keys.size, "sum_by")
    if keys.size == 0:
        return keys.copy(), np.zeros(0, dtype=np.int64)
    order, starts, rank = _group_index(keys)
    spans = np.r_[starts, keys.size]
    counts = (spans[1:] - spans[:-1])[rank]
    return keys[order[starts[rank]]], counts
