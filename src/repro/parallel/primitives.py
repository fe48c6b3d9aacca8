"""Core parallel primitives with model-accurate cost accounting.

Each primitive executes sequentially (and, where profitable, vectorized via
NumPy) but charges the ledger exactly what the paper's preliminaries assign:

============================  =============  ==================
primitive                     work           depth
============================  =============  ==================
``pmap`` / ``pfilter``        O(n)           O(log n)
``preduce``                   O(n)           O(log n)
``scan`` (prefix sums)        O(n)           O(log n)
``pflatten``                  O(total)       O(log total)
``pack_index``                O(n)           O(log n)
============================  =============  ==================

The model charges are *counts of primitive steps*, so the constants are
exact and deterministic — two runs on the same input charge identically.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, TypeVar, Union

import numpy as np

from repro import native
from repro.parallel.ledger import Ledger, log2ceil

T = TypeVar("T")
U = TypeVar("U")

# log2ceil memo: batch sizes repeat heavily on the dynamic hot path (the
# same stream keeps producing batches/pools of the same few sizes), and
# the primitives charge log2ceil(n) on every call.  The cache is exact —
# log2ceil is a pure function of n.
_LOG2_CACHE: dict = {}


def log2ceil_cached(n: int) -> int:
    """Memoized :func:`~repro.parallel.ledger.log2ceil` for hot callers."""
    d = _LOG2_CACHE.get(n)
    if d is None:
        d = _LOG2_CACHE[n] = log2ceil(n)
    return d


def pmap(ledger: Ledger, items: Sequence[T], fn: Callable[[T], U], tag: str = "pmap") -> Union[List[U], np.ndarray]:
    """Parallel map: apply ``fn`` to every item.

    Charges ``n`` work and ``log2ceil(n)`` depth (the fork tree); the body is
    assumed constant-cost — bodies with their own cost should charge it
    themselves.

    Array short-circuit: with an ``ndarray`` input, ``fn`` is applied to
    the whole column at once (it must be vectorized, e.g. a ufunc) and
    the result comes back as an array — no intermediate Python list.
    The charge is identical either way.
    """
    n = len(items)
    ledger.charge(work=n, depth=log2ceil_cached(n), tag=tag)
    if isinstance(items, np.ndarray):
        return fn(items)
    return [fn(x) for x in items]


def pfilter(
    ledger: Ledger,
    items: Sequence[T],
    pred: Union[Callable[[T], bool], np.ndarray],
    tag: str = "pfilter",
) -> Union[List[T], np.ndarray]:
    """Parallel filter (pack): keep items satisfying ``pred``, order kept.

    Implemented in the model as flag computation + prefix sum + scatter:
    O(n) work, O(log n) depth.

    Array short-circuit: with an ``ndarray`` input, ``pred`` may be either
    a precomputed boolean mask or a vectorized predicate returning one;
    the pack is a single boolean index, no per-element closure calls.
    """
    n = len(items)
    ledger.charge(work=n, depth=log2ceil_cached(n), tag=tag)
    if isinstance(items, np.ndarray):
        mask = pred if isinstance(pred, np.ndarray) else pred(items)
        return items[np.asarray(mask, dtype=bool)]
    return [x for x in items if pred(x)]


def preduce(
    ledger: Ledger,
    items: Sequence[T],
    fn: Callable[[T, T], T],
    identity: Optional[T] = None,
    tag: str = "preduce",
):
    """Parallel reduction over an associative operator.

    O(n) work, O(log n) depth (balanced reduction tree).  Returns
    ``identity`` on empty input (which must then be provided).
    """
    n = len(items)
    ledger.charge(work=n, depth=log2ceil(n), tag=tag)
    if n == 0:
        if identity is None:
            raise ValueError("reduce of empty sequence with no identity")
        return identity
    acc = items[0]
    for x in items[1:]:
        acc = fn(acc, x)
    return acc


def scan(ledger: Ledger, values: Sequence[float], tag: str = "scan") -> np.ndarray:
    """Exclusive prefix sum (Blelloch scan): O(n) work, O(log n) depth.

    Returns an array ``out`` with ``out[i] = sum(values[:i])`` and one extra
    trailing element holding the total, matching the classic scan interface
    used to allocate output slots.
    """
    n = len(values)
    ledger.charge(work=n, depth=log2ceil(n), tag=tag)
    arr = np.asarray(values, dtype=np.float64)
    out = np.zeros(n + 1, dtype=np.float64)
    if n:
        np.cumsum(arr, out=out[1:])
    return out


def pflatten(ledger: Ledger, lists: Sequence[Sequence[T]], tag: str = "pflatten") -> List[T]:
    """Flatten a list of lists.

    In the model: scan over lengths to compute offsets, then a parallel
    scatter — O(total) work, O(log total) depth.
    """
    total = sum(len(sub) for sub in lists)
    ledger.charge(work=max(total, len(lists)), depth=log2ceil(max(total, 2)), tag=tag)
    out: List[T] = []
    for sub in lists:
        out.extend(sub)
    return out


def pack_index(
    ledger: Ledger, flags: Sequence[bool], tag: str = "pack_index"
) -> Union[List[int], np.ndarray]:
    """Indices of True flags (the index-returning variant of pack).

    Array short-circuit: a boolean ``ndarray`` packs via ``flatnonzero``
    and returns an int64 index array; the charge is identical.
    """
    n = len(flags)
    ledger.charge(work=n, depth=log2ceil_cached(n), tag=tag)
    if isinstance(flags, np.ndarray):
        return native.pack_index(flags)
    return [i for i, f in enumerate(flags) if f]


def pzip_with(
    ledger: Ledger,
    xs: Sequence[T],
    ys: Sequence[U],
    fn: Callable[[T, U], T],
    tag: str = "pzip_with",
) -> List:
    """Elementwise combine of two equal-length sequences."""
    if len(xs) != len(ys):
        raise ValueError("pzip_with requires equal-length sequences")
    n = len(xs)
    ledger.charge(work=n, depth=log2ceil(n), tag=tag)
    return [fn(a, b) for a, b in zip(xs, ys)]


def pcount(ledger: Ledger, items: Iterable[T], pred: Callable[[T], bool], tag: str = "pcount") -> int:
    """Count items satisfying ``pred`` — a map followed by a +-reduction."""
    items = list(items)
    n = len(items)
    ledger.charge(work=n, depth=log2ceil(n), tag=tag)
    return sum(1 for x in items if pred(x))
