"""Interned vertex table: stable vertex -> dense-id mapping.

``BatchFrame`` historically paid a fresh ``np.unique`` over the flat
vertex column every batch just to produce per-batch local vertex ids.
The :class:`VertexInterner` replaces that with a table that persists
across batches on the structure (and rides along on every frame built
from registered edges):

* a plain dict maps each vertex to a *dense id* assigned at first
  sight and never changed — raw vertex ids of any magnitude (including
  ids straddling int32) live only as dict keys, so the int32 columnar
  plane downstream only ever sees dense ids bounded by the number of
  distinct vertices;
* ``localize`` converts a dense-id column into *batch-local* ids in
  O(n + |table|) with no sort, using a stamped scratch pair — the
  replacement for ``np.unique(..., return_inverse=True)``.

The table also records whether any id its structure has seen lies
outside the int64 range (``wide``): an interned vertex, or an edge id
the structure registers beside it.  Such an id cannot enter a raw-id
``int64`` column, so a structure whose table is wide keeps its batches
off the columnar route (:class:`~repro.parallel.frames.BatchFrame`, the
vector matcher) — the per-edge route is charge-identical.  ``add_ids``
(the batch path) checks each fresh vertex once, at first sight; a
structure checks the vertices it interns any other way, and its edge
ids, itself.

Local ids from ``localize`` number the batch's distinct vertices in
ascending *dense-id* order, whereas ``np.unique`` numbers them in
ascending *raw-vertex* order.  The columnar matcher is insensitive to
this relabeling: it consumes only the count of distinct vertices and
per-vertex CSR segments whose contents are canonicalized by priority
lexsorts, so every output (and every ledger charge) is bit-identical
either way — the array-vs-dict differential enforces exactly that.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro import native

__all__ = ["VertexInterner", "fits_int64"]

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def fits_int64(ids) -> bool:
    """Whether every id (vertex or edge) of the non-empty collection fits
    in int64 (one C-level ``min``/``max`` pass)."""
    return _I64_MIN <= min(ids) and max(ids) <= _I64_MAX


class VertexInterner:
    """Stable vertex -> dense int32 id table with a localize scratch."""

    __slots__ = ("_index", "_stamp", "_label", "_epoch", "wide")

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}
        #: Some interned vertex, or an edge id the owning structure
        #: registered, lies outside the int64 range.
        self.wide = False
        self._stamp: np.ndarray = np.zeros(0, dtype=np.int64)
        self._label: np.ndarray = np.zeros(0, dtype=np.int32)
        self._epoch: int = 0

    # ------------------------------------------------------------- #
    # Table maintenance
    # ------------------------------------------------------------- #
    @property
    def count(self) -> int:
        """Number of distinct vertices ever interned."""
        return len(self._index)

    def add_ids(self, vertices: List[Hashable]) -> np.ndarray:
        """Intern-and-lookup in one pass: dense int32 ids for a list,
        assigning fresh ids to unseen vertices in first-occurrence order.

        Steady state (every vertex known) costs a single C-level
        ``dict.get`` sweep.  Dense ids are never −1, so −1 is a safe
        miss sentinel.
        """
        idx = self._index
        dense = np.fromiter(
            map(idx.get, vertices, repeat(-1)),
            dtype=np.int32,
            count=len(vertices),
        )
        miss = np.flatnonzero(dense == -1)
        if miss.size:
            miss_l = miss.tolist()
            n = len(idx)
            fresh = dict.fromkeys(vertices[i] for i in miss_l)
            idx.update(zip(fresh, range(n, n + len(fresh))))
            if not fits_int64(fresh):
                self.wide = True
            dense[miss] = np.fromiter(
                map(idx.__getitem__, (vertices[i] for i in miss_l)),
                dtype=np.int32,
                count=miss.size,
            )
        return dense

    def get(self, vertex: Hashable):
        """Dense id of ``vertex`` or ``None`` when not interned."""
        return self._index.get(vertex)

    # ------------------------------------------------------------- #
    # Batch-local relabeling
    # ------------------------------------------------------------- #
    def _scratch(self) -> Tuple[np.ndarray, np.ndarray]:
        need = len(self._index)
        if self._stamp.size < need:
            cap = max(1024, self._stamp.size)
            while cap < need:
                cap *= 2
            stamp = np.zeros(cap, dtype=np.int64)
            stamp[: self._stamp.size] = self._stamp
            self._stamp = stamp
            self._label = np.zeros(cap, dtype=np.int32)
        return self._stamp, self._label

    def localize(self, dense: np.ndarray) -> Tuple[np.ndarray, int]:
        """Batch-local ids for a dense-id column.

        Returns ``(vinv, nv)`` where ``vinv`` labels each entry of
        ``dense`` with a local id in ``[0, nv)`` and ``nv`` is the
        number of distinct dense ids present.  Labels are assigned in
        ascending dense-id order, so repeated calls over the same
        column are deterministic.
        """
        if dense.size == 0:
            return np.empty(0, dtype=np.int32), 0
        stamp, label = self._scratch()
        self._epoch += 1
        vinv, uniq = native.intern_localize(
            np.ascontiguousarray(dense, dtype=np.int32),
            stamp,
            label,
            self._epoch,
        )
        return vinv, int(uniq.size)
