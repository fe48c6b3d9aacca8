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
* ``localize`` converts a dense-id column into *batch-local* ids with
  one ``np.unique`` over the batch's dense ids: O(n log n) in the batch,
  whatever the size of the table.

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
    """Stable vertex -> dense int32 id table."""

    __slots__ = ("_index", "wide")

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}
        #: Some interned vertex, or an edge id the owning structure
        #: registered, lies outside the int64 range.
        self.wide = False

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
        vinv, uniq = native.intern_localize(dense)
        return vinv, int(uniq.size)
