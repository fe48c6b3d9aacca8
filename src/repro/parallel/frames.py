"""Struct-of-arrays batch frames for the dynamic-update fast path.

A :class:`BatchFrame` is the columnar view of one batch of edges: edge
ids, cardinalities, and the flattened vertex lists live in dense numpy
arrays (CSR layout) instead of per-element attribute reads on ``Edge``
objects.  The dynamic pipeline builds one frame per batch and threads it
through the vectorized kernels (``free_flags``, the greedy matcher's CSR
build, the batched structure edits), which turns the per-edge property
accesses — ``e.cardinality`` alone was ~300k calls per mid-size stream —
into column arithmetic.

Frames are *views for accounting and dispatch*, not a replacement store:
the ``Edge`` objects stay authoritative (the structure, the journal, and
the matcher results all hand them around), and ``frame.edges`` keeps the
originals in batch order.  Nothing here touches the ledger — a frame is
free to build under the cost model because the model already charges the
batch operations that consume it for exactly the same element visits.

Compact columns (this PR): when every value fits, the id/vertex columns
are shrunk to int32 — half the memory traffic through the matcher's
sorts and the vertex interning — with an overflow guard that keeps
int64 whenever any edge id or vertex id falls outside the int32 range.
The downcast is transparent: consumers read values (``tolist`` yields
the same Python ints) and numpy promotes mixed arithmetic, so results
are bit-identical either way (tests/parallel/test_native_kernels.py
drives ids straddling the boundary through both).  With a
:class:`repro.native.ColumnArena`, the compacted columns and the CSR
offsets live in named per-batch scratch buffers reused across batches
(zero-copy between batches; see the arena's reuse contract).
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.hypergraph.edge import Edge

_I32 = np.iinfo(np.int32)


def _compact_into(
    col: np.ndarray, arena, name: str
) -> np.ndarray:
    """int32 copy of ``col`` when every value fits, else ``col`` itself.

    With an arena the copy lands in the named reusable buffer; without
    one it is a fresh allocation.  Empty columns stay int64 (nothing to
    save, and downstream concatenations keep their dtype)."""
    if col.size == 0:
        return col
    lo = int(col.min())
    hi = int(col.max())
    if lo < _I32.min or hi > _I32.max:
        return col  # overflow guard: stay wide
    if arena is not None:
        out = arena.take(name, col.size, np.int32)
        np.copyto(out, col, casting="unsafe")
        return out
    return col.astype(np.int32)


class BatchFrame:
    """Columnar (struct-of-arrays) representation of an edge batch.

    Attributes
    ----------
    edges:
        The original ``Edge`` objects, in batch order.
    eids:
        ``int32[n]`` or ``int64[n]`` edge ids (compacted when they fit;
        edge ids are integers everywhere in this repo's workloads —
        non-integer ids fall back to the object path at the call sites
        that need the column).
    cards:
        ``int64[n]`` cardinalities (``len(e.vertices)``).
    voff / vflat:
        CSR vertex lists: the vertices of edge ``i`` are
        ``vflat[voff[i]:voff[i+1]]``, in ``Edge.vertices`` (sorted tuple)
        order.  ``vflat`` compacts to int32 when the vertex ids fit.
    """

    __slots__ = (
        "edges", "eids", "cards", "voff", "vflat", "_uverts", "_vinv",
        "dense", "interner",
    )

    def __init__(
        self,
        edges: List[Edge],
        eids: np.ndarray,
        cards: np.ndarray,
        voff: np.ndarray,
        vflat: np.ndarray,
    ) -> None:
        self.edges = edges
        self.eids = eids
        self.cards = cards
        self.voff = voff
        self.vflat = vflat
        self._uverts: Optional[np.ndarray] = None
        self._vinv: Optional[np.ndarray] = None
        self.dense: Optional[np.ndarray] = None
        self.interner = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Sequence[Edge],
        arena=None,
        tag: str = "frame",
        compact: bool = True,
    ) -> "BatchFrame":
        """Build the columns in one pass over the batch.

        ``arena`` (a :class:`repro.native.ColumnArena`) makes the
        compacted columns and the offset column reuse named scratch
        buffers across batches; ``tag`` namespaces them so two frames
        with different tags may be alive at once.  ``compact=False``
        pins every column to int64 (the overflow-guard differential
        tests compare both layouts bit for bit).
        """
        edges = list(edges)
        n = len(edges)
        verts: List[tuple] = [e.vertices for e in edges]
        eids = np.fromiter((e.eid for e in edges), dtype=np.int64, count=n)
        cards = np.fromiter(map(len, verts), dtype=np.int64, count=n)
        if arena is not None:
            voff = arena.take(tag + ".voff", n + 1, np.int64)
            voff[0] = 0
        else:
            voff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cards, out=voff[1:])
        total = int(voff[-1])
        vflat = np.fromiter(chain.from_iterable(verts), dtype=np.int64, count=total)
        if compact:
            eids = _compact_into(eids, arena, tag + ".eids32")
            vflat = _compact_into(vflat, arena, tag + ".vflat32")
        return cls(edges, eids, cards, voff, vflat)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.edges)

    @property
    def total_cardinality(self) -> int:
        return int(self.voff[-1])

    def vertices_of(self, i: int) -> np.ndarray:
        return self.vflat[self.voff[i]:self.voff[i + 1]]

    def intern(self) -> Tuple[np.ndarray, np.ndarray]:
        """Batch-local vertex interning: ``(uniq_verts, inverse)`` with
        ``uniq_verts[inverse] == vflat``.  Cached after the first call."""
        if self._uverts is None:
            self._uverts, self._vinv = np.unique(self.vflat, return_inverse=True)
        return self._uverts, self._vinv

    def attach_dense(self, dense: np.ndarray, interner) -> None:
        """Attach the structure's interned dense-id column for ``vflat``
        (same CSR layout) plus the :class:`VertexInterner` that owns the
        ids.  Downstream consumers (``free_flags``'s cover gather, the
        matcher's ``intern_local``) then skip per-batch vertex hashing
        and sorting entirely."""
        self.dense = dense
        self.interner = interner

    def intern_local(self) -> Tuple[np.ndarray, int]:
        """Batch-local vertex labels: ``(vinv, nv)``.

        With an attached dense column this is the interner's relabel of
        the dense ids (labels in ascending dense-id order); otherwise it
        falls back to :meth:`intern` (labels in ascending raw-vertex
        order).  The two labelings differ only by a permutation of the
        local ids, which every consumer is insensitive to — see
        repro/parallel/interning.py.
        """
        if self.dense is not None and self.interner is not None:
            return self.interner.localize(self.dense)
        uverts, vinv = self.intern()
        return vinv, int(uverts.size)

    def select(self, index: np.ndarray) -> "BatchFrame":
        """Sub-frame of the rows in ``index`` (an int index array or a
        boolean mask), preserving relative order."""
        index = np.asarray(index)
        if index.dtype == np.bool_:
            index = np.flatnonzero(index)
        edges = [self.edges[i] for i in index.tolist()]
        cards = self.cards[index]
        voff = np.zeros(len(edges) + 1, dtype=np.int64)
        np.cumsum(cards, out=voff[1:])
        total = int(voff[-1])
        starts = self.voff[index]
        idx = native.seg_gather_index(starts, cards, total)
        sub = BatchFrame(edges, self.eids[index], cards, voff, self.vflat[idx])
        if self.dense is not None:
            sub.dense = self.dense[idx]
            sub.interner = self.interner
        return sub
