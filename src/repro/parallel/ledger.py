"""Work-depth cost ledger for the simulated fork-join machine.

The ledger is the accounting backbone of the whole reproduction: every
parallel primitive, data-structure operation, and algorithm phase charges
work and depth here.  The conventions mirror the paper's cost model:

* **Work** is additive: every charge adds to a single global counter (and,
  optionally, to a per-tag counter so experiments can attribute work to
  phases such as ``"greedy_match"`` or ``"adjust_cross_edges"``).

* **Depth** composes *sequentially* within a frame (charges add) and
  *in parallel* across sibling branches of a parallel region (the region
  contributes the max branch depth to its parent frame).

Typical usage::

    ledger = Ledger()
    with ledger.measure() as span:
        ledger.charge(work=n, depth=log2ceil(n))     # e.g. a prefix sum
        with ledger.parallel() as region:
            for item in items:
                with region.branch():
                    ledger.charge(work=1, depth=1)   # per-branch body
    span.cost  # Cost(work=n + len(items), depth=log2ceil(n) + 1)

The ledger is deliberately *not* thread-safe: the simulated machine executes
sequentially, which is what makes the accounting exact and reproducible.

Batched charging
----------------
The context-manager API above prices arbitrary nested computations, but it
costs real Python work per branch.  Hot loops whose branches all charge the
*same* depth should instead price the whole region with one call —
:meth:`Ledger.charge_parallel` — which is exactly equivalent (work is the
sum over branches, depth the shared per-branch depth, nothing charged for
an empty region) while executing a single ledger call per batch.  The
bulk data-structure layers (:mod:`repro.parallel.dictionary`,
:mod:`repro.core.arraystore`) are written against this batched API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional


def log2ceil(n: float) -> int:
    """Ceiling of log2(n), with log2ceil(x) = 1 for x <= 2.

    Used as the canonical "logarithmic depth" charge: primitives on inputs
    of size ``n`` charge ``log2ceil(n)`` depth.  Defined to be at least 1 so
    that even constant-size operations consume a unit of depth.
    """
    if n <= 2:
        return 1
    if type(n) is int:  # exact and ~3x faster than the float path
        return (n - 1).bit_length()
    return int(math.ceil(math.log2(n)))


@dataclass(frozen=True)
class Cost:
    """An immutable (work, depth) pair.

    Supports the two composition rules of the work-depth model:
    ``a.then(b)`` for sequential composition and ``Cost.par([...])`` for
    parallel composition.
    """

    work: float = 0.0
    depth: float = 0.0

    def then(self, other: "Cost") -> "Cost":
        """Sequential composition: work and depth both add."""
        return Cost(self.work + other.work, self.depth + other.depth)

    @staticmethod
    def par(costs: Iterable["Cost"]) -> "Cost":
        """Parallel composition: work adds, depth takes the max."""
        work = 0.0
        depth = 0.0
        for c in costs:
            work += c.work
            depth = max(depth, c.depth)
        return Cost(work, depth)

    def __add__(self, other: "Cost") -> "Cost":
        return self.then(other)


class _Frame:
    """A sequential accounting frame: accumulates depth charges in order."""

    __slots__ = ("depth",)

    def __init__(self) -> None:
        self.depth = 0.0


class _Branch:
    """One parallel branch: a reusable context manager pushing a frame.

    Branches of a region run one at a time on the simulated machine, so a
    single branch object (and its frame) is reused across iterations —
    no generator or frame allocation per branch.
    """

    __slots__ = ("_region", "_frame")

    def __init__(self, region: "_ParallelRegion") -> None:
        self._region = region
        self._frame = _Frame()

    def __enter__(self) -> None:
        frame = self._frame
        frame.depth = 0.0
        self._region._ledger._stack.append(frame)
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        region = self._region
        region._ledger._stack.pop()
        depth = self._frame.depth
        if depth > region._max_branch_depth:
            region._max_branch_depth = depth
        return False


class _ParallelRegion:
    """Collects branch depths; contributes their max to the parent frame."""

    __slots__ = ("_ledger", "_max_branch_depth", "_open", "_branch")

    def __init__(self, ledger: "Ledger") -> None:
        self._ledger = ledger
        self._max_branch_depth = 0.0
        self._open = True
        self._branch = _Branch(self)

    def branch(self) -> _Branch:
        """Open one parallel branch.  Depth charged inside is isolated and
        folded into the region's running max on exit."""
        if not self._open:
            raise RuntimeError("parallel region already closed")
        return self._branch

    def __enter__(self) -> "_ParallelRegion":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._ledger._stack[-1].depth += self._close()
        return False

    def _close(self) -> float:
        self._open = False
        return self._max_branch_depth


class _Span:
    """Handle returned by :meth:`Ledger.measure`; holds the measured cost."""

    __slots__ = ("_start_work", "_start_depth", "cost", "_ledger")

    def __init__(self, ledger: "Ledger") -> None:
        self._ledger = ledger
        self._start_work = ledger.work
        self._start_depth = ledger._stack[-1].depth
        self.cost: Optional[Cost] = None

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._finish()
        return False

    def _finish(self) -> None:
        self.cost = Cost(
            self._ledger.work - self._start_work,
            self._ledger._stack[-1].depth - self._start_depth,
        )


class Ledger:
    """Accumulates work and depth for a simulated fork-join computation.

    Attributes
    ----------
    work:
        Total work charged since construction (or :meth:`reset`).
    by_tag:
        Per-tag work counters, for attributing cost to algorithm phases.
    """

    def __init__(self) -> None:
        self.work: float = 0.0
        self.by_tag: Dict[str, float] = {}
        self._stack: List[_Frame] = [_Frame()]

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    def charge(self, work: float = 0.0, depth: float = 0.0, tag: Optional[str] = None) -> None:
        """Charge ``work`` units of work and ``depth`` units of sequential
        depth to the current frame.  ``tag`` attributes the work to a phase."""
        if work < 0 or depth < 0:
            raise ValueError("work and depth charges must be non-negative")
        self.work += work
        self._stack[-1].depth += depth
        if tag is not None:
            by_tag = self.by_tag
            by_tag[tag] = by_tag.get(tag, 0.0) + work

    def charge_cost(self, cost: Cost, tag: Optional[str] = None) -> None:
        """Charge a pre-composed :class:`Cost`."""
        self.charge(cost.work, cost.depth, tag=tag)

    def charge_parallel(
        self,
        count: int,
        work: float,
        depth: float,
        tag: Optional[str] = None,
    ) -> None:
        """Price a uniform parallel region with a single ledger call.

        Equivalent to opening :meth:`parallel` with ``count`` branches where
        the branches together charge ``work`` total work and *every* branch
        charges exactly ``depth`` depth: the region contributes ``depth``
        (the max branch) to the current frame, or nothing when empty.

        This is the batched-charging fast path for the bulk primitives —
        one call per batch instead of one per element, with identical
        totals by construction.
        """
        if count <= 0:
            return
        self.charge(work=work, depth=depth, tag=tag)

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #
    def parallel(self) -> _ParallelRegion:
        """Open a parallel region.  Use ``region.branch()`` per parallel
        task; on exit the max branch depth is added to the enclosing frame."""
        return _ParallelRegion(self)

    def measure(self) -> _Span:
        """Measure the cost of a block.  ``span.cost`` is set on exit.

        Measurement is purely observational: charges inside still flow to
        the ledger's totals.
        """
        return _Span(self)

    # ------------------------------------------------------------------ #
    # Introspection / control
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> float:
        """Depth accumulated in the root frame (total sequential depth)."""
        return self._stack[0].depth

    def snapshot(self) -> Cost:
        """Current (work, root-depth) totals as a :class:`Cost`."""
        return Cost(self.work, self.depth)

    def reset(self) -> None:
        """Zero all counters.  Must not be called inside an open region."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot reset ledger inside an open parallel region")
        self.work = 0.0
        self.by_tag.clear()
        self._stack = [_Frame()]

    def restore(
        self,
        work: float,
        depth: float,
        by_tag: Optional[Dict[str, float]] = None,
    ) -> None:
        """Reinstate previously captured totals (checkpoint recovery).

        Replaces all counters with the given values, exactly as if the
        charges that produced them had been replayed.  Must not be called
        inside an open parallel region.
        """
        if work < 0 or depth < 0:
            raise ValueError("restored work and depth must be non-negative")
        if len(self._stack) != 1:
            raise RuntimeError("cannot restore ledger inside an open parallel region")
        self.work = float(work)
        self.by_tag = {k: float(v) for k, v in (by_tag or {}).items()}
        frame = _Frame()
        frame.depth = float(depth)
        self._stack = [frame]


class NullLedger(Ledger):
    """A ledger that discards all charges.

    Handy for running the algorithms without accounting overhead (e.g. in
    wall-clock benchmarks where only the output matters).
    """

    def charge(self, work: float = 0.0, depth: float = 0.0, tag: Optional[str] = None) -> None:  # noqa: D102
        if work < 0 or depth < 0:
            raise ValueError("work and depth charges must be non-negative")


def parallel_for(ledger: Ledger, items: Iterable, body, per_item_depth: Optional[float] = None):
    """Run ``body(item)`` for every item as one parallel region.

    Work charged inside each call accumulates; depth contributed by the loop
    is the *max* over iterations (plus nothing else).  If ``per_item_depth``
    is given, each iteration additionally charges that flat depth (a common
    shorthand for "each branch is a constant-depth body").

    Returns the list of ``body`` return values, in iteration order.

    This is the moral equivalent of ``parallel()`` + ``branch()`` per item,
    executed with one reused frame instead of a context manager per branch.
    """
    stack = ledger._stack
    frame = _Frame()
    stack.append(frame)
    max_depth = 0.0
    results = []
    append = results.append
    charge = ledger.charge
    try:
        for item in items:
            frame.depth = 0.0
            if per_item_depth is not None:
                charge(depth=per_item_depth)
            append(body(item))
            if frame.depth > max_depth:
                max_depth = frame.depth
    finally:
        stack.pop()
        stack[-1].depth += max_depth
    return results
