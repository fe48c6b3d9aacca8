"""Shared helpers for the benchmark harness.

Each ``benchmarks/test_eN_*.py`` file regenerates one experiment from
DESIGN.md's per-experiment index: it computes the model metrics (work,
depth, rounds, prices — read off the cost ledger) inside a
``benchmark.pedantic(..., rounds=1)`` call (so ``--benchmark-only`` runs
it and times it), prints the experiment table via the ``report`` fixture,
and asserts the paper's qualitative claim.  The ``bench_*.py`` scripts
use :func:`alternating_pairs` for their asserted overhead rows.
"""

from __future__ import annotations

import statistics
from typing import Callable


def run_updates(algo, stream) -> dict:
    """Apply a stream; return work/depth aggregates from the ledger."""
    per_batch_depth = []
    total_updates = 0
    w0 = algo.ledger.work
    for batch in stream:
        d0 = algo.ledger.depth
        if batch.kind == "insert":
            algo.insert_edges(list(batch.edges))
        else:
            algo.delete_edges(list(batch.eids))
        per_batch_depth.append(algo.ledger.depth - d0)
        total_updates += batch.size
    return {
        "work": algo.ledger.work - w0,
        "updates": total_updates,
        "work_per_update": (algo.ledger.work - w0) / max(total_updates, 1),
        "max_depth": max(per_batch_depth, default=0.0),
        # Exact depth of the whole run (batches are sequential): what
        # Brent-bound comparisons should use, not mean * batch-count.
        "total_depth": sum(per_batch_depth),
        "mean_depth": sum(per_batch_depth) / max(len(per_batch_depth), 1),
    }


def alternating_pairs(
    base: Callable[[], float], other: Callable[[], float], pairs: int
) -> dict:
    """Time ``other`` against ``base`` as the median of alternating pairs.

    Both callables run one measurement and return a rate (higher is
    better, e.g. updates/s).  Each pair runs both sides back to back,
    alternating which goes first, so slow host drift lands on both sides
    equally; the per-pair ratio ``other / base`` cancels what a pair
    shares, and the median discards the pairs a load spike hit.  Returns
    the per-pair ratios, their median, and each side's median rate.
    """
    base_rates, other_rates = [], []
    for i in range(pairs):
        if i % 2 == 0:
            base_rates.append(base())
            other_rates.append(other())
        else:
            other_rates.append(other())
            base_rates.append(base())
    ratios = [o / b for b, o in zip(base_rates, other_rates)]
    return {
        "ratios": [round(r, 4) for r in ratios],
        "median_ratio": statistics.median(ratios),
        "base_median": statistics.median(base_rates),
        "other_median": statistics.median(other_rates),
    }
