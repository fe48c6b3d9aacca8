"""Simulated fork-join parallel substrate with work-depth cost accounting.

The paper (Blelloch & Brady, SPAA 2025) analyzes its algorithms in the
fork-join (binary-forking) model, measuring *work* (total instructions) and
*depth* (longest chain of dependent instructions).  CPython's GIL makes
fine-grained fork-join parallelism impossible, so this package provides a
*simulated* machine: algorithms execute sequentially but every parallel
primitive charges the work and depth that the paper's model assigns it, into
a :class:`~repro.parallel.ledger.Ledger`.

Sequential composition adds depth; parallel composition (``parallel_for``,
``Ledger.parallel``) takes the maximum branch depth.  Simulated running time
on ``p`` processors follows Brent's bound, ``T_p <= W/p + D``
(:mod:`repro.parallel.machine`).

Modules
-------
ledger
    Work/depth cost ledger with nested parallel regions and tagged counters.
machine
    Brent-bound simulated machine and speedup curves.
primitives
    map / reduce / scan (prefix sums) / filter / flatten with model costs.
random_perm
    Parallel random permutation (linear work, logarithmic depth).
semisort
    semisort, group_by, sum_by, remove_duplicates (linear expected work).
dictionary
    Batch-parallel hash set with doubling-halving amortization.
findnext
    findNext via doubling then binary search (O(d) work, O(log d) depth).
"""

from repro.parallel.ledger import Cost, Ledger, parallel_for
from repro.parallel.machine import Machine, brent_time
from repro.parallel import primitives
from repro.parallel.random_perm import random_permutation
from repro.parallel.semisort import group_by, remove_duplicates, semisort, sum_by
from repro.parallel.dictionary import BatchSet
from repro.parallel.findnext import find_next

__all__ = [
    "Cost",
    "Ledger",
    "parallel_for",
    "Machine",
    "brent_time",
    "primitives",
    "random_permutation",
    "semisort",
    "group_by",
    "sum_by",
    "remove_duplicates",
    "BatchSet",
    "find_next",
]
