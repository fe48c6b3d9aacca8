"""One structure API: DynamicMatching runs one pipeline over either backend.

The algorithm layer reaches the structure only through the attributes it
names on ``structure``.  Each must exist on the dict oracle and on the
array backend alike, so a new structure call cannot land on one backend
only.  The columnar route's frame plumbing (``frame_dense``,
``interner``) is the one array-only part, behind ``_columnar``.
"""

import ast
import inspect

import numpy as np

import repro.core.dynamic_matching as dmod
from repro.core.diagnostics import structure_report
from repro.core.dynamic_matching import BACKENDS, DynamicMatching
from repro.parallel.ledger import Ledger
from repro.workloads.generators import erdos_renyi_edges, star_edges

COLUMNAR_ONLY = {"frame_dense", "interner"}


def structure_attributes() -> set:
    """Every ``structure.<name>`` and ``self.structure.<name>`` in
    :mod:`repro.core.dynamic_matching`."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(dmod))):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if (isinstance(base, ast.Name) and base.id == "structure") or (
            isinstance(base, ast.Attribute)
            and base.attr == "structure"
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            names.add(node.attr)
    return names - COLUMNAR_ONLY


def test_both_backends_serve_every_structure_call():
    names = structure_attributes()
    # The walk sees the pipeline's calls, not just a few queries.
    assert {"split_matched", "free_flags", "install_match_batch", "adjust_scan_batch"} <= names
    missing = {
        backend: sorted(n for n in names if not hasattr(cls(rank=2, ledger=Ledger()), n))
        for backend, cls in BACKENDS.items()
    }
    assert missing == {backend: [] for backend in BACKENDS}


def test_structure_report_equal_on_both_backends():
    """Insert a star and a random graph, delete the matching (settle
    rounds raise matches off level 0), insert more: one report."""
    reports = []
    for backend in sorted(BACKENDS):
        dm = DynamicMatching(rank=2, seed=6, backend=backend)
        dm.insert_edges(
            star_edges(80) + erdos_renyi_edges(60, 240, np.random.default_rng(6), start_eid=100)
        )
        dm.delete_edges(dm.matched_ids())
        dm.insert_edges(erdos_renyi_edges(60, 120, np.random.default_rng(7), start_eid=1000))
        dm.check_invariants()
        reports.append(structure_report(dm))
    assert reports[0] == reports[1]
    assert reports[0].max_level >= 1
