"""The seeded stream behind the committed version-2 snapshot fixtures.

``tests/core/data/snapshot_v2.json`` (a ``save_state`` dict) and
``tests/core/data/checkpoint_v2.json`` (a ``write_checkpoint`` file) were
written by the version-2 snapshot writer after the first
:data:`PREFIX_BATCHES` batches of :func:`fixture_stream`.  The tests load
them with the current reader and continue the remaining batches.

The current tree writes version 3, so regenerating the fixtures needs a
tree whose ``save_state`` still writes version 2 on ``PYTHONPATH``::

    PYTHONPATH=<v2-tree>/src:. python tests/core/snapshot_fixtures.py tests/core/data
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from typing import List, Tuple

import numpy as np

from repro.hypergraph.edge import Edge

SEED = 3
RANK = 3
#: Batches absorbed before the fixtures were taken.
PREFIX_BATCHES = 15
#: Batches the tests replay after restoring.
TOTAL_BATCHES = 24


def fixture_stream() -> List[Tuple[str, list]]:
    """Rank-3 edges on 30 vertices: two 40-edge inserts, then one delete
    of 24 random live edges, repeated.  Dense enough that settles reach
    levels 3 and 4."""
    rng = np.random.default_rng(SEED)
    edges = [Edge(i, rng.choice(30, size=RANK, replace=False).tolist()) for i in range(500)]
    live: List[int] = []
    out: List[Tuple[str, list]] = []
    pos = 0
    for b in range(TOTAL_BATCHES):
        if b % 3 != 2 and pos < len(edges):
            batch = edges[pos : pos + 40]
            pos += 40
            out.append(("insert", batch))
            live.extend(e.eid for e in batch)
        else:
            k = min(len(live), 24)
            idx = sorted(rng.choice(len(live), size=k, replace=False).tolist(), reverse=True)
            out.append(("delete", [live.pop(i) for i in idx]))
    return out


def apply(dm, batch: Tuple[str, list]) -> None:
    kind, items = batch
    if kind == "insert":
        dm.insert_edges(list(items))
    else:
        dm.delete_edges(list(items))


def write_fixtures(out_dir: str) -> None:
    from repro.core.dynamic_matching import DynamicMatching
    from repro.core.snapshot import save_state
    from repro.durability.checkpoint import write_checkpoint

    dm = DynamicMatching(rank=RANK, seed=SEED)
    for batch in fixture_stream()[:PREFIX_BATCHES]:
        apply(dm, batch)
    with open(os.path.join(out_dir, "snapshot_v2.json"), "w") as fh:
        json.dump(save_state(dm), fh, separators=(",", ":"))
    tmp = tempfile.mkdtemp()
    try:
        path = write_checkpoint(tmp, dm, PREFIX_BATCHES)
        shutil.copyfile(path, os.path.join(out_dir, "checkpoint_v2.json"))
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    write_fixtures(sys.argv[1])
