"""Overhead budget: default observation costs <= 5% on the E1 path.

Timing assertions are inherently noisy, so this is gated behind
``REPRO_OBS_BENCH=1`` (the CI obs job sets it; plain tier-1 runs skip).
The measurement interleaves observed and unobserved repeats and compares
min-of-N, the standard noise-robust statistic for "how fast can this
go" — a regression that pushes the *minimum* over budget is real.

Two streams: 50-edge batches (every call below ``repro.native.VEC_MIN``,
the per-edge route) and 128-edge batches (the columnar route that
``python -m repro run`` ships on large batches).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import DynamicMatching
from repro.obs import Observer
from repro.workloads import FifoAdversary, erdos_renyi_edges, insert_then_delete_stream
from repro.workloads.runner import run_stream

pytestmark = [
    pytest.mark.obs,
    pytest.mark.skipif(
        os.environ.get("REPRO_OBS_BENCH", "0") in ("", "0"),
        reason="timing assertion; enable with REPRO_OBS_BENCH=1",
    ),
]

#: Budget from the issue's acceptance criteria: observation may cost at
#: most 5% wall-clock on the E1 smoke workload, plus a tiny absolute
#: epsilon so microsecond-scale timer noise can't fail a sub-ms delta.
BUDGET_RATIO = 1.05
EPSILON_S = 2e-3

REPEATS = 7


STREAMS = {50: (200, 600), 128: (600, 1536)}  # batch -> (vertices, edges)


def _stream(batch: int):
    n, m = STREAMS[batch]
    edges = erdos_renyi_edges(n, m, rng=np.random.default_rng(42))
    return insert_then_delete_stream(edges, batch, adversary=FifoAdversary())


def _one_run(observed: bool, batch: int) -> float:
    dm = DynamicMatching(rank=2, seed=42, backend="array")
    stream = _stream(batch)
    observer = Observer() if observed else False
    t0 = time.perf_counter()
    run_stream(dm, stream, observer=observer)
    return time.perf_counter() - t0


@pytest.mark.parametrize("batch", sorted(STREAMS))
def test_observation_overhead_within_budget(batch):
    on, off = [], []
    _one_run(True, batch), _one_run(False, batch)  # warm caches outside the measurement
    for _ in range(REPEATS):  # interleave so drift hits both arms equally
        on.append(_one_run(True, batch))
        off.append(_one_run(False, batch))
    best_on, best_off = min(on), min(off)
    assert best_on <= best_off * BUDGET_RATIO + EPSILON_S, (
        f"observation overhead over budget: observed {best_on:.4f}s vs "
        f"plain {best_off:.4f}s "
        f"({(best_on / best_off - 1) * 100:.1f}% > {(BUDGET_RATIO - 1) * 100:.0f}%)"
    )
