"""The dynamic fast path's numpy kernels, counted and timed.

The columnar pipeline spends its time in a handful of argsort-skeleton
kernels — stable grouping, segmented gathers, dedup, pack, the greedy
matcher's batched ``find_next`` search — plus the columnar
structure-edit kernels.  Their bodies live in
:mod:`repro.native.kernels`; this package exports each one as a module
attribute wrapped in a counting, wall-clock-timing shim, and callers
call them directly (``native.seg_gather_index(...)``).

Every kernel call is counted and timed into a per-kernel stats table
(:func:`stats`); an attached timing hook (:func:`set_timing_hook` —
installed by ``repro.obs.Observer.attach_native_kernels``) feeds the
``repro_native_*`` metrics.  The ledger is never touched here: callers
charge the model cost of the operation a kernel executes.

:data:`VEC_MIN` is the one route rule of the dynamic fast path (see
docs/hotpath.md, "Route selection"): a call with at least ``VEC_MIN``
input items takes the columnar route — ``BatchFrame``, the vector
matcher and the edit kernels — and a smaller call takes the scalar
matcher and the per-edge structure edits.  Both routes charge the
ledger bit-identically.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.native import kernels as _kernels
from repro.native.arena import ColumnArena  # noqa: F401  (re-export)

#: Calls with at least this many input items take the columnar route;
#: below it the numpy setup costs more than the scalar loops save.
VEC_MIN = 64

_STATS: Dict[str, Dict[str, float]] = {}
_TIMING_HOOK: Optional[Callable[[str, float], None]] = None


class _Counted:
    """Counting, wall-clock-timing wrapper around one kernel."""

    __slots__ = ("fn", "name", "cell")

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.cell = _STATS.setdefault(self.name, {"calls": 0, "seconds": 0.0})

    def __call__(self, *args):
        t0 = time.perf_counter()
        out = self.fn(*args)
        dt = time.perf_counter() - t0
        cell = self.cell
        cell["calls"] += 1
        cell["seconds"] += dt
        hook = _TIMING_HOOK
        if hook is not None:
            hook(self.name, dt)
        return out


group_index = _Counted(_kernels.group_index)
seg_gather_index = _Counted(_kernels.seg_gather_index)
dedup_first_index = _Counted(_kernels.dedup_first_index)
pack_index = _Counted(_kernels.pack_index)
first_alive = _Counted(_kernels.first_alive)
edit_add_level0 = _Counted(_kernels.edit_add_level0)
edit_cross_scan = _Counted(_kernels.edit_cross_scan)
edit_remove_match = _Counted(_kernels.edit_remove_match)
intern_localize = _Counted(_kernels.intern_localize)


def stats() -> Dict[str, Dict[str, float]]:
    """Cumulative per-kernel call stats: ``{kernel: {calls, seconds}}``;
    :func:`reset_stats` clears them."""
    return {k: dict(v) for k, v in _STATS.items()}


def reset_stats() -> None:
    for cell in _STATS.values():
        cell["calls"] = 0
        cell["seconds"] = 0.0


def set_timing_hook(
    hook: Optional[Callable[[str, float], None]],
) -> Optional[Callable[[str, float], None]]:
    """Install (or clear, with None) the per-call timing hook; returns
    the previously installed hook so callers can restore it.

    Called as ``hook(kernel_name, seconds)`` after every kernel call;
    the observability layer uses this to feed the ``repro_native_*``
    metric family.  One hook at a time — a new attach replaces the
    previous.
    """
    global _TIMING_HOOK
    prev = _TIMING_HOOK
    _TIMING_HOOK = hook
    return prev
