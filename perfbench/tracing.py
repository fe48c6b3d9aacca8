"""Outside-in layer trace: wrappers installed from the benchmark's files.

:class:`Recorder` keeps spans in memory — ``(name, start_ns, end_ns,
parent, batch)`` — and derives each layer's *self time* (its span's
duration minus the part its child spans cover).  :class:`Patches`
installs timing wrappers at the places the program's callers look the
functions up (module globals and class attributes) and removes them
again, so untraced rounds run the unmodified code.

Nothing under ``src/`` is changed: the wrappers sit around public calls
into each layer, which is what the benchmark can see from outside.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_ns = time.perf_counter_ns

#: Root span names: one per closed-loop operation the benchmark issues.
ROOTS = ("batch", "read")


class Recorder:
    """In-memory span store with a parent stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, batch]
        self._stack: List[int] = []
        self.batch = -1
        self.counts: Dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _ns(), 0, parent, self.batch])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _ns()
        self._stack.pop()

    def closed_child(self, name: str, seconds: float) -> None:
        """Record a span that just ended and lasted ``seconds`` (used for
        kernel timings reported after the fact)."""
        end = _ns()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, end - int(seconds * 1e9), end, parent, self.batch])

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------ #
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: summed self time (s) and span count."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += (end - start - child[i]) * 1e-9
            calls[name] += 1
        return dict(total), dict(calls)

    def root_seconds(self) -> float:
        return sum(
            (end - start) * 1e-9
            for name, start, end, parent, _ in self.spans
            if parent < 0 and name in ROOTS
        )

    def dump(self, path: str) -> None:
        """Write the spans out as JSON lines (called when the run ends)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, batch) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "batch": batch}
                ))
                fh.write("\n")


class Patches:
    """A set of attribute replacements that can be installed and removed."""

    def __init__(self) -> None:
        self._items: List[Tuple[object, str, object, object]] = []
        self._hooks: List[Tuple[Callable, Callable]] = []
        self._saved_hooks: List[Optional[Callable]] = []
        self.active = False

    def add(self, owner: object, attr: str, replacement: object) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        self._items.append((owner, attr, original, replacement))

    def add_hook(self, setter: Callable, hook: Callable) -> None:
        """A ``set_*_hook``-style setter that returns the previous hook."""
        self._hooks.append((setter, hook))

    def install(self) -> None:
        for owner, attr, _, replacement in self._items:
            setattr(owner, attr, replacement)
        self._saved_hooks = [setter(hook) for setter, hook in self._hooks]
        self.active = True

    def remove(self) -> None:
        for owner, attr, original, _ in self._items:
            setattr(owner, attr, original)
        for (setter, _), prev in zip(self._hooks, self._saved_hooks):
            setter(prev)
        self.active = False


def _method(rec: Recorder, owner: type, attr: str, name: str, patches: Patches) -> None:
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        patches.add(owner, attr, classmethod(rec.wrap(original.__func__, name)))
    else:
        patches.add(owner, attr, rec.wrap(original, name))


def layer_patches(rec: Recorder) -> Patches:
    """Wrappers around every layer a batch or read passes through."""
    import repro.core.dynamic_matching as dmod
    import repro.native as native
    import repro.static_matching.vector_greedy as vg
    import repro.sharding.router as router
    from repro.core.arraystore import ArrayLeveledStructure
    from repro.core.dynamic_matching import DynamicMatching
    from repro.durability.manager import DurabilityManager
    from repro.parallel.frames import BatchFrame
    from repro.query.service import QueryService
    from repro.sharding import ShardedMatching, handoff
    from repro.sharding.transport import ProcessShardHost

    p = Patches()
    for attr in ("insert_edges", "delete_edges"):
        _method(rec, DynamicMatching, attr, "core.apply", p)
    for attr in sorted(ArrayLeveledStructure.__dict__):
        if attr.endswith("_batch") or attr in ("free_flags", "split_matched"):
            if callable(ArrayLeveledStructure.__dict__[attr]):
                _method(rec, ArrayLeveledStructure, attr, "core.edit", p)
    _method(rec, BatchFrame, "from_edges", "parallel.frame", p)
    # run_stream records the matching size after every batch.
    _method(rec, DynamicMatching, "matched_ids", "workloads.record", p)
    _method(rec, ShardedMatching, "matched_ids", "workloads.record", p)

    greedy = dmod.parallel_greedy_match

    def traced_greedy(edges, *args, **kwargs):
        idx = rec.open("static_matching.greedy")
        try:
            result = greedy(edges, *args, **kwargs)
        finally:
            rec.close(idx)
        rec.count("greedy.calls")
        rec.count("greedy.offered", len(edges))
        rec.count("greedy.matched", len(result.matches))
        return result

    p.add(dmod, "parallel_greedy_match", traced_greedy)

    vector = vg.vector_greedy_match

    def counted_vector(*args, **kwargs):
        rec.count("greedy.vector_calls")
        return vector(*args, **kwargs)

    p.add(vg, "vector_greedy_match", counted_vector)

    def kernel_hook(name: str, seconds: float) -> None:
        rec.closed_child("native.kernel", seconds)

    p.add_hook(native.set_timing_hook, kernel_hook)

    _method(rec, DurabilityManager, "log_batch", "durability.journal", p)
    _method(rec, DurabilityManager, "checkpoint_now", "durability.checkpoint", p)
    _method(rec, QueryService, "publish", "query.publish", p)

    p.add(router, "split_insert", rec.wrap(router.split_insert, "sharding.split"))
    p.add(router, "split_delete", rec.wrap(router.split_delete, "sharding.split"))
    for attr in ("proposal_vertices", "resolve"):
        p.add(handoff, attr, rec.wrap(getattr(handoff, attr), "sharding.handoff"))
    for attr in ("request", "response"):
        _method(rec, ProcessShardHost, attr, "sharding.ipc_wait", p)
    return p


def recovery_patches(rec: Recorder) -> Patches:
    """Wrappers splitting :func:`repro.durability.recover` into loading
    (journal read, checkpoint pick and restore) and journal-tail replay."""
    import repro.durability.recovery as rmod

    p = Patches()
    for attr in ("read_journal", "latest_valid_checkpoint", "restore_from_checkpoint"):
        p.add(rmod, attr, rec.wrap(getattr(rmod, attr), "durability.recover_load"))
    p.add(rmod, "_apply", rec.wrap(rmod._apply, "durability.recover_replay"))
    return p
