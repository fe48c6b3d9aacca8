"""P(v, l) on both routes of the array backend, against the dict oracle.

The level index is edited by per-edge helpers, and in large cross-edge
inserts on the columnar route by a grouped pass.  The parity suites
fingerprint the matching, samples, epochs and ledger; this file
fingerprints P itself.  Each stream runs three ways: the array backend
with every call on the columnar route and every cross-edge insert
grouped (``repro.native.VEC_MIN`` and ``arraystore._GROUPED_MIN`` = 1),
the array backend with every call per-edge, and the dict oracle.  After every batch the
two array runs must give identical ``snapshot_columns()`` (P rows and
their order included), and the array backend's P rows must equal the
oracle's per vertex (the oracle lists vertices in registration order,
the array backend in P(v) creation order).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.core import arraystore
from repro.core.arraystore import ArrayLeveledStructure
from repro.core.dynamic_matching import DynamicMatching
from repro.core.level_structure import LeveledStructure
from repro.hypergraph.edge import Edge
from repro.parallel.ledger import Ledger

#: Route constants (``VEC_MIN``, ``_GROUPED_MIN``): every call columnar
#: and grouped, every call per-edge, and the defaults.
ROUTES = (
    ("columnar", (1, 1)),
    ("per-edge", (1 << 30, 1 << 30)),
    ("oracle", (native.VEC_MIN, arraystore._GROUPED_MIN)),
)


def _route(monkeypatch, constants):
    monkeypatch.setattr(native, "VEC_MIN", constants[0])
    monkeypatch.setattr(arraystore, "_GROUPED_MIN", constants[1])


def _P_by_vertex(P):
    """P rows grouped per vertex (level order kept); vertex order dropped."""
    out = {}
    off = 0
    for v, lvl, cap, count in zip(P["vertex"], P["level"], P["cap"], P["count"]):
        out.setdefault(v, []).append((lvl, cap, P["members"][off : off + count]))
        off += count
    return out


def _stream(rank, seed, steps=45):
    """Dense random batches on 16 vertices, so settles climb levels and
    busy vertices file many cross edges in one bucket; every third batch
    deletes a few matched edges and, every other time, a share of the
    rest, which empties and shrinks buckets."""
    rng = np.random.default_rng(seed)
    eid = 0
    for step in range(steps):
        if step % 3 == 2:
            yield "delete", (int(rng.integers(1, 12)), float(rng.uniform(0.1, 0.5)) * (step % 2))
        else:
            batch = []
            for _ in range(int(rng.integers(1, 40))):
                card = int(rng.integers(2, rank + 1))
                batch.append(Edge(eid, rng.choice(16, size=card, replace=False).tolist()))
                eid += 1
            yield "insert", batch


def _victims(dm, spec, rng):
    """The first ``k`` matched edges and a share ``frac`` of the rest."""
    k, frac = spec
    matched = dm.matched_ids()
    rest = sorted(set(e.eid for e in dm.structure.all_edges()) - set(matched))
    extra = rng.choice(rest, size=int(frac * len(rest)), replace=False).tolist() if rest else []
    return matched[:k] + extra


@pytest.mark.parametrize("rank,seed", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_level_index_same_on_both_routes_and_the_oracle(rank, seed, monkeypatch):
    dms = {name: DynamicMatching(rank=rank, seed=seed, backend="dict" if name == "oracle" else "array")
           for name, _ in ROUTES}
    rng = np.random.default_rng(100 + seed)
    levels = set()
    grew = shrank = False
    for step, (kind, arg) in enumerate(_stream(rank, seed)):
        victims = _victims(dms["oracle"], arg, rng) if kind == "delete" else None
        for name, constants in ROUTES:
            _route(monkeypatch, constants)
            dm = dms[name]
            if kind == "insert":
                dm.insert_edges([Edge(e.eid, e.vertices) for e in arg])
            else:
                dm.delete_edges(list(victims))
        _route(monkeypatch, ROUTES[-1][1])
        col = dms["columnar"].structure.snapshot_columns()
        assert dms["per-edge"].structure.snapshot_columns() == col, f"step {step}"
        want = dms["oracle"].structure.snapshot_columns()["P"]
        assert _P_by_vertex(col["P"]) == _P_by_vertex(want), f"step {step}"
        levels.update(col["matches"]["level"])
        # A bucket that ever shrank has rehashed more often than its
        # capacity's doublings from the minimum.
        for vr in dms["oracle"].structure.verts.values():
            for b in vr.P.values():
                grew |= b.capacity > 8
                shrank |= b.rehash_count > (b.capacity // 8).bit_length() - 1
        for dm in dms.values():
            dm.check_invariants()
    assert max(levels) >= 2
    assert grew and shrank


@pytest.mark.parametrize("route", [name for name, _ in ROUTES[:2]])
def test_re_adding_attached_cross_edges_re_stores_them(route, monkeypatch):
    """``add_cross_edge_batch`` on edges already attached to the match it
    picks re-stores them in place, as the oracle's BatchSet inserts do:
    the same P rows, C(m) and charges on either route; an edge attached
    to another match is refused."""
    _route(monkeypatch, dict(ROUTES)[route])
    ms = [Edge(0, (0, 1)), Edge(1, (2, 3))]
    cross = [Edge(2 + k, (k % 4, 4 + k)) for k in range(80)]
    out = []
    for cls in (ArrayLeveledStructure, LeveledStructure):
        s = cls(rank=2, ledger=Ledger())
        s.register_batch(ms + cross)
        s.add_level0_batch(ms)
        s.add_cross_edge_batch(cross)
        before = s.ledger.work
        s.add_cross_edge_batch(cross[::-1])
        s.check_invariants()
        col = s.snapshot_columns()
        P = _P_by_vertex(col.pop("P"))
        led = s.ledger
        out.append((col, P, led.work - before, led.depth, sorted(led.by_tag.items())))
    assert out[0] == out[1]
    s = ArrayLeveledStructure(rank=2, ledger=Ledger())
    extra = Edge(90, (1, 2))  # owned by match 1, then vertex 1 gets match 0
    s.register_batch(ms + [extra])
    s.add_level0_batch(ms[1:])
    s.add_cross_edge_batch([extra])
    s.add_level0_batch(ms[:1])
    with pytest.raises(ValueError, match="attached to another match"):
        s.add_cross_edge_batch([extra])
