"""Snapshot / restore of the leveled matching structure.

Long-running services need to checkpoint.  ``save_state`` captures the
full Definition 4.1 state — edges, types, owners, sample/cross sets,
levels, settle sizes, vertex covers — as a JSON-serializable dict;
``load_state`` rebuilds a working :class:`DynamicMatching` from it.

Snapshots make restore a **behaviorally exact state copy**: a restored
instance fed the same batches as the original produces the same matching
trajectory and the same per-batch ledger charges.  That requires
capturing three things that are history, not content:

* **RNG state** — the full bit-generator state, so the restored instance
  continues the original's random stream.  (Version 1 deliberately
  excluded it; the durability layer's replay certification needs it.)
* **Set capacities** — the simulated hash-table capacities of S(m), C(m)
  and the P(v, l) buckets.  Shrink hysteresis makes capacity depend on
  history, and future rehash charges depend on capacity.
* **P(v, l) iteration order** — bucket and level-dict ordering feed the
  ``cross_edges_below`` scan order, which feeds greedy pool order.

**History** (epoch tracker telemetry, batch stats, ledger totals) is still
reset: a snapshot captures state, not the telemetry of how it got there.
The durability layer (:mod:`repro.durability`) persists the ledger totals
and the tracker's running aggregates separately in its checkpoints.

Version 3 (the only version written) holds that state as flat parallel
columns — one list per field, no container per edge, match or bucket:

* ``edges`` — per registered edge, in registration order: ``eid``,
  ``card``, ``type`` (code, see
  :data:`~repro.core.level_structure.EDGE_TYPE_CODES`) and ``owner``;
  ``vertices`` holds every edge's vertices in one list, segmented by
  ``card``;
* ``matches`` — per matched edge, in registration order: ``level``,
  ``settle`` (settle size), ``scap``/``ccap`` (capacities of S(m) and
  C(m)); ``samples``/``cross`` hold the members of every S(m)/C(m) in
  iteration order, segmented by ``slen``/``clen``;
* ``P`` — one row per (vertex, level) bucket in iteration order:
  ``vertex``, ``level``, ``cap``, ``count``; ``members`` holds the
  buckets' edge ids, segmented by ``count``.

Version 2 held the same content as one dict per edge; version 1 lacked
the RNG state, the capacities and P.  Both still load: ``load_state``
normalizes them to the version-3 columns and restores through the same
passes.  Version-1 snapshots restore with a fresh seed and rederived
capacities; they are *not* exact copies.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.core.dynamic_matching import DynamicMatching
from repro.core.level_structure import EDGE_TYPE_CODES, EdgeType
from repro.hypergraph.edge import Edge
from repro.parallel.ledger import Ledger

FORMAT_VERSION = 3

#: Snapshot versions this module can load.
SUPPORTED_VERSIONS = (1, 2, 3)

_MATCHED = EDGE_TYPE_CODES.index(EdgeType.MATCHED)
_EDGE_FIELDS = ("eid", "card", "type", "owner", "vertices")
_MATCH_FIELDS = ("level", "settle", "scap", "ccap", "slen", "samples", "clen", "cross")
_P_FIELDS = ("vertex", "level", "cap", "count", "members")


def rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """The generator's full bit-generator state (JSON-serializable)."""
    return rng.bit_generator.state


def rng_from_state(state: Dict[str, Any]) -> np.random.Generator:
    """Rebuild a generator that continues the captured random stream."""
    name = state["bit_generator"]
    try:
        bitgen_cls = getattr(np.random, name)
    except AttributeError:
        raise ValueError(f"unknown bit generator {name!r}") from None
    bg = bitgen_cls()
    bg.state = state
    return np.random.Generator(bg)


def save_state(dm: DynamicMatching) -> Dict[str, Any]:
    """Serialize the structure to a JSON-compatible version-3 dict.

    Read-only: charges nothing and mutates nothing.
    """
    s = dm.structure
    return {
        "version": FORMAT_VERSION,
        "rank": s.rank,
        "alpha": s.alpha,
        "heavy_factor": s.heavy_factor,
        **s.snapshot_columns(),
        "rng_state": rng_state(dm.rng),
    }


def _columns_from_records(state: Dict[str, Any]) -> Dict[str, Any]:
    """The version-3 columns of a version-1 or -2 (dict-per-edge) state."""
    edges: Dict[str, list] = {k: [] for k in _EDGE_FIELDS}
    m: Dict[str, list] = {k: [] for k in _MATCH_FIELDS}
    for entry in state["edges"]:
        vs = entry["vertices"]
        etype = EdgeType(entry["type"])
        edges["eid"].append(entry["eid"])
        edges["card"].append(len(vs))
        edges["type"].append(EDGE_TYPE_CODES.index(etype))
        edges["owner"].append(entry["owner"])
        edges["vertices"].extend(vs)
        if etype == EdgeType.MATCHED:
            m["level"].append(entry["level"])
            m["settle"].append(entry["settle_size"])
            m["scap"].append(entry.get("scap"))  # absent in version 1
            m["ccap"].append(entry.get("ccap"))
            m["slen"].append(len(entry["samples"]))
            m["samples"].extend(entry["samples"])
            m["clen"].append(len(entry["cross"]))
            m["cross"].extend(entry["cross"])
    P: Optional[Dict[str, list]] = None
    if state.get("P") is not None:  # version 2
        P = {k: [] for k in _P_FIELDS}
        for v, levels in state["P"]:
            for lvl, eids, cap in levels:
                P["vertex"].append(v)
                P["level"].append(lvl)
                P["cap"].append(cap)
                P["count"].append(len(eids))
                P["members"].extend(eids)
    return {"edges": edges, "matches": m, "P": P}


def _check_group(group: str, cols: Dict[str, list], fields: tuple, rows: int,
                 segments: Dict[str, str]) -> None:
    """Per-row columns of ``cols`` have ``rows`` entries; each flat column
    (a value of ``segments``) is as long as its length column's sum."""
    for k in fields:
        if k not in segments.values() and len(cols[k]) != rows:
            raise ValueError(f"snapshot column {group}.{k} has {len(cols[k])} rows, not {rows}")
    for lengths, flat in segments.items():
        if sum(cols[lengths]) != len(cols[flat]):
            raise ValueError(
                f"snapshot column {group}.{flat} holds {len(cols[flat])} entries, "
                f"but {group}.{lengths} sums to {sum(cols[lengths])}"
            )


def _columns(state: Dict[str, Any]) -> Dict[str, Any]:
    """Any supported snapshot as checked version-3 columns."""
    version = state.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported snapshot version {version!r}")
    cols = _columns_from_records(state) if version < 3 else state
    edges, m, P = cols["edges"], cols["matches"], cols["P"]
    _check_group("edges", edges, _EDGE_FIELDS, len(edges["eid"]), {"card": "vertices"})
    if any(not 0 <= c < len(EDGE_TYPE_CODES) for c in edges["type"]):
        raise ValueError("snapshot column edges.type holds an unknown type code")
    _check_group("matches", m, _MATCH_FIELDS, edges["type"].count(_MATCHED),
                 {"slen": "samples", "clen": "cross"})
    if P is not None:
        _check_group("P", P, _P_FIELDS, len(P["vertex"]), {"count": "members"})
    return cols


def load_state(
    state: Dict[str, Any],
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    ledger: Optional[Ledger] = None,
    backend: str = "array",
) -> DynamicMatching:
    """Rebuild a :class:`DynamicMatching` from a ``save_state`` dict.

    Accepts snapshot versions 1, 2 and 3.  ``backend`` selects the
    structure implementation ("array" or "dict"); snapshots are
    backend-neutral, so a checkpoint written by one backend restores into
    either.  Raises ``ValueError`` on version mismatch or structural
    inconsistency (the restored structure is invariant-checked before
    being returned).

    Randomness: an explicit ``rng`` wins, then an explicit ``seed``, then
    the snapshot's captured ``rng_state`` (version 2 and later) —
    restoring the captured state is what makes the copy continue the
    original's random stream exactly.
    """
    cols = _columns(state)

    if rng is None and seed is None and state.get("rng_state") is not None:
        rng = rng_from_state(state["rng_state"])

    dm = DynamicMatching(
        rank=state["rank"],
        seed=seed,
        rng=rng,
        alpha=state["alpha"],
        heavy_factor=state["heavy_factor"],
        ledger=ledger,
        backend=backend,
    )
    s = dm.structure
    edges, m = cols["edges"], cols["matches"]
    eids, types = edges["eid"], edges["type"]

    # Pass 1: register all edges.
    flat = edges["vertices"]
    off = 0
    for eid, card in zip(eids, edges["card"]):
        s.register(Edge(eid, flat[off : off + card]))
        off += card

    # Pass 2: install matches with their bookkeeping.
    matched = [eid for eid, code in zip(eids, types) if code == _MATCHED]
    samples, cross = m["samples"], m["cross"]
    births = []
    so = co = 0
    for eid, level, settle, scap, ccap, slen, clen in zip(
        matched, m["level"], m["settle"], m["scap"], m["ccap"], m["slen"], m["clen"]
    ):
        s.restore_match(
            eid,
            samples=samples[so : so + slen],
            cross=cross[co : co + clen],
            level=level,
            settle_size=settle,
            scap=scap,
            ccap=ccap,
        )
        births.append((eid, level, settle, s.edge_of(eid).vertices))
        so += slen
        co += clen
    dm.tracker.birth_batch(births)

    # Pass 3: wire sampled and cross edges (owners now exist).
    for eid, code, owner in zip(eids, types, edges["owner"]):
        if code != _MATCHED:
            s.restore_attached(eid, EDGE_TYPE_CODES[code], owner)

    # Pass 4 (version 2 and later): reinstate the captured P(v, l) index
    # verbatim — pass 3 rebuilt its content, but not its iteration
    # order/capacities.
    if cols["P"] is not None:
        s.restore_level_index(cols["P"])

    dm.check_invariants()
    return dm
