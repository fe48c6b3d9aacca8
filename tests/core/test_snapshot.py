"""Tests for snapshot / restore of the leveled matching structure."""

import json
import os

import numpy as np
import pytest

from repro.core.dynamic_matching import DynamicMatching
from repro.core.level_structure import EDGE_TYPE_CODES, EdgeType
from repro.core.snapshot import FORMAT_VERSION, load_state, save_state
from repro.durability.checkpoint import load_checkpoint, restore_from_checkpoint
from repro.hypergraph.edge import Edge
from repro.workloads.generators import erdos_renyi_edges, star_edges
from tests.core import snapshot_fixtures as fx

DATA = os.path.join(os.path.dirname(__file__), "data")
MATCHED = EDGE_TYPE_CODES.index(EdgeType.MATCHED)
CROSS = EDGE_TYPE_CODES.index(EdgeType.CROSS)
UNSETTLED = EDGE_TYPE_CODES.index(EdgeType.UNSETTLED)


def _churned(seed=0, backend="array"):
    """A structure with matches above level 0, sampled and cross edges."""
    dm = DynamicMatching(rank=2, seed=seed, backend=backend)
    dm.insert_edges(star_edges(64))
    dm.insert_edges(erdos_renyi_edges(20, 80, np.random.default_rng(seed), start_eid=500))
    dm.delete_edges(dm.matched_ids())  # force settles
    return dm


class TestRoundTrip:
    def test_restores_same_graph_and_matching(self):
        dm = _churned()
        state = save_state(dm)
        dm2 = load_state(state, seed=99)
        assert {e.eid for e in dm2.structure.all_edges()} == {
            e.eid for e in dm.structure.all_edges()
        }
        assert dm2.matched_ids() == dm.matched_ids()
        dm2.check_invariants()

    def test_levels_and_settle_sizes_preserved(self):
        dm = _churned()
        dm2 = load_state(save_state(dm), seed=1)
        assert dm2.structure.snapshot_columns()["matches"] == (
            dm.structure.snapshot_columns()["matches"]
        )

    def test_json_serializable(self):
        dm = _churned()
        blob = json.dumps(save_state(dm))
        dm2 = load_state(json.loads(blob), seed=2)
        dm2.check_invariants()

    def test_restored_instance_keeps_working(self):
        dm = _churned(seed=3)
        dm2 = load_state(save_state(dm), seed=4)
        # continue updating on the restored instance
        dm2.insert_edges([Edge(9000 + i, (100 + i, 101 + i)) for i in range(10)])
        dm2.check_invariants()
        dm2.delete_edges(dm2.matched_ids())
        dm2.check_invariants()
        g = dm2.current_graph()
        assert g.is_maximal_matching(dm2.matched_ids())

    def test_empty_structure(self):
        dm = DynamicMatching(seed=0)
        dm2 = load_state(save_state(dm), seed=1)
        assert len(dm2) == 0

    def test_config_preserved(self):
        dm = DynamicMatching(rank=4, seed=0, alpha=3, heavy_factor=8.0)
        dm.insert_edges([Edge(0, (1, 2, 3))])
        dm2 = load_state(save_state(dm), seed=1)
        assert dm2.rank == 4
        assert dm2.structure.alpha == 3
        assert dm2.structure.heavy_factor == 8.0

    def test_save_load_save_identical(self):
        dm = DynamicMatching(rank=fx.RANK, seed=fx.SEED)
        for batch in fx.fixture_stream():
            fx.apply(dm, batch)
            state = save_state(dm)
            assert save_state(load_state(state)) == state

    def test_v3_columns(self):
        dm = _churned()
        state = save_state(dm)
        assert state["version"] == FORMAT_VERSION == 3
        edges, m = state["edges"], state["matches"]
        assert edges["eid"] == [e.eid for e in dm.structure.all_edges()]
        assert len(edges["vertices"]) == sum(edges["card"])
        assert edges["type"].count(MATCHED) == len(m["level"]) == len(dm.matched_ids())
        assert sum(m["slen"]) == len(m["samples"])
        assert sum(m["clen"]) == len(m["cross"])
        assert sum(state["P"]["count"]) == len(state["P"]["members"])


class TestReadOnly:
    @pytest.mark.parametrize("backend", ["array", "dict"])
    def test_save_charges_and_mutates_nothing(self, backend):
        dm = _churned(seed=5, backend=backend)
        led = dm.ledger
        before = (led.work, led.depth, dict(led.by_tag))
        first = save_state(dm)
        assert (led.work, led.depth, dict(led.by_tag)) == before
        dm.check_invariants()
        assert save_state(dm) == first


def _P_by_vertex(P):
    """P rows grouped per vertex (level order kept); vertex order dropped."""
    out = {}
    off = 0
    for v, lvl, cap, count in zip(P["vertex"], P["level"], P["cap"], P["count"]):
        out.setdefault(v, []).append((lvl, cap, P["members"][off : off + count]))
        off += count
    return out


class TestBackendNeutrality:
    @pytest.mark.parametrize("rank", [2, 3])
    def test_array_and_dict_columns_equal_after_every_batch(self, rank):
        # Dense inserts on 16 vertices, and every third batch deletes
        # matched edges, so settles climb to levels 5-7.
        rng = np.random.default_rng(40 + rank)
        dms = [DynamicMatching(rank=rank, seed=rank, backend=b) for b in ("array", "dict")]
        eid = 0
        levels = set()
        for step in range(40):
            if step % 3 == 2:
                victims = dms[0].matched_ids()[: int(rng.integers(1, 12))]
                for dm in dms:
                    dm.delete_edges(list(victims))
            else:
                batch = [
                    Edge(eid + j, rng.choice(16, size=rank, replace=False).tolist())
                    for j in range(int(rng.integers(1, 40)))
                ]
                eid += len(batch)
                for dm in dms:
                    dm.insert_edges([Edge(e.eid, e.vertices) for e in batch])
            a, d = (save_state(dm) for dm in dms)
            levels.update(a["matches"]["level"])
            assert _P_by_vertex(a.pop("P")) == _P_by_vertex(d.pop("P")), f"step {step}"
            assert a == d, f"step {step}"
        assert max(levels) >= 2


# --------------------------------------------------------------------- #
# Validation: the same three corruptions, against v3 columns and the
# committed v2 fixture.
# --------------------------------------------------------------------- #
def _two_edge_state():
    dm = DynamicMatching(seed=0)
    dm.insert_edges([Edge(0, (1, 2)), Edge(1, (2, 3))])
    state = save_state(dm)
    assert CROSS in state["edges"]["type"]
    return state


def _v2_fixture():
    with open(os.path.join(DATA, "snapshot_v2.json")) as fh:
        return json.load(fh)


class TestValidation:
    def test_version_mismatch(self):
        dm = DynamicMatching(seed=0)
        state = save_state(dm)
        state["version"] = 999
        with pytest.raises(ValueError):
            load_state(state)

    def test_corrupt_owner_rejected(self):
        state = _two_edge_state()
        edges = state["edges"]
        for k, code in enumerate(edges["type"]):
            if code == CROSS:
                edges["owner"][k] = 12345
        with pytest.raises(ValueError):
            load_state(state)

    def test_corrupt_cross_membership_rejected(self):
        state = _two_edge_state()
        m = state["matches"]
        off = 0
        for k, clen in enumerate(list(m["clen"])):
            if clen:
                del m["cross"][off : off + clen]
                m["clen"][k] = 0
            off += m["clen"][k]
        with pytest.raises(ValueError):
            load_state(state)

    def test_unsettled_type_rejected(self):
        state = _two_edge_state()
        types = state["edges"]["type"]
        for k, code in enumerate(types):
            if code == CROSS:
                types[k] = UNSETTLED
        with pytest.raises(ValueError):
            load_state(state)

    def test_ragged_columns_rejected(self):
        for group, col in (("edges", "owner"), ("matches", "samples"), ("P", "members")):
            state = save_state(_churned())
            state[group][col].append(state[group][col][0])
            with pytest.raises(ValueError):
                load_state(state)

    def test_unknown_type_code_rejected(self):
        state = _two_edge_state()
        state["edges"]["type"][0] = len(EDGE_TYPE_CODES)
        with pytest.raises(ValueError):
            load_state(state)

    def test_v2_corrupt_owner_rejected(self):
        state = _v2_fixture()
        for entry in state["edges"]:
            if entry["type"] == "cross":
                entry["owner"] = 12345
        with pytest.raises(ValueError):
            load_state(state)

    def test_v2_corrupt_cross_membership_rejected(self):
        state = _v2_fixture()
        for entry in state["edges"]:
            if entry["type"] == "matched":
                entry["cross"] = []
        with pytest.raises(ValueError):
            load_state(state)

    def test_v2_unsettled_type_rejected(self):
        state = _v2_fixture()
        for entry in state["edges"]:
            if entry["type"] == "cross":
                entry["type"] = "unsettled"
        with pytest.raises(ValueError):
            load_state(state)


# --------------------------------------------------------------------- #
# Committed version-2 fixtures load and continue bit-identically.
# --------------------------------------------------------------------- #
def _trajectory(dm, batches):
    """Matched ids and ledger deltas (work, depth, by_tag) per batch."""
    out = []
    for batch in batches:
        led = dm.ledger
        w0, d0, t0 = led.work, led.depth, dict(led.by_tag)
        fx.apply(dm, batch)
        tags = {t: w - t0.get(t, 0.0) for t, w in led.by_tag.items() if w != t0.get(t, 0.0)}
        out.append((dm.matched_ids(), led.work - w0, led.depth - d0, tags))
    return out


@pytest.fixture(scope="module")
def uninterrupted():
    stream = fx.fixture_stream()
    dm = DynamicMatching(rank=fx.RANK, seed=fx.SEED)
    for batch in stream[: fx.PREFIX_BATCHES]:
        fx.apply(dm, batch)
    ledger = (dm.ledger.work, dm.ledger.depth, dict(dm.ledger.by_tag))
    state = save_state(dm)
    return dm.matched_ids(), ledger, state, _trajectory(dm, stream[fx.PREFIX_BATCHES :])


class TestV2Fixtures:
    def test_fixture_is_v2_with_high_levels(self):
        state = _v2_fixture()
        assert state["version"] == 2
        levels = [e["level"] for e in state["edges"] if e["type"] == "matched"]
        assert max(levels) >= 2
        assert {"sampled", "cross"} <= {e["type"] for e in state["edges"]}

    @pytest.mark.parametrize("backend", ["array", "dict"])
    def test_snapshot_continues_like_uninterrupted_run(self, backend, uninterrupted):
        matched, _, _, want = uninterrupted
        dm = load_state(_v2_fixture(), backend=backend)
        assert dm.matched_ids() == matched
        assert _trajectory(dm, fx.fixture_stream()[fx.PREFIX_BATCHES :]) == want

    @pytest.mark.parametrize("backend", ["array", "dict"])
    def test_restored_v2_saves_as_uninterrupted_v3(self, backend, uninterrupted):
        want = dict(uninterrupted[2])
        got = save_state(load_state(_v2_fixture(), backend=backend))
        assert _P_by_vertex(got.pop("P")) == _P_by_vertex(want.pop("P"))
        assert got == want

    def test_checkpoint_passes_crc(self):
        payload = load_checkpoint(os.path.join(DATA, "checkpoint_v2.json"))
        assert payload is not None
        assert payload["state"]["version"] == 2
        assert payload["applied"] == fx.PREFIX_BATCHES

    @pytest.mark.parametrize("backend", ["array", "dict"])
    def test_checkpoint_continues_like_uninterrupted_run(self, backend, uninterrupted):
        matched, ledger, _, want = uninterrupted
        payload = load_checkpoint(os.path.join(DATA, "checkpoint_v2.json"))
        dm = restore_from_checkpoint(payload, backend=backend)
        assert dm.matched_ids() == matched
        assert (dm.ledger.work, dm.ledger.depth, dict(dm.ledger.by_tag)) == ledger
        assert _trajectory(dm, fx.fixture_stream()[fx.PREFIX_BATCHES :]) == want


def _load_cost(state, backend):
    led = load_state(state, backend=backend).ledger
    return led.work, led.depth, dict(led.by_tag)


class TestLoadCost:
    """A bare ``load_state`` charges the same on both backends: the
    array backend's P(v, l) rebuild is priced like the oracle's."""

    def test_v2_fixture_pinned(self):
        state = _v2_fixture()
        want = (5380.0, 3184.0, {"register": 840.0, "dict_batch": 1708.0,
                                 "dict_rehash": 2832.0})
        assert _load_cost(state, "array") == want
        assert _load_cost(state, "dict") == want

    @pytest.mark.parametrize("backend", ["array", "dict"])
    def test_v3_snapshot_same_on_both_backends(self, backend):
        state = save_state(_churned(seed=4, backend=backend))
        assert state["P"]["vertex"], "the snapshot should carry P buckets"
        assert _load_cost(state, "array") == _load_cost(state, "dict")
