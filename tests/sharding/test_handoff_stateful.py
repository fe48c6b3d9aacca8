"""Stateful property test of the incremental handoff alone.

A hypothesis state machine drives one :class:`~repro.sharding.CrossState`
through :func:`~repro.sharding.resolve` with random cross-edge inserts
and deletes, endpoint cover flips and long ascending-id paths, building
every frontier report the way the shards do (a :class:`Frontier` over
all vertices, a cover map standing in for the local matchings).  After
every step the derived cross matching and witnesses must equal the full
reference resolve, and ``cov``/``multi`` must equal a recount.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.hypergraph.edge import Edge
from repro.sharding import CrossState, Frontier, derive, resolve
from tests.sharding.reference_handoff import reference_resolve

pytestmark = pytest.mark.sharding

K = 3
N_VERTICES = 12
#: Local match ids stand apart from cross edge ids.
LOCAL = 10**6

vertex = st.integers(0, N_VERTICES - 1)
flips = st.lists(vertex, max_size=3, unique=True)


class HandoffMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cross = {}
        self.state = CrossState(self.cross)
        self.frontier = Frontier()
        self.cover = {}
        self.next_eid = 0
        self.next_vertex = N_VERTICES  # fresh vertices for paths

    def _flip(self, vertices) -> None:
        for v in vertices:
            if v in self.cover:
                del self.cover[v]
            else:
                self.cover[v] = LOCAL + v

    def _resolve(self, inserted, deleted, touched, registered=()):
        report = self.frontier.report(touched, registered, self.cover.get)
        self.last = resolve(self.state, inserted, deleted, report)

    def _insert(self, edges, touched) -> None:
        xv = [v for e in edges for v in e.vertices]
        xe = [e.eid for e in edges for _ in e.vertices]
        self.frontier.register(xv, xe)
        self.cross.update((e.eid, e) for e in edges)
        self._flip(touched)
        self._resolve(edges, (), touched, xv)

    @rule(
        edges=st.lists(st.lists(vertex, min_size=2, max_size=3, unique=True),
                       min_size=1, max_size=4),
        touched=flips,
        reuse=st.booleans(),
    )
    def insert(self, edges, touched, reuse):
        # Ids mostly ascend, but a re-used low id lands below live ones.
        batch = []
        for vs in edges:
            taken = self.cross.keys() | {e.eid for e in batch}
            free_ids = [i for i in range(self.next_eid) if i not in taken]
            if reuse and free_ids:
                eid = free_ids[0]
            else:
                eid = self.next_eid
                self.next_eid += 1
            batch.append(Edge(eid, vs))
        self._insert(batch, touched)

    @rule(length=st.integers(2, 12), head=vertex, touched=flips)
    def insert_path(self, length, head, touched):
        # An ascending-id path through fresh vertices, hanging off
        # ``head``: flipping the head's cover flips the whole path.
        vs = [head] + list(range(self.next_vertex, self.next_vertex + length))
        self.next_vertex += length
        edges = []
        for a, b in zip(vs, vs[1:]):
            edges.append(Edge(self.next_eid, (a, b)))
            self.next_eid += 1
        self._insert(edges, touched)

    @precondition(lambda self: self.cross)
    @rule(data=st.data(), touched=flips)
    def delete(self, data, touched):
        eids = data.draw(st.lists(st.sampled_from(sorted(self.cross)), min_size=1,
                                  max_size=4, unique=True))
        edges = [self.cross.pop(eid) for eid in eids]
        self.frontier.unregister(
            [v for e in edges for v in e.vertices],
            [e.eid for e in edges for _ in e.vertices],
        )
        self._flip(touched)
        self._resolve((), edges, touched)

    @rule(touched=st.lists(vertex, min_size=1, max_size=4, unique=True))
    def flip_covers(self, touched):
        self._flip(touched)
        self._resolve((), (), touched)

    @precondition(lambda self: self.next_vertex > N_VERTICES)
    @rule(data=st.data())
    def flip_path_vertex(self, data):
        v = data.draw(st.integers(0, self.next_vertex - 1))
        self._flip([v])
        self._resolve((), (), [v])

    @invariant()
    def equals_reference(self):
        expect = reference_resolve(list(self.cross.values()), self.cover, K)
        assert derive(self.state, K) == expect

    @invariant()
    def cov_and_multi_equal_a_recount(self):
        adj = self.frontier.adj
        assert self.state.cov == {v: m for v, m in self.cover.items() if v in adj}
        assert self.state.multi.keys() == {
            v for v, x in adj.items() if isinstance(x, list)
        }
        for v, eids in self.state.multi.items():
            assert sorted(eids) == sorted(adj[v])


TestHandoffMachine = HandoffMachine.TestCase
TestHandoffMachine.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


def test_cascade_follows_an_ascending_path():
    """Covering the head of an ascending path flips every edge on it,
    one after another."""
    length = 20
    edges = [Edge(i, (i, i + 1)) for i in range(length)]
    cross = {e.eid: e for e in edges}
    state = CrossState(cross)
    frontier = Frontier()
    xv = [v for e in edges for v in e.vertices]
    frontier.register(xv, [e.eid for e in edges for _ in e.vertices])
    resolve(state, edges, (), frontier.report((), xv, {}.get))
    assert state.matched() == list(range(0, length, 2))

    got = resolve(state, (), (), frontier.report([0], (), {0: LOCAL}.get))
    assert got.decided == length and got.cascade == length
    assert state.matched() == list(range(1, length, 2))
    assert derive(state, K) == reference_resolve(edges, {0: LOCAL}, K)

    # Uncovering it flips the path back.
    got = resolve(state, (), (), frontier.report([0], (), {}.get))
    assert got.cascade == length
    assert state.matched() == list(range(0, length, 2))
