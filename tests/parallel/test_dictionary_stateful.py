"""Stateful fuzzing of BatchSet against the built-in set.

Hypothesis drives arbitrary batch-op sequences and checks, after every
rule, behavioural equality with a reference set plus the capacity
invariants of the doubling/halving simulation.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.parallel.dictionary import BatchSet, _GROW_AT, _MIN_CAPACITY
from repro.parallel.ledger import Ledger

keys = st.integers(0, 50)
key_batches = st.lists(keys, max_size=12)


class BatchSetMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ledger = Ledger()
        self.subject = BatchSet(self.ledger)
        self.reference: set = set()

    @rule(batch=key_batches)
    def insert(self, batch):
        self.subject.insert_batch(batch)
        self.reference.update(batch)

    @rule(batch=key_batches)
    def delete(self, batch):
        self.subject.delete_batch(batch)
        self.reference.difference_update(batch)

    @rule(batch=key_batches)
    def membership(self, batch):
        assert self.subject.contains_batch(batch) == [k in self.reference for k in batch]

    @rule()
    def extract(self):
        assert set(self.subject.elements()) == self.reference

    @invariant()
    def size_agrees(self):
        assert len(self.subject) == len(self.reference)

    @invariant()
    def capacity_bounds(self):
        cap = self.subject.capacity
        assert cap >= _MIN_CAPACITY
        assert len(self.subject) <= cap * _GROW_AT + 1e-9

    @invariant()
    def work_monotone(self):
        assert self.ledger.work >= 0


TestBatchSetStateful = BatchSetMachine.TestCase
TestBatchSetStateful.settings = settings(max_examples=40, stateful_step_count=25,
                                         deadline=None)
