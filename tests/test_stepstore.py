"""The step store's contract, stated once.

A hypothesis state machine drives :class:`repro.core.stepstore.StepStore`
against a plain-dict model and checks, after every rule, that every
``lookup`` agrees with the model, retention and the byte totals hold,
and a snapshot restores to a store that answers identically.  Both
planes are built on this store, so this is the contract each of them
inherits (``tests/test_reader_planes.py`` checks they do).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.adios import EndOfStream, StepLost, StepNotReady, StreamFailure
from repro.core.stepstore import Outcome, StepStore, StreamStalled, outcome_error


class StepStoreMachine(RuleBasedStateMachine):
    """Model: the retained entries in a dict, plus three scalars."""

    @initialize(retain=st.one_of(st.none(), st.integers(1, 4)))
    def start(self, retain):
        self.retain = retain
        self.store = StepStore(retain)
        self.kept = {}       # index -> (payload, nbytes, lost reason | None)
        self.last = -1
        self.ended = None
        self.failed = None
        self.peak = 0

    # -- the model -----------------------------------------------------------
    def _held(self):
        return sum(n for _, n, lost in self.kept.values() if lost is None)

    def _append(self, index, nbytes, lost=None):
        payload = f"payload-{index}-{nbytes}"
        self.store.append(index, payload, nbytes, lost=lost)
        self.kept.pop(index, None)
        self.kept[index] = (payload, 0 if lost is not None else nbytes, lost)
        self.last = max(self.last, index)
        while self.retain is not None and len(self.kept) > self.retain:
            del self.kept[next(iter(self.kept))]
        self.peak = max(self.peak, self._held())

    def _expected(self, index):
        entry = self.kept.get(index)
        if entry is not None and entry[2] is None:
            return Outcome.HIT, entry[0]
        if index <= self.last:
            return Outcome.LOST, entry[2] if entry is not None else "not retained"
        if self.ended is not None and index >= self.ended:
            return Outcome.ENDED, None
        if self.failed is not None:
            return Outcome.FAILED, self.failed
        return Outcome.NOT_YET, None

    # -- rules ---------------------------------------------------------------
    @rule(nbytes=st.integers(0, 1000))
    def append(self, nbytes):
        self._append(self.last + 1, nbytes)

    @rule(nbytes=st.integers(0, 1000))
    def append_as_lost(self, nbytes):
        self._append(self.last + 1, nbytes, lost=f"lost-{self.last + 1}")

    @rule(gap=st.integers(1, 3), nbytes=st.integers(0, 1000))
    def append_leaving_a_gap(self, gap, nbytes):
        self._append(self.last + 1 + gap, nbytes)

    @precondition(lambda self: self.last >= 0)
    @rule(data=st.data(), nbytes=st.integers(0, 1000))
    def republish(self, data, nbytes):
        self._append(data.draw(st.integers(0, self.last)), nbytes)

    @rule()
    def end(self):
        self.store.end()
        self.ended = self.last + 1

    @rule(index=st.integers(0, 12))
    def end_at(self, index):
        self.store.end(index)
        self.ended = index

    @rule(reason=st.sampled_from(["lease expired", "writer died"]))
    def fail(self, reason):
        self.store.fail(reason)
        self.failed = reason

    @rule(index=st.integers(0, 60))
    def lookup(self, index):
        assert self.store.lookup(index) == self._expected(index)

    # -- checked after every rule -------------------------------------------
    @invariant()
    def agrees_with_the_model(self):
        store = self.store
        window = range(self.last + 3)
        for index in window:
            assert store.lookup(index) == self._expected(index)
        assert store.last == self.last
        assert store.closed == (self.ended is not None or self.failed is not None)
        assert len(store) == len(self.kept)
        if self.retain is not None:
            assert len(store) <= self.retain
        assert list(store) == [payload for payload, _, _ in self.kept.values()]
        assert store.nbytes == self._held()
        assert store.peak_nbytes == self.peak >= store.nbytes
        again = StepStore.restore(store.snapshot())
        for index in window:
            assert again.lookup(index) == store.lookup(index)
        assert (len(again), again.nbytes, again.peak_nbytes, again.closed) == (
            len(store), store.nbytes, store.peak_nbytes, store.closed
        )
        assert again.snapshot() == store.snapshot()


StepStoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestStepStore = StepStoreMachine.TestCase


def test_outcomes_are_tested_in_order_hit_lost_ended_failed_not_yet():
    store = StepStore(retain=1)
    store.append(0, "a", 10)
    store.append(1, "b", 20)           # evicts step 0
    assert store.lookup(1) == (Outcome.HIT, "b")
    assert store.lookup(0) == (Outcome.LOST, "not retained")
    assert store.lookup(2) == (Outcome.NOT_YET, None)
    store.fail("lease expired")
    assert store.lookup(2) == (Outcome.FAILED, "lease expired")
    store.end()
    assert store.lookup(2) == (Outcome.ENDED, None)   # ended wins over failed
    # Neither ending hides what is retained or what was lost.
    assert store.lookup(1) == (Outcome.HIT, "b")
    assert store.lookup(0)[0] is Outcome.LOST


@pytest.mark.parametrize("outcome,exc_type,base", [
    (Outcome.LOST, StepLost, StepLost),
    (Outcome.ENDED, EndOfStream, EndOfStream),
    (Outcome.FAILED, StreamFailure, EndOfStream),
    (Outcome.NOT_YET, StreamStalled, StepNotReady),
])
def test_outcome_error_types_every_miss(outcome, exc_type, base):
    exc = outcome_error(outcome, "step 3 of 's'", "because")
    assert type(exc) is exc_type and isinstance(exc, base)
    assert "step 3 of 's'" in str(exc) and "because" in str(exc)
    assert "step 3 of 's'" in str(outcome_error(outcome, "step 3 of 's'"))
