"""Tests for resiliency: timeout-and-retry and transactional output."""

import numpy as np
import pytest

from repro.adios import Adios, RankContext, StepLost, StepStatus
from repro.core import StepState, stream_params, stream_registry
from repro.core.resilience import RetryPolicy, TransactionAborted, retry_call
from repro.transport.faults import TransportFaultInjector, TransportTimeout

CONFIG = """
<adios-config>
  <adios-group name="particles">
    <var name="zion" type="float64" dimensions="n,7"/>
  </adios-group>
  <method group="particles" method="FLEXPATH">{params}</method>
</adios-config>
"""


@pytest.fixture(autouse=True)
def fresh_registry():
    stream_registry.reset()
    yield
    stream_registry.reset()


# ---------------------------------------------------------------------------
# The one fault injector, as the retry tests below drive it
# ---------------------------------------------------------------------------

def test_injector_scripted_failures():
    inj = TransportFaultInjector(fail_ops=[2, 4])
    assert [inj.next_fault() is not None for _ in range(5)] == [False, True, False, True, False]
    assert inj.faults_injected == 2


def test_injector_probabilistic_deterministic():
    inj_a = TransportFaultInjector(rate=0.5, seed=7)
    inj_b = TransportFaultInjector(rate=0.5, seed=7)
    a = [inj_a.next_fault() is not None for _ in range(20)]
    b = [inj_b.next_fault() is not None for _ in range(20)]
    assert a == b
    assert any(a) and not all(a)


def test_injector_validation():
    with pytest.raises(ValueError):
        TransportFaultInjector(rate=1.0)


# ---------------------------------------------------------------------------
# RetryPolicy / retry_call
# ---------------------------------------------------------------------------

def test_retry_policy_backoff():
    p = RetryPolicy(max_retries=3, timeout=1.0, backoff_factor=2.0)
    assert p.delay_before(0) == 0.0
    assert p.delay_before(1) == 1.0
    assert p.delay_before(2) == 2.0
    assert p.delay_before(3) == 4.0
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0)


def timing_out(op, injector):
    """One attempt of ``op`` that times out whenever ``injector`` says."""
    def attempt():
        if injector.next_fault() is not None:
            raise TimeoutError(f"movement timed out (op {injector.ops_seen})")
        return op()

    return attempt


def test_retry_call_passes_through_on_success():
    sent, retries = [], []
    result = retry_call(
        lambda: sent.append(b"hello") or 5, RetryPolicy(), (TimeoutError,),
        on_retry=lambda n, exc: retries.append(n),
    )
    assert result == 5
    assert sent == [b"hello"]
    assert retries == []


def test_retry_call_retries_through_transient_fault():
    sent, retries, slept = [], [], []
    retry_call(
        timing_out(lambda: sent.append(b"payload"), TransportFaultInjector(fail_ops=[1])),
        RetryPolicy(max_retries=2, timeout=0.5), (TimeoutError,),
        on_retry=lambda n, exc: retries.append((n, type(exc))),
        sleep=slept.append,
    )
    assert sent == [b"payload"]
    assert retries == [(1, TimeoutError)]
    assert slept == [0.5]  # one backoff, modeled not slept


def test_retry_call_exhausts_retries():
    injector = TransportFaultInjector(fail_ops=[1, 2, 3])
    with pytest.raises(TimeoutError, match="op 3"):  # the *last* retriable
        retry_call(
            timing_out(lambda: None, injector),
            RetryPolicy(max_retries=2, timeout=0.1), (TimeoutError,),
            sleep=lambda _s: None,
        )
    assert injector.ops_seen == 3  # max_retries + 1 attempts, no more


def test_retry_call_wraps_real_transport():
    """Retry over the actual shm channel: the message still arrives once."""
    from repro.transport import ShmChannel

    shm = ShmChannel()
    retries = []
    retry_call(
        timing_out(lambda: shm.send(b"resilient"), TransportFaultInjector(fail_ops=[1, 2])),
        RetryPolicy(max_retries=3, timeout=0.1), (TimeoutError,),
        on_retry=lambda n, exc: retries.append(n), sleep=lambda _s: None,
    )
    assert shm.recv() == b"resilient"
    assert retries == [1, 2]
    assert len(shm.queue) == 0  # delivered exactly once


# ---------------------------------------------------------------------------
# Transactional stream output — readers never see torn steps
# ---------------------------------------------------------------------------

def open_tx_writers(num_ranks=2, **hints):
    """Per-rank writers of a ``transactional=true`` stream: the drain
    sends each rank's payload as that rank's prepare vote."""
    params = stream_params(transactional=True, retry_timeout=0.01, **hints)
    ad = Adios.from_xml(CONFIG.format(params=params))
    writers = [
        ad.open_write("particles", "tx.stream", RankContext(r, num_ranks))
        for r in range(num_ranks)
    ]
    return ad, writers, stream_registry._states["tx.stream"]


def write_step(writers, value_of, sync=None):
    for r, w in enumerate(writers):
        w.write("zion", np.full((4, 7), value_of(r)))
    for w in writers:
        w.end_step(sync=sync)


def test_transactional_stream_happy_path():
    ad, writers, state = open_tx_writers()
    for step in range(3):
        write_step(writers, lambda r: float(step * 10 + r))
    for w in writers:
        w.close()

    reader = ad.open_read("particles", "tx.stream", RankContext(0, 1))
    seen = []
    while reader.begin_step() is StepStatus.OK:
        seen.append((float(reader.read_block("zion", 0)[0, 0]),
                     float(reader.read_block("zion", 1)[0, 0])))
        reader.end_step()
    assert seen == [(0.0, 1.0), (10.0, 11.0), (20.0, 21.0)]
    assert state.monitor.metrics.counter("dataplane.tx.committed").value == 3


def test_transactional_stream_retries_aborted_step():
    # The first prepare of step 0 faults, is retried, and the step commits.
    ad, writers, state = open_tx_writers(faults="ops=1")
    write_step(writers, float, sync=True)
    for w in writers:
        w.close()
    metrics = state.monitor.metrics
    assert metrics.counter("dataplane.drain.recovered").value == 1
    assert metrics.counter("dataplane.tx.committed").value == 1
    assert metrics.counter("dataplane.tx.aborted").value == 0
    reader = ad.open_read("particles", "tx.stream", RankContext(0, 1))
    assert reader.begin_step() is StepStatus.OK
    assert reader.read_block("zion", 0)[0, 0] == 0.0
    assert reader.read_block("zion", 1)[0, 0] == 1.0


def test_transactional_stream_gives_up_and_stays_clean():
    """If every retry of a prepare faults, the step is a typed ABORTED
    gap: the writer is told, and nothing of the step is readable."""
    ad, writers, state = open_tx_writers(max_retries=1, faults="ops=1|2")
    with pytest.raises(TransactionAborted):
        write_step(writers, float, sync=True)
    for w in writers:
        w.close()
    (step,) = state.published
    assert step.status is StepState.ABORTED and not step.groups
    assert state.monitor.metrics.counter("dataplane.tx.aborted").value == 1
    reader = ad.open_read("particles", "tx.stream", RankContext(0, 1))
    with pytest.raises(StepLost):
        reader.read_block("zion", 0)
    assert reader.begin_step() is StepStatus.OtherError  # the typed gap ...
    assert reader.begin_step() is StepStatus.EndOfStream  # ... and past it


class RankCountingChannel:
    """Drain channel that records the writer rank of every send attempt
    (each rank writes its rank number) and times out the ranks in
    ``failing``."""

    def __init__(self, failing=()):
        self.failing = set(failing)
        self.sent = []

    def sendv(self, parts, timeout=None):
        rank = int(next(iter(parts)).as_array(np.float64)[0])
        self.sent.append(rank)
        if rank in self.failing:
            raise TransportTimeout(f"rank {rank} send timed out")

    def recv(self, timeout=None):
        return b""


def tx_writers_over(channel, **hints):
    ad, writers, state = open_tx_writers(num_ranks=3, retry_jitter=0, **hints)
    state._ensure_pipeline()
    state._drainer._channel = channel
    return ad, writers, state


def test_transactional_abort_stops_at_the_first_failed_prepare():
    """Rank 1's prepare exhausts its retries: the step aborts there, rank
    2 is never sent, and the writer and reader both get a typed outcome."""
    channel = RankCountingChannel(failing={1})
    ad, writers, state = tx_writers_over(channel, max_retries=1)
    with pytest.raises(TransactionAborted, match="rank 1"):
        write_step(writers, float, sync=True)
    assert channel.sent == [0, 1, 1]  # rank 1 tried twice; rank 2 never
    (step,) = state.published
    assert step.status is StepState.ABORTED and not step.groups
    metrics = state.monitor.metrics
    assert metrics.counter("dataplane.tx.aborted").value == 1
    assert metrics.counter("dataplane.tx.committed").value == 0
    for w in writers:
        w.close()
    reader = ad.open_read("particles", "tx.stream", RankContext(0, 1))
    with pytest.raises(StepLost):
        reader.read_block("zion", 0)


class RecordingChannel:
    """Drain channel that keeps the parts of every send."""

    def __init__(self):
        self.sent = []

    def sendv(self, parts, timeout=None):
        self.sent.append(list(parts))

    def recv(self, timeout=None):
        return b""


def test_transactional_prepare_votes_send_each_ranks_own_parts_in_rank_order(monkeypatch):
    from repro.core import stream

    sealed = []
    seal = stream._rank_parts

    def recorded(step, **kw):
        sealed.append(seal(step, **kw))
        return sealed[-1]

    monkeypatch.setattr(stream, "_rank_parts", recorded)
    channel = RecordingChannel()
    ad, writers, state = tx_writers_over(channel)
    written = [
        [np.full((4, 7), float(r)), np.full((2 * r + 1,), 10.0 + r)] for r in range(3)
    ]
    for w, (zion, extra) in zip(writers, written):
        w.write("zion", zion)
        w.write("extra", extra)
    for w in writers:
        w.end_step(sync=True)
    ((parts, _),) = sealed
    # One prepare per rank, in rank order: that rank's arrays, no others,
    # as the very spans the seal built — nothing re-wrapped per rank.
    assert [len(vote) for vote in channel.sent] == [2, 2, 2]
    assert all(a is b for a, b in zip(sum(channel.sent, []), parts))
    for vote, arrays in zip(channel.sent, written):
        for part, array in zip(vote, arrays):
            assert part.nbytes == array.nbytes
            assert np.shares_memory(part.as_array(), array)
    assert state.monitor.metrics.counter("dataplane.tx.committed").value == 1
    for w in writers:
        w.close()


def test_transactional_rank_with_nothing_to_send_votes_yes():
    channel = RankCountingChannel()
    ad, writers, state = tx_writers_over(channel)
    for r, w in enumerate(writers):
        w.write("zion", np.full((0 if r == 1 else 4, 7), float(r)))
    for w in writers:
        w.end_step(sync=True)
    assert channel.sent == [0, 2]  # rank 1's zero-size block: no send
    assert state.monitor.metrics.counter("dataplane.tx.committed").value == 1
    for w in writers:
        w.close()
    reader = ad.open_read("particles", "tx.stream", RankContext(0, 1))
    assert reader.begin_step() is StepStatus.OK
    assert reader.read_block("zion", 1).shape == (0, 7)
    assert reader.read_block("zion", 2)[0, 0] == 2.0
