"""Tests for resiliency: timeout-and-retry and transactional output."""

import numpy as np
import pytest

from repro.adios import Adios, RankContext, StepLost, StepStatus
from repro.core import StepState, stream_params, stream_registry
from repro.core.resilience import (
    Participant,
    RetryPolicy,
    TransactionAborted,
    TransactionCoordinator,
    TxPhase,
    retry_call,
)
from repro.transport.faults import TransportFaultInjector

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
# The one fault injector, as the retry and 2PC tests below drive it
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
# Two-phase commit
# ---------------------------------------------------------------------------

def make_participants(n, injector=None, log=None):
    log = log if log is not None else []

    def publish(rank):
        def fn(step, payload):
            log.append((rank, step, sorted(payload)))

        return fn

    return [Participant(r, publish(r), injector) for r in range(n)], log


def test_transaction_commits_all():
    parts, log = make_participants(3)
    coord = TransactionCoordinator(parts)
    coord.run(0, {r: {"zion": r} for r in range(3)})
    assert sorted(log) == [(0, 0, ["zion"]), (1, 0, ["zion"]), (2, 0, ["zion"])]
    assert all(p.phase is TxPhase.COMMITTED for p in parts)
    assert coord.stats.committed == 1


def test_transaction_aborts_atomically():
    inj = TransportFaultInjector(fail_ops=[2])  # second participant's prepare fails
    parts, log = make_participants(3, injector=inj)
    coord = TransactionCoordinator(parts)
    with pytest.raises(TransactionAborted):
        coord.run(0, {r: {"zion": r} for r in range(3)})
    assert log == []  # nothing published anywhere
    assert all(p.phase is TxPhase.ABORTED for p in parts)
    assert coord.stats.aborted == 1


def test_transaction_missing_payload_aborts():
    parts, log = make_participants(2)
    coord = TransactionCoordinator(parts)
    with pytest.raises(TransactionAborted):
        coord.run(0, {0: {"zion": 1}})  # rank 1 has nothing
    assert log == []


def test_commit_without_prepare_rejected():
    parts, _ = make_participants(1)
    with pytest.raises(TransactionAborted):
        parts[0].commit()


def test_coordinator_needs_participants():
    with pytest.raises(ValueError):
        TransactionCoordinator([])


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
