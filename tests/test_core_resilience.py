"""Tests for resiliency: timeout-and-retry and transactional output."""

import numpy as np
import pytest

from repro.adios import Adios, RankContext, StepLost, StepStatus
from repro.core import StepState, stream_params, stream_registry
from repro.core.resilience import RetryPolicy, TransactionAborted, retry_call
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


def test_retry_call_goes_on_from_a_first_attempt_made_elsewhere():
    """``failed``: the first attempt already raised; the loop makes the
    same retries, backoffs, jitter draws and ``on_retry`` calls as a loop
    that had made that attempt itself."""
    from repro.util import rng

    policy = RetryPolicy(max_retries=3, timeout=0.5, jitter=0.5)

    def run(injector, **kw):
        retries, slept = [], []
        retry_call(
            timing_out(lambda: None, injector), policy, (TimeoutError,),
            on_retry=lambda n, exc: retries.append((n, str(exc))),
            sleep=slept.append, rng=rng(7), **kw,
        )
        return retries, slept

    whole = run(TransportFaultInjector(fail_ops=[1, 2]))
    resumed = TransportFaultInjector(fail_ops=[1, 2])
    with pytest.raises(TimeoutError) as first:
        timing_out(lambda: None, resumed)()
    assert run(resumed, failed=first.value) == whole
    assert [n for n, _ in whole[0]] == [1, 2]
    # Nothing left to retry: the first attempt's fault is the outcome.
    with pytest.raises(TimeoutError, match="op 1"):
        retry_call(lambda: None, RetryPolicy(max_retries=0), (TimeoutError,),
                   failed=first.value)


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
    delivers each rank's payload as that rank's prepare vote."""
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


@pytest.fixture()
def consults(monkeypatch):
    """The writer rank of every delivery attempt the drain makes: rank r
    writes r + 1 rows of 7 float64, so an attempt's byte count names it."""
    from repro.core import drain

    seen = []
    real = drain.consult

    def recorded(injector, metrics, transport, nbytes, acts_out=None):
        seen.append(nbytes // (7 * 8) - 1)
        return real(injector, metrics, transport, nbytes, acts_out)

    monkeypatch.setattr(drain, "consult", recorded)
    return seen


def write_ranked_step(writers, rows=lambda r: r + 1):
    for r, w in enumerate(writers):
        w.write("zion", np.full((rows(r), 7), float(r)))
    for w in writers:
        w.end_step(sync=True)


def test_transactional_abort_stops_at_the_first_failed_prepare(consults):
    """Rank 1's prepare exhausts its retries: the step aborts there, rank
    2 is never tried, and the writer and reader both get a typed outcome."""
    ad, writers, state = open_tx_writers(
        num_ranks=3, retry_jitter=0, max_retries=1, faults="ops=2|3")
    with pytest.raises(TransactionAborted, match="rank 1"):
        write_ranked_step(writers)
    assert consults == [0, 1, 1]  # rank 1 tried twice; rank 2 never
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


def test_transactional_prepare_votes_send_each_ranks_own_parts_in_rank_order(
        monkeypatch, consults):
    from repro.core import stream

    sealed = []
    seal = stream._rank_parts

    def recorded(step):
        sealed.append(seal(step))
        return sealed[-1]

    monkeypatch.setattr(stream, "_rank_parts", recorded)
    ad, writers, state = open_tx_writers(num_ranks=3, retry_jitter=0)
    for r, w in enumerate(writers):
        w.write("zion", np.full((r + 1, 7), float(r)))
        w.write("zion", np.full((r + 1, 7), 10.0 + r))
    for w in writers:
        w.end_step(sync=True)
    # One prepare per rank, in rank order, over that rank's bytes and no
    # other's: the very spans the seal measured.
    assert sealed == [[(r, 2 * (r + 1) * 7 * 8) for r in range(3)]]
    assert consults == [1, 3, 5]  # each rank's two blocks: 2 (r + 1) rows
    assert state.monitor.metrics.counter("dataplane.tx.committed").value == 1
    for w in writers:
        w.close()


def test_transactional_rank_with_nothing_to_send_votes_yes(consults):
    ad, writers, state = open_tx_writers(num_ranks=3, retry_jitter=0)
    write_ranked_step(writers, rows=lambda r: 0 if r == 1 else r + 1)
    assert consults == [0, 2]  # rank 1's zero-size block: no attempt
    assert state.monitor.metrics.counter("dataplane.tx.committed").value == 1
    for w in writers:
        w.close()
    reader = ad.open_read("particles", "tx.stream", RankContext(0, 1))
    assert reader.begin_step() is StepStatus.OK
    assert reader.read_block("zion", 1).shape == (0, 7)
    assert reader.read_block("zion", 2)[0, 0] == 2.0
