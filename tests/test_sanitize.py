"""Runtime concurrency sanitizer ("tsan-lite") tests.

Covers the three violation classes — SPSC discipline, lock-order
inversions, un-joined pipeline threads — plus the enable/disable
machinery and the live-stream integration (a full pipelined write/read
run under the sanitizer must be violation-free).
"""

import threading

import numpy as np
import pytest

from repro.adios import Adios, RankContext
from repro.obs import sanitize
from repro.obs.sanitize import (
    LOCK_ORDER,
    SPSC_CONSUMER,
    SPSC_PRODUCER,
    UNJOINED_THREAD,
    SanitizerError,
    TrackedLock,
)
from repro.core.stream import stream_registry
from repro.transport.shm import ShmChannel, SPSCQueue


@pytest.fixture()
def san():
    instance = sanitize.enable(fresh=True)
    yield instance
    sanitize.disable()


@pytest.fixture(autouse=True)
def fresh_streams():
    stream_registry.reset()
    yield
    stream_registry.reset()
    sanitize.disable()


def kinds(instance):
    return sorted({v.kind for v in instance.violations()})


def run_in_thread(fn):
    t = threading.Thread(target=fn)
    t.start()
    t.join()


# ---------------------------------------------------------------------------
# SPSC discipline
# ---------------------------------------------------------------------------

def test_mis_threaded_producer_is_flagged(san):
    q = SPSCQueue(slots=4, payload_size=64)
    q.try_enqueue(b"owner claims the producer side")
    run_in_thread(lambda: q.try_enqueue(b"interloper"))
    assert kinds(san) == [SPSC_PRODUCER]
    # One violation per (queue, side), not one per operation.
    run_in_thread(lambda: q.try_enqueue(b"again"))
    assert len(san.violations()) == 1
    with pytest.raises(SanitizerError):
        san.assert_clean()


def test_mis_threaded_consumer_is_flagged(san):
    q = SPSCQueue(slots=4, payload_size=64)
    q.try_enqueue(b"x")
    q.try_dequeue()  # main thread owns the consumer side
    q.try_enqueue(b"y")
    run_in_thread(q.try_dequeue)
    assert kinds(san) == [SPSC_CONSUMER]


def test_clean_two_thread_spsc_run(san):
    q = SPSCQueue(slots=8, payload_size=64)
    received = []

    def consume():
        while len(received) < 16:
            item = q.try_dequeue()
            if item is not None:
                received.append(item)

    consumer = threading.Thread(target=consume)
    consumer.start()
    for i in range(16):
        q.enqueue(b"msg-%02d" % i)
    consumer.join()
    assert len(received) == 16
    san.assert_clean()


def test_channel_close_from_other_thread_is_not_a_violation(san):
    # Shutdown pattern: the writer thread calls close() while the drainer
    # owns the producer side — close is not a queue *operation*.
    channel = ShmChannel()
    run_in_thread(lambda: channel.send(np.arange(8, dtype=np.uint8)))
    run_in_thread(channel.recv)
    channel.close()
    san.assert_clean()


def test_disabled_sanitizer_records_nothing(monkeypatch):
    monkeypatch.delenv("FLEXIO_SANITIZE", raising=False)
    sanitize.disable()
    sanitize._env_checked = False  # force a fresh env read
    assert sanitize.get() is None
    q = SPSCQueue(slots=4, payload_size=64)
    q.try_enqueue(b"x")
    run_in_thread(lambda: q.try_enqueue(b"y"))  # would violate if enabled


def test_env_var_activates(monkeypatch):
    monkeypatch.setenv("FLEXIO_SANITIZE", "1")
    sanitize.disable()
    sanitize._env_checked = False
    try:
        assert sanitize.enabled()
    finally:
        sanitize.disable()


# ---------------------------------------------------------------------------
# Lock ordering
# ---------------------------------------------------------------------------

def test_lock_order_inversion_is_flagged(san):
    a, b = TrackedLock("lock.a"), TrackedLock("lock.b")
    with a:
        with b:
            pass
    with b:
        with a:  # inverse order: potential deadlock even without one
            pass
    assert kinds(san) == [LOCK_ORDER]
    assert len(san.violations()) == 1  # flagged once per pair


def test_consistent_lock_order_is_clean(san):
    a, b = TrackedLock("lock.a"), TrackedLock("lock.b")
    for _ in range(3):
        with a:
            with b:
                pass
    san.assert_clean()


def test_make_lock_tracks_only_when_active(san):
    assert isinstance(sanitize.make_lock("x"), TrackedLock)
    sanitize.disable()
    assert isinstance(sanitize.make_lock("x"), type(threading.Lock()))


# ---------------------------------------------------------------------------
# Un-joined pipeline threads
# ---------------------------------------------------------------------------

def test_unjoined_thread_flagged_at_shutdown(san):
    release = threading.Event()
    t = threading.Thread(target=release.wait, daemon=True)
    t.start()
    san.note_thread_started(t, "drainer:test")
    added = san.check_shutdown()
    assert [v.kind for v in added] == [UNJOINED_THREAD]
    assert "drainer:test" in str(added[0])
    release.set()
    t.join()


def test_joined_thread_is_clean(san):
    t = threading.Thread(target=lambda: None)
    t.start()
    san.note_thread_started(t, "drainer:test")
    t.join()
    san.note_thread_joined(t)
    assert san.check_shutdown() == []
    san.assert_clean()


# ---------------------------------------------------------------------------
# Live-stream integration
# ---------------------------------------------------------------------------

_XML = """
<adios-config>
  <adios-group name="g">
    <var name="v" type="float64" dimensions="n"/>
  </adios-group>
  <method group="g" method="FLEXPATH">queue_depth=2</method>
</adios-config>
"""


def test_pipelined_stream_run_is_violation_free(san):
    """The real drainer thread drives the real SPSC machinery: writer on
    the main thread, drain on the pipeline thread, clean join at close —
    the sanitizer must stay silent end to end."""
    adios = Adios.from_xml(_XML)
    writer = adios.open_write("g", "san.stream", RankContext(0, 1))
    for step in range(4):
        writer.write("v", np.full(2048, step, dtype=np.float64))
        writer.end_step()
    writer.close()
    reader = adios.open_read("g", "san.stream", RankContext(0, 1))
    got = reader.read_block("v", 0)
    assert got[0] == 0.0
    reader.close()
    stream_registry.close_stream("san.stream")
    san.check_shutdown()
    san.assert_clean()


def test_reset_drops_learned_state(san):
    q = SPSCQueue(slots=4, payload_size=64)
    q.try_enqueue(b"x")
    run_in_thread(lambda: q.try_enqueue(b"y"))
    assert san.violations()
    san.reset()
    assert san.violations() == []
    san.assert_clean()
