"""Chaos harness: the one fault harness, for both planes.

Replays a coupled writer → reader pipeline under a seeded fault
schedule and judges what the two sides saw.  Three scenarios, one
judge:

* ``gts`` (process-group particles) and ``s3d`` (global-array field)
  run in this process through the **live** FLEXPATH data plane, with
  transport faults injected by the ``faults=`` stream hint;
* ``net`` runs a directory daemon, a writer and a reader as three OS
  processes, with frame-layer faults (torn / dropped / delayed frames,
  connection resets, half-open sockets) on both clients' channels and,
  by ``seed % 3``, a daemon restart mid-run: none, SIGTERM drain +
  checkpoint, or SIGKILL with synchronous checkpoints — restored with
  ``--restore`` on the same pre-picked ports, once the writer's k-th
  step is acknowledged (k drawn from the seed).  ``--rate 0`` is the
  calm cross-process exchange.

Every driver fills one :class:`DeliveryLog` and one observability
sample per fault-injected endpoint; :func:`check_delivery` and
:func:`check_observability` are the only statement of the invariants:

1. **Exactly once, in order** — the reader observes every written step
   once, in step order: no duplicate, no skip, no reordering.
2. **Byte-identical or typed loss** — an observed step equals the
   oracle payload the writer was handed; a step that is not observed
   is a typed loss both sides agree on (:data:`WRITER_TYPED` out of
   ``end_step``, ``OtherError`` out of ``begin_step``) or lies behind a
   typed abandon (a :class:`TransportFault` such as ``SessionLost``, or
   ``OtherError`` from a failed stream) — never a silent drop, a raw
   ``OSError`` or an untyped death.
3. **No stall, no deadlock** — ``begin_step`` never ends a run on
   ``NotReady``, and both sides finish inside the wall-clock bound.
4. **Observability** — every injected fault is a ``transport.fault``
   flight event, and the retry / reconnect / resume counters equal
   their flight events; with ``--flight-dir`` a typed loss leaves a
   dump artifact.  A net reader waits at the daemon (a held FETCH), so
   the FETCH frames it sent are bounded by the steps it was delivered.

In-process runs add what only they can see: no step left mid-pipeline,
the concurrency sanitizer (``FLEXIO_SANITIZE=1``), and — with
``--plugins`` — reads through the compiled fused plan checked against
the interpreted chain (the oracle payload *is* the interpreted result,
so invariant 2 covers it).

Usage::

    python -m repro.tools.chaos --scenario gts --seed 7 --rate 0.1
    python -m repro.tools.chaos --scenario all --steps 30 --transactional
    python -m repro.tools.chaos --scenario s3d --plugins --json
    python -m repro.tools.chaos --scenario net --seeds 25   # acceptance sweep
    python -m repro.tools.chaos --scenario net --rate 0 --steps 4

Exit status 1 when any invariant is violated — CI's ``chaos-smoke`` job.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.adios import Adios, BoundingBox, RankContext, StepStatus, block_decompose
from repro.core.drain import StepState
from repro.core.hints import STREAM_HINTS, TRANSPORT, stream_params
from repro.core.plugins import (
    PluginManager,
    PluginSide,
    range_select_plugin,
    sampling_plugin,
    unit_conversion_plugin,
)
from repro.core.resilience import MovementFailed, RetryPolicy, TransactionAborted
from repro.core.stream import stream_registry
from repro.net.client import connect
from repro.net.server import parse_ready_line
from repro.obs import recorder as flight, sanitize
from repro.obs.events import (
    EV_FAULT,
    EV_FLIGHT_DUMP,
    EV_NET_RECONNECT,
    EV_NET_RESUME,
    EV_RETRY,
)
from repro.obs.names import (
    M_NET_FETCHES,
    M_NET_RECONNECTS,
    M_NET_RESUME,
    M_PLUGIN_FUSED_READS,
)
from repro.transport.faults import TransportFault, parse_fault_spec
from repro.util import rng

SCENARIOS = ("gts", "s3d", "net")

#: The typed-loss rule, said once: what may cost a writer a step (the
#: first two) or end its exchange (``TransportFault``: the session is
#: gone), and what may do either to a reader — ``begin_step`` returning
#: ``OtherError``, or a ``TransportFault``.  Anything else is a violation.
WRITER_TYPED = (MovementFailed, TransactionAborted, TransportFault)
READER_TYPED = (StepStatus.OtherError, TransportFault)

#: Prefix of a ``DeliveryLog`` end state that is a typed abandon.
ABANDON = "abandon: "

#: Distinguishes streams of repeated in-process runs (tests, --scenario all).
_RUN_IDS = itertools.count()

_XML = """
<adios-config>
  <adios-group name="{group}">
    <var name="{var}" type="float64" dimensions="{dims}"/>
  </adios-group>
  <method group="{group}" method="FLEXPATH">{params}</method>
</adios-config>
"""

_S3D_SHAPE = (32, 32)

# -- the net scenario's fixed parameters -----------------------------------
_NET_TENANT, _NET_TOKEN = "chaos", "chaos-t0ken"
_NET_STREAM, _NET_VAR = "chaos.net", "temperature"
#: Array shape by seed parity: odd 1 KB (a frame arrives in one read), even
#: 1.1 MB (frames span reads: connections torn mid-body, resumes after half
#: a PUBLISH, MB-sized checkpoints; seeds 1..6 cover every restart mode).
_NET_SHAPES = ((384, 384), (12, 12))
#: Frame-layer kinds the client-side injectors draw from.
_NET_KINDS = "torn_frame|dropped_frame|delayed_frame|conn_reset|half_open"
_NET_RESTARTS = ("none", "sigterm", "sigkill")
#: Writer inter-step sleep: keeps the stream live across a daemon restart.
_NET_PACE_S = 0.15
#: Writer lease: an abandoned stream fails — typed, at the reader —
#: this long after its writer's last heartbeat.
_NET_LEASE_S = 10.0
#: Per-worker wall-clock bound (invariant 3 on the net plane).
_NET_WATCHDOG_S = 120.0
#: Worker exit code for a typed abandon (0 = clean end).
RC_TYPED_LOSS = 3
_RESULT_MARK = "CHAOS-WORKER "
#: The writer's line for each step the daemon acknowledged.
_ACK_MARK = "CHAOS-ACKED "


def _chaos_chain() -> list:
    """Fresh instances of the reader-side chain used by ``--plugins``.

    Called once to deploy on the live stream and once to build the
    interpreted oracle, so the two sides never share kernel state.
    """
    return [
        unit_conversion_plugin("temp", 1.5),
        sampling_plugin(stride=2, only=("temp",)),
        range_select_plugin("temp", 0, 0.15, 1.35),
    ]


@dataclass
class ChaosReport:
    """Outcome of one chaos run; ``ok`` iff no invariant was violated."""

    scenario: str
    seed: int
    rate: float
    transport: str
    transactional: bool
    steps: int
    #: A reader-side DC plug-in chain was deployed (``--plugins``).
    plugins: bool = False
    #: The stream asked for the mapped drain (``--xpmem``; in process).
    xpmem: bool = False
    #: Reads that took the compiled fused path (plug-in runs only).
    fused_reads: int = 0
    #: Daemon restart mode of a net run (``none``/``sigterm``/``sigkill``).
    restart: str = ""
    committed: list = field(default_factory=list)
    lost: list = field(default_factory=list)
    #: Typed abandons, ``"<side>: <Type>: <message>"`` (net runs).
    abandoned: list = field(default_factory=list)
    writer_failures: int = 0
    faults_injected: int = 0
    #: Drain retries in process; client reconnects on the net plane.
    retries: int = 0
    #: Steps a retry saved in process; sessions resumed on the net plane.
    recovered: int = 0
    degradations: int = 0
    invariant_violations: list = field(default_factory=list)
    #: Concurrency-sanitizer findings (FLEXIO_SANITIZE=1); also folded
    #: into ``invariant_violations`` so they fail the run.
    sanitizer_violations: list = field(default_factory=list)
    #: Flight-recorder events captured during the run.
    flight_events: int = 0
    #: Fault-dump artifacts the recorder wrote (``flight_dir`` runs).
    flight_dumps: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.invariant_violations

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


# ---------------------------------------------------------------------------
# The invariants: one log, one judge
# ---------------------------------------------------------------------------

@dataclass
class DeliveryLog:
    """What one run's writer and reader saw, as :func:`check_delivery`
    reads it.  A net worker fills its own side and ships it as JSON."""

    #: step -> digest of the oracle payload the writer is handed.
    expected: dict = field(default_factory=dict)
    #: Steps whose ``end_step`` returned at the writer.
    committed: list = field(default_factory=list)
    #: Steps whose ``end_step`` raised a typed per-step loss.
    writer_lost: list = field(default_factory=list)
    #: ``(step, digest)`` in the order the reader observed them; digest
    #: ``None`` is a typed loss (``OtherError``, cursor moved past it).
    observed: list = field(default_factory=list)
    #: How each side ended: ``""`` cleanly (writer closed / reader saw
    #: EndOfStream), ``ABANDON + why`` typed, anything else a violation.
    writer_end: str = ""
    reader_end: str = ""


def check_delivery(log: DeliveryLog) -> list[str]:
    """Invariants 1–3 over one :class:`DeliveryLog`; [] when they hold."""
    out = [
        f"{side} {end}"
        for side, end in (("writer", log.writer_end), ("reader", log.reader_end))
        if end and not end.startswith(ABANDON)
    ]
    seen: set[int] = set()
    high = -1
    for step, digest in log.observed:
        if step in seen:
            out.append(f"step {step} observed twice (duplicate)")
        elif step < high:
            out.append(f"step {step} observed out of order (after step {high})")
        elif step > high + 1:
            out.append(
                f"steps {high + 1}..{step - 1} skipped: neither observed nor "
                f"a typed loss"
            )
        seen.add(step)
        high = max(high, step)
        if digest is not None and digest != log.expected.get(step):
            out.append(
                f"step {step} observed but NOT byte-identical to what was "
                f"written (torn data)"
            )
    # A lost step is one both sides call lost: the reader may not lose
    # what the writer committed, nor observe data the writer saw fail.
    reader_lost = {s for s, digest in log.observed if digest is None}
    writer_lost = set(log.writer_lost)
    if reader_lost & set(log.committed) or (writer_lost & seen) - reader_lost:
        out.append(
            f"writer and reader disagree on lost steps: "
            f"writer={sorted(writer_lost)} reader={sorted(reader_lost)}"
        )
    finished = set(log.committed) | writer_lost
    # EndOfStream promises the reader saw everything the writer got
    # through end_step; only a typed abandon may hide a written step.
    if not log.reader_end and finished - seen:
        out.append(
            f"steps {sorted(finished - seen)} written but never observed: "
            f"the reader reached EndOfStream without them (silent drop)"
        )
    return out


def check_observability(sample: dict) -> list[str]:
    """Invariant 4 over one endpoint's sample: ``who``, ``injected``
    faults, ``fault_events`` seen in the flight ring, ``counters``
    mapping a metric name to ``(counter value, flight events)``, — a
    net reader only — ``fetches``: ``(FETCH frames sent, steps
    observed)``, and — an ``xpmem`` run only — ``staged``: deliveries
    that took the shm pool path."""
    who = sample["who"]
    out = []
    if sample["fault_events"] < sample["injected"]:
        out.append(
            f"{who}: {sample['injected']} faults injected but only "
            f"{sample['fault_events']} transport.fault flight events"
        )
    for name, (count, events) in sample["counters"].items():
        if count != events:
            out.append(f"{who}: {name}={count} but {events} flight events")
    if sample.get("staged"):
        out.append(
            f"{who}: xpmem=true but {sample['staged']} deliveries were "
            f"staged through the shm pool instead of mapped"
        )
    if "fetches" in sample:
        # One FETCH per step when the daemon holds it; slack for EOS,
        # expired holds while the writer is down, one per reconnect.
        sent, observed = sample["fetches"]
        bound = 3 * observed + sample["counters"][M_NET_RECONNECTS][0]
        if sent > bound:
            out.append(
                f"{who}: {sent} FETCH frames for {observed} steps observed "
                f"(bound {bound}): the reader polled instead of being held"
            )
    return out


def _observe(who: str, recorder, metrics, injected: int, counters: dict) -> dict:
    """One observability sample; ``counters`` maps a metric name to the
    flight event code that must fire each time it is incremented."""
    return {
        "who": who,
        "injected": injected,
        "fault_events": len(recorder.events(code=EV_FAULT)),
        "counters": {
            name: (int(metrics.counter(name).value), len(recorder.events(code=code)))
            for name, code in counters.items()
        },
        "flight_events": len(recorder),
        "flight_dumps": [
            path for e in recorder.events(code=EV_FLIGHT_DUMP)
            if (path := dict(e.attrs).get("path"))
        ],
    }


# ---------------------------------------------------------------------------
# The oracle and the two step loops every scenario shares
# ---------------------------------------------------------------------------

def _payload(seed: int, step: int, rank: int, count) -> np.ndarray:
    """Deterministic per-(seed, step, rank) payload — the byte-identity
    oracle of every scenario."""
    g = rng(seed * 1_000_003 + step * 1_009 + rank * 101 + 17)
    return np.asarray(g.random(tuple(count)), dtype=np.float64)


def _digest(*arrays) -> str:
    """Digest of dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a)
    return h.hexdigest()[:16]


def _abandon(exc: BaseException) -> str:
    return f"{ABANDON}{type(exc).__name__}: {exc}"


def _write_steps(log: DeliveryLog, steps: int,
                 write_step: Callable[[int], None], pace: float = 0.0) -> None:
    """The writer loop: ``write_step(step)`` writes and seals one step."""
    for step in range(steps):
        try:
            write_step(step)
        except WRITER_TYPED as exc:
            if isinstance(exc, TransportFault):
                log.writer_end = _abandon(exc)
                return
            # sync=true surfaces the loss to the writer at the step
            # boundary — the reader must see the same typed gap.
            log.writer_lost.append(step)
        else:
            log.committed.append(step)
        if pace > 0:
            time.sleep(pace)


def _read_steps(log: DeliveryLog, reader, read_digest: Callable, *,
                deadline: float, timeout: float) -> None:
    """The reader loop: ``read_digest(reader)`` digests the open step."""
    while True:
        if time.monotonic() > deadline:
            log.reader_end = "passed the wall-clock deadline (deadlock?)"
            return
        status = reader.begin_step(timeout=timeout)
        step = reader.current_step
        if status is StepStatus.EndOfStream:
            return
        if status is StepStatus.OK:
            log.observed.append((step, read_digest(reader)))
            reader.end_step()
        elif status not in READER_TYPED:
            log.reader_end = (
                f"got {status.name} at step {step} after {timeout}s: a "
                f"stall, not a typed status"
            )
            return
        elif log.observed and step <= log.observed[-1][0]:
            # OtherError and the cursor did not move: not a lost step,
            # the stream itself failed.
            log.reader_end = f"{ABANDON}OtherError at step {step} (stream failed)"
            return
        else:
            log.observed.append((step, None))


# ---------------------------------------------------------------------------
# In-process scenarios (gts, s3d)
# ---------------------------------------------------------------------------

def _run_inproc(report: ChaosReport, log: DeliveryLog, params: str,
                writers: int, deadline: float, trace_out: Optional[str],
                flight_dir: Optional[str]) -> list[dict]:
    scenario, seed, steps = report.scenario, report.seed, report.steps
    # Fresh sanitizer state per run (FLEXIO_SANITIZE=1): violations from
    # a previous in-process run must not bleed into this report.
    san = sanitize.get()
    if san is not None:
        san.reset()
    # Fresh flight ring per run, so the dump windows and the per-process
    # auto-dump cap belong to *this* fault schedule.
    recorder = flight.reset()
    if flight_dir is not None:
        flight.set_flight_dir(flight_dir)
    gts = scenario == "gts"
    group, var, dims = ("particles", "zion", "n,7") if gts else ("field", "temp", "32,32")
    adios = Adios.from_xml(
        _XML.format(group=group, var=var, dims=dims, params=params)
    )
    name = f"chaos.{scenario}.{seed}.{next(_RUN_IDS)}"
    boxes = [None] * writers if gts else block_decompose(_S3D_SHAPE, (writers, 1))
    counts = [(64, 7) if gts else box.count for box in boxes]

    handles = [
        adios.open_write(group, name, RankContext(r, writers))
        for r in range(writers)
    ]
    state = stream_registry._states[name]
    oracle: Optional[PluginManager] = None
    if report.plugins:
        # Same chain twice from fresh instances: one on the live stream
        # (reads go through the compiled fused plan), one as a detached
        # interpreted oracle whose output is the expected payload.
        oracle = PluginManager()
        for live, detached in zip(_chaos_chain(), _chaos_chain()):
            state.plugins.deploy(live, PluginSide.READER)
            oracle.deploy(detached, PluginSide.READER)

    def payloads(step: int) -> list:
        return [_payload(seed, step, r, counts[r]) for r in range(writers)]

    for step in range(steps):
        parts = payloads(step)
        if oracle is not None:
            parts = [oracle.apply_side(
                PluginSide.READER, {var: np.concatenate(parts)})[var]]
        log.expected[step] = _digest(*parts)

    def write_step(step: int) -> None:
        # Only the last rank's end_step seals the step, so only it raises.
        for h, data, box in zip(handles, payloads(step), boxes):
            h.write(var, data, box=box,
                    global_shape=None if gts else _S3D_SHAPE)
            h.end_step()

    def read_digest(reader) -> str:
        if oracle is not None:
            # One full-selection read through the compiled chain.
            return _digest(reader.read(var, start=(0, 0), count=_S3D_SHAPE))
        if gts:
            return _digest(*(reader.read_block(var, r) for r in range(writers)))
        return _digest(
            *(reader.read(var, start=b.start, count=b.count) for b in boxes)
        )

    _write_steps(log, steps, write_step)
    for h in handles:
        h.close()
    reader = adios.open_read(group, name, RankContext(0, 1))
    _read_steps(log, reader, read_digest, deadline=deadline, timeout=5.0)
    reader.close()

    # -- what only the in-process plane can see ------------------------------
    fail = report.invariant_violations.append
    for s in state.published:
        if s.status not in (StepState.COMMITTED, StepState.LOST, StepState.ABORTED):
            fail(f"step {s.step} left in state {s.status.value}")
    metrics = state.monitor.metrics
    report.faults_injected = int(metrics.counter("faults.injected.total").value)
    report.retries = int(metrics.counter("dataplane.drain.retries").value)
    report.recovered = int(metrics.counter("dataplane.drain.recovered").value)
    report.degradations = int(
        metrics.counter("dataplane.transport.degradations").value
    )
    if report.plugins:
        report.fused_reads = int(metrics.counter(M_PLUGIN_FUSED_READS).value)
        if any(d is not None for _, d in log.observed) and not report.fused_reads:
            fail("plug-in chain deployed but no read took the fused path")
    if trace_out:
        state.monitor.export_perfetto(trace_out)
    stream_registry.close_stream(name)
    sample = _observe(name, recorder, metrics, report.faults_injected,
                      {"dataplane.drain.retries": EV_RETRY})
    if report.xpmem:
        sample["staged"] = int(metrics.counter("transport.path.pool").value)
    if flight_dir is not None:
        flight.set_flight_dir(None)
    if san is not None:
        san.check_shutdown()  # flags drainer threads left un-joined
        san.check_leases()  # flags buffer leases still outstanding
        report.sanitizer_violations = [str(v) for v in san.violations()]
        report.invariant_violations.extend(
            f"sanitizer: {v}" for v in report.sanitizer_violations
        )
    return [sample]


# ---------------------------------------------------------------------------
# Net scenario: daemon + writer + reader as three OS processes
# ---------------------------------------------------------------------------

def _net_worker(role: str, uri: str, steps: int, seed: int, rate: float) -> int:
    """One side of the net exchange (``--role``), in its own process:
    runs its step loop, prints its half of the log as one JSON line."""
    spec = f"rate={rate},seed={seed},kinds={_NET_KINDS}" if rate > 0 else None
    # Generous schedule: the cumulative backoff (~12s) must outlive a
    # daemon kill + restart, not just a single torn frame.
    client = connect(
        uri, token=_NET_TOKEN, timeout=2.0, seed=seed,
        retry=RetryPolicy(max_retries=8, timeout=0.05, backoff_factor=2.0,
                          jitter=0.25),
        faults=parse_fault_spec(spec), heartbeat_interval=0.5,
    )
    log = DeliveryLog()
    recorder = flight.reset()
    try:
        try:
            if role == "writer":
                shape = _NET_SHAPES[seed % 2]
                box = BoundingBox((0, 0), shape)
                w = client.open(_NET_STREAM, "w", timeout=15.0, lease=_NET_LEASE_S)

                def write_step(step: int) -> None:
                    w.begin_step()
                    w.write(_NET_VAR, _payload(seed, step, 0, shape),
                            box=box, global_shape=shape)
                    w.end_step()
                    print(f"{_ACK_MARK}{step}", flush=True)

                _write_steps(log, steps, write_step, pace=_NET_PACE_S)
                if not log.writer_end:
                    w.close()
            else:
                r = client.open(_NET_STREAM, "r", timeout=20.0)
                _read_steps(log, r, lambda rd: _digest(rd.read(_NET_VAR)),
                            deadline=float("inf"), timeout=30.0)
                r.close()
        except TransportFault as exc:
            setattr(log, f"{role}_end", _abandon(exc))
        end = getattr(log, f"{role}_end")
        if end:
            flight.dump_on_fault(f"chaos net {role}: {end}", stream=_NET_STREAM)
        injected = client.faults.faults_injected if client.faults else 0
        sample = _observe(
            role, recorder, client.monitor.metrics, injected,
            {M_NET_RECONNECTS: EV_NET_RECONNECT, M_NET_RESUME: EV_NET_RESUME},
        )
        if role == "reader":
            sample["fetches"] = (
                int(client.monitor.metrics.counter(M_NET_FETCHES).value),
                len(log.observed),
            )
        own = {k: v for k, v in asdict(log).items() if v}  # its side only
        print(_RESULT_MARK + json.dumps({"log": own, "obs": sample}), flush=True)
        return RC_TYPED_LOSS if end else 0
    finally:
        # Teardown after chaos: the daemon may be gone.
        with contextlib.suppress(TransportFault, OSError):
            client.close()


def _spawn(args: list, extra_env: Optional[dict] = None) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )


def _spawn_daemon(ckpt: str, control: int = 0, data: int = 0):
    """Start the daemon, fresh on ports it picks or — given the ports a
    previous one served — restored from ``ckpt`` on those."""
    proc = _spawn([
        "-m", "repro.net.server", "--no-telemetry", "--host", "127.0.0.1",
        "--control-port", str(control), "--data-port", str(data),
        "--tenant", f"{_NET_TENANT},token={_NET_TOKEN}",
        "--checkpoint", ckpt, "--checkpoint-sync",
        "--drain-grace", "0.2", "--lease-interval", "0.2",
        *(["--restore"] if control else []),
    ])
    try:
        return proc, *parse_ready_line(proc.stdout.readline())
    except ValueError:
        proc.kill()
        raise


def _await_acks(proc: subprocess.Popen, k: int) -> str:
    """Read the writer's output until its ``k``-th acknowledged step (or
    its end, or the watchdog); returns what was read."""
    out, read = proc.stdout.buffer, b""
    deadline = time.monotonic() + _NET_WATCHDOG_S
    while read.count(_ACK_MARK.encode()) < k:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([out], [], [], left)[0]:
            break
        chunk = out.read1(1 << 16)  # empties the buffer: select sees what is next
        if not chunk:
            break
        read += chunk
    return read.decode(errors="replace")


def _worker_result(proc: subprocess.Popen, role: str, head: str = "") -> dict:
    """The worker's JSON line, or a log whose end state says how it died;
    ``head`` is what was already read of its output."""
    try:
        out = head + proc.communicate(timeout=_NET_WATCHDOG_S)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        out = head + proc.communicate()[0]
        end = f"outlived the {_NET_WATCHDOG_S:.0f}s watchdog (deadlock?)"
    else:
        if proc.returncode in (0, RC_TYPED_LOSS):
            for line in out.splitlines():
                if line.startswith(_RESULT_MARK):
                    return {**json.loads(line[len(_RESULT_MARK):]),
                            "sanitizer": _sanitizer_said(out)}
        end = f"died untyped (rc={proc.returncode}):\n{out[-2000:]}"
    return {"log": {f"{role}_end": end}, "sanitizer": _sanitizer_said(out)}


def _sanitizer_said(out: str) -> list[str]:
    """What a finished child's sanitizer said (its stderr rides its stdout)."""
    mark = sanitize.STDERR_MARK
    return [line[len(mark):].strip() for line in out.splitlines() if line.startswith(mark)]


def _run_net(report: ChaosReport, log: DeliveryLog,
             flight_dir: Optional[str]) -> list[dict]:
    seed, steps = report.seed, report.steps
    report.restart = _NET_RESTARTS[seed % 3]
    log.expected = {
        s: _digest(_payload(seed, s, 0, _NET_SHAPES[seed % 2])) for s in range(steps)
    }
    worker_env = {"FLEXIO_FLIGHT_DIR": flight_dir} if flight_dir else None
    with tempfile.TemporaryDirectory(prefix=f"chaos-net-{seed}-") as tmp:
        ckpt = os.path.join(tmp, "daemon.ckpt")
        daemon, host, control, data = _spawn_daemon(ckpt)
        common = ["-m", "repro.tools.chaos", "--steps", str(steps),
                  "--rate", str(report.rate),
                  "--uri", f"flexio://{host}:{control}/{_NET_TENANT}"]
        workers: dict[str, subprocess.Popen] = {}
        head = {"writer": "", "reader": ""}
        try:
            # The reader draws its own schedule (seed + 1000).
            for role, wseed in (("writer", seed), ("reader", seed + 1000)):
                workers[role] = _spawn(
                    [*common, "--role", role, "--seed", str(wseed)], worker_env
                )
            if report.restart != "none":
                # Take the daemon down once the writer's k-th step is
                # acknowledged — an event, not a clock, so the stream is
                # checkpointed however long the interpreters took to start
                # — and bring it back on the ports the clients redial.
                k = 1 + seed // 3 % max(1, steps // 2)
                head["writer"] = _await_acks(workers["writer"], k)
                daemon.send_signal(signal.SIGTERM if report.restart == "sigterm"
                                   else signal.SIGKILL)
                daemon.wait(timeout=15)
                report.sanitizer_violations += _sanitizer_said(daemon.communicate()[0])
                daemon = _spawn_daemon(ckpt, control, data)[0]
            results = {role: _worker_result(p, role, head[role])
                       for role, p in workers.items()}
        finally:
            for p in (*workers.values(), daemon):
                if p.poll() is None:
                    p.kill()
                    p.wait()
            report.sanitizer_violations += _sanitizer_said(daemon.communicate()[0])
    for res in results.values():
        vars(log).update(res["log"])
        report.sanitizer_violations += res["sanitizer"]
    report.invariant_violations.extend(
        f"sanitizer: {v}" for v in report.sanitizer_violations)
    samples = [res["obs"] for res in results.values() if "obs" in res]
    report.faults_injected = sum(s["injected"] for s in samples)
    report.retries = sum(s["counters"][M_NET_RECONNECTS][0] for s in samples)
    report.recovered = sum(s["counters"][M_NET_RESUME][0] for s in samples)
    return samples


# ---------------------------------------------------------------------------
# One runner, one report, one CLI
# ---------------------------------------------------------------------------

def run_chaos(
    scenario: str = "gts",
    seed: int = 0,
    rate: float = 0.1,
    steps: int = 20,
    writers: int = 2,
    transport: str = "shm",
    transactional: bool = False,
    xpmem: bool = False,
    plugins: bool = False,
    kinds: str = "timeout|torn|disconnect",
    max_retries: int = 2,
    retry_timeout: float = 0.01,
    degrade_after: int = 0,
    deadline_s: float = 60.0,
    trace_out: Optional[str] = None,
    flight_dir: Optional[str] = None,
) -> ChaosReport:
    """One seeded chaos run of one scenario; see module doc.

    ``degrade_after=0`` (default) keeps the configured transport under
    fault so losses stay visible; pass a positive value to exercise the
    degradation ladder instead.  With ``flight_dir`` the flight recorder
    writes a dump artifact on every fault (lost step, wedged drainer,
    typed abandon), and the run fails its observability invariant if
    there was a typed loss but no artifact appeared.  ``xpmem`` mirrors
    the stream hint: the shm rung must map every step it carries.

    The ``net`` scenario takes ``seed``, ``rate``, ``steps`` and
    ``flight_dir``; the other knobs configure the in-process data plane
    and do not apply to it (one writer over ``tcp``, the frame-layer
    fault kinds, a fixed reconnect schedule and watchdog).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    if plugins and scenario != "s3d":
        raise ValueError(
            "plugins=True needs the s3d global-array scenario — only read() "
            "selections take the compiled fused path"
        )
    net = scenario == "net"
    report = ChaosReport(
        scenario=scenario, seed=seed, rate=rate, steps=steps, plugins=plugins,
        transport="tcp" if net else transport,
        transactional=transactional and not net, xpmem=xpmem and not net,
    )
    log = DeliveryLog()
    began = time.monotonic()
    if net:
        samples = _run_net(report, log, flight_dir)
    else:
        # Registry-validated hint build: a typo here is an UnknownHintError
        # at harness start, not a silently-ignored knob mid-chaos-run.
        params = stream_params(
            sync=True,
            trace=True,
            transport=transport,
            max_retries=max_retries,
            retry_timeout=retry_timeout,
            degrade_after=degrade_after,
            transactional=transactional,
            xpmem=xpmem,
            faults=f"rate={rate},seed={seed},kinds={kinds}",
        )
        samples = _run_inproc(report, log, params, writers,
                              began + deadline_s, trace_out, flight_dir)
    report.wall_time = time.monotonic() - began

    report.committed = [
        s for s, d in log.observed if d is not None and d == log.expected.get(s)
    ]
    report.lost = [s for s, d in log.observed if d is None]
    report.writer_failures = len(log.writer_lost)
    report.abandoned = [
        f"{side}: {end[len(ABANDON):]}"
        for side, end in (("writer", log.writer_end), ("reader", log.reader_end))
        if end.startswith(ABANDON)
    ]
    report.invariant_violations.extend(check_delivery(log))
    for sample in samples:
        report.invariant_violations.extend(check_observability(sample))
        report.flight_events += sample["flight_events"]
        report.flight_dumps.extend(sample["flight_dumps"])
    typed_loss = report.lost or report.writer_failures or report.abandoned
    if flight_dir is not None and typed_loss and not report.flight_dumps:
        report.invariant_violations.append(
            "steps were lost but the flight recorder wrote no dump artifact"
        )
    return report


def _print_report(report: ChaosReport, out) -> None:
    # The restart mode rides in the tag, so a sweep reads as one line per
    # seed with its mode up front: [OK/none] [OK/sigterm] [OK/sigkill].
    tag = ("OK" if report.ok else "FAIL") + (
        f"/{report.restart}" if report.restart else "")
    print(
        f"[{tag}] {report.scenario} seed={report.seed} rate={report.rate} "
        f"transport={report.transport}"
        f"{' transactional' if report.transactional else ''}"
        f"{' xpmem' if report.xpmem else ''}: "
        f"{len(report.committed)}/{report.steps} committed, "
        f"{len(report.lost)} lost, {report.faults_injected} faults injected, "
        f"{report.retries} retries, {report.recovered} recovered, "
        f"{report.degradations} degradations "
        f"({report.wall_time:.2f}s)",
        file=out,
    )
    if report.plugins:
        print(
            f"  plug-in chain: {report.fused_reads} fused reads checked "
            f"against the interpreted oracle",
            file=out,
        )
    for label, items in (("typed abandon", report.abandoned),
                         ("flight dump", report.flight_dumps),
                         ("violation", report.invariant_violations)):
        for item in items:
            print(f"  {label}: {item}", file=out)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaos",
        description="Replay coupled pipelines under a seeded fault schedule "
                    "and check the resiliency invariants.",
    )
    parser.add_argument("--scenario", default="gts",
                        choices=SCENARIOS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seeds", type=int, default=0, metavar="N",
                        help="sweep seeds 1..N and print a summary line")
    parser.add_argument("--rate", type=float, default=None,
                        help="per-send fault probability (default 0.1 in "
                             "process, 0.06 per frame for net; 0 = calm)")
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--writers", type=int, default=2)
    parser.add_argument("--transport", default=STREAM_HINTS[TRANSPORT].default,
                        choices=STREAM_HINTS[TRANSPORT].choices)
    parser.add_argument("--transactional", action="store_true",
                        help="all-or-nothing step visibility (2PC)")
    parser.add_argument("--xpmem", action="store_true",
                        help="mapped drain (xpmem=true): fails if a step "
                             "is staged through the shm pool")
    parser.add_argument("--plugins", action="store_true",
                        help="deploy a reader-side DC plug-in chain and "
                             "check fused reads against the interpreted "
                             "oracle (s3d scenario only)")
    parser.add_argument("--kinds", default="timeout|torn|disconnect",
                        help="fault kinds to draw from (|-separated)")
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument("--degrade-after", type=int, default=0,
                        help="consecutive failures before degrading "
                             "transport (0 = never)")
    parser.add_argument("--trace-out", default=None, metavar="OUT.json",
                        help="write a Perfetto trace of the run")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="write flight-recorder dump artifacts here "
                             "on every fault")
    parser.add_argument("--json", action="store_true",
                        help="emit the report(s) as JSON")
    parser.add_argument("--role", choices=("writer", "reader"), default=None,
                        help=argparse.SUPPRESS)  # net worker entry point
    parser.add_argument("--uri", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    out = out or sys.stdout

    if args.role is not None:
        return _net_worker(args.role, args.uri, args.steps, args.seed,
                           args.rate or 0.0)
    if args.plugins and args.scenario in ("gts", "net"):
        parser.error("--plugins requires the s3d (global-array) scenario")
    scenarios = SCENARIOS if args.scenario == "all" else (args.scenario,)
    seeds = range(1, args.seeds + 1) if args.seeds else (args.seed,)
    reports = []
    for s, seed in itertools.product(scenarios, seeds):
        default_rate = 0.06 if s == "net" else 0.1
        report = run_chaos(
            scenario=s,
            seed=seed,
            rate=default_rate if args.rate is None else args.rate,
            steps=args.steps,
            writers=args.writers,
            transport=args.transport,
            transactional=args.transactional,
            xpmem=args.xpmem,
            plugins=args.plugins and s == "s3d",
            kinds=args.kinds,
            max_retries=args.max_retries,
            degrade_after=args.degrade_after,
            trace_out=args.trace_out if len(scenarios) == len(seeds) == 1 else None,
            flight_dir=args.flight_dir,
        )
        reports.append(report)
        if not args.json:
            _print_report(report, out)
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2), file=out)
    elif args.seeds:
        done = sum(r.ok and len(r.committed) == r.steps for r in reports)
        bad = sum(not r.ok for r in reports)
        print(
            f"[chaos] {len(reports)} runs: {bad} violations, {done} fully "
            f"completed, {len(reports) - done - bad} typed-loss, "
            f"{sum(r.faults_injected for r in reports)} faults injected, "
            f"{sum(r.retries for r in reports)} retries",
            file=out,
        )
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
