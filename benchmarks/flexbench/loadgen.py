"""The load generator: the only stopwatch code in the harness.

Two loops produce :class:`stats.Window` s.  The closed loop issues the
next step only after the previous one was delivered (one generator
thread in lockstep, so a slow system receives less load).  The open loop
publishes on a fixed schedule from a second thread whatever the reader
does, times each step from when it was *due*, and reports how late the
generator itself ran.

A workload supplies four callables and no timing of its own:
``stage(s)`` opens step ``s`` on every writer rank and hands it its
block, ``writers`` are the handles whose ``end_step()`` publishes it,
``deliver(s)`` runs every reader rank's begin_step/read/end_step and
returns what it read (``None`` when the step did not arrive), and
``verify(s, got)`` compares that with the expected array — after the
latency stamp.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from typing import Callable, Optional, Sequence

import numpy as np

import _paths
from stats import Window

clock = time.perf_counter
_TICK = os.sysconf("SC_CLK_TCK")

#: Consecutive undelivered steps after which a run is abandoned (the
#: rest count as failed) instead of waiting out a timeout per step.
GIVE_UP_AFTER = 5


# -- process accounting ------------------------------------------------------

def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_s(daemon_pid: Optional[int]) -> float:
    """CPU seconds of the generator process plus the daemon, if any."""
    own = time.process_time()
    return own + (proc_cpu_s(daemon_pid) if daemon_pid else 0.0)


def host_steal_s() -> float:
    """Seconds the hypervisor has run someone else while a vCPU of this
    guest was runnable (all vCPUs, since boot)."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / _TICK


#: A measured section that lost more than this share of its wall time to
#: the hypervisor is disturbed: quiet runs on the reference VM read under
#: 0.02, the bursts that halve throughput read 0.15 to 0.6.
STEAL_LIMIT = 0.10


def wait_for_quiet(limit_s: float) -> float:
    """Block until the host leaves a busy vCPU alone, or ``limit_s`` have
    passed; returns the seconds waited.  Steal is only charged to a
    runnable vCPU, so each probe spins for 0.3 s."""
    began = clock()
    while True:
        steal0, t0 = host_steal_s(), clock()
        while clock() - t0 < 0.3:
            pass
        if host_steal_s() - steal0 <= STEAL_LIMIT * 0.3 or clock() - began > limit_s:
            return clock() - began
        time.sleep(1.0)


# -- the machine: where the load runs, and how fast it is right now ----------

def pin_to_one_cpu() -> None:
    """Pin the calling thread, and every thread and process it starts from
    now on (workers, the daemon), to the last CPU it may use.

    Unpinned, the generator's two threads and the daemon migrate between
    the machine's two vCPUs and a window's speed depends on where the
    scheduler left them (``inproc_mxn`` windows fell into two modes 25 %
    apart on the reference VM, set-up times into two modes 20 % apart).
    On one CPU, placement is the same in every window of every run, the
    machine probes measure the CPU the steps ran on, and nothing that is
    lockstep or behind the interpreter lock could have overlapped anyway:
    ``net_lockstep_bulk`` delivers 170 steps/s with its daemon on the
    generator's CPU and 140 with it on the other one (cross-CPU
    wake-ups)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


#: What one probe reads on the reference VM in a quiet minute.  A run's
#: timings are scaled by measured / reference, so the numbers keep their
#: unit and their size.
PROBE_REF = {"pyloop_s": 0.033, "memcpy_s": 0.025}
#: Bytes one probe memcpys: fifteen times 16 MB.
PROBE_COPIES, PROBE_ARRAY_BYTES = 15, 16 * 2 ** 20


class Probe:
    """Two probes of the machine, not of the program: a fixed pure-Python
    loop and a fixed number of 16 MB memcpys, about 60 ms together.  A
    workload takes one before its first window and after every window;
    :func:`stats.machine_slowdown` turns a run's probes into the factor
    its timings are scaled by."""

    def __init__(self) -> None:
        self.src = np.ones(PROBE_ARRAY_BYTES // 8)
        self.dst = np.empty_like(self.src)
        np.copyto(self.dst, self.src)            # first touch, untimed

    def __call__(self) -> dict[str, float]:
        t = clock()
        acc = 0
        for i in range(1_000_000):
            acc += i & 7
        loop_s = clock() - t
        t = clock()
        for _ in range(PROBE_COPIES):
            np.copyto(self.dst, self.src)
        return {"pyloop_s": loop_s, "memcpy_s": clock() - t}


# -- the daemon: the system under test, in its own process -------------------

class Daemon:
    """``daemon_main.py`` as a child process; ``uri`` once it is READY."""

    def __init__(self, retain_steps: int, trace_out: str = "") -> None:
        cmd = [sys.executable, os.path.join(_paths.HERE, "daemon_main.py"),
               "--retain-steps", str(retain_steps)]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if "READY" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not come up: {line!r}")
        self.pid = self.proc.pid
        self.uri = "flexio://" + line.split("control=")[1].split()[0] + "/public"

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- the two loops -----------------------------------------------------------

def _publish(stage: Callable, writers: Sequence, s: int) -> tuple[float, float]:
    """Run step ``s`` through every writer rank; returns (the stamp taken
    just before the last rank's ``end_step()``, seconds the ranks spent
    blocked inside ``end_step()``)."""
    stage(s)
    blocked = 0.0
    stamp = 0.0
    for h in writers:
        stamp = clock()
        h.end_step()
        blocked += clock() - stamp
    return stamp, blocked


def closed_loop(
    steps: int,
    stage: Callable[[int], None],
    writers: Sequence,
    deliver: Callable[[int], object],
    verify: Callable[[int, object], bool],
    daemon_pid: Optional[int] = None,
    on_step: Callable[[int], None] = lambda s: None,
    keep_intervals: bool = False,
    first_step: int = 0,
) -> Window:
    """One window of ``steps`` lockstep publish -> deliver -> verify."""
    w = Window(steps=steps)
    verify_cpu = 0.0
    streak = 0
    cpu0, t0 = cpu_s(daemon_pid), clock()
    for s in range(first_step, first_step + steps):
        if streak >= GIVE_UP_AFTER:
            w.failed += 1
            continue
        on_step(s)
        try:
            stamp, blocked = _publish(stage, writers, s)
            got = deliver(s)
            done = clock()
        except Exception:  # a failed step is a result, not a crash
            w.error = w.error or traceback.format_exc(limit=3)
            got = None
        if got is None:
            w.failed += 1
            streak += 1
            continue
        streak = 0
        w.latency_ms.append((done - stamp) * 1e3)
        w.visible_ms.append(blocked * 1e3)
        if keep_intervals:
            w.intervals.append((stamp, done))
        c, t = time.thread_time(), clock()
        ok = verify(s, got)
        w.verify_s += clock() - t
        verify_cpu += time.thread_time() - c
        w.failed += not ok
    w.start, w.end = t0, clock()
    w.wall_s = w.end - t0 - w.verify_s
    w.cpu_s = cpu_s(daemon_pid) - cpu0 - verify_cpu
    return w


def open_loop(
    steps: int,
    rate: float,
    stage: Callable[[int], None],
    writers: Sequence,
    deliver: Callable[[int], object],
    verify: Callable[[int, object], bool],
    daemon_pid: Optional[int] = None,
    on_step: Callable[[int], None] = lambda s: None,
    first_step: int = 0,
) -> Window:
    """One window of ``steps`` published at ``rate`` steps/s from a writer
    thread while this thread tails them."""
    w = Window(steps=steps)
    start = clock() + 0.02
    due = [start + k / rate for k in range(steps)]
    late = [0.0] * steps
    visible = [0.0] * steps
    published = [0]
    writer_error: list[str] = []

    def write_schedule() -> None:
        try:
            for k in range(steps):
                wait = due[k] - clock()
                if wait > 0:
                    time.sleep(wait)
                late[k] = clock() - due[k]
                _, visible[k] = _publish(stage, writers, first_step + k)
                published[0] = k + 1
        except Exception:
            writer_error.append(traceback.format_exc(limit=3))

    thread = threading.Thread(target=write_schedule, name="flexbench-writer")
    streak = 0
    cpu0, t0 = cpu_s(daemon_pid), clock()
    thread.start()
    try:
        for k in range(steps):
            s = first_step + k
            on_step(s)
            got = None
            if streak < GIVE_UP_AFTER and not writer_error:
                try:
                    got = deliver(s)
                except Exception:
                    w.error = w.error or traceback.format_exc(limit=3)
            done = clock()
            if got is None:
                w.failed += 1
                streak += 1
                continue
            streak = 0
            t = clock()
            w.failed += not verify(s, got)
            w.verify_s += clock() - t
            w.latency_ms.append((done - due[k]) * 1e3)
            w.lag_steps = max(w.lag_steps, published[0] - 1 - k)
    finally:
        thread.join()
    w.start, w.end = t0, clock()
    w.wall_s = w.end - start
    w.cpu_s = cpu_s(daemon_pid) - cpu0
    # The writer's own figures are read once it has stopped: a step can
    # be delivered before its end_step() has returned to the writer.
    w.visible_ms = [v * 1e3 for v in visible]
    w.late_ms = [v * 1e3 for v in late]
    w.error = w.error or "".join(writer_error[:1])
    return w
