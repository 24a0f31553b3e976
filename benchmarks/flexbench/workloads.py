"""The four step-delivery workloads.

Each one measures the same thing — writer ``end_step()`` to a reader
holding a verified array — on a placement that loads a different layer
(README.md has the reasoning and the table of which metric each should
move).  A workload only builds handles and payloads and says how a step
is staged, delivered and verified; :mod:`loadgen` does all the timing.

Payloads come from a ring of :data:`RING` arrays generated from the
seed; the program only ever sees the arrays.  The ring keeps every
process's working set small: on the reference VM the first touch of
fresh guest memory is slow enough to dominate a step.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Optional

import numpy as np

import _paths
import loadgen
from stats import Window

_paths.use_repo_sources()

import repro  # noqa: E402
from repro.adios import BoundingBox, StepStatus, block_decompose  # noqa: E402
from repro.core import PluginManager, PluginSide  # noqa: E402
from repro.core.hints import CACHING_ALL, TRANSPORT_SHM, stream_params  # noqa: E402
from repro.core.plugins import range_select_plugin, sampling_plugin  # noqa: E402
from repro.core.redistribution import global_plan_cache  # noqa: E402

RING = 8
#: How long a reader waits for a step before it counts as not delivered.
STEP_TIMEOUT_S = 2.0


class Workload:
    """Common shape: ``prepare()`` (the harness's own payloads and
    expected arrays), ``setup()`` (the program's: daemon, connect, open,
    warm-up), ``run()`` returning the measured windows and the machine
    probes taken between them, ``counters()``, ``teardown()``."""

    name = ""
    loop = "closed"
    WINDOW_STEPS = 0
    WARMUP_STEPS = 0
    step_bytes = 0

    def __init__(self, seed: int, window_steps: Optional[int] = None,
                 daemon_trace_out: str = "") -> None:
        self.rng = np.random.default_rng(seed)
        self.window_steps = window_steps or self.WINDOW_STEPS
        self.daemon_trace_out = daemon_trace_out
        self.daemon: Optional[loadgen.Daemon] = None

    @property
    def daemon_pid(self) -> Optional[int]:
        return self.daemon.pid if self.daemon is not None else None

    def ring(self, shape) -> list[np.ndarray]:
        return [self.rng.random(shape) for _ in range(RING)]

    # -- the four callables loadgen drives ---------------------------------
    def stage(self, s: int) -> None:
        raise NotImplementedError

    def deliver(self, s: int):
        raise NotImplementedError

    def verify(self, s: int, got) -> bool:
        want = self.expected[s % RING]
        return got.shape == want.shape and bool(np.array_equal(got, want))

    # -- lifecycle ---------------------------------------------------------
    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_window(self, steps: int, first_step: int, **loop_kw) -> Window:
        return loadgen.closed_loop(
            steps, self.stage, self.writers, self.deliver, self.verify,
            daemon_pid=self.daemon_pid, first_step=first_step, **loop_kw,
        )

    def run(self, seconds: float, max_windows: Optional[int],
            **loop_kw) -> tuple[list[Window], list[dict[str, float]]]:
        """Whole windows of ``window_steps`` for as long as another one
        fits into ``seconds`` (at least one; ``seconds=0``: set-up only),
        with a machine probe before the first window and after each."""
        out: list[Window] = []
        if seconds <= 0:
            return out, []
        probe = loadgen.Probe()
        probes = [probe()]
        t0 = loadgen.clock()
        while max_windows is None or len(out) < max_windows:
            elapsed = loadgen.clock() - t0
            if out and elapsed + elapsed / len(out) > seconds:
                break
            out.append(self.run_window(
                self.window_steps,
                self.WARMUP_STEPS + len(out) * self.window_steps, **loop_kw,
            ))
            probes.append(probe())
        return out, probes

    def counters(self) -> dict[str, float]:
        """Cumulative public counters of the program (layers.COUNTERS)."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------------
# In-process placements: core.stream + core.redistribution + transport.shm
# ---------------------------------------------------------------------------

class _Inproc(Workload):
    """A fresh stream per window: the stream layer's per-commit costs
    grow with stream length, so a fixed length makes them repeatable."""

    STREAM = ""
    PARAMS = ""
    WRITERS = 0
    READERS = 0

    def setup(self) -> None:
        self.client = repro.connect("local://", params=self.PARAMS)
        self.counts: Counter = Counter()
        self.run_window(self.WARMUP_STEPS, 0)   # compiles the plans
        self.counts.clear()

    def _open(self) -> None:
        self.writers = [
            self.client.open(self.STREAM, "w", rank=r, num_ranks=self.WRITERS)
            for r in range(self.WRITERS)
        ]
        self.readers = [
            self.client.open(self.STREAM, "r", rank=r, num_ranks=self.READERS)
            for r in range(self.READERS)
        ]

    def run_window(self, steps: int, first_step: int, **loop_kw) -> Window:
        self._open()
        try:
            return super().run_window(steps, 0, **loop_kw)
        finally:
            for h in (*self.writers, *self.readers):
                h.close()
            # The finished stream's pool buffers go now, not whenever the
            # collector next runs: peak_rss_mb must not depend on that.
            gc.collect()
            m = self.writers[0].monitor.metrics
            copies = m.histogram("transport.copies")
            self.counts.update({
                "backpressure_waits": m.counter("dataplane.backpressure_waits").value,
                "steps_lost": m.counter("dataplane.drain.steps_lost").value,
                "shm_copies": copies.total,
                "shm_bytes": m.counter("shm.bytes_sent").value,
                "fused_reads": m.counter("plugin.fused_reads").value,
                "interpreted_reads": m.counter("plugin.interpreted_reads").value,
                "blocks_skipped": m.counter("plugin.blocks_skipped").value,
            })

    def counters(self) -> dict[str, float]:
        cache = global_plan_cache.stats
        return {**self.counts, "plan_hits": cache.hits, "plan_lookups": cache.lookups}


class InprocMxn(_Inproc):
    name = "inproc_mxn"
    WINDOW_STEPS = 400
    WARMUP_STEPS = 20
    SHAPE = (512, 512)
    GRID = (4, 4)
    STREAM = "flexbench.mxn"
    PARAMS = stream_params(caching=CACHING_ALL, transport=TRANSPORT_SHM)
    WRITERS = 16
    READERS = 4
    step_bytes = 512 * 512 * 8

    def prepare(self) -> None:
        self.expected = self.ring(self.SHAPE)
        self.boxes = block_decompose(self.SHAPE, self.GRID)
        # Each writer rank owns its block, as a simulation rank would.
        self.blocks = [
            [np.ascontiguousarray(a[b.slices()]) for b in self.boxes]
            for a in self.expected
        ]
        self.band = self.SHAPE[0] // self.READERS

    def stage(self, s: int) -> None:
        blocks = self.blocks[s % RING]
        for h, box, block in zip(self.writers, self.boxes, blocks):
            h.begin_step()
            h.write("field", block, box=box, global_shape=self.SHAPE)

    def deliver(self, s: int):
        bands = []
        for i, r in enumerate(self.readers):
            if r.begin_step(timeout=STEP_TIMEOUT_S) is not StepStatus.OK:
                return None
            bands.append(r.read(
                "field", start=(i * self.band, 0), count=(self.band, self.SHAPE[1])
            ))
            r.end_step()
        return bands

    def verify(self, s: int, got) -> bool:
        want = self.expected[s % RING]
        return all(
            band.shape == (self.band, self.SHAPE[1])
            and np.array_equal(band, want[i * self.band:(i + 1) * self.band])
            for i, band in enumerate(got)
        )


class InprocFused(_Inproc):
    name = "inproc_fused"
    WINDOW_STEPS = 400
    WARMUP_STEPS = 10
    ROWS_PER_WRITER = 32768
    STRIDE = 16
    SELECT = ("zion", 0, 0.3, 0.7)
    STREAM = "flexbench.fused"
    # caching=all so the fused plan is compiled once and replayed.
    PARAMS = stream_params(caching=CACHING_ALL, xpmem=True)
    WRITERS = 8
    READERS = 1
    GSHAPE = (WRITERS * ROWS_PER_WRITER, 7)
    step_bytes = GSHAPE[0] * 7 * 8

    def _deploy(self, plugins: PluginManager) -> None:
        plugins.deploy(sampling_plugin(stride=self.STRIDE, only=("zion",)),
                       PluginSide.READER)
        plugins.deploy(range_select_plugin(*self.SELECT), PluginSide.READER)

    def prepare(self) -> None:
        self.payload = self.ring(self.GSHAPE)
        n = self.ROWS_PER_WRITER
        self.boxes = [BoundingBox((r * n, 0), (n, 7)) for r in range(self.WRITERS)]
        # The oracle: the same chain run interpreted over the whole array.
        oracle = PluginManager()
        self._deploy(oracle)
        self.expected = [
            oracle.apply_side(PluginSide.READER, {"zion": a})["zion"]
            for a in self.payload
        ]

    def _open(self) -> None:
        super()._open()
        self._deploy(self.readers[0].plugins)

    def stage(self, s: int) -> None:
        a = self.payload[s % RING]
        n = self.ROWS_PER_WRITER
        for r, (h, box) in enumerate(zip(self.writers, self.boxes)):
            h.begin_step()
            h.write("zion", a[r * n:(r + 1) * n], box=box, global_shape=self.GSHAPE)

    def deliver(self, s: int):
        r = self.readers[0]
        if r.begin_step(timeout=STEP_TIMEOUT_S) is not StepStatus.OK:
            return None
        got = r.read("zion", start=(0, 0), count=self.GSHAPE)
        r.end_step()
        return got


# ---------------------------------------------------------------------------
# Through the daemon: net.* + marshal + transport.tcp
# ---------------------------------------------------------------------------

class _Net(Workload):
    """One client session against the daemon in its own OS process; one
    stream for the whole run."""

    STREAM = ""
    SHAPE = (0, 0)
    RETAIN_STEPS = 0
    client = writer = reader = None

    def prepare(self) -> None:
        self.payload = self.ring(self.SHAPE)
        self.expected = [a.copy() for a in self.payload]

    def setup(self) -> None:
        self.daemon = loadgen.Daemon(self.RETAIN_STEPS, self.daemon_trace_out)
        self.client = repro.connect(self.daemon.uri)
        self.writer = self.client.open(self.STREAM, "w")
        self.writers = [self.writer]
        self.reader = self.client.open(self.STREAM, "r", timeout=STEP_TIMEOUT_S)
        self.run_window(self.WARMUP_STEPS, 0)    # warms sockets and formats

    def counters(self) -> dict[str, float]:
        m = self.client.monitor.metrics
        return {
            "tcp_bytes_sent": m.counter("tcp.bytes_sent").value,
            "net_retries": m.counter("net.reconnects").value,
        }

    def teardown(self) -> None:
        try:
            for h in (self.writer, self.reader, self.client):
                if h is not None:
                    h.close()
        finally:
            if self.daemon is not None:
                self.daemon.stop()


class NetTailSmall(_Net):
    name = "net_tail_small"
    loop = "open"
    WINDOW_STEPS = 250
    WARMUP_STEPS = 100
    RATE = 100.0
    SHAPE = (64, 64)
    STREAM = "flexbench.tail"
    # The daemon's default.  With 8, a reader stalled for 80 ms (seen on
    # the reference VM) asks for an evicted step, is told NOT_READY for
    # ever, and the rest of the run is lost.
    RETAIN_STEPS = 64
    step_bytes = 64 * 64 * 8

    def stage(self, s: int) -> None:
        self.writer.begin_step()
        self.writer.write("field", self.payload[s % RING])

    def deliver(self, s: int):
        if self.reader.begin_step(timeout=STEP_TIMEOUT_S) is not StepStatus.OK:
            return None
        got = self.reader.read_block("field", 0)
        self.reader.end_step()
        return got

    def run_window(self, steps: int, first_step: int,
                   keep_intervals: bool = False, **loop_kw) -> Window:
        """One open-loop segment: the schedule starts afresh, so the
        machine can be probed between windows without a backlog."""
        return loadgen.open_loop(
            steps, self.RATE, self.stage, self.writers, self.deliver,
            self.verify, daemon_pid=self.daemon_pid, first_step=first_step,
            **loop_kw,
        )


class NetLockstepBulk(_Net):
    name = "net_lockstep_bulk"
    WINDOW_STEPS = 250
    WARMUP_STEPS = 50
    SHAPE = (512, 512)
    BANDS = 4
    STREAM = "flexbench.bulk"
    # Every publish of the run evicts, and the broker stays at 16 MB: a
    # daemon retaining 64 of these steps slows down once its RSS grows.
    RETAIN_STEPS = 8
    step_bytes = 512 * 512 * 8

    def prepare(self) -> None:
        super().prepare()
        rows = self.SHAPE[0] // self.BANDS
        self.boxes = [
            BoundingBox((i * rows, 0), (rows, self.SHAPE[1]))
            for i in range(self.BANDS)
        ]

    def stage(self, s: int) -> None:
        a = self.payload[s % RING]
        self.writer.begin_step()
        for box in self.boxes:
            self.writer.write("field", a[box.slices()], box=box,
                              global_shape=self.SHAPE)

    def deliver(self, s: int):
        if self.reader.begin_step(timeout=STEP_TIMEOUT_S) is not StepStatus.OK:
            return None
        got = self.reader.read("field", start=(0, 0), count=self.SHAPE)
        self.reader.end_step()
        return got


WORKLOADS = {
    w.name: w for w in (InprocMxn, InprocFused, NetTailSmall, NetLockstepBulk)
}
