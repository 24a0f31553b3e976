"""Combined functional + timed in-situ runs.

:mod:`repro.coupled.simulate` prices abstract workloads;
:mod:`repro.core.stream` moves real data with no notion of time.  This
module welds them: writer and reader ranks run as discrete-event
processes, every step's data is *really* generated, conditioned by DC
plug-ins, buffered and read back through the FLEXPATH stream — while the
DES clock charges compute time and movement costs derived from the
*actual* byte counts observed (so a writer-side sampling codelet
visibly shrinks the simulated movement bill, not just the buffers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro import simcore
from repro.adios.api import EndOfStream, RankContext, StepLost, StepNotReady, StepStatus
from repro.core.api import FlexIO
from repro.core.resilience import MovementFailed, TransactionAborted
from repro.core.runtime import FlexIORuntime
from repro.core.stream import stream_registry
from repro.machine.topology import Machine
from repro.util import ceil_div

#: generator(rank, step) -> {var_name: ndarray [, (data, box, gshape)]}
Generator = Callable[[int, int], dict]
#: analytics(record, step) -> anything (collected into the result)
Analytics = Callable[[dict, int], Any]


@dataclass
class InSituResult:
    """Outcome of one combined run."""

    simulated_time: float
    #: One entry per (step, reader): whatever the analytics returned.
    analytics_outputs: list = field(default_factory=list)
    #: Modeled movement charges, split by locality of each pair.
    intra_node_bytes: int = 0
    inter_node_bytes: int = 0
    movement_time: float = 0.0
    compute_time: float = 0.0
    analytics_time: float = 0.0
    steps: int = 0
    #: Steps a reader skipped as typed gaps (lost/aborted in movement).
    steps_lost: int = 0
    #: Failed synchronous publishes surfaced to the writer.
    writer_failures: int = 0


class InSituRun:
    """One coupled run: real data plane, simulated time plane."""

    def __init__(
        self,
        machine: Machine,
        config_xml: str,
        group: str,
        stream_name: str,
        generator: Generator,
        analytics: Analytics,
        writer_cores: Sequence[int],
        reader_cores: Sequence[int],
        compute_time_per_step: float,
        analytics_time_per_byte: float = 0.0,
        num_steps: int = 3,
    ) -> None:
        if num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if not writer_cores or not reader_cores:
            raise ValueError("need writer and reader cores")
        self.machine = machine
        self.flexio = FlexIO.from_xml(config_xml, machine=machine)
        self.runtime = FlexIORuntime(machine)
        self.group = group
        self.stream_name = stream_name
        self.generator = generator
        self.analytics = analytics
        self.writer_cores = list(writer_cores)
        self.reader_cores = list(reader_cores)
        self.compute_time = float(compute_time_per_step)
        self.ana_time_per_byte = float(analytics_time_per_byte)
        self.num_steps = num_steps
        self.result = InSituResult(simulated_time=0.0)

    # ------------------------------------------------------------------
    def _reader_core_for(self, writer_rank: int) -> int:
        """Which reader consumes a writer's process group (block map)."""
        per = ceil_div(len(self.writer_cores), len(self.reader_cores))
        return self.reader_cores[min(writer_rank // per, len(self.reader_cores) - 1)]

    def _charge_movement(self, env, writer_rank: int, nbytes: int):
        """Pay (simulated) time for moving one rank's conditioned bytes."""
        src = self.writer_cores[writer_rank]
        dst = self._reader_core_for(writer_rank)
        t = self.runtime.transfer_time(nbytes, src, dst)
        if self.machine.same_node(src, dst):
            self.result.intra_node_bytes += nbytes
        else:
            self.result.inter_node_bytes += nbytes
        self.result.movement_time += t
        return env.timeout(t)

    # ------------------------------------------------------------------
    def run(self) -> InSituResult:
        env = simcore.Environment()
        nwriters = len(self.writer_cores)
        nreaders = len(self.reader_cores)
        handles = [
            self.flexio.open_write(self.group, self.stream_name, RankContext(r, nwriters))
            for r in range(nwriters)
        ]
        #: step index -> announcement store for readers.
        announce = [simcore.Store(env) for _ in range(nreaders)]

        def writer(env, rank: int):
            for step in range(self.num_steps):
                yield env.timeout(self.compute_time)
                self.result.compute_time += self.compute_time
                record = self.generator(rank, step)
                for name, value in record.items():
                    if isinstance(value, tuple):
                        data, box, gshape = value
                        handles[rank].write(name, data, box=box, global_shape=gshape)
                    else:
                        handles[rank].write(name, value)
                try:
                    handles[rank].end_step()
                except (MovementFailed, TransactionAborted):
                    # Synchronous publish failed after retries: the data
                    # plane already recorded the step as a typed loss.
                    self.result.writer_failures += 1
                # Once the whole step is published (last rank's end_step),
                # charge movement per rank from the *conditioned* sizes.
                state = stream_registry._states[self.stream_name]
                try:
                    published = state.get_step(step)
                except StepLost:
                    published = None  # lost step: nothing moved
                except (StepNotReady, EndOfStream):
                    continue  # some rank has yet to seal it (or never will)
                if published is not None:
                    for r2, pg in published.groups.items():
                        yield self._charge_movement(env, r2, pg.nbytes)
                # Announce even a lost step so readers advance past
                # the gap instead of deadlocking on the store.
                for box_store in announce:
                    yield box_store.put(step)
            handles[rank].close()

        def reader(env, idx: int):
            handle = self.flexio.open_read(
                self.group, self.stream_name, RankContext(idx, nreaders)
            )
            my_writers = [
                w for w in range(nwriters) if self._reader_core_for(w) == self.reader_cores[idx]
            ]
            for step in range(self.num_steps):
                yield announce[idx].get()
                # The announcement guarantees the step is published, so
                # begin_step never reports NotReady here — but it may be
                # a typed gap (OtherError) when movement lost the step.
                status = handle.begin_step()
                if status is StepStatus.EndOfStream:
                    break
                if status is not StepStatus.OK:
                    self.result.steps_lost += 1
                    continue
                for w in my_writers:
                    record = {
                        name: handle.read_block(name, w)
                        for name in handle.available_vars()
                    }
                    nbytes = sum(
                        v.nbytes for v in record.values() if isinstance(v, np.ndarray)
                    )
                    t = nbytes * self.ana_time_per_byte
                    self.result.analytics_time += t
                    yield env.timeout(t)
                    self.result.analytics_outputs.append(
                        self.analytics(record, step)
                    )
                handle.end_step()
            handle.close()

        procs = [env.process(writer(env, r), name=f"writer-{r}") for r in range(nwriters)]
        procs += [env.process(reader(env, i), name=f"reader-{i}") for i in range(nreaders)]

        def supervisor(env):
            for p in procs:
                yield p

        env.run(env.process(supervisor(env)))
        self.result.simulated_time = env.now
        self.result.steps = self.num_steps
        return self.result
