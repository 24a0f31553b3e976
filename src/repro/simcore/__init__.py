"""Discrete-event simulation kernel underpinning the FlexIO reproduction.

The paper's evaluation runs coupled simulation + analytics jobs on real HPC
machines (Titan, Smoky).  We reproduce those runs on a discrete-event
simulator: every MPI rank, analytics process, transport engine, and file
server is a coroutine process scheduled on a shared virtual clock.

The kernel is deliberately SimPy-like (environments, events, processes,
resources, stores) but self-contained, deterministic, and tuned for the
fan-outs this reproduction needs (thousands of rank processes per run).

Public API
----------
:class:`Environment`
    The simulation context: virtual clock + event queue.
:class:`Event`, :class:`Timeout`, :class:`Process`, :class:`Condition`
    Awaitable primitives that coroutine processes ``yield``.
:class:`Resource`
    FIFO counted resource (e.g. a core, a NIC engine, an OST).
:class:`Store`
    FIFO message channel with optional capacity (queues between processes).
:class:`Interrupt`
    Exception injected into a process by :meth:`Process.interrupt`.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "environment": "Environment SimulationError",
    "events": "AllOf AnyOf Condition Event EventAlreadyTriggered Timeout",
    "process": "Interrupt Process",
    "resources": "Preempted PriorityResource Resource",
    "store": "Store",
})
