"""Deterministic discrete-event simulation kernel.

This package is self-contained (no dependency on the rest of ``repro``)
and provides the substrate every other subsystem runs on:

- :class:`Simulator` — the event heap and clock,
- :class:`Event` / :class:`Timeout` / :class:`AnyOf` / :class:`AllOf` —
  one-shot futures,
- :class:`Process` — generator-based processes,
- :class:`Resource` / :class:`Store` / :class:`Gauge` — queued resources.
"""

from .errors import (
    ProcessInterrupt,
    SimulationDeadlock,
    SimulationError,
    StaleEventError,
)
from .events import AllOf, AnyOf, Event, Grant, Timeout
from .instrument import EventBus, EventRecorder
from .kernel import Simulator
from .process import Process
from .resources import Gauge, Resource, Store
from .tracing import KernelTracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventBus",
    "EventRecorder",
    "Gauge",
    "Grant",
    "KernelTracer",
    "Process",
    "ProcessInterrupt",
    "Resource",
    "SimulationDeadlock",
    "SimulationError",
    "Simulator",
    "StaleEventError",
    "Store",
    "Timeout",
]
