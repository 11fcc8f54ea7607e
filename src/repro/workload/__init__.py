"""Workload generation: closed-loop clients, open-loop and MMPP
streams, scripted batches, and array-backed open-loop streams for
million-request runs."""

from .generators import (
    ClosedLoopPopulation,
    MmppOpenLoop,
    OpenLoopPoisson,
    ScriptedBurst,
)
from .openloop import ArrayOpenLoop, arrival_times, numpy_seed_for

__all__ = [
    "ArrayOpenLoop",
    "ClosedLoopPopulation",
    "MmppOpenLoop",
    "OpenLoopPoisson",
    "ScriptedBurst",
    "arrival_times",
    "numpy_seed_for",
]
