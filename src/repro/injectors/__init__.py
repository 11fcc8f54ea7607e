"""Injectors of millibottlenecks, one per resource class the paper names:
CPU (VM consolidation), disk I/O (log flushing), memory (GC pauses),
and network (delivery jams)."""

from .colocation import ColocationInjector
from .gcpause import GcPauseInjector
from .logflush import LogFlushInjector
from .netjam import NetworkJamInjector

__all__ = [
    "ColocationInjector",
    "GcPauseInjector",
    "LogFlushInjector",
    "NetworkJamInjector",
]
