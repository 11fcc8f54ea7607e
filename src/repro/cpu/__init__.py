"""CPU substrate: processor-sharing hosts, VMs, and overhead models."""

from .host import Host, Vm
from .overhead import EfficiencyModel, PerfectEfficiency, ThreadOverheadModel

__all__ = [
    "EfficiencyModel",
    "Host",
    "PerfectEfficiency",
    "ThreadOverheadModel",
    "Vm",
]
