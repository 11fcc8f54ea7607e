"""The paper's evaluation, one registry entry per figure or table.

========================  =============================================
Module                    Reproduces
========================  =============================================
fig01_histograms          Fig 1 — multi-modal response-time histograms
fig02_full_sysbursty      Fig 2 — full two-system consolidation (emergent)
timeline                  Figs 3, 5, 7 (+ §V-B), 8, 9, 10, 11 — one row
                          each of ``TIMELINES``
fig12_throughput          Fig 12 — 2000 threads vs async throughput
cache_storage             extension — miss storms + write-back bufferbloat
deep_chain                extension — multi-hop CTQO in 4/5-tier chains
fanout                    extension — 1×N fan-out DAG, tail at scale
policy_matrix             extension — invocation-policy hybrids at WL 7000
replication               extension — replicas dilute but keep CTQO
scaleout                  extension — balancing/hedging across replicas
validation                substrate check — simulator vs queueing theory
cause_variety             §III — CPU/disk/GC/network causes, same CTQO
headline_utilization      abstract — 43 % sync vs 83 % async claim
nx_sweep                  §V method — one scenario per NX level
========================  =============================================

:data:`~repro.experiments.runner.REGISTRY` is the one list of every
runnable experiment: ``python -m repro list`` prints it, ``repro run
NAME`` prints one experiment as text and ``repro run-all`` executes the
registry through the parallel engine.  Every experiment offers one
interface to all of them (see :mod:`repro.experiments.runner`):
``run(seed=..., duration=..., **params)`` runs it, ``record(result)``
turns the result into the engine's plain-data record, and ``report``,
``runs`` and ``single_run`` serve ``repro run``, ``diagnose`` and
``profile``.  Every simulated run inside goes through
:func:`repro.core.evaluation.simulate`.
"""

from .runner import (
    REGISTRY,
    JobConfig,
    RunReport,
    expand_jobs,
    experiment,
    run_jobs,
)
from .timeline import TIMELINES, TimelineResult, TimelineSpec

__all__ = [
    "JobConfig",
    "REGISTRY",
    "RunReport",
    "TIMELINES",
    "TimelineResult",
    "TimelineSpec",
    "expand_jobs",
    "experiment",
    "run_jobs",
]
