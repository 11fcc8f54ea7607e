"""The asynchrony sweep: one consolidation scenario per NX level.

The paper's §V method — the same workload and the same millibottlenecks
under NX = 0..3 — as registry jobs: each of ``nx_sweep``'s variants is
one level (:data:`~repro.experiments.runner.NX_LEVELS`), so ``repro
run-all`` runs the levels in parallel.  The entry prints no figure of
its own (it has no ``report``); the timeline figures tell the same
story per level.
"""

from __future__ import annotations

from ..core.evaluation import Scenario
from ..topology.configs import SystemConfig

__all__ = ["record", "run"]


def run(nx=0, clients=7000, duration=30.0, seed=42, streaming=False):
    """One level: two consolidation bursts on the app tier."""
    return Scenario(
        SystemConfig(nx=nx, seed=seed, streaming=streaming),
        clients=clients, duration=duration, warmup=5.0,
    ).with_consolidation("app", times=[12.0, 19.0]).run()


def record(result):
    """The registry record of one level's RunResult."""
    return {
        "nx": result.config.nx,
        "summary": result.summary(),
        "queue_max": result.queue_max(),
        "highest_avg_cpu": result.highest_avg_cpu(),
    }
