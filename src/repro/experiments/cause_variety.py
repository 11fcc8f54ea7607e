"""§III's cause-independence claim, demonstrated across four causes.

"We note that the static and dynamic conditions are independent of the
specific causes of millibottlenecks."  The paper demonstrates two
(CPU via consolidation, disk I/O via log flushing) and cites a third
(JVM garbage collection, [32]); §II adds network to the list.  This
experiment runs the same synchronous system under all four
millibottleneck classes — and the same asynchronous system under the
identical injections — and shows the same outcome every time: the sync
stack drops packets and grows a 3-second tail, the async stack absorbs.
"""

from __future__ import annotations

from ..core.evaluation import Scenario
from ..topology.configs import SystemConfig
from .report import format_table

__all__ = ["CAUSES", "record", "report", "run"]

CAUSES = ("cpu", "io", "gc", "network")


def _apply_cause(scenario, cause, duration):
    if cause == "cpu":
        return scenario.with_consolidation("app", times=[12.0, 19.0])
    if cause == "io":
        return scenario.with_log_flush("db", period=9.0, duration=0.6,
                                       offset=12.0)
    if cause == "gc":
        return scenario.with_gc_pauses("app", period=7.0, min_pause=0.6,
                                       max_pause=1.0)
    if cause == "network":
        return scenario.with_network_jam("app", period=9.0, duration=0.8,
                                         offset=12.0)
    raise ValueError(f"unknown cause {cause!r}")


def run_point(cause, nx, clients=7000, duration=28.0, warmup=5.0, seed=42,
              streaming=False):
    scenario = Scenario(SystemConfig(nx=nx, seed=seed, streaming=streaming),
                        clients=clients,
                        duration=duration, warmup=warmup)
    _apply_cause(scenario, cause, duration)
    result = scenario.run()
    summary = result.summary()
    return {
        "cause": cause,
        "nx": nx,
        "dropped": summary["dropped_packets"],
        "vlrt": summary["vlrt"],
        "drop_sites": {k: v for k, v in summary["drops_by_server"].items()
                       if v},
        "throughput_rps": summary["throughput_rps"],
    }


def run(causes=CAUSES, duration=28.0, seed=42, streaming=False):
    """{(cause, 'sync'|'async'): point}."""
    out = {}
    for cause in causes:
        out[(cause, "sync")] = run_point(cause, 0, duration=duration,
                                         seed=seed, streaming=streaming)
        out[(cause, "async")] = run_point(cause, 3, duration=duration,
                                          seed=seed, streaming=streaming)
    return out


def record(points):
    """The registry record of :func:`run`'s points."""
    return {
        "points": {
            f"{cause}/{stack}": point
            for (cause, stack), point in points.items()
        }
    }


def report(points):
    rows = []
    for (cause, stack), point in sorted(points.items()):
        rows.append([
            cause, stack, point["dropped"], point["vlrt"],
            ", ".join(f"{k}:{v}" for k, v in point["drop_sites"].items())
            or "none",
        ])
    table = format_table(
        ["millibottleneck cause", "stack", "dropped", "VLRT", "drop sites"],
        rows,
    )
    return (
        "=== cause independence: CPU / disk / GC / network "
        "millibottlenecks ===\n" + table +
        "\n\nSame conditions, same outcome, four different root causes — "
        "the paper's\npoint that CTQO depends on the queueing structure, "
        "not on what stalled."
    )
