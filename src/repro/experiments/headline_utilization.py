"""The abstract's headline claim, as a table.

"In synchronous n-tier system experiments, long tail latency due to
CTQO can be reproduced consistently at utilization as low as 43 %.  In
contrast, when all n-tier servers are replaced by asynchronous versions,
CTQO and consequent dropped packets remain absent at utilization levels
as high as 83 %, despite the same millibottlenecks."

We sweep workload levels on both stacks under identical millibottleneck
injection and report, per point: throughput, highest tier-average CPU
utilization, dropped packets and VLRT count.
"""

from __future__ import annotations

from ..core.evaluation import Scenario
from ..topology.configs import SystemConfig
from .report import format_table

__all__ = ["WORKLOADS", "record", "report", "run"]

WORKLOADS = (4000, 5500, 7000, 8000)
BURST_PERIOD = 7.0


def run_point(nx, clients, duration=60.0, warmup=10.0, seed=42,
              streaming=False):
    scenario = Scenario(
        SystemConfig(nx=nx, seed=seed, streaming=streaming),
        clients=clients,
        duration=duration, warmup=warmup,
    ).with_consolidation("app", period=BURST_PERIOD)
    result = scenario.run()
    summary = result.summary()
    return {
        "clients": clients,
        "nx": nx,
        "throughput_rps": summary["throughput_rps"],
        "highest_avg_cpu": result.highest_avg_cpu(),
        "dropped_packets": summary["dropped_packets"],
        "vlrt": summary["vlrt"],
    }


def run(duration=60.0, warmup=10.0, seed=42, workloads=WORKLOADS,
        streaming=False):
    """{(nx, clients): point} for nx in {0 (sync), 3 (async)}."""
    out = {}
    for clients in workloads:
        for nx in (0, 3):
            out[(nx, clients)] = run_point(
                nx, clients, duration=duration, warmup=warmup, seed=seed,
                streaming=streaming,
            )
    return out


def record(points):
    """The registry record of :func:`run`'s points."""
    return {
        "points": {
            f"nx{nx}/wl{clients}": point
            for (nx, clients), point in points.items()
        }
    }


def report(points):
    rows = []
    for (nx, clients), point in sorted(points.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        rows.append([
            "sync" if nx == 0 else "async",
            f"WL {clients}",
            f"{point['throughput_rps']:.0f} req/s",
            f"{point['highest_avg_cpu'] * 100:.0f}%",
            point["dropped_packets"],
            point["vlrt"],
        ])
    table = format_table(
        ["stack", "workload", "throughput", "top avg CPU", "dropped", "VLRT"],
        rows,
    )
    sync_points = [p for (nx, _c), p in points.items() if nx == 0]
    async_points = [p for (nx, _c), p in points.items() if nx == 3]
    sync_with_drops = [p for p in sync_points if p["dropped_packets"] > 0]
    lowest_sync = (
        min(p["highest_avg_cpu"] for p in sync_with_drops)
        if sync_with_drops else None
    )
    clean_async = [p for p in async_points if p["dropped_packets"] == 0]
    highest_async = (
        max(p["highest_avg_cpu"] for p in clean_async) if clean_async else None
    )
    lines = ["=== Headline: CTQO vs utilization, sync vs async ===", table, ""]
    if lowest_sync is not None:
        lines.append(
            f"synchronous stack drops packets at utilization as low as "
            f"{lowest_sync * 100:.0f}% (paper: 43%)"
        )
    if highest_async is not None:
        lines.append(
            f"asynchronous stack stays drop-free up to "
            f"{highest_async * 100:.0f}% (paper: 83%)"
        )
    return "\n".join(lines)
