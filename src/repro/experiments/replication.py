"""Extension: does replicating the app tier mitigate CTQO?

A natural objection to the paper's conclusion: "just add a second
Tomcat."  This experiment builds web → {app1, app2} → db with
round-robin routing and injects the usual consolidation millibottleneck
into *one* replica's host.

Result shape: replication does not remove upstream CTQO — the web
tier's threads that routed to the stalled replica block for its entire
millibottleneck, and with round-robin every second request heads into
the stall, so the front tier still fills and drops (head-of-line
blocking through the replica group).  It does soften it: half the
requests keep flowing, so the overflow takes roughly twice the stall to
develop compared with the unreplicated system.  The asynchronous stack
needs no replicas at all.
"""

from __future__ import annotations

from ..core.evaluation import simulate
from ..injectors.colocation import ColocationInjector
from ..metrics.monitor import SystemMonitor
from ..topology.builder import build_system
from ..topology.configs import SystemConfig
from ..workload.generators import ClosedLoopPopulation
from .report import format_table

__all__ = ["REPLICAS", "record", "report", "run", "run_one"]

#: app-tier replica counts of the sweep (1 = the unreplicated stack)
REPLICAS = (1, 2, 3)


def run_one(replicas=2, clients=7000, duration=40.0, warmup=5.0,
            burst_times=(15.0, 25.0), seed=42, streaming=False):
    """A millibottleneck on replica 1's host; measure where drops land.

    The system is the all-synchronous 3-tier preset with ``replicas``
    app servers (``tomcat1..N``) behind the web tier's round-robin
    :class:`~repro.servers.replica.ReplicaGroup`; ``replicas=1`` is the
    unreplicated system (``tomcat``).  The monitor watches
    every server and the app replicas' VMs only: watching a VM settles
    its host at every sample, which moves completion times in the last
    bits (docs/OBSERVABILITY.md).
    """
    system = build_system(SystemConfig(nx=0, seed=seed, streaming=streaming,
                                       app_replicas=replicas))
    sim = system.sim
    app_names = system.graph.node("app").replica_names
    vms = dict(system.vm_items())
    monitor = SystemMonitor(sim)
    for name, server in system.server_items():
        monitor.watch_server(name, server)
        if name in app_names:
            monitor.watch_vm(name, vms[name])
    monitor.watch_log("clients", system.log)

    def start(_monitor, sampler):
        ClosedLoopPopulation(
            sim, system.fabric, system.entry, system.app, system.log,
            clients=clients, think_mean=7.0, sampler=sampler,
        ).start()
        injector = ColocationInjector(
            sim, vms[app_names[0]].host, shares=30.0,
            burst_cpu_seconds=1.0, burst_jobs=400,
        )
        injector.scripted(list(burst_times))
        return [injector]

    result = simulate(system, duration, warmup, start=start,
                      monitor=monitor)
    return {
        "replicas": replicas,
        "summary": result.log.summary(result.measured_duration),
        "drops": system.drop_counts(),
        "queue_max": {
            name: int(series.max())
            for name, series in monitor.queues.items()
        },
        "result": result,
    }


def run(replicas=REPLICAS, duration=40.0, seed=42, streaming=False):
    """The sweep: one :func:`run_one` result per replica count."""
    return [run_one(replicas=count, duration=duration, seed=seed,
                    streaming=streaming)
            for count in replicas]


def record(results):
    """The registry record of :func:`run`'s sweep."""
    return {
        str(result["replicas"]): {
            "summary": result["summary"],
            "drops": result["drops"],
            "queue_max": result["queue_max"],
        }
        for result in results
    }


def report(results):
    rows = []
    for result in results:
        drops = result["drops"]
        rows.append([
            f"{result['replicas']} replica(s)",
            f"{result['summary']['throughput_rps']:.0f}",
            sum(drops.values()),
            ", ".join(f"{k}:{v}" for k, v in drops.items() if v) or "none",
            result["summary"]["vlrt"],
        ])
    table = format_table(
        ["app tier", "req/s", "dropped", "drop sites", "VLRT"], rows
    )
    return (
        "=== replication vs CTQO (extension) ===\n" + table +
        "\n\nReplication dilutes but does not remove upstream CTQO: "
        "round-robin keeps\nfeeding the stalled replica, whose blocked "
        "RPCs still pin the front tier's\nthreads (head-of-line blocking "
        "through the replica group)."
    )
