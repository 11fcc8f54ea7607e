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

from ..apps.rubbos import RubbosApplication
from ..cpu.host import Host
from ..injectors.colocation import ColocationInjector
from ..metrics.monitor import SystemMonitor
from ..metrics.trace import RequestLog
from ..net.tcp import NetworkFabric
from ..servers.sync_server import SyncServer
from ..sim.kernel import Simulator
from ..topology.configs import SystemConfig
from ..workload.generators import ClosedLoopPopulation
from .report import format_table

__all__ = ["build_replicated", "run", "run_experiment", "main"]


def build_replicated(config=None, replicas=2, sim=None):
    """web -> N app replicas -> db, all synchronous, round-robin.

    When a pre-built simulator is supplied, its seed must match
    ``config.seed`` — otherwise every stream forked from the simulator
    (workload arrivals, GC pauses, network jitter) would silently come
    from a different seed than the one recorded in the config, breaking
    the record-from-seed reproducibility contract.
    """
    config = config or SystemConfig(nx=0)
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if sim is not None and sim.seed != config.seed:
        raise ValueError(
            f"simulator seed {sim.seed!r} != config.seed {config.seed!r}; "
            "forked RNG streams would not be reproducible from the config"
        )
    sim = sim or Simulator(seed=config.seed)
    fabric = NetworkFabric(sim, latency=config.net_latency,
                           rto=config.tcp_rto,
                           max_retransmits=config.max_retransmits)
    app = RubbosApplication(config.interaction_specs)
    handlers = app.handlers()

    def make(name, tier, threads, backlog, host=None):
        host = host or Host(sim, cores=1, name=f"{name}-host")
        vm = host.add_vm(f"{name}-vm")
        server = SyncServer(sim, fabric, name, vm, handlers[tier],
                            threads=threads, backlog=backlog,
                            spawn_extra_process=(tier == "web"
                                                 and config.web_spawn_extra_process))
        return host, vm, server

    web_host, web_vm, web = make("apache", "web", config.web_threads,
                                 config.web_backlog)
    app_servers = []
    app_vms = []
    app_hosts = []
    for index in range(replicas):
        host, vm, server = make(f"tomcat{index + 1}", "app",
                                config.app_threads, config.app_backlog)
        app_hosts.append(host)
        app_vms.append(vm)
        app_servers.append(server)
    db_host, db_vm, db = make("mysql", "db", config.db_threads,
                              config.db_backlog)

    web.connect("app", [server.listener for server in app_servers])
    for server in app_servers:
        server.connect("db", db.listener, pool_size=config.db_pool_size)

    return {
        "sim": sim, "fabric": fabric, "app": app,
        "log": RequestLog(streaming=config.streaming),
        "web": web, "apps": app_servers, "db": db,
        "hosts": {"web": web_host, "apps": app_hosts, "db": db_host},
        "vms": {"web": web_vm, "apps": app_vms, "db": db_vm},
    }


def run(replicas=2, clients=7000, duration=40.0, warmup=5.0,
        burst_times=(15.0, 25.0), seed=42, streaming=False):
    """A millibottleneck on replica 1's host; measure where drops land."""
    system = build_replicated(
        SystemConfig(nx=0, seed=seed, streaming=streaming),
        replicas=replicas,
    )
    sim = system["sim"]
    if streaming:
        system["log"].set_warmup(warmup)
    monitor = SystemMonitor(sim)
    monitor.watch_server("apache", system["web"])
    for index, server in enumerate(system["apps"]):
        monitor.watch_server(server.name, server)
        monitor.watch_vm(server.name, system["vms"]["apps"][index])
    monitor.watch_server("mysql", system["db"])
    monitor.watch_log("clients", system["log"])
    monitor.start()

    ClosedLoopPopulation(
        sim, system["fabric"], system["web"].listener, system["app"],
        system["log"], clients=clients, think_mean=7.0,
    ).start()
    injector = ColocationInjector(
        sim, system["hosts"]["apps"][0], shares=30.0,
        burst_cpu_seconds=1.0, burst_jobs=400,
    )
    injector.scripted(list(burst_times))
    sim.run(until=duration)

    log = system["log"].after(warmup)
    drops = {"apache": system["web"].listener.drops,
             "mysql": system["db"].listener.drops}
    for server in system["apps"]:
        drops[server.name] = server.listener.drops
    return {
        "replicas": replicas,
        "summary": log.summary(duration - warmup),
        "drops": drops,
        "queue_max": {
            name: int(series.max())
            for name, series in monitor.queues.items()
        },
        "monitor": monitor,
    }


def run_experiment(config):
    """Uniform registry entry point (see repro.experiments.runner)."""
    replicas_list = tuple(config.params.get("replicas", (1, 2, 3)))
    record = {}
    for replicas in replicas_list:
        result = run(replicas=replicas, duration=config.duration or 40.0,
                     seed=config.seed,
                     streaming=bool(config.params.get("streaming", False)))
        record[str(replicas)] = {
            "summary": result["summary"],
            "drops": result["drops"],
            "queue_max": result["queue_max"],
        }
    return record


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


def main():
    results = [run(replicas=n) for n in (1, 2, 3)]
    print(report(results))
    return results


if __name__ == "__main__":
    main()
