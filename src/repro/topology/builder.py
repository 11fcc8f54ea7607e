"""Build the paper's n-tier systems from a :class:`SystemConfig`.

The standard RUBBoS 1/1/1 topology: one web server, one application
server, one database server, each on its own VM on its own physical
host (Fig 13).  The millibottleneck injectors later consolidate an
antagonist VM onto one of these hosts (Fig 2) or freeze a VM's disk.

The system is a preset over the service-graph core:
:func:`three_tier_graph` turns the config into a web → app → db
:class:`~repro.topology.graph.ServiceGraph` whose nodes carry the
nx-selected server policies, and :func:`~repro.topology.graph.build_graph`
builds it.  :class:`NTierSystem` and :class:`ReplicatedNTierSystem` are
views of the built graph keyed by tier.
"""

from __future__ import annotations

from ..apps.rubbos import APP_TIER, DB_TIER, WEB_TIER, RubbosApplication
from ..cpu.overhead import ThreadOverheadModel
from ..sim.kernel import Simulator
from .configs import SystemConfig, server_names
from .graph import EdgeSpec, NodeSpec, ServiceGraph, ServiceSystem, build_graph

__all__ = [
    "NTierSystem",
    "ReplicatedNTierSystem",
    "build_system",
    "three_tier_graph",
]

_TIERS = (WEB_TIER, APP_TIER, DB_TIER)


class NTierSystem(ServiceSystem):
    """A built system: kernel, fabric, hosts, VMs, servers, app, log.

    ``servers``, ``vms`` and ``hosts`` are keyed by tier
    ("web"/"app"/"db"); ``names`` maps tiers to the display names used
    in the figures (apache/nginx, tomcat/xtomcat, mysql/xmysql), with
    ``name_prefix`` applied when several systems share one simulation
    (Fig 2's SysSteady/SysBursty pair).  Monitor/log wiring and
    drop/shed accounting come from the shared :class:`ServiceSystem`
    surface.
    """

    def __init__(self, sim, graph, fabric, config, app, name_prefix=""):
        self._init_shared(sim, graph, fabric, streaming=config.streaming,
                          name_prefix=name_prefix)
        self.config = config
        self.app = app
        self._monitor_interval = config.monitor_interval
        self.names = {node.name: node.replica_names[0] for node in graph.nodes}
        self.hosts = {}
        self.vms = {}
        self.servers = {}

    def _place(self, node, built):
        super()._place(node, built)
        self.hosts[node.name], self.vms[node.name], self.servers[node.name] = (
            built[0]
        )

    def host_of(self, tier):
        return self.hosts[tier]

    def __repr__(self):
        stack = "-".join(self.names[t] for t in _TIERS)
        return f"<NTierSystem nx={self.config.nx} {stack}>"


class ReplicatedNTierSystem(NTierSystem):
    """An n-tier system whose tiers are replica groups.

    ``servers``/``vms``/``hosts`` map each tier to a *list* (one entry
    per replica) and ``replica_names`` to the matching display names
    (``tomcat1``..``tomcatN``; a 1-replica tier keeps the plain name).
    ``names`` keeps the tier → first-replica mapping so tier-keyed
    accessors still resolve.  Clients enter through ``entry`` — a
    :class:`~repro.servers.replica.ReplicaGroup` when the web tier is
    replicated — and every replicated route in ``groups`` balances,
    pools and (optionally) hedges per the config.
    """

    def __init__(self, sim, graph, fabric, config, app, name_prefix=""):
        super().__init__(sim, graph, fabric, config, app,
                         name_prefix=name_prefix)
        self.replica_names = {
            node.name: node.replica_names for node in graph.nodes
        }

    def _place(self, node, built):
        # every replica, where NTierSystem keeps the single one
        ServiceSystem._place(self, node, built)
        hosts, vms, servers = (list(column) for column in zip(*built))
        self.hosts[node.name] = hosts
        self.vms[node.name] = vms
        self.servers[node.name] = servers

    def host_of(self, tier, replica=0):
        return self.hosts[tier][replica]

    def _watch(self, monitor):
        """Monitor every replica's VM, then every server, then every
        replica group — the non-interleaved registration order the
        scale-out golden records are keyed on."""
        for name, vm in self.vm_items():
            monitor.watch_vm(name, vm)
        for name, server in self.server_items():
            monitor.watch_server(name, server)
        for label, group in self.groups.items():
            monitor.watch_group(label, group)

    def __repr__(self):
        stack = "-".join(
            f"{server_names(self.config)[t]}x{len(self.servers[t])}"
            for t in _TIERS
        )
        return f"<ReplicatedNTierSystem nx={self.config.nx} {stack}>"


def three_tier_graph(config, app=None, name_prefix=""):
    """The web → app → db :class:`ServiceGraph` of ``config``.

    Node names are the tiers (the route keys the RUBBoS servlets call);
    labels are the paper's server names with ``name_prefix``.  Each
    node's server is ``config.tier_policy(tier)``; a tier with N > 1
    replicas balances (and optionally hedges) per the config.  ``app``
    supplies the servlets (a fresh :class:`RubbosApplication` of the
    config's mix by default).
    """
    app = app or RubbosApplication(config.interaction_specs)
    handlers = app.handlers()
    names = server_names(config)
    nodes = []
    for tier in _TIERS:
        replicas = config.tier_replicas(tier)
        servlet = handlers[tier]
        nodes.append(NodeSpec(
            tier, policy=config.tier_policy(tier),
            label=name_prefix + names[tier],
            backlog=getattr(config, f"{tier}_backlog"),
            vcpus=config.app_vcpus if tier == APP_TIER else 1,
            replicas=replicas, balancer=config.balancer,
            hedging=config.hedging if replicas > 1 else None,
            handler=lambda node, successors, rng, servlet=servlet: servlet,
        ))
    # a blocking Tomcat talks to MySQL through a bounded JDBC pool (per
    # replica when MySQL is replicated); the asynchronous connector
    # multiplexes and needs no pool
    app_blocks = config.tier_policy(APP_TIER).concurrency.kind == "threads"
    edges = [
        EdgeSpec(WEB_TIER, APP_TIER),
        EdgeSpec(APP_TIER, DB_TIER,
                 pool=config.db_pool_size if app_blocks else None),
    ]
    return ServiceGraph(nodes, edges)


def build_system(config=None, sim=None, host_overrides=None, name_prefix="",
                 bus=None):
    """Construct the 3-tier system described by ``config``.

    Returns an :class:`NTierSystem` (a :class:`ReplicatedNTierSystem`
    when any tier has more than one replica); the caller attaches
    workload generators and injectors, then runs
    ``system.sim.run(until=...)``.

    ``host_overrides`` maps tier names ("web"/"app"/"db") to existing
    :class:`~repro.cpu.host.Host` objects, co-locating that tier's VM on
    another system's physical machine — the paper's VM consolidation.
    ``name_prefix`` distinguishes the servers/VMs of multiple systems in
    one simulation.  ``bus`` installs an instrumentation
    :class:`~repro.sim.instrument.EventBus` on the new simulator before
    any resource is wired, so every substrate component publishes to it.
    """
    config = config or SystemConfig()
    if sim is not None and sim.seed != config.seed:
        raise ValueError(
            f"simulator seed {sim.seed!r} != config.seed {config.seed!r}; "
            "forked RNG streams would not be reproducible from the config"
        )
    if sim is not None and bus is not None:
        raise ValueError(
            "pass the bus to the existing simulator, not to build_system: "
            "components capture sim.bus at construction"
        )
    host_overrides = host_overrides or {}
    if host_overrides and config.is_replicated:
        raise ValueError(
            "host_overrides is not supported with replicated tiers; "
            "consolidate via Scenario.with_consolidation instead"
        )
    for tier in host_overrides:
        if tier not in _TIERS:
            raise ValueError(
                f"host_overrides: unknown tier {tier!r}; "
                f"tiers are {', '.join(_TIERS)}"
            )
    sim = sim or Simulator(seed=config.seed, bus=bus)
    app = RubbosApplication(config.interaction_specs)
    graph = three_tier_graph(config, app, name_prefix)
    view = ReplicatedNTierSystem if config.is_replicated else NTierSystem
    system = build_graph(
        graph, sim=sim, seed=config.seed, net_latency=config.net_latency,
        rto=config.tcp_rto, max_retransmits=config.max_retransmits,
        hosts={graph.node(tier).label: host
               for tier, host in host_overrides.items()},
        system_factory=lambda sim, graph, fabric: view(
            sim, graph, fabric, config, app, name_prefix
        ),
    )
    if config.thread_overhead:
        # the thread-count overhead model (Fig 12) only applies to
        # tiers whose concurrency actually multiplies threads with load
        overhead = ThreadOverheadModel(
            switch_cost=config.switch_cost,
            gc_cost=config.gc_cost,
            free_threads=config.free_threads,
        )
        threaded = {
            name for node in graph.nodes
            if node.policy.concurrency.kind == "threads"
            for name in node.replica_names
        }
        for name, vm in system.vm_items():
            if name in threaded:
                vm.efficiency = overhead
    return system
