"""The service-graph core: arbitrary DAG topologies.

The paper's systems are *linear* — web → app → db, or an n-deep chain —
but CTQO is a property of invocation edges, not of a total tier order:
a millibottleneck propagates queue growth along whatever edges carry
blocking calls.  This module owns the general form.  A topology is a
:class:`ServiceGraph` of :class:`NodeSpec` services joined by
:class:`EdgeSpec` invocation edges (validated acyclic, fully reachable
from the entry node); :func:`build_graph` turns it into live hosts, VMs
and servers.  Nodes with one outgoing edge issue plain sequential
:class:`~repro.apps.servlet.Call`\\ s; nodes with several fan out through
a :class:`~repro.apps.servlet.Gather` barrier (all-of, or first-K-of
with ``quorum``).

:func:`build_graph` is the only code that places hosts and VMs, builds
servers and wires routes.  Every server is one
:class:`~repro.servers.runtime.PolicyServer` built from its node's
:class:`~repro.servers.policies.TierPolicy`.  The paper's systems are
byte-identical presets over it: :func:`repro.topology.chain.build_chain`
joins its ``NodeSpec`` tiers into a path graph, and
:func:`repro.topology.builder.build_system` turns a ``SystemConfig``
into the web → app → db graph (replicated or not) and views the result
by tier.  The construction order below replays both historical orders.

A built graph's Poisson client (:meth:`GraphSystem.open_loop`) is the
workload generators' :class:`~repro.workload.generators.OpenLoopPoisson`
over a one-kind mix, so graph and chain requests are issued, logged and
traced by the same client code as every other workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.servlet import (
    CacheAbort,
    CacheGet,
    CachePut,
    Call,
    Compute,
    Gather,
    ServletError,
    StorageRead,
    StorageWrite,
)
from ..cpu.host import Host
from ..metrics.monitor import SystemMonitor
from ..metrics.trace import RequestLog
from ..net.tcp import NetworkFabric
from ..servers.cache import LruCache
from ..servers.policies import TierPolicy
from ..servers.replica import BALANCERS, HedgingSpec, ReplicaGroup
from ..servers.runtime import PolicyServer
from ..servers.storage import WriteBackStore
from ..sim.kernel import Simulator
from ..units import ms
from ..workload.generators import OpenLoopPoisson

#: valid :attr:`NodeSpec.kind` values
NODE_KINDS = ("service", "cache", "storage")

__all__ = [
    "EdgeSpec",
    "GraphSystem",
    "NODE_KINDS",
    "NodeSpec",
    "ServiceGraph",
    "ServiceSystem",
    "build_graph",
    "cache_node_handler",
    "fan_out",
    "storage_node_handler",
]


@dataclass
class NodeSpec:
    """One service of a graph.

    ``pre_work``/``post_work`` are CPU seconds before/after the
    downstream invocation(s); a leaf node (no outgoing edges) runs only
    ``pre_work``.  A node with one outgoing edge issues
    ``calls_to_next`` sequential calls with ``mid_work`` between them
    (the chain's multi-query servlet); a node with several outgoing
    edges issues one parallel :class:`~repro.apps.servlet.Gather` over
    all of them, resuming on all-of or — with ``quorum=K`` — on the
    first K responses.

    ``name`` is the route key: servlets call it and route labels
    (``caller->name``) carry it.  ``label`` is the display name of the
    node's servers, hosts and VMs (``name`` unless given).
    """

    name: str
    #: the server shape: admission × concurrency × remediation (the
    #: remediation applies to this node's *outgoing* calls); the default
    #: is the classic RPC server with 150 threads
    policy: TierPolicy = field(default_factory=TierPolicy, repr=False)
    label: str = None
    backlog: int = 128
    vcpus: int = 1
    pre_work: float = ms(0.1)
    mid_work: float = ms(0.1)
    post_work: float = ms(0.4)
    calls_to_next: int = 1
    stochastic: bool = True
    #: scale-out: replicas of this node (``{label}1..{label}N`` when > 1)
    replicas: int = 1
    #: how callers pick among this node's replicas
    balancer: str = "round_robin"
    #: optional :class:`~repro.servers.replica.HedgingSpec` for routes
    #: *into* this node (needs ``replicas >= 2``)
    hedging: HedgingSpec = field(default=None, repr=False)
    #: fan-in barrier for a multi-successor node: resume after this many
    #: legs answered (None = all of them)
    quorum: int = None
    #: optional servlet factory ``f(node, successors, rng) -> handler``
    #: overriding :func:`default_node_handler`
    handler: object = field(default=None, repr=False)
    #: node role: a plain ``"service"``, an in-process ``"cache"`` in
    #: front of the node's (single) successor, or a ``"storage"``
    #: backend with a write-back buffer
    kind: str = "service"
    #: cache nodes: LRU entry bound (required), default TTL in seconds
    #: (None = never expires), single-flight miss coalescing, and the
    #: key universe requests draw from (smaller = hotter)
    cache_capacity: int = None
    cache_ttl: float = None
    coalesce: bool = False
    keyspace: int = 1000
    #: storage nodes: device seconds per unit command size (required)
    #: and the write-back buffer bound (None = unbounded bufferbloat)
    storage_service_time: float = None
    write_buffer: int = None
    #: storage nodes: fraction of arriving commands that are writes
    write_fraction: float = 0.0

    def __post_init__(self):
        if self.label is None:
            self.label = self.name
        if self.kind not in NODE_KINDS:
            raise ValueError(
                f"{self.name}: kind must be one of {NODE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "cache":
            if self.cache_capacity is None or self.cache_capacity < 1:
                raise ValueError(
                    f"{self.name}: a cache node needs cache_capacity >= 1, "
                    f"got {self.cache_capacity}"
                )
            if self.keyspace < 1:
                raise ValueError(
                    f"{self.name}: keyspace must be >= 1, got {self.keyspace}"
                )
        if self.kind == "storage":
            if (self.storage_service_time is None
                    or self.storage_service_time <= 0):
                raise ValueError(
                    f"{self.name}: a storage node needs a positive "
                    f"storage_service_time, got {self.storage_service_time}"
                )
            if not 0.0 <= self.write_fraction <= 1.0:
                raise ValueError(
                    f"{self.name}: write_fraction must be in [0, 1], "
                    f"got {self.write_fraction}"
                )
        if not isinstance(self.policy, TierPolicy):
            raise ValueError(
                f"{self.name}: policy must be a TierPolicy, "
                f"got {self.policy!r}"
            )
        if self.calls_to_next < 1:
            raise ValueError(f"{self.name}: calls_to_next must be >= 1")
        if self.replicas < 1:
            raise ValueError(f"{self.name}: replicas must be >= 1")
        if self.balancer not in BALANCERS:
            raise ValueError(
                f"{self.name}: balancer must be one of {sorted(BALANCERS)}, "
                f"got {self.balancer!r}"
            )
        if self.hedging is not None:
            if not isinstance(self.hedging, HedgingSpec):
                raise ValueError(
                    f"{self.name}: hedging must be a HedgingSpec or None, "
                    f"got {self.hedging!r}"
                )
            if self.replicas < 2:
                raise ValueError(f"{self.name}: hedging needs replicas >= 2")
        if self.quorum is not None and self.quorum < 1:
            raise ValueError(
                f"{self.name}: quorum must be >= 1, got {self.quorum}"
            )

    @property
    def replica_names(self):
        """Display names: ``[label]`` or ``[label1, .., labelN]``."""
        if self.replicas == 1:
            return [self.label]
        return [f"{self.label}{i + 1}" for i in range(self.replicas)]


@dataclass(frozen=True)
class EdgeSpec:
    """One invocation edge: ``source`` calls ``target``.

    ``pool`` installs a caller-side connection pool on the route (a
    chain's ``pools`` entry / the 3-tier JDBC pool); with a replicated
    target each caller keeps one pool of that size per replica.
    """

    source: str
    target: str
    pool: int = None

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError(f"self-loop edge {self.source!r}->{self.target!r}")
        if self.pool is not None and self.pool < 1:
            raise ValueError(
                f"{self.source}->{self.target}: pool must be >= 1, "
                f"got {self.pool}"
            )


class ServiceGraph:
    """A validated service DAG: nodes, invocation edges, one entry.

    Validation (at construction) rejects duplicate node names, two
    servers sharing a display name, edges naming unknown endpoints,
    duplicate edges, self-loops, cycles, and nodes unreachable from the
    entry — every service must be on some invocation path, or its
    servers would sit idle while attribution walks dead edges.
    """

    def __init__(self, nodes, edges=(), entry=None):
        self.nodes = list(nodes)
        self.edges = list(edges)
        if not self.nodes:
            raise ValueError("a service graph needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in {names}")
        # display names key RNG streams, monitor series and lookups
        displays = [name for node in self.nodes for name in node.replica_names]
        if len(set(displays)) != len(displays):
            clashes = sorted({n for n in displays if displays.count(n) > 1})
            raise ValueError(f"duplicate replica display names {clashes}")
        self._by_name = {node.name: node for node in self.nodes}
        self.entry = entry if entry is not None else self.nodes[0].name
        if self.entry not in self._by_name:
            raise ValueError(f"entry {self.entry!r} is not a graph node")
        seen = set()
        self._successors = {name: [] for name in names}
        self._predecessors = {name: [] for name in names}
        for edge in self.edges:
            for endpoint in (edge.source, edge.target):
                if endpoint not in self._by_name:
                    raise ValueError(
                        f"edge {edge.source!r}->{edge.target!r} names "
                        f"unknown node {endpoint!r}"
                    )
            pair = (edge.source, edge.target)
            if pair in seen:
                raise ValueError(
                    f"duplicate edge {edge.source!r}->{edge.target!r}"
                )
            seen.add(pair)
            self._successors[edge.source].append(edge.target)
            self._predecessors[edge.target].append(edge.source)
        self._topo = self._topo_order()
        self._check_reachability()
        self._check_quorums()
        self._check_kinds()

    # -- validation ----------------------------------------------------
    def _topo_order(self):
        """Kahn's algorithm with declaration-order tie-breaking, so the
        walk (and everything keyed on it: construction, attribution
        positions) is deterministic."""
        pending = {
            node.name: len(self._predecessors[node.name])
            for node in self.nodes
        }
        order = []
        remaining = [node.name for node in self.nodes]
        while remaining:
            ready = [name for name in remaining if pending[name] == 0]
            if not ready:
                raise ValueError(
                    f"service graph has a cycle through {sorted(remaining)}"
                )
            name = ready[0]
            remaining.remove(name)
            order.append(name)
            for succ in self._successors[name]:
                pending[succ] -= 1
        return order

    def _check_reachability(self):
        reachable = {self.entry}
        frontier = [self.entry]
        while frontier:
            name = frontier.pop()
            for succ in self._successors[name]:
                if succ not in reachable:
                    reachable.add(succ)
                    frontier.append(succ)
        unreachable = [
            node.name for node in self.nodes if node.name not in reachable
        ]
        if unreachable:
            raise ValueError(
                f"nodes unreachable from entry {self.entry!r}: {unreachable}"
            )

    def _check_quorums(self):
        for node in self.nodes:
            if node.quorum is None:
                continue
            degree = len(self._successors[node.name])
            if node.quorum > degree:
                raise ValueError(
                    f"{node.name}: quorum {node.quorum} exceeds "
                    f"out-degree {degree}"
                )

    def _check_kinds(self):
        for node in self.nodes:
            degree = len(self._successors[node.name])
            if node.kind == "cache" and degree > 1:
                # a cache fronts exactly one backing tier (or none —
                # then a miss synthesizes the value itself)
                raise ValueError(
                    f"{node.name}: a cache node needs at most one "
                    f"successor, has {degree}"
                )

    # -- queries -------------------------------------------------------
    def node(self, name):
        return self._by_name[name]

    def successors(self, name):
        """Target names of ``name``'s outgoing edges, declaration order."""
        return list(self._successors[name])

    def predecessors(self, name):
        return list(self._predecessors[name])

    def topo_order(self):
        """Node names, entry-consistent topological order."""
        return list(self._topo)

    def edge_index_pairs(self):
        """Edges as (i, j) index pairs into :meth:`topo_order` — the
        form the DAG-aware attribution walk consumes."""
        position = {name: i for i, name in enumerate(self._topo)}
        return [
            (position[edge.source], position[edge.target])
            for edge in self.edges
        ]

    def __repr__(self):
        return (
            f"<ServiceGraph {len(self.nodes)} nodes "
            f"{len(self.edges)} edges entry={self.entry!r}>"
        )


def fan_out(root, leaves, edge_pool=None):
    """Preset: one root node fanning out to N leaf nodes."""
    edges = [
        EdgeSpec(root.name, leaf.name, pool=edge_pool) for leaf in leaves
    ]
    return ServiceGraph([root, *leaves], edges)


# ======================================================================
# the shared system surface
# ======================================================================
class ServiceSystem:
    """The surface every built topology shares (graph, chain, 3-tier):
    the built graph's replicas, monitor, log, drop/shed accounting.

    :func:`build_graph` records each node's replicas through
    :meth:`_place`.  Subclasses extend it to keep their own view (flat
    lists for a graph, tier-keyed dicts for the 3-tier systems) and may
    override :meth:`_watch` to change the monitor registration order
    (which is part of the golden byte contract for existing
    topologies).
    """

    #: fallback sampling interval; 3-tier systems use the config's
    _monitor_interval = 0.05

    def _init_shared(self, sim, graph, fabric, streaming=False,
                     name_prefix=""):
        self.sim = sim
        self.graph = graph
        self.fabric = fabric
        self.name_prefix = name_prefix
        self.log = RequestLog(streaming=streaming)
        self.monitor = None
        #: where clients send: the entry node's listener, or the
        #: ``clients-><entry>`` ReplicaGroup when it is replicated
        self.entry = None
        #: route label -> ReplicaGroup, for every replicated hop
        self.groups = {}
        #: replica display name -> LruCache, for ``kind="cache"`` nodes
        self.caches = {}
        #: replica display name -> WriteBackStore, ``kind="storage"``
        self.storages = {}
        # (display name, host, vm, server) per replica, declaration order
        self._replicas = []

    def _place(self, node, built):
        """Record ``node``'s built ``(host, vm, server)`` replicas."""
        for name, parts in zip(node.replica_names, built):
            self._replicas.append((name, *parts))

    # replica-agnostic iteration (the surface RunResult and attribution
    # consume) ---------------------------------------------------------
    def server_items(self):
        """(display name, server) pairs, one per replica."""
        return [(name, server) for name, _h, _v, server in self._replicas]

    def vm_items(self):
        return [(name, vm) for name, _h, vm, _s in self._replicas]

    def host_items(self):
        return [(name, host) for name, host, _v, _s in self._replicas]

    def tier_groups(self):
        """Topo-ordered display-name groups (replicas share a group)."""
        return [
            list(self.graph.node(name).replica_names)
            for name in self.graph.topo_order()
        ]

    def tier_edges(self):
        """Invocation edges as (i, j) pairs into :meth:`tier_groups`."""
        return self.graph.edge_index_pairs()

    # ------------------------------------------------------------------
    def attach_monitor(self, interval=None):
        """Create and start a SystemMonitor over every VM and server."""
        if self.monitor is None:
            self.monitor = SystemMonitor(
                self.sim,
                interval=interval if interval is not None
                else self._monitor_interval,
            )
            self._watch(self.monitor)
            self.monitor.watch_log(self.name_prefix + "clients", self.log)
            self.monitor.start()
        return self.monitor

    def _watch(self, monitor):
        for (name, vm), (_name, server) in zip(self.vm_items(),
                                               self.server_items()):
            monitor.watch_vm(name, vm)
            monitor.watch_server(name, server)
        for label, group in self.groups.items():
            monitor.watch_group(label, group)
        # cache/storage watches come last: the registration order above
        # is part of the golden byte contract for existing topologies,
        # and no existing topology carries either kind
        for name, cache in self.caches.items():
            monitor.watch_cache(name, cache)
        for name, store in self.storages.items():
            monitor.watch_storage(name, store)

    def drop_counts(self):
        """Display name → packets dropped at that server."""
        return {
            name: server.listener.drops
            for name, server in self.server_items()
        }

    def total_drops(self):
        return sum(self.drop_counts().values())

    def shed_counts(self):
        """Display name → packets 503'd by that server's admission."""
        return {
            name: server.listener.sheds
            for name, server in self.server_items()
        }

    def total_sheds(self):
        return sum(self.shed_counts().values())

    def group_stats(self):
        """Route label → cumulative balancer/hedging counters."""
        return {label: group.stats() for label, group in self.groups.items()}

    def hedge_totals(self):
        """Aggregate hedging counters across every route."""
        totals = {"hedges_issued": 0, "hedge_wins": 0,
                  "hedge_losses": 0, "hedges_cancelled": 0}
        for group in self.groups.values():
            for key in totals:
                totals[key] += getattr(group, key)
        return totals


# ======================================================================
# built graphs
# ======================================================================
class GraphSystem(ServiceSystem):
    """A built service graph, replica-flat like the chain system:
    ``names``/``hosts``/``vms``/``servers`` hold one entry per replica
    in node declaration order."""

    #: the one request kind of the Poisson client (:meth:`open_loop`)
    request_kind = "GraphRequest"
    #: default label of the client arrival RNG stream
    clients_rng_label = "graph-clients"

    def __init__(self, sim, graph, fabric, streaming=False):
        self._init_shared(sim, graph, fabric, streaming=streaming)
        #: flat display names, one entry per *replica*, declaration order
        self.names = [
            name for node in graph.nodes for name in node.replica_names
        ]
        self.hosts = []
        self.vms = []
        self.servers = []

    def _place(self, node, built):
        super()._place(node, built)
        for host, vm, server in built:
            self.hosts.append(host)
            self.vms.append(vm)
            self.servers.append(server)

    def server(self, name):
        return self.servers[self.names.index(name)]

    def vm(self, name):
        return self.vms[self.names.index(name)]

    def host_of(self, name):
        return self.hosts[self.names.index(name)]

    def gather_totals(self):
        """Aggregate scatter-gather counters across every server."""
        totals = {"gathers": 0, "legs": 0, "legs_cancelled": 0,
                  "legs_wasted": 0, "leg_failures": 0}
        for _name, server in self.server_items():
            stats = getattr(server, "gather_stats", None)
            if stats is not None:
                for key in totals:
                    totals[key] += stats[key]
        return totals

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def open_loop(self, rate, rng_label=None, sampler=None):
        """Attach a Poisson client at ``rate`` req/s: an
        :class:`~repro.workload.generators.OpenLoopPoisson` whose every
        request is of kind :attr:`request_kind`.  ``sampler`` decides
        which requests keep their trace (see the generators)."""
        OpenLoopPoisson(
            self.sim, self.fabric, self.entry, _OneKind(self.request_kind),
            self.log, rate, rng_label=rng_label or self.clients_rng_label,
            sampler=sampler,
        ).start()
        return self

    def __repr__(self):
        return f"<GraphSystem {self.graph!r}>"


class _OneKind:
    """The interaction mix of :meth:`GraphSystem.open_loop`: one kind,
    which is its own spec, so sampling draws no random number."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def sample(self, rng):
        return self


# ======================================================================
# servlets
# ======================================================================
def _drawer(node, rng):
    """The CPU-stage sampler of ``node``'s servlet: an exponential
    draw of mean ``mean`` off ``rng`` (or ``mean`` itself for a
    deterministic node), 0 for no work."""

    def draw(mean):
        if mean <= 0:
            return 0.0
        if node.stochastic:
            return rng.expovariate(1.0 / mean)
        return mean

    return draw


def default_node_handler(node, successors, rng):
    """Servlet for one graph node.

    Leaf: ``pre_work`` only.  One successor: the classic chain shape —
    ``pre``, ``calls_to_next`` sequential calls with ``mid`` between
    them, ``post`` (byte-compatible with the historical chain servlet).
    Several successors: ``pre``, one parallel :class:`Gather` over every
    outgoing edge (barrier at ``node.quorum`` or all-of), ``post``.
    """
    draw = _drawer(node, rng)

    if len(successors) > 1:
        calls = [
            Call(target, f"{node.name}.g{index}")
            for index, target in enumerate(successors)
        ]
        quorum = node.quorum

        def handler(ctx, request):
            yield Compute(draw(node.pre_work))
            yield Gather(calls, quorum=quorum)
            yield Compute(draw(node.post_work))
            return {"tier": node.name}

        return handler

    next_name = successors[0] if successors else None

    def handler(ctx, request):
        yield Compute(draw(node.pre_work))
        if next_name is not None:
            for index in range(node.calls_to_next):
                yield Call(next_name, f"{node.name}.c{index}")
                if index < node.calls_to_next - 1:
                    yield Compute(draw(node.mid_work))
            yield Compute(draw(node.post_work))
        return {"tier": node.name}

    return handler


def cache_node_handler(node, successors, rng):
    """Servlet for a ``kind="cache"`` node: cache-aside over the
    backing successor.

    Each request draws a key from the node's ``keyspace`` (uniformly,
    off the shared app RNG — deterministic per seed), looks it up in the
    server's attached :class:`~repro.servers.cache.LruCache`, and on a
    miss fetches from the backing tier and publishes the value.  With
    ``coalesce=True`` misses are single-flight: one leader fetches, the
    herd parks on its in-flight event.  A failed backing fetch aborts
    the key's flight before cascading, so followers retry rather than
    wedge.
    """
    backing = successors[0] if successors else None
    fetch_op = f"{node.name}.fetch"
    draw = _drawer(node, rng)

    def handler(ctx, request):
        yield Compute(draw(node.pre_work))
        key = rng.randrange(node.keyspace)
        hit, value = yield CacheGet(key, coalesce=node.coalesce)
        if hit:
            return value
        if backing is None:
            value = {"tier": node.name, "key": key}
        else:
            try:
                value = yield Call(backing, fetch_op)
            except ServletError:
                yield CacheAbort(key)
                raise
        yield CachePut(key, value)
        return value

    return handler


def storage_node_handler(node, successors, rng):
    """Servlet for a ``kind="storage"`` node: one device command per
    request against the attached write-back store.

    A ``write_fraction`` coin decides write vs read.  Writes take the
    write-back fast path (acked at buffer admission); reads complete
    only at device service, queued behind every buffered write — the
    bufferbloat coupling under test.
    """
    draw = _drawer(node, rng)

    def handler(ctx, request):
        yield Compute(draw(node.pre_work))
        if node.write_fraction and rng.random() < node.write_fraction:
            yield StorageWrite()
        else:
            yield StorageRead()
        return {"tier": node.name}

    return handler


_KIND_HANDLERS = {
    "service": default_node_handler,
    "cache": cache_node_handler,
    "storage": storage_node_handler,
}


# ======================================================================
# the builder
# ======================================================================
def build_graph(graph, sim=None, seed=42, net_latency=0.0002, rto=3.0,
                max_retransmits=3, streaming=False, rng_label="graph-app",
                system_factory=None, hosts=None):
    """Build a live system from a :class:`ServiceGraph`.

    ``rng_label`` names the shared application RNG stream (the chain
    preset passes ``"chain-app"`` so existing seeds replay identically);
    ``system_factory(sim, graph, fabric)`` substitutes another
    :class:`ServiceSystem` (a :class:`GraphSystem` by default).
    ``hosts`` maps replica display names to existing
    :class:`~repro.cpu.host.Host` objects: that replica's VM joins the
    given host instead of a new one (VM consolidation, Fig 2).

    Construction order is part of the golden byte contract: fabric,
    system, app RNG fork, then per node (declaration order) per replica
    host, VM and server, then the client entry group, then the routes.
    Hosts and VMs schedule no events and fork no RNG streams, so this
    also replays the 3-tier order of every host before the first server.
    """
    if sim is not None and sim.seed != seed:
        raise ValueError(
            f"simulator seed {sim.seed!r} != seed {seed!r}; "
            "forked RNG streams would not be reproducible from the seed"
        )
    hosts = dict(hosts or {})
    unknown = sorted(
        set(hosts) - {name for node in graph.nodes
                      for name in node.replica_names}
    )
    if unknown:
        raise ValueError(f"hosts keys name no replica of the graph: {unknown}")
    sim = sim or Simulator(seed=seed)
    fabric = NetworkFabric(sim, latency=net_latency, rto=rto,
                           max_retransmits=max_retransmits)
    if system_factory is not None:
        system = system_factory(sim, graph, fabric)
    else:
        system = GraphSystem(sim, graph, fabric, streaming=streaming)
    rng = sim.fork_rng(rng_label)

    node_servers = {}
    for node in graph.nodes:
        successors = graph.successors(node.name)
        factory = node.handler or _KIND_HANDLERS[node.kind]
        handler = factory(node, successors, rng)
        built = []
        for name in node.replica_names:
            host = hosts.get(name)
            if host is None:
                host = Host(sim, cores=max(1, node.vcpus),
                            name=f"{name}-host")
            vm = host.add_vm(f"{name}-vm", vcpus=node.vcpus)
            server = PolicyServer(sim, fabric, name, vm, handler,
                                  node.policy, backlog=node.backlog)
            if node.kind == "cache":
                server.cache = LruCache(
                    sim, node.cache_capacity, default_ttl=node.cache_ttl,
                    name=f"{name}-cache",
                )
                system.caches[name] = server.cache
            elif node.kind == "storage":
                server.storage = WriteBackStore(
                    sim, service_time=node.storage_service_time,
                    buffer_capacity=node.write_buffer,
                    name=f"{name}-store",
                )
                system.storages[name] = server.storage
            built.append((host, vm, server))
        system._place(node, built)
        node_servers[node.name] = [server for _h, _v, server in built]

    def route_group(caller_label, target_node, pool_size):
        label = f"{caller_label}->{target_node.name}"
        group = ReplicaGroup(
            sim, label,
            [server.listener for server in node_servers[target_node.name]],
            balancer=target_node.balancer, hedging=target_node.hedging,
            pool_size=pool_size,
        )
        system.groups[label] = group
        return group

    entry_node = graph.node(graph.entry)
    if entry_node.replicas > 1:
        system.entry = route_group("clients", entry_node, None)
    else:
        system.entry = node_servers[graph.entry][0].listener

    for edge in graph.edges:
        target_node = graph.node(edge.target)
        targets = node_servers[edge.target]
        caller_node = graph.node(edge.source)
        for caller_name, caller in zip(caller_node.replica_names,
                                       node_servers[edge.source]):
            if len(targets) > 1:
                caller.connect(edge.target,
                               route_group(caller_name, target_node,
                                           edge.pool))
            else:
                caller.connect(
                    edge.target, targets[0].listener, pool_size=edge.pool,
                )
    return system
