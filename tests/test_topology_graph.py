"""Unit tests for the service-graph core (repro.topology.graph)."""

import pytest

from repro.servers.policies import AdmissionSpec, TierPolicy
from repro.topology.graph import (
    EdgeSpec,
    NodeSpec,
    ServiceGraph,
    build_graph,
    fan_out,
)
from repro.workload.generators import OpenLoopPoisson


def diamond():
    """entry -> {left, right} -> sink."""
    return ServiceGraph(
        [NodeSpec("entry"), NodeSpec("left"), NodeSpec("right"),
         NodeSpec("sink")],
        [EdgeSpec("entry", "left"), EdgeSpec("entry", "right"),
         EdgeSpec("left", "sink"), EdgeSpec("right", "sink")],
    )


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_empty_graph_rejected():
    with pytest.raises(ValueError, match="at least one node"):
        ServiceGraph([])


def test_duplicate_node_names_rejected():
    with pytest.raises(ValueError, match="duplicate node names"):
        ServiceGraph([NodeSpec("a"), NodeSpec("a")])


def test_colliding_replica_display_names_rejected():
    # "a" with 2 replicas builds a1, a2: a node named a1 would share the
    # server/a1 RNG stream, monitor series and lookups with replica a1
    with pytest.raises(ValueError, match=r"duplicate replica display names \['a1'\]"):
        ServiceGraph([NodeSpec("a", replicas=2), NodeSpec("a1")],
                     [EdgeSpec("a", "a1")])
    with pytest.raises(ValueError, match="duplicate replica display names"):
        ServiceGraph([NodeSpec("a", label="x"), NodeSpec("b", label="x")],
                     [EdgeSpec("a", "b")])


def test_label_names_the_servers_and_name_keys_the_route():
    graph = ServiceGraph(
        [NodeSpec("a", label="front"), NodeSpec("b", label="back",
                                                replicas=2)],
        [EdgeSpec("a", "b")],
    )
    system = build_graph(graph, seed=42)
    assert system.names == ["front", "back1", "back2"]
    assert [server.name for server in system.servers] == system.names
    assert list(system.groups) == ["front->b"]
    assert system.server("front").downstream["b"] is system.groups["front->b"]


def test_hosts_place_replicas_on_existing_machines():
    from repro.cpu.host import Host
    from repro.sim import Simulator

    sim = Simulator(seed=42)
    shared = Host(sim, name="shared")
    graph = ServiceGraph([NodeSpec("a"), NodeSpec("b", replicas=2)],
                         [EdgeSpec("a", "b")])
    system = build_graph(graph, sim=sim, seed=42, hosts={"b2": shared})
    assert system.host_of("b2") is shared
    assert system.vm("b2").host is shared
    assert system.host_of("b1") is not shared
    assert [vm.name for vm in shared.vms] == ["b2-vm"]
    with pytest.raises(ValueError, match="'b'"):
        # hosts are keyed by replica display name, not node name
        build_graph(graph, seed=42, hosts={"b": shared})


def test_unknown_entry_rejected():
    with pytest.raises(ValueError, match="not a graph node"):
        ServiceGraph([NodeSpec("a")], entry="b")


def test_edge_with_unknown_endpoint_rejected():
    with pytest.raises(ValueError, match="unknown node 'ghost'"):
        ServiceGraph([NodeSpec("a")], [EdgeSpec("a", "ghost")])


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate edge"):
        ServiceGraph(
            [NodeSpec("a"), NodeSpec("b")],
            [EdgeSpec("a", "b"), EdgeSpec("a", "b")],
        )


def test_self_loop_rejected_at_edge_construction():
    with pytest.raises(ValueError, match="self-loop"):
        EdgeSpec("a", "a")


def test_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        ServiceGraph(
            [NodeSpec("a"), NodeSpec("b"), NodeSpec("c")],
            [EdgeSpec("a", "b"), EdgeSpec("b", "c"), EdgeSpec("c", "b")],
        )


def test_unreachable_node_rejected():
    with pytest.raises(ValueError, match="unreachable.*'island'"):
        ServiceGraph(
            [NodeSpec("a"), NodeSpec("b"), NodeSpec("island")],
            [EdgeSpec("a", "b")],
        )


def test_quorum_exceeding_out_degree_rejected():
    with pytest.raises(ValueError, match="quorum 3 exceeds out-degree 2"):
        ServiceGraph(
            [NodeSpec("root", quorum=3), NodeSpec("x"), NodeSpec("y")],
            [EdgeSpec("root", "x"), EdgeSpec("root", "y")],
        )


def test_quorum_below_one_rejected_on_the_node():
    with pytest.raises(ValueError, match="quorum must be >= 1"):
        NodeSpec("root", quorum=0)


# ----------------------------------------------------------------------
# queries and presets
# ----------------------------------------------------------------------
def test_topo_order_breaks_ties_in_declaration_order():
    graph = diamond()
    assert graph.topo_order() == ["entry", "left", "right", "sink"]


def test_fan_out_preset_shape():
    graph = fan_out(NodeSpec("root"),
                    [NodeSpec("leaf1"), NodeSpec("leaf2")])
    assert graph.entry == "root"
    assert graph.topo_order() == ["root", "leaf1", "leaf2"]
    assert [(e.source, e.target) for e in graph.edges] == [
        ("root", "leaf1"), ("root", "leaf2"),
    ]


def test_edge_index_pairs_follow_topo_positions():
    graph = diamond()
    # positions: entry=0, left=1, right=2, sink=3
    assert sorted(graph.edge_index_pairs()) == [
        (0, 1), (0, 2), (1, 3), (2, 3),
    ]


# ----------------------------------------------------------------------
# built systems: the gather runs on both servlet drivers
# ----------------------------------------------------------------------
def _run_fan_out(sync_root, quorum=None, seed=42, rate=60.0, until=4.0):
    root = NodeSpec("root", policy=(TierPolicy.sync(threads=8) if sync_root
                                    else TierPolicy.asynchronous(workers=2)),
                    quorum=quorum)
    leaves = [NodeSpec(f"leaf{i + 1}", policy=TierPolicy.sync(threads=4))
              for i in range(3)]
    system = build_graph(fan_out(root, leaves), seed=seed)
    system.open_loop(rate)
    system.sim.run(until=until)
    return system


@pytest.mark.parametrize("sync_root", [True, False])
def test_gather_drives_every_leg_on_both_drivers(sync_root):
    system = _run_fan_out(sync_root)
    totals = system.gather_totals()
    assert totals["gathers"] > 0
    assert totals["legs"] == 3 * totals["gathers"]
    assert totals["leg_failures"] == 0
    # all-of barrier: no leg is cancelled or wasted
    assert totals["legs_cancelled"] == 0
    assert totals["legs_wasted"] == 0
    # gathers count at launch, so the sim-end cutoff may leave one in
    # flight behind its completed count
    completed = len(system.log.completed)
    assert 0 < completed <= totals["gathers"]


def test_open_loop_issues_through_the_poisson_client(monkeypatch):
    """A graph's Poisson client is the workload generators' own
    ``OpenLoopPoisson``, so its requests take the one client path."""
    started = []
    start = OpenLoopPoisson.start

    def spy(client):
        started.append(client)
        return start(client)

    monkeypatch.setattr(OpenLoopPoisson, "start", spy)
    system = _run_fan_out(sync_root=True)
    (client,) = started
    assert client.entry is system.entry and client.log is system.log
    assert client.rate == 60.0
    assert 0 < len(system.log) <= client.issued
    assert {record.kind for record in system.log.records} == {
        "GraphRequest"}


@pytest.mark.parametrize("sync_root", [True, False])
def test_quorum_gather_wastes_the_straggler(sync_root):
    system = _run_fan_out(sync_root, quorum=2)
    totals = system.gather_totals()
    assert totals["gathers"] > 0
    # first-2-of-3: every settled gather leaves exactly one losing leg
    # behind (gathers still in flight at the sim-end cutoff have not
    # picked their loser yet)
    losers = totals["legs_cancelled"] + totals["legs_wasted"]
    assert len(system.log.completed) <= losers <= totals["gathers"]


# ----------------------------------------------------------------------
# cache and storage node kinds
# ----------------------------------------------------------------------
def test_unknown_node_kind_rejected():
    with pytest.raises(ValueError, match="kind must be one of"):
        NodeSpec("n", kind="queue")


def test_cache_node_requires_capacity():
    with pytest.raises(ValueError, match="cache_capacity >= 1"):
        NodeSpec("c", kind="cache")
    with pytest.raises(ValueError, match="cache_capacity >= 1"):
        NodeSpec("c", kind="cache", cache_capacity=0)
    with pytest.raises(ValueError, match="keyspace must be >= 1"):
        NodeSpec("c", kind="cache", cache_capacity=8, keyspace=0)


def test_storage_node_requires_service_time():
    with pytest.raises(ValueError, match="positive storage_service_time"):
        NodeSpec("s", kind="storage")
    with pytest.raises(ValueError, match="write_fraction must be in"):
        NodeSpec("s", kind="storage", storage_service_time=0.001,
                 write_fraction=1.5)


def test_cache_node_with_two_successors_rejected():
    with pytest.raises(ValueError, match="at most one successor"):
        ServiceGraph(
            [NodeSpec("c", kind="cache", cache_capacity=8),
             NodeSpec("x"), NodeSpec("y")],
            [EdgeSpec("c", "x"), EdgeSpec("c", "y")],
        )


def _cache_graph(coalesce=False, keyspace=4, ttl=None, db_work=0.0):
    return ServiceGraph(
        [NodeSpec("cache", policy=TierPolicy.asynchronous(workers=2),
                  kind="cache", cache_capacity=64, cache_ttl=ttl,
                  keyspace=keyspace, coalesce=coalesce),
         NodeSpec("db", policy=TierPolicy.sync(threads=4), pre_work=db_work)],
        [EdgeSpec("cache", "db")],
        entry="cache",
    )


def test_built_cache_node_registers_and_serves():
    system = build_graph(_cache_graph(), seed=42)
    assert list(system.caches) == ["cache"]
    cache = system.caches["cache"]
    assert cache.capacity == 64
    system.open_loop(100.0)
    system.sim.run(until=5.0)
    stats = cache.stats
    # a 4-key space against capacity 64: at most 4 cold misses, then
    # every lookup hits without touching db
    assert stats.misses <= 4
    assert stats.hits > 100
    assert stats.hit_ratio() > 0.9
    db = system.server("db")
    assert db.stats.completed == stats.misses


def test_cache_node_coalesce_flag_reaches_the_handler():
    # a 50 ms backing fetch against 2.5 ms arrivals on a 4-key space:
    # the cold-start misses overlap, so followers must coalesce
    system = build_graph(_cache_graph(coalesce=True, db_work=0.05), seed=42)
    system.open_loop(400.0)
    system.sim.run(until=2.0)
    stats = system.caches["cache"].stats
    assert stats.coalesced > 0
    # followers count their lookup as a miss before parking, but only
    # leaders reach the backing tier: db served misses - coalesced
    assert system.server("db").stats.completed == stats.misses - stats.coalesced


def test_cache_ttl_forces_refetches():
    system = build_graph(_cache_graph(ttl=0.5), seed=42)
    system.open_loop(100.0)
    system.sim.run(until=5.0)
    stats = system.caches["cache"].stats
    assert stats.expirations > 0
    assert stats.misses > 4              # cold misses plus TTL refetches


def test_built_storage_node_registers_and_serves():
    graph = ServiceGraph(
        [NodeSpec("front", policy=TierPolicy.asynchronous(workers=2)),
         NodeSpec("store", policy=TierPolicy.sync(threads=16), kind="storage",
                  storage_service_time=0.001, write_fraction=0.5,
                  write_buffer=32)],
        [EdgeSpec("front", "store")],
        entry="front",
    )
    system = build_graph(graph, seed=42)
    assert list(system.storages) == ["store"]
    store = system.storages["store"]
    assert store.buffer_capacity == 32
    system.open_loop(200.0)
    system.sim.run(until=4.0)
    assert store.stats.reads > 0
    assert store.stats.writes > 0
    assert len(system.log.completed) > 0


def test_admission_override_builds_a_policy_server():
    from repro.servers import CoDelAdmission
    from repro.servers.runtime import PolicyServer

    graph = ServiceGraph(
        [NodeSpec("front", policy=TierPolicy.asynchronous(workers=2)),
         NodeSpec("db", policy=TierPolicy.codel(depth=16, threads=4,
                                                target=0.02, interval=0.1))],
        [EdgeSpec("front", "db")],
        entry="front",
    )
    system = build_graph(graph, seed=42)
    db = system.server("db")
    assert isinstance(db, PolicyServer)
    assert isinstance(db.admission, CoDelAdmission)
    assert db.admission.target == 0.02
    system.open_loop(50.0)
    system.sim.run(until=2.0)
    assert len(system.log.completed) > 0


def test_admission_must_be_a_spec():
    with pytest.raises(ValueError, match="admission must be an"):
        NodeSpec("n", policy=TierPolicy(admission="codel"))
    with pytest.raises(ValueError, match="policy must be a TierPolicy"):
        NodeSpec("n", policy=AdmissionSpec("codel", depth=4))


@pytest.mark.parametrize("sync_root", [True, False])
def test_quorum_leg_outcome_is_deterministic_per_seed(sync_root):
    """Which legs lose the quorum race is replayed exactly from the
    seed — and actually depends on it."""

    def observe(seed):
        system = _run_fan_out(sync_root, quorum=2, seed=seed)
        return (system.gather_totals(), system.log.summary(4.0))

    assert observe(42) == observe(42)
    assert observe(42) != observe(7)
