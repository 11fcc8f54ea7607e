"""Unit tests for shared server machinery (repro.servers.base)."""

import pytest

from repro.apps.servlet import Call, Compute, Request
from repro.cpu import Host
from repro.net import NetworkFabric
from repro.servers import AsyncServer, ServerStats, SyncServer
from repro.servers.replica import ReplicaGroup
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=13)


@pytest.fixture
def fabric(sim):
    return NetworkFabric(sim, latency=0.0)


def make_vm(sim, name="vm"):
    return Host(sim, cores=1, name=f"{name}-host").add_vm(name)


def noop_handler(ctx, request):
    yield Compute(0.001)
    return "done"


def send_one(sim, fabric, listener, operation="op"):
    results = []

    def client():
        exchange = fabric.send(listener, Request("K", operation, sim.now))
        results.append((yield exchange.response))

    sim.process(client())
    return results


# ----------------------------------------------------------------------
def test_stats_snapshot_keys():
    stats = ServerStats()
    snapshot = stats.snapshot()
    assert set(snapshot) == {
        "arrivals", "completed", "failed", "downstream_calls",
        "downstream_failures", "peak_queue_depth",
        "shed", "retries", "breaker_fast_fails",
    }
    assert all(v == 0 for v in snapshot.values())


def test_connect_returns_self_for_chaining(sim, fabric):
    a = SyncServer(sim, fabric, "a", make_vm(sim, "a"), noop_handler,
                   threads=1)
    b = SyncServer(sim, fabric, "b", make_vm(sim, "b"), noop_handler,
                   threads=1)
    assert a.connect("b", b.listener) is a


def test_each_server_gets_deterministic_private_rng(sim, fabric):
    a = SyncServer(sim, fabric, "a", make_vm(sim, "a"), noop_handler,
                   threads=1)
    a2_sim = Simulator(seed=13)
    a2 = SyncServer(a2_sim, NetworkFabric(a2_sim), "a",
                    make_vm(a2_sim, "a"), noop_handler, threads=1)
    draws = [a.ctx.rng.random() for _ in range(5)]
    draws2 = [a2.ctx.rng.random() for _ in range(5)]
    assert draws == draws2  # same seed + same name -> same stream


def test_peak_queue_depth_tracked(sim, fabric):
    server = SyncServer(sim, fabric, "srv", make_vm(sim), noop_handler,
                        threads=1, backlog=8)

    def slow_handler(ctx, request):
        yield Compute(0.5)
        return "ok"

    server.handler = slow_handler
    for i in range(4):
        send_one(sim, fabric, server.listener, f"r{i}")
    sim.run(until=0.1)
    server._note_queue_depth()
    assert server.stats.peak_queue_depth == 4


INSTRUCTIONS = ("Compute", "Call", "Gather", "CacheGet", "CachePut",
                "CacheAbort", "StorageRead", "StorageWrite")


@pytest.mark.parametrize("driver", ["thread", "eventloop"])
def test_bad_servlet_yield_type_kills_the_worker(sim, fabric, driver):
    """A servlet yielding garbage is a programming error: the
    ``TypeError`` naming the server and every instruction propagates
    out of ``Simulator.run`` and stops the run, and the request never
    gets a reply (it is not converted into a client-visible error
    response)."""

    def bad_handler(ctx, request):
        yield "not a step"

    if driver == "thread":
        server = SyncServer(sim, fabric, "srv", make_vm(sim), bad_handler,
                            threads=1)
    else:
        server = AsyncServer(sim, fabric, "srv", make_vm(sim), bad_handler,
                             workers=1)
    results = send_one(sim, fabric, server.listener)
    with pytest.raises(TypeError) as raised:
        sim.run(until=1.0)
    message = str(raised.value)
    assert message.startswith("srv: ")
    assert "'not a step'" in message
    for kind in INSTRUCTIONS:
        assert kind in message
    assert results == []                 # no reply ever arrived
    assert server.stats.completed == 0
    assert server.stats.failed == 0


def test_unrouted_call_fails_request_not_server(sim, fabric):
    def handler(ctx, request):
        result = yield Call("ghost", "op")
        return result

    server = SyncServer(sim, fabric, "srv", make_vm(sim), handler, threads=2)
    results = send_one(sim, fabric, server.listener)
    sim.run()
    assert results and not results[0].ok
    assert "no route" in results[0].error
    # the worker thread survived and serves the next request
    server.handler = noop_handler
    results2 = send_one(sim, fabric, server.listener)
    sim.run()
    assert results2 and results2[0].ok


def test_downstream_calls_counted(sim, fabric):
    db = SyncServer(sim, fabric, "db", make_vm(sim, "db"), noop_handler,
                    threads=4)

    def handler(ctx, request):
        first = yield Call("db", "q1")
        second = yield Call("db", "q2")
        return (first, second)

    app = SyncServer(sim, fabric, "app", make_vm(sim, "app"), handler,
                     threads=2)
    app.connect("db", db.listener)
    send_one(sim, fabric, app.listener)
    sim.run()
    assert app.stats.downstream_calls == 2
    assert app.stats.downstream_failures == 0
    assert db.stats.completed == 2


def test_servlet_error_propagates_through_two_hops(sim, fabric):
    def leaf_handler(ctx, request):
        from repro.apps.servlet import ServletError

        raise ServletError("db on fire")
        yield  # pragma: no cover

    def mid_handler(ctx, request):
        result = yield Call("db", "q")
        return result

    db = SyncServer(sim, fabric, "db", make_vm(sim, "db"), leaf_handler,
                    threads=1)
    app = SyncServer(sim, fabric, "app", make_vm(sim, "app"), mid_handler,
                     threads=1)
    app.connect("db", db.listener)
    results = send_one(sim, fabric, app.listener)
    sim.run()
    assert results and not results[0].ok
    assert "db on fire" in results[0].error
    assert db.stats.failed == 1
    assert app.stats.failed == 1
    assert app.stats.downstream_failures == 1


def test_request_trace_records_hops(sim, fabric):
    db = SyncServer(sim, fabric, "db", make_vm(sim, "db"), noop_handler,
                    threads=1)

    def handler(ctx, request):
        result = yield Call("db", "q")
        return result

    app = SyncServer(sim, fabric, "app", make_vm(sim, "app"), handler,
                     threads=1)
    app.connect("db", db.listener)
    request = Request("K", "op", sim.now)
    outcomes = []

    def client():
        exchange = fabric.send(app.listener, request)
        outcomes.append((yield exchange.response))

    sim.process(client())
    sim.run()
    events = [(event, detail) for _t, event, detail in request.trace]
    assert ("start", "app") in events
    assert ("call", "app->db") in events
    assert ("start", "db") in events
    assert ("reply", "db") in events
    assert ("reply", "app") in events


# ----------------------------------------------------------------------
# replica routing
# ----------------------------------------------------------------------
def test_round_robin_alternates_replicas(sim, fabric):
    replica_a = SyncServer(sim, fabric, "ra", make_vm(sim, "ra"),
                           noop_handler, threads=4)
    replica_b = SyncServer(sim, fabric, "rb", make_vm(sim, "rb"),
                           noop_handler, threads=4)

    def handler(ctx, request):
        result = yield Call("app", "op")
        return result

    front = SyncServer(sim, fabric, "front", make_vm(sim, "front"),
                       handler, threads=8)
    front.connect("app", ReplicaGroup(
        sim, "front->app", [replica_a.listener, replica_b.listener],
    ))
    for i in range(10):
        send_one(sim, fabric, front.listener, f"r{i}")
    sim.run()
    assert replica_a.stats.completed == 5
    assert replica_b.stats.completed == 5


def test_empty_replica_list_rejected(sim, fabric):
    server = SyncServer(sim, fabric, "s", make_vm(sim), noop_handler,
                        threads=1)
    # a route is a Listener or a ReplicaGroup, checked at wiring time
    with pytest.raises(TypeError):
        server.connect("app", [])
    with pytest.raises(ValueError):
        ReplicaGroup(sim, "s->app", [])


def test_connect_rejects_anything_but_a_listener_or_group(sim, fabric):
    server = SyncServer(sim, fabric, "s", make_vm(sim, "s"), noop_handler,
                        threads=1)
    other = SyncServer(sim, fabric, "o", make_vm(sim, "o"), noop_handler,
                       threads=1)
    # the server instead of its listener, a name, a tuple of listeners:
    # each fails at wiring, not at the first call
    for bad in (other, "o", (other.listener,)):
        with pytest.raises(TypeError, match="Listener or a ReplicaGroup"):
            server.connect("o", bad)
    assert server.downstream == {} and server._routes == {}
    group = ReplicaGroup(sim, "s->o", [other.listener])
    with pytest.raises(ValueError, match="pool_size must be None"):
        server.connect("o", group, pool_size=2)
    assert server.connect("o", group) is server
    assert server.downstream["o"] is group


def test_single_listener_still_works_via_connect(sim, fabric):
    leaf = SyncServer(sim, fabric, "leaf", make_vm(sim, "leaf"),
                      noop_handler, threads=2)

    def handler(ctx, request):
        result = yield Call("leaf", "op")
        return result

    front = SyncServer(sim, fabric, "front", make_vm(sim, "front"),
                       handler, threads=2)
    front.connect("leaf", leaf.listener)
    results = send_one(sim, fabric, front.listener)
    sim.run()
    assert results and results[0].ok
