"""Unit tests for the event-driven server (repro.servers.async_server)."""

import pytest

from repro.apps.servlet import Call, Compute, Request
from repro.cpu import Host
from repro.net import NetworkFabric
from repro.servers import (
    AsyncServer,
    PolicyServer,
    RemediationSpec,
    SyncServer,
    TierPolicy,
)
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=31)


@pytest.fixture
def fabric(sim):
    return NetworkFabric(sim, latency=0.0, rto=3.0, max_retransmits=3)


def make_vm(sim, name="vm", cores=1):
    return Host(sim, cores=cores, name=f"{name}-host").add_vm(name)


def compute_handler(work):
    def handler(ctx, request):
        yield Compute(work)
        return {"served": request.operation}

    return handler


def two_stage_handler(pre, post, target="db"):
    """Cheap pre-query stage, downstream call, expensive post stage."""

    def handler(ctx, request):
        yield Compute(pre)
        result = yield Call(target, request.operation)
        yield Compute(post)
        return result

    return handler


def send(sim, fabric, listener, operation="op"):
    outcomes = []

    def client():
        request = Request("K", operation, sim.now)
        exchange = fabric.send(listener, request)
        try:
            outcomes.append((yield exchange.response))
        except Exception as exc:
            outcomes.append(exc)

    sim.process(client())
    return outcomes


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------
def test_serves_single_request(sim, fabric):
    server = AsyncServer(sim, fabric, "srv", make_vm(sim),
                         compute_handler(0.01), workers=1)
    outcomes = send(sim, fabric, server.listener, "hi")
    sim.run()
    assert outcomes[0].ok and outcomes[0].value == {"served": "hi"}
    assert server.stats.completed == 1
    assert server.inflight == 0


def test_admission_is_immediate_backlog_stays_empty(sim, fabric):
    server = AsyncServer(sim, fabric, "srv", make_vm(sim),
                         compute_handler(1.0), workers=1, backlog=2)
    for i in range(50):
        send(sim, fabric, server.listener, f"r{i}")
    sim.run(until=0.1)
    assert server.inflight == 50         # all admitted to the lite queue
    assert server.listener.backlog_length == 0
    assert server.listener.drops == 0    # a sync server would have dropped 47


def test_lite_q_depth_bounds_admission(sim, fabric):
    server = AsyncServer(sim, fabric, "srv", make_vm(sim),
                         compute_handler(10.0), workers=1,
                         lite_q_depth=3, backlog=2)
    for i in range(10):
        send(sim, fabric, server.listener, f"r{i}")
    sim.run(until=0.5)
    assert server.inflight == 3
    assert server.listener.backlog_length == 2  # overflow fell back
    assert server.listener.drops == 5


def test_backlog_drains_into_lite_queue_when_space_frees(sim, fabric):
    server = AsyncServer(sim, fabric, "srv", make_vm(sim),
                         compute_handler(0.5), workers=1,
                         lite_q_depth=2, backlog=4)
    for i in range(4):
        send(sim, fabric, server.listener, f"r{i}")
    sim.run(until=0.1)
    assert server.inflight == 2 and server.listener.backlog_length == 2
    sim.run()
    assert server.stats.completed == 4
    assert server.listener.backlog_length == 0


def test_workers_bound_concurrent_execution(sim, fabric):
    """Executor mode (XMySQL): 2 workers, 6 half-second jobs on 4 cores
    -> exactly 2 execute at a time."""
    server = AsyncServer(sim, fabric, "srv", make_vm(sim, cores=4),
                         compute_handler(0.5), workers=2)
    for i in range(6):
        send(sim, fabric, server.listener, f"r{i}")
    sim.run(until=0.25)
    assert server.inflight == 6
    assert server.ready_events == 4  # 2 executing, 4 parked in the queue
    sim.run()
    assert server.stats.completed == 6


def test_invalid_parameters(sim, fabric):
    with pytest.raises(ValueError):
        AsyncServer(sim, fabric, "s", make_vm(sim), compute_handler(0.1),
                    lite_q_depth=0)
    with pytest.raises(ValueError):
        AsyncServer(sim, fabric, "s", make_vm(sim), compute_handler(0.1),
                    workers=0)


# ----------------------------------------------------------------------
# non-blocking downstream calls — no upstream CTQO
# ----------------------------------------------------------------------
def test_worker_not_held_during_downstream_call(sim, fabric):
    """One worker, slow downstream: both requests' pre-stages complete
    immediately — the worker is free while calls are outstanding."""
    db_vm = make_vm(sim, "db", cores=4)
    db = SyncServer(sim, fabric, "db", db_vm, compute_handler(1.0),
                    threads=4, backlog=8)
    app = AsyncServer(sim, fabric, "app", make_vm(sim, "app"),
                      two_stage_handler(0.001, 0.001), workers=1)
    app.connect("db", db.listener)
    a = send(sim, fabric, app.listener, "a")
    b = send(sim, fabric, app.listener, "b")
    sim.run(until=0.5)
    assert db.busy_threads == 2  # both queries issued concurrently
    sim.run()
    assert a[0].ok and b[0].ok


def test_no_upstream_ctqo_when_downstream_stalls(sim, fabric):
    """The paper's NX>=1 claim: a stalled downstream cannot overflow an
    async upstream — requests park in the lightweight queue instead."""
    db_vm = make_vm(sim, "db")
    db = SyncServer(sim, fabric, "db", db_vm, compute_handler(0.001),
                    threads=2, backlog=2)
    app = AsyncServer(sim, fabric, "app", make_vm(sim, "app"),
                      two_stage_handler(0.0001, 0.0001), workers=1,
                      lite_q_depth=65535)
    app.connect("db", db.listener)
    db_vm.freeze(5.0)
    for i in range(100):
        send(sim, fabric, app.listener, f"r{i}")
    sim.run(until=1.0)
    assert app.listener.drops == 0       # no upstream CTQO...
    assert app.inflight > 90             # ...just buffering
    assert db.listener.drops > 0         # downstream CTQO at the sync tier


def test_batch_flood_after_own_millibottleneck(sim, fabric):
    """The paper's Fig 9 mechanism in miniature: during the async tier's
    own stall requests pile up pre-query; when it ends they fire their
    queries as a batch that overwhelms the bounded downstream."""
    app_vm = make_vm(sim, "app")
    db_vm = make_vm(sim, "db", cores=1)
    db = SyncServer(sim, fabric, "db", db_vm, compute_handler(0.050),
                    threads=2, backlog=4)
    app = AsyncServer(sim, fabric, "app", app_vm,
                      two_stage_handler(0.0001, 0.0001), workers=4)
    app.connect("db", db.listener)
    app_vm.freeze(1.0)  # the millibottleneck in the async tier
    for i in range(30):
        send(sim, fabric, app.listener, f"r{i}")
    sim.run(until=0.9)
    assert db.queue_depth() == 0      # nothing reached the db during stall
    assert app.inflight == 30
    sim.run(until=1.2)                # stall ended: the batch flood
    assert db.listener.drops > 0      # 30 queries vs MaxSysQDepth(db)=6


def test_failure_reply_counted_not_completed(sim, fabric):
    server = AsyncServer(sim, fabric, "srv", make_vm(sim),
                         two_stage_handler(0.001, 0.001, target="nowhere"),
                         workers=1)
    outcomes = send(sim, fabric, server.listener, "x")
    sim.run()
    assert not outcomes[0].ok
    assert server.stats.failed == 1
    assert server.stats.completed == 0
    assert server.inflight == 0


def test_connection_timeout_resumes_continuation_with_error(sim, fabric):
    dead = fabric.listener("dead", backlog=0)
    server = AsyncServer(sim, fabric, "srv", make_vm(sim),
                         two_stage_handler(0.001, 0.001, target="dead"),
                         workers=1)
    server.connect("dead", dead)
    outcomes = send(sim, fabric, server.listener, "x")
    sim.run(until=30.0)
    assert outcomes and not outcomes[0].ok
    assert server.inflight == 0
    assert server.stats.downstream_failures == 1


def test_servlet_can_catch_downstream_failure(sim, fabric):
    from repro.apps.servlet import ServletError

    def forgiving(ctx, request):
        yield Compute(0.001)
        try:
            result = yield Call("dead", "q")
        except ServletError:
            result = {"fallback": True}
        return result

    dead = fabric.listener("dead", backlog=0)
    server = AsyncServer(sim, fabric, "srv", make_vm(sim), forgiving,
                         workers=1)
    server.connect("dead", dead)
    outcomes = send(sim, fabric, server.listener, "x")
    sim.run(until=30.0)
    assert outcomes[0].ok
    assert outcomes[0].value == {"fallback": True}


def test_async_pool_defers_sends_without_blocking_worker(sim, fabric):
    """A pooled async connector queues sends but never holds the worker."""
    db = SyncServer(sim, fabric, "db", make_vm(sim, "db", cores=4),
                    compute_handler(0.5), threads=4, backlog=8)
    app = AsyncServer(sim, fabric, "app", make_vm(sim, "app"),
                      two_stage_handler(0.001, 0.001), workers=1)
    app.connect("db", db.listener, pool_size=1)
    for i in range(3):
        send(sim, fabric, app.listener, f"r{i}")
    sim.run(until=0.25)
    assert db.queue_depth() == 1      # pool caps outstanding queries
    assert app.inflight == 3          # but nothing blocks the worker
    sim.run()
    assert app.stats.completed == 3


# ----------------------------------------------------------------------
# downstream pacing (extension beyond the paper)
# ----------------------------------------------------------------------
def test_pace_rate_validation(sim, fabric):
    with pytest.raises(ValueError):
        AsyncServer(sim, fabric, "s", make_vm(sim), compute_handler(0.1),
                    pace_rate=0)


@pytest.mark.parametrize("remediation", [None, RemediationSpec("retry")],
                         ids=["none", "retry"])
def test_pacing_spreads_downstream_calls(sim, fabric, remediation):
    """20 simultaneous requests, pace 100/s: queries arrive 10 ms apart,
    whichever remediation policy issues them."""
    db = SyncServer(sim, fabric, "db", make_vm(sim, "db", cores=4),
                    compute_handler(0.0001), threads=64, backlog=64)
    app = PolicyServer(sim, fabric, "app", make_vm(sim, "app"),
                       two_stage_handler(0.00001, 0.00001),
                       TierPolicy.asynchronous(workers=8, pace_rate=100.0,
                                               remediation=remediation))
    app.connect("db", db.listener)
    arrivals = []
    original = db.listener.deliver

    def spy(exchange):
        arrivals.append(sim.now)
        return original(exchange)

    db.listener.deliver = spy
    for i in range(20):
        send(sim, fabric, app.listener, f"r{i}")
    sim.run()
    assert len(arrivals) == 20
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert min(gaps) >= 0.01 - 1e-9  # never faster than the pace


def test_pacing_defuses_batch_flood(sim, fabric):
    """The Fig 9 mitigation: the same post-stall batch that overflows an
    unpaced downstream is absorbed when the async tier paces its calls."""

    def run_once(pace_rate):
        s = Simulator(seed=31)
        f = NetworkFabric(s, latency=0.0, rto=3.0)
        app_vm = make_vm(s, "app")
        db = SyncServer(s, f, "db", make_vm(s, "db"),
                        compute_handler(0.010), threads=2, backlog=4)
        app = AsyncServer(s, f, "app", app_vm,
                          two_stage_handler(0.0001, 0.0001), workers=4,
                          pace_rate=pace_rate)
        app.connect("db", db.listener)
        app_vm.freeze(1.0)
        for i in range(30):
            request = Request("K", f"r{i}", s.now)
            f.send(app.listener, request)
        s.run(until=3.0)
        return db.listener.drops

    assert run_once(pace_rate=None) > 0     # the paper's Fig 9
    assert run_once(pace_rate=80.0) == 0    # paced below db capacity
