"""Unit tests for the TCP model (repro.net.tcp)."""

import pytest

from repro.net import ConnectionTimeout, NetworkFabric
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=2)


@pytest.fixture
def fabric(sim):
    # zero latency makes arithmetic exact in these unit tests
    return NetworkFabric(sim, latency=0.0, rto=3.0, max_retransmits=3)


def echo_server(sim, listener, service=0.0):
    """Single-threaded echo server used by the tests below."""

    def loop():
        while True:
            exchange = yield listener.accept()
            if service:
                yield service
            exchange.reply(("echo", exchange.payload))

    return sim.process(loop())


def test_request_response_roundtrip(sim, fabric):
    listener = fabric.listener("srv", backlog=8)
    echo_server(sim, listener)
    got = []

    def client():
        exchange = fabric.send(listener, "hello")
        value = yield exchange.response
        got.append((sim.now, value))

    sim.process(client())
    sim.run()
    assert got == [(0.0, ("echo", "hello"))]


def test_latency_applied_both_ways(sim):
    fabric = NetworkFabric(sim, latency=0.1)
    listener = fabric.listener("srv")
    echo_server(sim, listener)
    done = []

    def client():
        exchange = fabric.send(listener, "x")
        yield exchange.response
        done.append(sim.now)

    sim.process(client())
    sim.run()
    assert done == [pytest.approx(0.2)]


def test_backlog_holds_requests_until_accepted(sim, fabric):
    listener = fabric.listener("srv", backlog=4)
    for i in range(3):
        fabric.send(listener, i)
    sim.run()
    assert listener.backlog_length == 3
    assert listener.drops == 0


def test_drop_when_backlog_full(sim, fabric):
    listener = fabric.listener("srv", backlog=2)
    for i in range(3):
        fabric.send(listener, i)
    sim.run(until=1.0)
    assert listener.backlog_length == 2
    assert listener.drops == 1
    assert fabric.packets_dropped == 1


def test_dropped_packet_retransmitted_after_rto(sim, fabric):
    """The 3-second retransmission that creates VLRT requests."""
    listener = fabric.listener("srv", backlog=0)
    replies = []

    def client():
        exchange = fabric.send(listener, "req")
        value = yield exchange.response
        replies.append((sim.now, value, exchange.attempts, len(exchange.drops)))

    sim.process(client())

    # Server comes up only after 2 seconds: the first attempt drops
    # (backlog 0, nobody accepting), the retransmission at t=3 succeeds.
    def late_server():
        yield 2.0
        while True:
            exchange = yield listener.accept()
            exchange.reply("ok")

    sim.process(late_server())
    sim.run(until=20.0)
    assert len(replies) == 1
    t, value, attempts, drops = replies[0]
    assert value == "ok"
    assert t == pytest.approx(3.0)  # the 3-second VLRT signature
    assert attempts == 2
    assert drops == 1


def test_retransmission_schedule_is_3_6_9(sim, fabric):
    """Attempt k arrives k*rto after the first send (Fig 1 modes)."""
    listener = fabric.listener("srv", backlog=0)
    exchange = fabric.send(listener, "req")
    sim.run(until=20.0)
    assert [pytest.approx(t) for t, _name in exchange.drops] == [0.0, 3.0, 6.0, 9.0]


def test_exhausted_retransmissions_fail_with_timeout(sim, fabric):
    listener = fabric.listener("srv", backlog=0)
    failures = []

    def client():
        exchange = fabric.send(listener, "req")
        try:
            yield exchange.response
        except ConnectionTimeout as exc:
            failures.append((sim.now, len(exc.exchange.drops)))

    sim.process(client())
    sim.run(until=30.0)
    assert failures == [(pytest.approx(9.0), 4)]  # initial + 3 retransmits
    assert fabric.requests_timed_out == 1


def test_waiting_accepter_bypasses_backlog(sim, fabric):
    listener = fabric.listener("srv", backlog=0)
    got = []

    def server():
        exchange = yield listener.accept()
        got.append(exchange.payload)
        exchange.reply("ok")

    sim.process(server())

    def client():
        yield 1.0
        fabric.send(listener, "direct")

    sim.process(client())
    sim.run()
    assert got == ["direct"]
    assert listener.drops == 0


def test_eager_acceptor_admits_ahead_of_backlog(sim, fabric):
    """Async-server admission: the acceptor sees packets first."""
    listener = fabric.listener("srv", backlog=1)
    admitted = []
    listener.acceptor = lambda exchange: (admitted.append(exchange), True)[1]
    for i in range(5):
        fabric.send(listener, i)
    sim.run()
    assert len(admitted) == 5
    assert listener.backlog_length == 0
    assert listener.drops == 0


def test_declining_acceptor_falls_back_to_backlog_then_drops(sim, fabric):
    listener = fabric.listener("srv", backlog=1)
    listener.acceptor = lambda exchange: False
    fabric.send(listener, "a")
    fabric.send(listener, "b")
    sim.run(until=1.0)
    assert listener.backlog_length == 1
    assert listener.drops == 1


def test_double_reply_raises(sim, fabric):
    listener = fabric.listener("srv")
    fabric.send(listener, "x")
    sim.run(until=0.1)
    exchange = listener.try_accept()
    exchange.reply(1)
    with pytest.raises(RuntimeError):
        exchange.reply(2)


def test_drop_log_records_time_and_exchange(sim, fabric):
    listener = fabric.listener("srv", backlog=0)
    fabric.send(listener, "x")
    sim.run(until=1.0)
    assert len(listener.drop_log) == 1
    t, exchange = listener.drop_log[0]
    assert t == 0.0
    assert exchange.payload == "x"


def test_parameter_validation(sim):
    with pytest.raises(ValueError):
        NetworkFabric(sim, latency=-1)
    with pytest.raises(ValueError):
        NetworkFabric(sim, rto=0)
    with pytest.raises(ValueError):
        NetworkFabric(sim, max_retransmits=-1)
    fabric = NetworkFabric(sim)
    with pytest.raises(ValueError):
        fabric.listener("x", backlog=-1)


def test_global_counters(sim, fabric):
    listener = fabric.listener("srv", backlog=10)
    echo_server(sim, listener)
    for i in range(4):
        fabric.send(listener, i)
    sim.run()
    assert fabric.packets_sent == 4
    assert fabric.packets_dropped == 0
    assert listener.delivered == 4


def test_fifo_ordering_preserved(sim, fabric):
    listener = fabric.listener("srv", backlog=16)
    order = []

    def server():
        while True:
            exchange = yield listener.accept()
            order.append(exchange.payload)
            exchange.reply(None)

    sim.process(server())
    for i in range(10):
        fabric.send(listener, i)
    sim.run()
    assert order == list(range(10))
