"""Unit tests for workload generation (repro.workload)."""

import pytest

from repro.apps.rubbos import RubbosApplication
from repro.metrics import RequestLog
from repro.net import NetworkFabric
from repro.sim import Simulator
from repro.workload import ClosedLoopPopulation, OpenLoopPoisson, ScriptedBurst

from conftest import tiny_mix


@pytest.fixture
def sim():
    return Simulator(seed=77)


@pytest.fixture
def fabric(sim):
    return NetworkFabric(sim, latency=0.0)


@pytest.fixture
def app():
    return RubbosApplication(tiny_mix())


def instant_server(sim, listener):
    """Replies immediately to everything."""

    def loop():
        while True:
            exchange = yield listener.accept()
            from repro.apps.servlet import Response

            exchange.reply(Response.success({"ok": True}))

    return sim.process(loop())


# ----------------------------------------------------------------------
# closed loop
# ----------------------------------------------------------------------
def test_closed_loop_throughput_matches_littles_law(sim, fabric, app):
    listener = fabric.listener("web", backlog=1024)
    instant_server(sim, listener)
    log = RequestLog()
    ClosedLoopPopulation(sim, fabric, listener, app, log,
                         clients=200, think_mean=2.0).start()
    sim.run(until=60.0)
    # X = N / (Z + R) with R ~ 0 -> 100 req/s
    assert log.throughput(60.0) == pytest.approx(100.0, rel=0.06)


def test_closed_loop_steady_from_t0(sim, fabric, app):
    """The stationary start: no ramp-up overshoot in arrival rate."""
    listener = fabric.listener("web", backlog=4096)
    instant_server(sim, listener)
    log = RequestLog()
    ClosedLoopPopulation(sim, fabric, listener, app, log,
                         clients=500, think_mean=2.0).start()
    sim.run(until=20.0)
    early = len(log.after(0.0).records) - len(log.after(5.0).records)
    late = len(log.after(10.0).records) - len(log.after(15.0).records)
    assert early == pytest.approx(late, rel=0.25)


def test_closed_loop_records_failures(sim, fabric, app):
    listener = fabric.listener("web", backlog=0)  # never accepts
    log = RequestLog()
    ClosedLoopPopulation(sim, fabric, listener, app, log,
                         clients=3, think_mean=1.0).start()
    sim.run(until=30.0)
    assert len(log.failures) >= 3
    record = log.failures[0]
    assert record.failed
    assert record.drops  # every attempt was dropped
    assert record.response_time >= 9.0  # exhausted 3 retransmissions


def test_closed_loop_validates_parameters(sim, fabric, app):
    log = RequestLog()
    listener = fabric.listener("web")
    with pytest.raises(ValueError):
        ClosedLoopPopulation(sim, fabric, listener, app, log, clients=0)
    with pytest.raises(ValueError):
        ClosedLoopPopulation(sim, fabric, listener, app, log, clients=1,
                             think_mean=0)


def test_closed_loop_start_idempotent(sim, fabric, app):
    listener = fabric.listener("web", backlog=64)
    instant_server(sim, listener)
    log = RequestLog()
    population = ClosedLoopPopulation(sim, fabric, listener, app, log,
                                      clients=10, think_mean=1.0)
    population.start()
    population.start()  # no double population
    sim.run(until=10.0)
    assert log.throughput(10.0) == pytest.approx(10.0, rel=0.4)


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
def test_open_loop_rate(sim, fabric, app):
    listener = fabric.listener("web", backlog=4096)
    instant_server(sim, listener)
    log = RequestLog()
    OpenLoopPoisson(sim, fabric, listener, app, log, rate=50.0).start()
    sim.run(until=40.0)
    assert log.throughput(40.0) == pytest.approx(50.0, rel=0.1)


def test_open_loop_invalid_rate(sim, fabric, app):
    with pytest.raises(ValueError):
        OpenLoopPoisson(sim, fabric, fabric.listener("web"), app,
                        RequestLog(), rate=0)


# ----------------------------------------------------------------------
# scripted bursts
# ----------------------------------------------------------------------
def test_scripted_burst_fires_batches_at_times(sim, fabric, app):
    listener = fabric.listener("web", backlog=4096)
    instant_server(sim, listener)
    log = RequestLog()
    burst = ScriptedBurst(sim, fabric, listener, app, log,
                          times=[5.0, 10.0], batch_size=40,
                          operation="ViewStory")
    burst.start()
    sim.run(until=20.0)
    assert len(log.records) == 80
    starts = sorted({round(r.start, 6) for r in log.records})
    assert starts == [5.0, 10.0]
    assert all(r.kind == "ViewStory" for r in log.records)


def test_scripted_burst_periodic_constructor(sim, fabric, app):
    listener = fabric.listener("web", backlog=4096)
    instant_server(sim, listener)
    log = RequestLog()
    ScriptedBurst.periodic(sim, fabric, listener, app, log,
                           period=4.0, until=15.0, batch_size=5).start()
    sim.run(until=20.0)
    starts = sorted({round(r.start, 6) for r in log.records})
    assert starts == [4.0, 8.0, 12.0]


def test_scripted_burst_validates_batch(sim, fabric, app):
    with pytest.raises(ValueError):
        ScriptedBurst(sim, fabric, None, app, RequestLog(), times=[1.0],
                      batch_size=0)


