"""Tests for the full Fig 2 consolidation pair
(repro.topology.consolidation) and the MMPP workload it relies on."""

import pytest

from repro.sim import Simulator
from repro.topology import (
    SystemConfig,
    build_consolidated_pair,
    build_system,
    sysbursty_mix,
)
from repro.workload import MmppOpenLoop

from conftest import tiny_mix


# ----------------------------------------------------------------------
# builder plumbing
# ----------------------------------------------------------------------
def test_host_override_colocates_vms():
    sim = Simulator(seed=1)
    steady = build_system(SystemConfig(seed=1), sim=sim)
    other = build_system(
        SystemConfig(seed=1), sim=sim,
        host_overrides={"db": steady.hosts["app"]},
        name_prefix="sysbursty-",
    )
    assert other.hosts["db"] is steady.hosts["app"]
    assert other.vms["db"].host is steady.hosts["app"]
    # two VMs now live on the shared host
    assert len(steady.hosts["app"].vms) == 2


def test_name_prefix_disambiguates():
    sim = Simulator(seed=1)
    build_system(SystemConfig(seed=1), sim=sim)
    other = build_system(SystemConfig(seed=1), sim=sim,
                         name_prefix="sysbursty-")
    assert other.names == {
        "web": "sysbursty-apache",
        "app": "sysbursty-tomcat",
        "db": "sysbursty-mysql",
    }
    assert other.vms["db"].name == "sysbursty-mysql-vm"


def test_pair_default_shape():
    pair = build_consolidated_pair(SystemConfig(seed=3))
    assert pair.shared_host is pair.steady.hosts["app"]
    assert pair.bursty.vms["db"].host is pair.shared_host
    assert pair.bursty.vms["db"].shares == 30.0
    # SysBursty's other tiers live on their own hosts
    assert pair.bursty.hosts["web"] is not pair.shared_host
    assert pair.bursty.hosts["app"] is not pair.shared_host


def test_pair_shared_tier_db():
    pair = build_consolidated_pair(SystemConfig(seed=3), shared_tier="db")
    assert pair.bursty.vms["db"].host is pair.steady.hosts["db"]


def test_pair_rejects_unknown_tier():
    with pytest.raises(ValueError):
        build_consolidated_pair(shared_tier="cache")


@pytest.mark.parametrize("shares", [0.0, -5.0])
def test_pair_rejects_non_positive_db_shares(shares):
    # validated like Vm(shares=...), at build time rather than as a
    # ZeroDivisionError (or a negative water-fill weight) mid-run
    with pytest.raises(ValueError, match="shares must be positive"):
        build_consolidated_pair(SystemConfig(seed=3),
                                bursty_db_shares=shares)


def test_sysbursty_mix_is_db_heavy():
    (spec,) = sysbursty_mix(stochastic=False)
    assert spec.total_db_work() > spec.total_app_work()


# ----------------------------------------------------------------------
# MMPP generator
# ----------------------------------------------------------------------
def _count_arrivals(normal_rate, burst_rate, burst_duration,
                    normal_duration, horizon, seed=5):
    from repro.apps.rubbos import RubbosApplication
    from repro.apps.servlet import Response
    from repro.metrics import RequestLog
    from repro.net import NetworkFabric

    sim = Simulator(seed=seed)
    fabric = NetworkFabric(sim, latency=0.0)
    listener = fabric.listener("web", backlog=100000)

    def server():
        while True:
            exchange = yield listener.accept()
            exchange.reply(Response.success(None))

    sim.process(server())
    log = RequestLog()
    generator = MmppOpenLoop(
        sim, fabric, listener, RubbosApplication(tiny_mix(stochastic=True)),
        log, normal_rate=normal_rate, burst_rate=burst_rate,
        burst_duration=burst_duration, normal_duration=normal_duration,
    ).start()
    sim.run(until=horizon)
    return log, generator


def test_mmpp_rates_by_state():
    log, generator = _count_arrivals(
        normal_rate=50.0, burst_rate=2000.0,
        burst_duration=0.5, normal_duration=5.0, horizon=120.0,
    )
    # split arrivals into burst / normal periods using the transitions
    spans = []
    current = (0.0, "normal")
    for t, state in generator.transitions:
        spans.append((current[0], t, current[1]))
        current = (t, state)
    spans.append((current[0], 120.0, current[1]))
    burst_time = sum(e - s for s, e, st in spans if st == "burst")
    normal_time = sum(e - s for s, e, st in spans if st == "normal")
    burst_count = sum(
        1 for r in log.records
        if any(s <= r.start < e for s, e, st in spans if st == "burst")
    )
    normal_count = len(log.records) - burst_count
    assert burst_count / burst_time == pytest.approx(2000.0, rel=0.15)
    assert normal_count / normal_time == pytest.approx(50.0, rel=0.15)


def test_mmpp_validation():
    sim = Simulator(seed=1)
    with pytest.raises(ValueError):
        MmppOpenLoop(sim, None, None, None, None, normal_rate=10,
                     burst_rate=5)
    with pytest.raises(ValueError):
        MmppOpenLoop(sim, None, None, None, None, normal_rate=-1,
                     burst_rate=5)
    with pytest.raises(ValueError):
        MmppOpenLoop(sim, None, None, None, None, normal_rate=1,
                     burst_rate=5, burst_duration=0)


def test_mmpp_zero_normal_rate_is_idle_between_bursts():
    log, generator = _count_arrivals(
        normal_rate=0.0001, burst_rate=500.0,
        burst_duration=0.5, normal_duration=3.0, horizon=60.0,
    )
    assert len(log.records) > 100  # bursts happened
    burst_spans = []
    start = None
    for t, state in generator.transitions:
        if state == "burst":
            start = t
        elif start is not None:
            burst_spans.append((start, t + 0.001))
            start = None
    outside = [
        r for r in log.records
        if not any(s <= r.start < e for s, e in burst_spans)
    ]
    assert len(outside) <= 2  # essentially everything inside bursts


# ----------------------------------------------------------------------
# the emergent Fig 2/3 phenomenology (integration)
# ----------------------------------------------------------------------
@pytest.mark.integration
@pytest.mark.slow
def test_pair_reproduces_emergent_upstream_ctqo():
    pair = build_consolidated_pair(SystemConfig(nx=0, seed=42))
    monitor = pair.attach_monitor()
    pair.start_workloads()
    pair.sim.run(until=45.0)
    drops = pair.steady.drop_counts()
    assert drops["apache"] > 20, f"no emergent CTQO: {drops}"
    assert monitor.queues["tomcat"].max() == 293
    # SysBursty's MySQL idles between episodes
    assert monitor.host_cpu["sysbursty-mysql"].mean() < 0.3
    # and the episodes themselves appear as detected millibottlenecks
    from repro.metrics import detect_millibottlenecks

    episodes = [
        e for e in detect_millibottlenecks(monitor, min_duration=0.2)
        if e.resource == "sysbursty-mysql"
    ]
    assert episodes, "no millibottlenecks detected at SysBursty-MySQL"
