"""Unit tests for millibottleneck injectors (repro.injectors)."""

import pytest

from repro.cpu import Host
from repro.injectors import ColocationInjector, LogFlushInjector
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=21)


# ----------------------------------------------------------------------
# co-location (CPU millibottlenecks)
# ----------------------------------------------------------------------
def test_scripted_bursts_fire_at_requested_times(sim):
    host = Host(sim, cores=1)
    injector = ColocationInjector(sim, host, burst_cpu_seconds=0.1,
                                  burst_jobs=10)
    injector.scripted([2.0, 5.0])
    sim.run(until=10.0)
    assert injector.burst_times == [2.0, 5.0]


def test_burst_starves_coresident_vm(sim):
    host = Host(sim, cores=1)
    victim = host.add_vm("victim")
    injector = ColocationInjector(sim, host, burst_cpu_seconds=0.5,
                                  burst_jobs=50, shares=30.0)
    injector.idle_util = 0.0
    injector.scripted([1.0])
    done = {}
    victim.execute(0.2).add_callback(lambda ev: done.setdefault("j", sim.now))

    def late_job():
        yield 1.0
        victim.execute(0.2).add_callback(
            lambda ev: done.setdefault("k", sim.now)
        )

    sim.process(late_job())
    sim.run(until=10.0)
    assert done["j"] == pytest.approx(0.2)  # before the burst: full speed
    # during the burst the victim gets ~1/31 of the core; the antagonist
    # needs ~0.5/(30/31) ≈ 0.517s, then the victim's remaining work runs
    assert done["k"] > 0.6


def test_antagonist_consumes_burst_demand(sim):
    host = Host(sim, cores=4)
    injector = ColocationInjector(sim, host, burst_cpu_seconds=0.3,
                                  burst_jobs=100)
    injector.idle_util = 0.0
    injector.scripted([0.5])
    sim.run(until=5.0)
    host.settle()
    assert injector.vm.consumed == pytest.approx(0.3, rel=0.01)


def test_periodic_bursts(sim):
    host = Host(sim, cores=1)
    injector = ColocationInjector(sim, host, burst_cpu_seconds=0.05,
                                  burst_jobs=5)
    injector.periodic(3.0, until=10.0)
    sim.run(until=12.0)
    assert injector.burst_times == [3.0, 6.0, 9.0]


def test_background_load_is_negligible(sim):
    host = Host(sim, cores=1)
    injector = ColocationInjector(sim, host, burst_cpu_seconds=0.1,
                                  burst_jobs=10)
    injector.scripted([])  # background only
    sim.run(until=20.0)
    host.settle()
    assert injector.vm.consumed / 20.0 == pytest.approx(0.02, abs=0.01)


def test_validation(sim):
    host = Host(sim, cores=1)
    with pytest.raises(ValueError):
        ColocationInjector(sim, host, burst_cpu_seconds=0)
    with pytest.raises(ValueError):
        ColocationInjector(sim, host, burst_jobs=0)
    injector = ColocationInjector(sim, host)
    with pytest.raises(ValueError):
        injector.periodic(0, until=10)


# ----------------------------------------------------------------------
# log flushing (I/O millibottlenecks)
# ----------------------------------------------------------------------
def test_flushes_on_schedule(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("mysql")
    injector = LogFlushInjector(sim, vm, period=30.0, duration=0.4,
                                offset=10.0).start()
    sim.run(until=80.0)
    assert injector.flush_times == [10.0, 40.0, 70.0]


def test_flush_freezes_vm_and_counts_iowait(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("mysql")
    LogFlushInjector(sim, vm, period=5.0, duration=0.5, offset=1.0).start()
    done = {}
    vm.execute(2.0).add_callback(lambda ev: done.setdefault("j", sim.now))
    sim.run(until=4.0)
    # job needs 2s of CPU; one 0.5s freeze at t=1 delays it to 2.5
    assert done["j"] == pytest.approx(2.5)
    assert vm.iowait == pytest.approx(0.5)


def test_default_offset_is_one_period(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("mysql")
    injector = LogFlushInjector(sim, vm, period=10.0, duration=0.2).start()
    sim.run(until=25.0)
    assert injector.flush_times == [10.0, 20.0]


def test_start_idempotent(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("mysql")
    injector = LogFlushInjector(sim, vm, period=10.0, duration=0.2)
    injector.start()
    injector.start()
    sim.run(until=15.0)
    assert injector.flush_times == [10.0]


def test_flush_validation(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("mysql")
    with pytest.raises(ValueError):
        LogFlushInjector(sim, vm, period=0)
    with pytest.raises(ValueError):
        LogFlushInjector(sim, vm, duration=0)
    with pytest.raises(ValueError):
        LogFlushInjector(sim, vm, period=1.0, duration=2.0)


# ----------------------------------------------------------------------
# GC pauses (memory millibottlenecks)
# ----------------------------------------------------------------------
def test_gc_pauses_freeze_the_vm(sim):
    from repro.injectors import GcPauseInjector

    host = Host(sim, cores=1)
    vm = host.add_vm("tomcat")
    injector = GcPauseInjector(sim, vm, period=5.0, min_pause=0.2,
                               max_pause=0.4).start()
    vm.execute(50.0)  # keep the VM busy so iowait accrues during pauses
    sim.run(until=60.0)
    host.settle()
    assert injector.pauses, "no GC pauses occurred"
    total = sum(duration for _t, duration in injector.pauses
                if _t + duration <= 60.0)
    assert vm.iowait == pytest.approx(total, rel=0.1)
    for _t, duration in injector.pauses:
        assert 0.2 <= duration <= 0.4


def test_gc_pause_gaps_roughly_exponential(sim):
    from repro.injectors import GcPauseInjector

    host = Host(sim, cores=1)
    vm = host.add_vm("tomcat")
    injector = GcPauseInjector(sim, vm, period=2.0, min_pause=0.05,
                               max_pause=0.06).start()
    sim.run(until=2000.0)
    starts = [t for t, _d in injector.pauses]
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(2.0, rel=0.15)


def test_gc_validation(sim):
    from repro.injectors import GcPauseInjector

    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    with pytest.raises(ValueError):
        GcPauseInjector(sim, vm, period=0)
    with pytest.raises(ValueError):
        GcPauseInjector(sim, vm, min_pause=0.5, max_pause=0.2)
    with pytest.raises(ValueError):
        GcPauseInjector(sim, vm, period=1.0, max_pause=1.5)


def test_gc_determinism(sim):
    from repro.injectors import GcPauseInjector

    def run_once():
        s = Simulator(seed=77)
        host = Host(s, cores=1)
        vm = host.add_vm("vm")
        injector = GcPauseInjector(s, vm, period=3.0).start()
        s.run(until=100.0)
        return injector.pauses

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# network jams
# ----------------------------------------------------------------------
def test_netjam_holds_then_releases_packets(sim):
    from repro.injectors import NetworkJamInjector
    from repro.net import NetworkFabric

    fabric = NetworkFabric(sim, latency=0.0)
    listener = fabric.listener("srv", backlog=100)
    injector = NetworkJamInjector(sim, listener, period=10.0,
                                  duration=1.0, offset=2.0).start()

    def trickle():
        for i in range(30):
            fabric.send(listener, i)
            yield 0.1

    sim.process(trickle())
    sim.run(until=2.5)
    assert injector.held_packets > 0        # jam active, packets parked
    assert listener.backlog_length < 25
    sim.run(until=4.0)
    assert injector.held_packets == 0       # released
    assert listener.backlog_length == 30    # all arrived, none lost
    assert listener.drops == 0


def test_netjam_release_burst_can_overflow_and_retransmit(sim):
    """A network stall converts a trickle into a burst: packets dropped
    on release are retransmitted like any other drop."""
    from repro.injectors import NetworkJamInjector
    from repro.net import NetworkFabric

    fabric = NetworkFabric(sim, latency=0.0, rto=3.0)
    listener = fabric.listener("srv", backlog=5)
    NetworkJamInjector(sim, listener, period=100.0, duration=1.0,
                       offset=1.0).start()

    def trickle():
        for i in range(20):
            fabric.send(listener, i)
            yield 0.05  # well within the backlog's pace un-jammed

    sim.process(trickle())
    sim.run(until=2.5)
    assert listener.drops > 0               # the release burst overflowed
    # the dropped packets come back ~3 s later (retransmission)
    before = listener.delivered
    sim.run(until=6.0)
    for _ in range(listener.backlog_length):
        listener.try_accept()
    sim.run(until=8.0)
    assert listener.delivered > before      # retransmissions arrived


def test_netjam_validation(sim):
    from repro.injectors import NetworkJamInjector
    from repro.net import NetworkFabric

    fabric = NetworkFabric(sim)
    listener = fabric.listener("srv")
    with pytest.raises(ValueError):
        NetworkJamInjector(sim, listener, period=0)
    with pytest.raises(ValueError):
        NetworkJamInjector(sim, listener, period=1.0, duration=2.0)
