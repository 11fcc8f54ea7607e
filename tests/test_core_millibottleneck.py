"""Unit tests for millibottleneck detection
(repro.metrics.detector.detect_millibottlenecks and the report line of
a millibottleneck episode)."""

from types import SimpleNamespace

import pytest

from repro.cpu import Host
from repro.metrics import SystemMonitor, TimeSeries
from repro.metrics.detector import (
    Episode,
    describe_millibottleneck,
    detect_millibottlenecks,
)
from repro.sim import Simulator


def series_from(pairs):
    ts = TimeSeries("cpu")
    for t, v in pairs:
        ts.append(t, v)
    return ts


def cpu_monitor(ts, vm):
    """A monitor-shaped object watching one VM's CPU series."""
    return SimpleNamespace(cpu={vm: ts}, iowait={})


def test_detects_saturation_episode():
    ts = series_from([(0.0, 0.5), (0.05, 0.99), (0.10, 1.0), (0.15, 0.98),
                      (0.20, 0.4)])
    episodes = detect_millibottlenecks(cpu_monitor(ts, "tomcat-vm"))
    assert len(episodes) == 1
    episode = episodes[0]
    assert episode.resource == "tomcat-vm"
    assert episode.kind == "cpu"
    assert episode.start == pytest.approx(0.05)
    assert episode.end == pytest.approx(0.20)
    assert episode.duration == pytest.approx(0.15)


def test_short_blips_filtered():
    ts = series_from([(0.0, 0.5), (0.05, 1.0), (0.10, 0.5)])
    assert detect_millibottlenecks(cpu_monitor(ts, "vm"),
                                   min_duration=0.06) == []


def test_persistent_bottleneck_excluded_by_max_duration():
    pairs = [(0.05 * i, 1.0) for i in range(100)]  # 5 s of saturation
    ts = series_from([(0.0, 0.5)] + pairs[1:])
    assert detect_millibottlenecks(cpu_monitor(ts, "vm"),
                                   max_duration=2.5) == []


def test_multiple_episodes():
    ts = series_from([(0.0, 0.5), (1.0, 1.0), (1.2, 0.5),
                      (5.0, 1.0), (5.3, 0.5)])
    episodes = detect_millibottlenecks(cpu_monitor(ts, "vm"))
    assert [(e.start, e.end) for e in episodes] == [(1.0, 1.2), (5.0, 5.3)]


def test_threshold_validation():
    monitor = cpu_monitor(series_from([(0.0, 0.5)]), "vm")
    with pytest.raises(ValueError):
        detect_millibottlenecks(monitor, threshold=0)
    with pytest.raises(ValueError):
        detect_millibottlenecks(monitor, threshold=1.5)


def test_overlaps():
    episode = Episode("vm", "cpu", 1.0, 1.5, peak=1.0, threshold=0.95)
    assert episode.overlaps(1.2, 2.0)
    assert episode.overlaps(0.0, 1.1)
    assert not episode.overlaps(1.5, 2.0)
    assert not episode.overlaps(0.0, 1.0)


def test_find_all_combines_cpu_and_io():
    sim = Simulator(seed=1)
    host = Host(sim, cores=1)
    vm = host.add_vm("mysql-vm")
    monitor = SystemMonitor(sim, interval=0.05).watch_vm("mysql-vm", vm)
    monitor.start()

    def load():
        # CPU saturation [1.0, 1.5]: continuous demand from two jobs
        yield 1.0
        vm.execute(0.25)
        vm.execute(0.25)
        # I/O freeze [3.0, 3.4] with a job pending so iowait accrues
        yield 2.0
        vm.execute(0.2)
        vm.freeze(0.4)

    sim.process(load())
    sim.run(until=5.0)
    episodes = detect_millibottlenecks(monitor, threshold=0.9,
                                       min_duration=0.1)
    kinds = {(e.kind, e.resource) for e in episodes}
    assert ("cpu", "mysql-vm") in kinds
    assert ("io", "mysql-vm") in kinds
    assert episodes == sorted(episodes, key=lambda e: (e.start, e.resource))


def test_str_mentions_duration():
    episode = Episode("tomcat-vm", "cpu", 2.0, 2.35, peak=1.0,
                      threshold=0.95)
    text = describe_millibottleneck(episode)
    assert "tomcat-vm" in text and "350 ms" in text
    assert text == "cpu-millibottleneck on tomcat-vm [2.00s, 2.35s] (350 ms)"
