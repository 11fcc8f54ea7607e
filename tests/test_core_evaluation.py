"""Tests for the scenario runner and NX sweep (repro.core.evaluation)."""

import ast

import pytest

from repro.core import Scenario, nx_sweep
from repro.metrics.detector import overflow_episodes, overflow_gauge
from repro.metrics.live import LiveConfig
from repro.topology import SystemConfig

from conftest import tiny_mix


def tiny_config(nx=0, **overrides):
    defaults = dict(
        nx=nx, seed=11,
        web_threads=8, app_threads=8, db_threads=4,
        web_backlog=4, app_backlog=4, db_backlog=4,
        db_pool_size=4, web_spawn_extra_process=False,
        lite_q_depth=64, xtomcat_workers=8,
        xmysql_slots=2, xmysql_queue=32,
        interaction_specs=tiny_mix(stochastic=True),
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def tiny_scenario(nx=0, **kwargs):
    return Scenario(tiny_config(nx=nx), clients=60, think_mean=1.0,
                    duration=10.0, warmup=2.0, **kwargs)


def test_plain_scenario_runs_clean():
    result = tiny_scenario().run()
    summary = result.summary()
    assert summary["requests"] > 200
    assert summary["failed"] == 0
    assert result.dropped_packets == 0
    # closed loop: X ~ N/(Z+R) ~ 60 req/s
    assert summary["throughput_rps"] == pytest.approx(60, rel=0.2)


def test_warmup_excluded_from_log():
    result = tiny_scenario().run()
    assert all(r.start >= 2.0 for r in result.log.records)


def test_duration_must_exceed_warmup():
    with pytest.raises(ValueError):
        Scenario(tiny_config(), duration=5.0, warmup=5.0)


def test_consolidation_requires_exactly_one_trigger():
    scenario = tiny_scenario()
    with pytest.raises(ValueError):
        scenario.with_consolidation("app")
    with pytest.raises(ValueError):
        scenario.with_consolidation("app", times=[1.0], period=5.0)


def test_consolidation_produces_drops_on_tiny_sync_system():
    result = (
        tiny_scenario()
        .with_consolidation("app", times=[4.0, 7.0], burst_cpu=2.0,
                            burst_jobs=40, shares=200.0)
        .run()
    )
    assert result.dropped_packets > 0
    assert result.drops["apache"] > 0  # upstream CTQO
    assert len(result.injectors) == 1
    assert result.injectors[0].burst_times == [4.0, 7.0]


def test_consolidation_antagonist_monitored():
    result = (
        tiny_scenario()
        .with_consolidation("app", times=[4.0])
        .run()
    )
    assert "sysbursty-mysql" in result.monitor.cpu


def test_log_flush_scenario():
    result = (
        tiny_scenario()
        .with_log_flush("db", period=4.0, duration=0.5, offset=3.0)
        .run()
    )
    assert result.injectors[0].flush_times == [3.0, 7.0]
    iowait = result.iowait_series("db")
    assert iowait.max() == pytest.approx(1.0)


def test_run_result_accessors():
    result = tiny_scenario().run()
    assert set(result.queue_max()) == {"apache", "tomcat", "mysql"}
    assert 0 < result.highest_avg_cpu() <= 1.0
    assert result.cpu_series("app") is result.monitor.cpu["tomcat"]
    assert result.measured_duration == pytest.approx(8.0)


def test_millibottleneck_detection_from_run():
    result = (
        tiny_scenario()
        .with_log_flush("db", period=4.0, duration=0.5, offset=3.0)
        .run()
    )
    episodes = result.millibottlenecks(threshold=0.9, min_duration=0.2)
    io_episodes = [e for e in episodes if e.kind == "io"]
    assert len(io_episodes) == 2
    assert io_episodes[0].resource == "mysql"


def test_ctqo_events_classified_from_run():
    result = (
        tiny_scenario()
        .with_consolidation("app", times=[4.0, 7.0], burst_cpu=2.0,
                            burst_jobs=40, shares=200.0)
        .run()
    )
    events = result.ctqo_events(threshold=0.9, min_duration=0.2)
    upstream = [e for e in events if e.direction == "upstream"]
    assert upstream, f"no upstream CTQO events in {events}"
    assert upstream[0].dropping_server == "apache"


@pytest.mark.parametrize("live", [None, LiveConfig()])
def test_zero_length_accept_queue_is_analysed(live):
    # a listener may have backlog=0: there is no accept queue to
    # segment, so the overflow gauge falls back to the whole-server
    # MaxSysQDepth series, in the attribution and in live mode alike
    result = (
        Scenario(tiny_config(web_backlog=0), clients=60, think_mean=1.0,
                 duration=10.0, warmup=2.0, live=live)
        .with_consolidation("app", times=[4.0, 7.0], burst_cpu=2.0,
                            burst_jobs=40, shares=200.0)
        .run()
    )
    monitor = result.monitor
    server = dict(result.system.server_items())["apache"]
    series, capacity = overflow_gauge(monitor, "apache", server)
    assert series is monitor.queues["apache"]
    assert capacity == server.max_sys_q_depth
    assert result.drops["apache"] > 0
    report = result.attribution()
    assert report.chains and report.coverage == 1.0
    assert set(report.drop_sites()) == {"apache"}
    if live is not None:
        assert result.telemetry.detector.overflow()["apache"] == \
            overflow_episodes(series, capacity, name="apache")


def test_nx_sweep_runs_all_levels():
    results = nx_sweep(
        lambda nx: tiny_scenario(nx=nx).with_consolidation(
            "app", times=[4.0], burst_cpu=2.0, burst_jobs=40, shares=200.0
        ),
        levels=(0, 3),
    )
    assert set(results) == {0, 3}
    assert results[0].config.nx == 0
    assert results[3].config.nx == 3
    # the paper's punchline on a tiny system: sync drops, async does not
    assert results[0].dropped_packets > 0
    assert results[3].dropped_packets == 0


def test_gc_pause_scenario_wiring():
    result = (
        tiny_scenario()
        .with_gc_pauses("app", period=3.0, min_pause=0.3, max_pause=0.5)
        .run()
    )
    injector = result.injectors[0]
    assert injector.pauses, "no GC pauses fired"
    assert result.iowait_series("app").max() == pytest.approx(1.0)


def test_network_jam_scenario_wiring():
    result = (
        tiny_scenario()
        .with_network_jam("app", period=4.0, duration=0.5, offset=3.0)
        .run()
    )
    injector = result.injectors[0]
    assert injector.jam_times == [3.0, 7.0]
    assert injector.held_packets == 0  # all released by the end


def _lifecycle_step(call):
    """The name of the run-lifecycle step ``call`` performs, if any:
    running the simulator to a horizon, attaching the configured live
    telemetry, or finishing it."""
    func = call.func
    name = func.attr if hasattr(func, "attr") else getattr(func, "id", "")
    if name == "run" and any(k.arg == "until" for k in call.keywords):
        return "run(until=)"
    if name == "attach_configured":
        return name
    if name == "finish" and "telemetry" in ast.unparse(func):
        return "telemetry.finish()"
    return None


def test_simulate_is_the_only_run_lifecycle():
    """In the entry layer (``repro.core``, ``repro.experiments``) only
    :func:`~repro.core.evaluation.simulate` runs a simulator to its
    horizon, attaches the configured live telemetry or finishes it:
    every simulated run takes the one lifecycle."""
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    steps = {}
    for package in ("core", "experiments"):
        for path in sorted((root / package).glob("*.py")):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and _lifecycle_step(node):
                        steps.setdefault(
                            f"{package}/{path.name}:{func.name}", set()
                        ).add(_lifecycle_step(node))
    assert steps == {"core/evaluation.py:simulate": {
        "run(until=)", "attach_configured", "telemetry.finish()",
    }}
