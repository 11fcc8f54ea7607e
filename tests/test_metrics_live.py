"""Tests for live telemetry (repro.metrics.live) and its CLI surface.

Covers: heartbeat cadence and schema, JSONL sinks, the process-global
``configure()`` hand-off, result-invariance with live mode on (the
observability layer must not change what the run computes), the
``repro watch`` renderer and subcommand, the runner's ``params["live"]``
stripping, and the Perfetto export's live tracks (pid 4).
"""

import io
import json

import pytest

from repro.cli import main
from repro.core import Scenario
from repro.metrics import live
from repro.metrics.detector import Episode
from repro.metrics.export import chrome_trace_events
from repro.metrics.live import LiveConfig, LiveTelemetry, render_heartbeats
from repro.metrics.window import LatencyWindows
from repro.topology import SystemConfig

from conftest import tiny_mix


def tiny_config(**overrides):
    defaults = dict(
        nx=0, seed=11,
        web_threads=8, app_threads=8, db_threads=4,
        web_backlog=4, app_backlog=4, db_backlog=4,
        db_pool_size=4, web_spawn_extra_process=False,
        interaction_specs=tiny_mix(stochastic=True),
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def live_run(sink=None, interval=1.0, sample_rate=None, **kwargs):
    config = LiveConfig(interval=interval, sink=sink, label="tiny",
                        sample_rate=sample_rate, trace_budget=500)
    scenario = Scenario(tiny_config(), clients=60, think_mean=1.0,
                        duration=10.0, warmup=2.0, live=config, **kwargs)
    return scenario.run()


# ----------------------------------------------------------------------
# heartbeats
# ----------------------------------------------------------------------
def test_heartbeat_cadence_and_final_beat():
    result = live_run(interval=1.0)
    telemetry = result.telemetry
    assert telemetry is not None
    beats = telemetry.heartbeats
    # one beat per simulated second (10 s run), plus the final flush
    assert 8 <= len(beats) <= 12
    assert all(not b["final"] for b in beats[:-1])
    assert beats[-1]["final"]
    times = [b["sim_time"] for b in beats]
    assert times == sorted(times)


def test_heartbeat_schema():
    result = live_run(interval=2.0, sample_rate=0.5)
    beat = result.telemetry.heartbeats[-1]
    for key in ("sim_time", "label", "final", "throughput_rps", "tiers",
                "kinds", "open_episodes", "episodes_closed", "requests",
                "drops", "sheds", "completed", "failed", "retries",
                "hedges", "traces", "overhead"):
        assert key in beat, key
    assert beat["label"] == "tiny"
    # per-tier rolling percentiles for every tier of the nx=0 stack
    assert set(beat["tiers"]) <= {"apache", "tomcat", "mysql"}
    for cell in beat["tiers"].values():
        assert set(cell) == {"count", "p50_ms", "p99_ms", "p999_ms"}
        assert cell["p50_ms"] <= cell["p99_ms"] <= cell["p999_ms"]
    # per-kind windows come from the request-log observer
    assert set(beat["kinds"]) <= {s.name for s in tiny_mix()}
    overhead = beat["overhead"]
    assert overhead["window_observations"] > 0
    assert 0.0 <= overhead["wall_share"] <= 1.0
    traces = beat["traces"]
    assert traces["budget"] == 500
    assert traces["considered"] > 0


def test_heartbeats_write_jsonl_to_sink():
    sink = io.StringIO()
    result = live_run(sink=sink, interval=2.0)
    lines = [l for l in sink.getvalue().splitlines() if l.strip()]
    assert len(lines) == len(result.telemetry.heartbeats)
    parsed = [json.loads(line) for line in lines]
    assert parsed[-1]["final"]
    # sink lines and in-memory beats are the same objects
    assert parsed == json.loads(json.dumps(result.telemetry.heartbeats))


def test_live_mode_does_not_change_results():
    # the whole point of the hook design: attaching telemetry draws no
    # randomness and schedules no events, so the run's outcome —
    # request count, per-request timings, drops — is unchanged
    plain = Scenario(tiny_config(), clients=60, think_mean=1.0,
                     duration=10.0, warmup=2.0).run()
    watched = live_run(interval=1.0)
    def signature(result):
        return [
            (r.kind, r.start, r.end, r.attempts, r.failed)
            for r in result.log.records
        ]
    assert signature(plain) == signature(watched)
    assert plain.summary() == watched.summary()


def test_configure_active_reset():
    assert live.active() is None
    config = live.configure(interval=3.0, label="x")
    assert live.active() is config
    assert config.interval == 3.0
    live.reset()
    assert live.active() is None
    with pytest.raises(ValueError):
        live.configure(interval=0.0)


def test_scenario_picks_up_configured_live_mode():
    live.configure(interval=2.0, label="ambient")
    try:
        result = Scenario(tiny_config(), clients=30, think_mean=1.0,
                          duration=6.0, warmup=1.0).run()
        assert result.telemetry is not None
        assert result.telemetry.heartbeats[-1]["label"] == "ambient"
    finally:
        live.reset()
    # with nothing configured, runs carry no telemetry
    result = Scenario(tiny_config(), clients=30, think_mean=1.0,
                      duration=6.0, warmup=1.0).run()
    assert result.telemetry is None


def test_telemetry_validation_and_double_attach():
    with pytest.raises(ValueError):
        LiveTelemetry(sim=None, interval=0.0)
    result = live_run()
    telemetry = result.telemetry
    with pytest.raises(RuntimeError):
        telemetry.attach(result.system, result.monitor)
    # finish() is idempotent
    beats = len(telemetry.heartbeats)
    telemetry.finish()
    assert len(telemetry.heartbeats) == beats


# ----------------------------------------------------------------------
# rendering + `repro watch`
# ----------------------------------------------------------------------
def synthetic_beats():
    return [
        {
            "sim_time": 1.0, "label": "t", "final": False,
            "throughput_rps": 100.0,
            "tiers": {"tomcat": {"count": 10, "p50_ms": 1.0,
                                 "p99_ms": 9.5, "p999_ms": 12.0}},
            "kinds": {}, "open_episodes": [], "episodes_closed": 0,
            "requests": 100, "drops": 0, "sheds": 0, "completed": 98,
            "failed": 0, "retries": 0, "hedges": 0,
            "overhead": {"window_observations": 123,
                         "events_published": 0, "bytes_retained": 0,
                         "wall_share": 0.01},
        },
        {
            "sim_time": 2.0, "label": "t", "final": True,
            "throughput_rps": 90.0,
            "tiers": {}, "kinds": {},
            "open_episodes": [{"resource": "tomcat", "kind": "cpu",
                               "start": 1.4, "age_s": 0.6, "peak": 1.0}],
            "episodes_closed": 2,
            "requests": 190, "drops": 3, "sheds": 1, "completed": 185,
            "failed": 1, "retries": 2, "hedges": 0,
            "traces": {"considered": 190, "sampled_normal": 4,
                       "kept_anomalous": 2, "retained": 6, "budget": 10,
                       "evicted_normal": 1, "evicted_anomalous": 0,
                       "retained_events": 60},
            "overhead": {"window_observations": 500,
                         "events_published": 7, "bytes_retained": 7200,
                         "wall_share": 0.02},
        },
    ]


def test_render_heartbeats():
    out = render_heartbeats(synthetic_beats())
    assert "tomcat:10ms" in out            # p99 rounded to ms
    assert "cpu@tomcat(0.6s)" in out       # open episode with age
    assert "500 window folds" in out
    assert "2.0% wall" in out
    assert render_heartbeats([]) == "no heartbeats"
    # tail keeps only the newest beats
    tailed = render_heartbeats(synthetic_beats(), tail=1)
    assert "tomcat:10ms" not in tailed


def test_watch_subcommand(tmp_path, capsys):
    path = tmp_path / "beats.jsonl"
    with open(path, "w") as handle:
        for beat in synthetic_beats():
            handle.write(json.dumps(beat) + "\n")
    assert main(["watch", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cpu@tomcat" in out
    assert main(["watch", str(path), "--tail", "1"]) == 0
    assert "tomcat:10ms" not in capsys.readouterr().out
    # label filtering
    assert main(["watch", str(path), "--label", "t"]) == 0
    capsys.readouterr()
    assert main(["watch", str(path), "--label", "nope"]) == 1
    assert "no heartbeats labeled" in capsys.readouterr().err


def test_watch_rejects_missing_or_malformed_files(tmp_path, capsys):
    assert main(["watch", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read" in capsys.readouterr().err
    # mid-file corruption is still an error; a torn *final* line is
    # tolerated (a live writer may be mid-heartbeat — see test_cli.py)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('not json\n{"sim_time": 1.0}\n')
    assert main(["watch", str(bad)]) == 2
    assert "not heartbeat JSONL" in capsys.readouterr().err


def test_run_parser_accepts_live_flags():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["run", "fig03", "--live"])
    assert args.live == 1.0                 # bare flag: default interval
    args = parser.parse_args(["run", "fig03", "--live", "5",
                              "--sample-rate", "0.01",
                              "--trace-budget", "100"])
    assert args.live == 5.0
    assert args.sample_rate == 0.01
    assert args.trace_budget == 100
    args = parser.parse_args(["run-all", "--jobs", "validation", "--live",
                              "--live-out", "x.jsonl"])
    assert args.live == 1.0 and args.live_out == "x.jsonl"
    # without --live nothing is configured
    args = parser.parse_args(["run", "fig03"])
    assert args.live is None


# ----------------------------------------------------------------------
# runner integration: params["live"] is observation-only
# ----------------------------------------------------------------------
SELFTEST = "repro.experiments._selftest:run_experiment"


def test_job_id_excludes_live_param():
    from repro.experiments.runner import JobConfig, job_id

    plain = JobConfig(name="x", seed=5, params={"a": 1})
    watched = JobConfig(name="x", seed=5,
                        params={"a": 1, "live": {"interval": 1.0}})
    assert job_id(plain) == job_id(watched) == "x[a=1]@s5"


def test_execute_job_strips_live_spec(tmp_path):
    from repro.experiments.runner import JobConfig, execute_job

    out = str(tmp_path / "beats.jsonl")
    plain = execute_job(JobConfig(name="selftest", seed=9, entry=SELFTEST,
                                  params={"mode": "ok"}))
    watched = execute_job(JobConfig(
        name="selftest", seed=9, entry=SELFTEST,
        params={"mode": "ok", "live": {"interval": 1.0, "out": out}},
    ))
    # records byte-identical: same job id, same params, same payload
    assert watched == plain
    assert "live" not in watched["params"]
    # the configured live mode was reset after the job
    assert live.active() is None


# ----------------------------------------------------------------------
# Perfetto export: live tracks on pid 4
# ----------------------------------------------------------------------
def test_chrome_trace_live_tracks():
    windows = LatencyWindows(width=0.25, depth=2)
    windows.observe("tier:tomcat", 0.1, 0.010)
    windows.observe("tier:tomcat", 0.6, 0.020)
    episodes = [
        Episode("tomcat", "cpu", 1.0, 1.4, 1.0, 0.95),
        Episode("mysql", "io", 2.0, 2.2, 0.99, 0.95),
        Episode("tomcat", "cpu", 3.0, 3.3, 0.98, 0.95),
    ]
    events = chrome_trace_events(windows=windows, episodes=episodes)
    live_events = [e for e in events if e.get("pid") == 4]
    assert any(e.get("name") == "process_name" for e in live_events)
    counters = [e for e in live_events if e.get("ph") == "C"]
    assert [c["name"] for c in counters] == ["p99:tier:tomcat"] * 2
    assert counters[0]["args"]["value"] == pytest.approx(10.0)  # ms
    spans = [e for e in live_events if e.get("ph") == "X"]
    assert len(spans) == 3
    assert spans[0]["dur"] == pytest.approx(0.4e6)
    # one named slice track per resource
    names = [e for e in live_events
             if e.get("name") == "thread_name"]
    assert {n["args"]["name"] for n in names} == {"episodes:tomcat",
                                                  "episodes:mysql"}
    # both tomcat episodes share a tid; mysql has its own
    tomcat_tids = {s["tid"] for s in spans if "tomcat" in s["name"]}
    mysql_tids = {s["tid"] for s in spans if "mysql" in s["name"]}
    assert len(tomcat_tids) == 1 and len(mysql_tids) == 1
    assert tomcat_tids != mysql_tids
    # without live tracks, no pid-4 events appear at all
    assert not [e for e in chrome_trace_events() if e.get("pid") == 4]


def _fanout_cell(**overrides):
    from repro.experiments import fanout

    return fanout.run_one("sync", clients=700, n=4, duration=6.0,
                          warmup=1.0, **overrides)


def test_live_fanout_cell_writes_heartbeats_with_leaf_tiers():
    """A run that builds its own system picks up the configured live
    mode too: a fan-out cell writes heartbeats carrying its leaf tiers,
    while the cell (its RunResult aside) equals the cell run without
    live mode: the leaf observer and the telemetry's share the
    server's one observer slot."""
    plain = _fanout_cell()
    sink = io.StringIO()
    live.configure(interval=1.0, sink=sink, label="fanout")
    try:
        watched = _fanout_cell()
    finally:
        live.reset()
    beats = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert len(beats) >= 6
    assert beats[-1]["final"]
    assert {"root", "leaf1", "leaf4"} <= set(beats[-1]["tiers"])
    assert watched["result"].telemetry.heartbeats == beats
    assert plain["result"].telemetry is None

    def cell(out):
        return {key: value for key, value in out.items() if key != "result"}

    assert cell(watched) == cell(plain)
    assert watched["leaf_samples"] > 0


#: a short run of each experiment whose cells build their own system
#: (the fan-out cell has its own test above)
_BUILT_SYSTEM_RUNS = {
    "cache_storage": lambda module: module.run(
        duration=6.0, clients=1400, variants=["storm"]),
    "deep_chain": lambda module: module.run(depths=[3], duration=4.0),
    "replication": lambda module: [
        module.run_one(replicas=2, clients=2000, duration=7.0)],
    "fig02": lambda module: module.run(duration=7.0),
}


def _run_results(cells):
    """Every RunResult held in an experiment's (nested) cells."""
    from repro.core.evaluation import RunResult

    if isinstance(cells, RunResult):
        yield cells
    elif isinstance(cells, dict):
        for value in cells.values():
            yield from _run_results(value)
    elif isinstance(cells, list):
        for value in cells:
            yield from _run_results(value)


@pytest.mark.parametrize("name", sorted(_BUILT_SYSTEM_RUNS))
def test_live_cells_write_heartbeats_and_keep_their_record(name):
    """Every cell of an experiment that builds its own system keeps its
    RunResult and picks the configured live mode up through the one
    run lifecycle: each run's telemetry emits heartbeats to the sink,
    and the experiment's record equals the unwatched run's."""
    from repro.experiments.runner import experiment

    module = experiment(name)
    plain = _BUILT_SYSTEM_RUNS[name](module)
    sink = io.StringIO()
    live.configure(interval=1.0, sink=sink, label=name)
    try:
        watched = _BUILT_SYSTEM_RUNS[name](module)
    finally:
        live.reset()
    beats = [json.loads(line) for line in sink.getvalue().splitlines()]
    runs = list(_run_results(watched))
    assert runs
    for run in runs:
        assert len(run.telemetry.heartbeats) >= 3
        assert run.telemetry.heartbeats[-1]["final"]
    assert [beat for run in runs for beat in run.telemetry.heartbeats] == beats
    assert all(run.telemetry is None for run in _run_results(plain))
    assert module.record(watched) == module.record(plain)


def test_live_sampler_reaches_the_client_of_a_built_system():
    """``--sample-rate`` decides trace keeping for every client the
    configured telemetry is attached to, the graph client included."""
    live.configure(interval=1.0, sample_rate=0.5, trace_budget=100)
    try:
        cell = _fanout_cell()
    finally:
        live.reset()
    counters = cell["result"].telemetry.sampler.counters()
    assert counters["considered"] == len(cell["result"].system.log) > 0
    assert counters["retained"] > 0
