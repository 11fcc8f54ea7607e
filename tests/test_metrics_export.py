"""Unit tests for exporters (repro.metrics.export)."""

import csv
import json

import pytest

from repro.metrics import (
    RequestLog,
    RequestRecord,
    TimeSeries,
    chrome_trace_to_json,
    events_to_jsonl,
    request_log_to_csv,
    run_summary_to_json,
    timeseries_to_csv,
)
from repro.core import Scenario
from repro.servers import TierPolicy
from repro.topology import SystemConfig


def make_series(name, pairs):
    ts = TimeSeries(name)
    for t, v in pairs:
        ts.append(t, v)
    return ts


# ----------------------------------------------------------------------
# time series CSV
# ----------------------------------------------------------------------
def test_timeseries_csv_roundtrip(tmp_path):
    path = tmp_path / "series.csv"
    a = make_series("cpu", [(0.05, 0.5), (0.10, 0.7)])
    b = make_series("queue", [(0.05, 12), (0.10, 278)])
    timeseries_to_csv(path, {"cpu": a, "queue": b})
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["time_s", "cpu", "queue"]
    assert rows[1] == ["0.050000", "0.5", "12"]
    assert rows[2] == ["0.100000", "0.7", "278"]


def test_timeseries_csv_rejects_misaligned(tmp_path):
    a = make_series("a", [(0.05, 1)])
    b = make_series("b", [(0.06, 2)])
    with pytest.raises(ValueError):
        timeseries_to_csv(tmp_path / "x.csv", {"a": a, "b": b})


def test_timeseries_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        timeseries_to_csv(tmp_path / "x.csv", {})


# ----------------------------------------------------------------------
# request log CSV
# ----------------------------------------------------------------------
def test_request_log_csv(tmp_path):
    log = RequestLog()
    log.add(RequestRecord(1, "ViewStory", 1.0, 1.005))
    log.add(RequestRecord(2, "ViewStory", 2.0, 5.2,
                          attempts=2, drops=[(2.0, "apache")],
                          failed=False))
    path = tmp_path / "requests.csv"
    request_log_to_csv(path, log)
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert rows[0]["kind"] == "ViewStory"
    assert float(rows[0]["response_time_s"]) == pytest.approx(0.005)
    assert rows[1]["drop_sites"] == "apache"
    assert rows[1]["attempts"] == "2"


# ----------------------------------------------------------------------
# run summary JSON
# ----------------------------------------------------------------------
def test_run_summary_json(tmp_path):
    import sys
    sys.path.insert(0, "tests")
    from test_core_evaluation import tiny_scenario

    result = (
        tiny_scenario()
        .with_log_flush("db", period=4.0, duration=0.5, offset=3.0)
        .run()
    )
    path = tmp_path / "summary.json"
    run_summary_to_json(path, result)
    payload = json.loads(path.read_text())
    assert payload["config"]["nx"] == 0
    assert payload["config"]["stack"]["db"] == "mysql"
    assert payload["summary"]["requests"] > 0
    assert any(
        episode["kind"] == "io" for episode in payload["millibottlenecks"]
    )
    # JSON must be fully serializable (no numpy scalars sneaking in)
    json.dumps(payload)


@pytest.mark.parametrize("overrides, depths", [
    ({"nx": 3}, [65663, 65663, 2128]),
    ({"app_policy": TierPolicy.sync(threads=200)}, [278, 328, 228]),
], ids=["nx3", "app_threads200"])
def test_run_summary_echoes_each_built_servers_max_sys_q_depth(
        tmp_path, overrides, depths):
    """The echo is each tier's built server's MaxSysQDepth, for an
    event-loop stack and a policy override alike, not threads +
    backlog."""
    result = Scenario(SystemConfig(seed=1, **overrides), clients=20,
                      duration=1.0, warmup=0.2).run()
    path = tmp_path / "summary.json"
    run_summary_to_json(path, result)
    echo = json.loads(path.read_text())["config"]
    tiers = ("web", "app", "db")
    assert [echo[f"{tier}_max_sys_q_depth"] for tier in tiers] == depths
    assert depths == [result.system.servers[tier].max_sys_q_depth
                      for tier in tiers]


# ----------------------------------------------------------------------
# Chrome trace JSON + JSONL event log
# ----------------------------------------------------------------------
class FakeRecorder:
    def __init__(self, events):
        self.events = list(events)
        self.recorded = len(self.events)


def traced_log():
    log = RequestLog()
    log.add(RequestRecord(
        7, "ViewStory", 10.0, 13.01,
        drops=[(10.0, "apache")],
        trace=[
            (10.0, "drop", "apache"),
            (13.0, "start", "apache"),
            (13.005, "start", "tomcat"),
            (13.008, "reply", "tomcat"),
            (13.01, "reply", "apache"),
        ],
    ))
    log.add(RequestRecord(8, "StaticContent", 10.5, 10.505))  # no trace
    return log


def test_chrome_trace_counters_spans_and_instants(tmp_path):
    class FakeMonitor:
        cpu = {"tomcat": make_series("cpu:tomcat", [(0.05, 0.5)])}
        host_cpu = {}
        iowait = {}
        queues = {}
        occupancy = {}
        backlog = {"apache": make_series("backlog:apache", [(0.05, 120)])}
        headroom = {}

    recorder = FakeRecorder([
        (10.0, "net.drop", "apache", 1),
        (10.1, "cpu.alloc", "tomcat-vm", 0.5),
        (10.2, "queue.grant", "tomcat.pool", 3),   # not a trace instant
    ])
    path = tmp_path / "trace.json"
    chrome_trace_to_json(path, monitor=FakeMonitor(), log=traced_log(),
                         recorder=recorder)
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]

    process_names = {e["args"]["name"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
    assert process_names == {"gauges", "requests", "events"}

    counters = [e for e in events if e["ph"] == "C"]
    assert {"cpu:tomcat", "backlog:apache", "alloc:tomcat-vm"} == {
        e["name"] for e in counters
    }
    gauge = next(e for e in counters if e["name"] == "cpu:tomcat")
    assert gauge["ts"] == pytest.approx(50_000)   # 0.05 s in µs

    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"apache", "tomcat"}
    apache = next(e for e in spans if e["name"] == "apache")
    assert apache["dur"] == pytest.approx(10_000)  # 13.0 -> 13.01 s

    instants = [e for e in events if e["ph"] == "i"]
    names = {e["name"] for e in instants}
    assert "drop@apache" in names
    assert "net.drop@apache" in names
    assert not any("queue.grant" in n for n in names)


def test_chrome_trace_caps_request_tracks(tmp_path):
    log = RequestLog()
    for i in range(5):
        log.add(RequestRecord(
            i, "X", float(i), float(i) + 3.0,
            trace=[(float(i), "start", "apache"),
                   (float(i) + 3.0, "reply", "apache")],
        ))
    path = tmp_path / "trace.json"
    chrome_trace_to_json(path, log=log, max_request_traces=2)
    payload = json.loads(path.read_text())
    tids = {e["tid"] for e in payload["traceEvents"] if e["ph"] == "X"}
    assert tids == {0, 1}   # earliest-starting requests kept


def test_events_jsonl_round_trip(tmp_path):
    recorder = FakeRecorder([
        (1.5, "queue.enqueue", "tomcat.pool", 12),
        (2.0, "net.drop", "apache", 1),
    ])
    path = tmp_path / "events.jsonl"
    events_to_jsonl(path, recorder)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [
        {"t": 1.5, "kind": "queue.enqueue", "source": "tomcat.pool",
         "value": 12},
        {"t": 2.0, "kind": "net.drop", "source": "apache", "value": 1},
    ]
