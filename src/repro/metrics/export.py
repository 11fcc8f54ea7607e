"""Exporters: time series, request logs and event traces.

Experiments in this repository print their figures as text, but a
downstream user replotting with their own tooling needs the raw data.
These helpers write exactly what the figures are drawn from:

- one CSV per time-series bundle (a column per series, aligned on the
  shared sampling grid),
- one CSV of per-request records,
- one JSON document per run summary,
- one Chrome trace-event JSON per run (open in Perfetto / ``chrome://
  tracing``): monitor gauges as counter tracks, per-request server
  visits as spans, packet drops as instants,
- one JSONL event log per instrumented run (one bus event per line).
"""

from __future__ import annotations

import csv
import json

from .spans import server_spans

__all__ = [
    "chrome_trace_to_json",
    "events_to_jsonl",
    "request_log_to_csv",
    "run_summary_to_json",
    "timeseries_to_csv",
]


def timeseries_to_csv(path, series_by_name):
    """Write aligned time-series columns to ``path``.

    All series must share a sampling grid (which SystemMonitor series
    do); series with diverging time bases are rejected rather than
    silently resampled.
    """
    names = sorted(series_by_name)
    if not names:
        raise ValueError("no series given")
    base = series_by_name[names[0]]
    for name in names[1:]:
        other = series_by_name[name]
        if len(other) != len(base) or any(
            abs(a - b) > 1e-9 for a, b in zip(other.times, base.times)
        ):
            raise ValueError(
                f"series {name!r} is not aligned with {names[0]!r}; "
                "export them separately"
            )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s"] + names)
        for index, time in enumerate(base.times):
            writer.writerow(
                [f"{time:.6f}"]
                + [series_by_name[name].values[index] for name in names]
            )
    return path


def request_log_to_csv(path, log):
    """Write one row per request record to ``path``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "request_id", "kind", "start_s", "end_s", "response_time_s",
            "attempts", "drops", "drop_sites", "failed", "error",
        ])
        for record in log.records:
            writer.writerow([
                record.request_id,
                record.kind,
                f"{record.start:.6f}",
                f"{record.end:.6f}",
                f"{record.response_time:.6f}",
                record.attempts,
                len(record.drops),
                ";".join(site for _t, site in record.drops),
                int(record.failed),
                record.error or "",
            ])
    return path


def run_summary_to_json(path, result):
    """Write a RunResult's summary (plus config echo) as JSON.

    The echo's ``<tier>_max_sys_q_depth`` is the built server's
    MaxSysQDepth at the end of the run (of the tier's first replica),
    whatever server shape ``nx`` or a policy override gave it.
    """
    config = result.config
    if config is not None:
        servers = dict(result.system.server_items())
        config_echo = {
            "nx": config.nx,
            "seed": config.seed,
            "stack": result.names,
        }
        for tier, name in result.names.items():
            config_echo[f"{tier}_max_sys_q_depth"] = (
                servers[name].max_sys_q_depth
            )
    else:
        # a run of a built service graph carries no SystemConfig (see
        # RunResult.config): echo just the stack
        config_echo = {"stack": result.names}
    payload = {
        "config": config_echo,
        "duration_s": result.duration,
        "warmup_s": result.warmup,
        "summary": result.summary(),
        "queue_max": result.queue_max(),
        "cpu_mean": {k: round(v, 4) for k, v in result.cpu_mean().items()},
        "millibottlenecks": [
            {
                "resource": e.resource,
                "kind": e.kind,
                "start_s": round(e.start, 3),
                "duration_ms": round(e.duration * 1000, 1),
            }
            for e in result.millibottlenecks()
        ],
        "ctqo_events": [
            {
                "direction": e.direction,
                "dropping_server": e.dropping_server,
                "drops": e.drops,
                # only 503 events carry a cause, so drop-only runs keep
                # their summaries byte-identical
                **({"cause": e.cause} if e.cause == "shed" else {}),
            }
            for e in result.ctqo_events()
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path


# ----------------------------------------------------------------------
# event traces
# ----------------------------------------------------------------------
#: instrumentation-bus kinds rendered as instants in the Chrome trace —
#: the rare, diagnostic events.  Per-grant queue/store traffic (millions
#: of events per run) stays in the JSONL export.
_TRACE_INSTANT_KINDS = ("net.drop", "net.retransmit", "net.timeout")

_MONITOR_GAUGES = ("cpu", "host_cpu", "iowait", "queues",
                   "occupancy", "backlog", "headroom")


def chrome_trace_events(monitor=None, log=None, recorder=None,
                        max_request_traces=250, windows=None,
                        episodes=None):
    """Chrome trace-event dicts for a run (``ts``/``dur`` in µs).

    Four process tracks, any subset of which may be present:

    - ``gauges`` (pid 1) — every monitor series as a counter track,
    - ``requests`` (pid 2) — per-request server visits as complete
      spans (one thread per traced request) plus drop instants, for up
      to ``max_request_traces`` requests with kept traces,
    - ``events`` (pid 3) — rare bus events (drops, retransmissions,
      timeouts) as instants and CPU allocations as counter tracks,
    - ``live`` (pid 4) — the online observability layer: windowed p99
      series (a :class:`~repro.metrics.window.LatencyWindows`, one
      counter track per label, in ms) and detected episodes (a list of
      Episode-likes, one slice track per resource) — so the live view
      lines up against the post-hoc gauges in one timeline.
    """
    events = []

    def meta(pid, name):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})

    if monitor is not None:
        meta(1, "gauges")
        for group in _MONITOR_GAUGES:
            for name, series in getattr(monitor, group, {}).items():
                track = f"{group}:{name}"
                for time, value in zip(series.times, series.values):
                    events.append({
                        "name": track, "ph": "C", "ts": time * 1e6,
                        "pid": 1, "tid": 0, "args": {"value": value},
                    })

    if log is not None:
        meta(2, "requests")
        traced = [r for r in log.records if r.trace]
        traced.sort(key=lambda r: r.start)
        for record in traced[:max_request_traces]:
            tid = record.request_id
            events.append({
                "name": "thread_name", "ph": "M", "pid": 2, "tid": tid,
                "args": {"name": f"request #{tid} {record.kind}"},
            })
            for span in server_spans(record.trace):
                events.append({
                    "name": span.server, "cat": "request", "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": max(0.0, span.duration) * 1e6,
                    "pid": 2, "tid": tid,
                    "args": {"outcome": span.outcome},
                })
            for time, event, detail in record.trace:
                if event == "drop":
                    events.append({
                        "name": f"drop@{detail}", "cat": "drop", "ph": "i",
                        "ts": time * 1e6, "pid": 2, "tid": tid, "s": "t",
                    })

    if recorder is not None:
        meta(3, "events")
        for when, kind, source, value in recorder.events:
            if kind == "cpu.alloc":
                events.append({
                    "name": f"alloc:{source}", "ph": "C", "ts": when * 1e6,
                    "pid": 3, "tid": 0, "args": {"value": value},
                })
            elif kind in _TRACE_INSTANT_KINDS:
                events.append({
                    "name": f"{kind}@{source}", "cat": kind, "ph": "i",
                    "ts": when * 1e6, "pid": 3, "tid": 0, "s": "g",
                    "args": {"value": value},
                })

    if windows is not None or episodes is not None:
        meta(4, "live")
    if windows is not None:
        for label in windows.labels:
            track = f"p99:{label}"
            for point in windows.history(label):
                events.append({
                    "name": track, "ph": "C", "ts": point.start * 1e6,
                    "pid": 4, "tid": 0,
                    "args": {"value": point.p99 * 1000.0},
                })
    if episodes is not None:
        # one slice track (tid) per resource, episodes as complete spans
        tids = {}
        for episode in episodes:
            tid = tids.get(episode.resource)
            if tid is None:
                tid = tids[episode.resource] = len(tids) + 1
                events.append({
                    "name": "thread_name", "ph": "M", "pid": 4, "tid": tid,
                    "args": {"name": f"episodes:{episode.resource}"},
                })
            events.append({
                "name": f"{episode.kind}@{episode.resource}",
                "cat": "episode", "ph": "X", "ts": episode.start * 1e6,
                "dur": max(0.0, episode.end - episode.start) * 1e6,
                "pid": 4, "tid": tid,
                "args": {"peak": episode.peak,
                         "threshold": episode.threshold},
            })
    return events


def chrome_trace_to_json(path, monitor=None, log=None, recorder=None,
                         max_request_traces=250, windows=None,
                         episodes=None):
    """Write a Perfetto-loadable Chrome trace JSON for a run."""
    payload = {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(
            monitor=monitor, log=log, recorder=recorder,
            max_request_traces=max_request_traces,
            windows=windows, episodes=episodes,
        ),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


def events_to_jsonl(path, recorder):
    """Write an :class:`~repro.sim.instrument.EventRecorder`'s retained
    events as JSON Lines (one ``{"t", "kind", "source", "value"}`` per
    line, oldest first)."""
    with open(path, "w") as handle:
        for when, kind, source, value in recorder.events:
            handle.write(json.dumps(
                {"t": round(when, 9), "kind": kind, "source": source,
                 "value": value},
            ))
            handle.write("\n")
    return path

