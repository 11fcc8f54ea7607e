"""Run the complete evaluation and record paper-vs-measured results.

``python -m repro.experiments.record [output.md] [traces-dir]`` executes
every experiment at full scale and writes a Markdown record — this is
how the repository's ``EXPERIMENTS.md`` is produced, so the numbers
there are always regenerable.  The optional second argument additionally
re-runs the flagship CTQO figure (Fig 3) with the instrumentation bus
live and drops a Perfetto-loadable trace + JSONL event log into that
directory (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
import os
import sys
import time

from . import fig01_histograms, fig12_throughput, headline_utilization
from .timeline import TIMELINES

__all__ = [
    "export_traces",
    "load_records",
    "main",
    "record_all",
    "records_from_json",
    "records_to_json",
    "render_records",
    "write_records",
]


# ----------------------------------------------------------------------
# runner-record serialization and rendering
# ----------------------------------------------------------------------
def records_to_json(records):
    """Canonical JSON for a ``{job id: record}`` mapping.

    Sorted keys, two-space indent, trailing newline — the byte-for-byte
    comparable format the parallel runner's determinism guarantee is
    stated in (serial and parallel runs of the same seeds serialize
    identically).
    """
    return json.dumps(records, sort_keys=True, indent=2) + "\n"


def records_from_json(text):
    """Inverse of :func:`records_to_json`."""
    return json.loads(text)


def write_records(path, records):
    with open(path, "w") as handle:
        handle.write(records_to_json(records))


def load_records(path):
    with open(path) as handle:
        return records_from_json(handle.read())


def _fmt_value(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _flat_rows(obj, prefix=""):
    """(dotted key, formatted value) leaves of a record, sorted."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flat_rows(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, list):
        scalars = all(not isinstance(v, (dict, list)) for v in obj)
        if scalars and len(obj) <= 8:
            yield prefix[:-1], "[" + ", ".join(_fmt_value(v) for v in obj) + "]"
        else:
            yield prefix[:-1], f"[{len(obj)} items]"
    else:
        yield prefix[:-1], _fmt_value(obj)


def render_records(records):
    """Deterministic Markdown digest of a runner ``records`` mapping.

    Rendering a mapping that went through a JSON round-trip yields the
    same text as rendering the original — pinned by the golden test in
    ``tests/test_record_golden.py``.
    """
    lines = ["# run-all records", ""]
    for jid in sorted(records):
        record = records[jid]
        lines.append(f"## {jid}")
        lines.append("")
        lines.append("| metric | value |")
        lines.append("|---|---|")
        for key, value in _flat_rows(record.get("payload", record)):
            lines.append(f"| {key} | {value} |")
        lines.append("")
    return "\n".join(lines)


def _timeline_section(lines):
    lines.append("## Timeline figures (3, 5, 7, 8, 9, 10, 11)\n")
    lines.append("| Figure | Paper claim | Measured | Status |")
    lines.append("|---|---|---|---|")
    ok = True
    specs = [spec for row in TIMELINES.values()
             for spec in (row, *row.variants.values())]
    for spec in specs:
        result = spec.run()
        summary = result.summary()
        drops = ", ".join(
            f"{name}:{count}"
            for name, count in summary["drops_by_server"].items() if count
        ) or "none"
        queue_max = result.run.queue_max()
        failures = result.check_claims()
        ok &= not failures
        measured = (
            f"drops {drops}; queue max {queue_max}; "
            f"VLRT {summary['vlrt']}; "
            f"{summary['throughput_rps']:.0f} req/s"
        )
        status = "reproduced" if not failures else f"MISMATCH: {failures}"
        lines.append(f"| {spec.figure} | {spec.claim} | {measured} | "
                     f"{status} |")
    lines.append("")
    return ok


def _fig01_section(lines):
    lines.append("## Fig 1 — multi-modal response-time histograms\n")
    panels = fig01_histograms.run()
    lines.append("| Workload | Paper | Measured | Mode clusters |")
    lines.append("|---|---|---|---|")
    paper = {4000: "572 req/s @ 43 %", 7000: "990 req/s @ 75 %",
             8000: "1103 req/s @ 85 %"}
    ok = True
    for clients, panel in sorted(panels.items()):
        modes = {k: v for k, v in sorted(panel["modes"].items()) if v}
        measured = (f"{panel['throughput_rps']:.0f} req/s @ "
                    f"{panel['highest_avg_cpu'] * 100:.0f} %")
        lines.append(
            f"| WL {clients} | {paper[clients]} | {measured} | {modes} |"
        )
        ok &= panel["vlrt"] > 0
    lines.append("")
    lines.append("Every workload level shows the long-tail clusters near "
                 "multiples of 3 s (one per TCP retransmission), including "
                 "the lowest (the paper's \"as low as 43 %\").\n")
    return ok


def _fig12_section(lines):
    lines.append("## Fig 12 — throughput vs workload concurrency\n")
    sweep = fig12_throughput.run()
    lines.append("| Concurrency | sync 2000-thread (paper) | sync (measured)"
                 " | async (measured) |")
    lines.append("|---|---|---|---|")
    paper = {100: 1159, 200: "—", 400: "—", 800: "—", 1600: 374}
    for level in sorted(sweep["synchronous"]):
        lines.append(
            f"| {level} | {paper.get(level, '—')} | "
            f"{sweep['synchronous'][level]:.0f} | "
            f"{sweep['asynchronous'][level]:.0f} |"
        )
    low, high = min(sweep["synchronous"]), max(sweep["synchronous"])
    retained = sweep["synchronous"][high] / sweep["synchronous"][low]
    lines.append("")
    lines.append(f"Synchronous stack retains {retained * 100:.0f} % of its "
                 "low-concurrency throughput at 1600 concurrent requests "
                 "(paper: 32 %); the asynchronous stack sustains its "
                 "throughput throughout.\n")
    return retained < 0.6


def _headline_section(lines):
    lines.append("## Headline claim (abstract)\n")
    points = headline_utilization.run()
    lines.append("| Stack | Workload | Throughput | Top avg CPU | Dropped |"
                 " VLRT |")
    lines.append("|---|---|---|---|---|---|")
    for (nx, clients), point in sorted(points.items(),
                                       key=lambda kv: (kv[0][1], kv[0][0])):
        lines.append(
            f"| {'sync' if nx == 0 else 'async'} | WL {clients} | "
            f"{point['throughput_rps']:.0f} req/s | "
            f"{point['highest_avg_cpu'] * 100:.0f} % | "
            f"{point['dropped_packets']} | {point['vlrt']} |"
        )
    sync_cpu = [p["highest_avg_cpu"] for (nx, _c), p in points.items()
                if nx == 0 and p["dropped_packets"] > 0]
    async_clean = [p["highest_avg_cpu"] for (nx, _c), p in points.items()
                   if nx == 3 and p["dropped_packets"] == 0]
    lines.append("")
    lines.append(
        f"Synchronous stack drops packets at utilization as low as "
        f"{min(sync_cpu) * 100:.0f} % (paper: 43 %); the asynchronous stack "
        f"stays drop-free up to {max(async_clean) * 100:.0f} % "
        f"(paper: 83 %).\n"
    )
    return bool(sync_cpu) and bool(async_clean)


def _streaming_section(lines, requests=1_000_000, rate=1000.0):
    """The million-request open-loop run (docs/SCALE.md) — with the
    online observability layer on: heartbeats to stderr, budgeted trace
    sampling, live episode detection."""
    from ..core.evaluation import Scenario
    from ..metrics.live import LiveConfig
    from ..topology.configs import SystemConfig

    started = time.time()
    duration = requests / rate + 20.0
    live = LiveConfig(interval=30.0, sink=sys.stderr, label="streaming-1m",
                      sample_rate=0.001, trace_budget=5000)
    scenario = Scenario(
        SystemConfig(nx=0, seed=42, streaming=True),
        duration=duration, warmup=0.0, live=live,
    ).with_consolidation("app", period=7.0)
    scenario.with_open_loop(rate, max_requests=requests)
    result = scenario.run()
    log = result.log
    summary = result.summary()
    retained = len(log.records)
    wall = time.time() - started
    telemetry = result.telemetry
    traces = telemetry.sampler.counters()
    overhead = telemetry.heartbeats[-1]["overhead"]
    lines.append("## Million-request streaming run (beyond the paper)\n")
    lines.append(f"{requests:,} open-loop requests at {rate:.0f} req/s "
                 "through the synchronous stack with a 7 s consolidation "
                 "cadence, `RequestLog(streaming=True)` and the "
                 "array-backed arrival engine (see `docs/SCALE.md`; "
                 "`python -m repro bench --only fig01_streaming_1m` "
                 "tracks the same run in `BENCH_substrate.json`):\n")
    lines.append("| Requests | Exact records retained | Throughput | "
                 "p50 / p99 / p99.9 | VLRT | Dropped | Wall time |")
    lines.append("|---|---|---|---|---|---|---|")
    lines.append(
        f"| {len(log):,} | {retained:,} "
        f"({100.0 * retained / max(1, len(log)):.2f} %) | "
        f"{summary['throughput_rps']:.0f} req/s | "
        f"{summary['p50_ms']:.1f} / {summary['p99_ms']:.0f} / "
        f"{summary['p999_ms']:.0f} ms | {summary['vlrt']} | "
        f"{summary['dropped_requests']} | {wall / 60:.1f} min |"
    )
    lines.append("")
    lines.append("Metric memory is O(occupied sketch buckets), not "
                 "O(requests): only VLRT/dropped/shed/failed requests "
                 "keep exact records, so CTQO attribution and the mode "
                 "counters stay exact while percentiles carry the "
                 "sketch's 0.78 % bound.\n")
    lines.append("The run flew with the online observability layer on "
                 f"(`--live`, see `docs/OBSERVABILITY.md`): "
                 f"{len(telemetry.heartbeats)} heartbeats, "
                 f"{telemetry.detector.episode_count()} episodes detected "
                 f"live, {traces['retained']:,} sampled traces retained "
                 f"under a {traces['budget']:,}-trace budget "
                 f"({traces['kept_anomalous']:,} anomalous always-kept, "
                 f"{traces['evicted_normal'] + traces['evicted_anomalous']:,}"
                 f" evicted), telemetry overhead "
                 f"{overhead['wall_share'] * 100:.1f} % of wall time.\n")
    return len(log) == requests and retained <= requests // 5


def export_traces(out_dir, duration=None):
    """Instrumented re-run of Fig 3 with full trace artifacts.

    Writes ``fig03_trace.json`` (Chrome trace-event format, open in
    Perfetto), ``fig03_events.jsonl`` (raw bus events) and the
    per-request CSV into ``out_dir``.  Returns the attribution report so
    callers can assert coverage.
    """
    from ..metrics.export import (
        chrome_trace_to_json,
        events_to_jsonl,
        request_log_to_csv,
    )
    from ..sim.instrument import EventBus, EventRecorder

    bus = EventBus()
    recorder = EventRecorder(bus)
    result = TIMELINES["fig03"].run(duration=duration, bus=bus)
    run = result.run
    os.makedirs(out_dir, exist_ok=True)
    chrome_trace_to_json(os.path.join(out_dir, "fig03_trace.json"),
                         monitor=run.monitor, log=run.log,
                         recorder=recorder)
    events_to_jsonl(os.path.join(out_dir, "fig03_events.jsonl"), recorder)
    request_log_to_csv(os.path.join(out_dir, "fig03_requests.csv"), run.log)
    return run.attribution()


def record_all(path="EXPERIMENTS.md"):
    """Run everything; write the Markdown record; return overall success."""
    started = time.time()
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro.experiments.record`; every number",
        "below comes from an actual run of this repository's simulator",
        "(deterministic — rerunning reproduces it exactly).  Absolute",
        "values differ from the authors' ESXi testbed; the reproduction",
        "targets are the *shapes*: who drops packets, at which queue",
        "bound, and how the sync/async contrast behaves.",
        "",
        "The full registry can also be executed in parallel with",
        "`python -m repro run-all --workers N` — see",
        "[docs/RUNNING.md](docs/RUNNING.md) for the worker/seed flags and",
        "the determinism guarantee.",
        "",
    ]
    ok = True
    ok &= _fig01_section(lines)
    ok &= _timeline_section(lines)
    ok &= _fig12_section(lines)
    ok &= _headline_section(lines)
    ok &= _streaming_section(lines)
    lines.append("## Conditions model (§III)\n")
    lines.append("The paper's arithmetic — 1000 req/s x 0.4 s against "
                 "MaxSysQDepth 278 ⇒ 122 dropped packets — is implemented "
                 "in `repro.core.conditions` and validated in unit tests; "
                 "`python -m repro conditions` evaluates it for arbitrary "
                 "parameters.\n")
    lines.append("## Substrate validation and extensions\n")
    lines.append("With no millibottleneck source, the simulator matches "
                 "the analytic closed-network model within ~2 % on "
                 "throughput and ~1 pp on utilization "
                 "(`python -m repro run validation`).  Results "
                 "beyond the paper — the emergent two-system Fig 2 "
                 "(`fig02_full_sysbursty`), deep chains (`deep_chain`), "
                 "replication (`replication`), downstream pacing and the "
                 "other ablations — are asserted and recorded by "
                 "`pytest benchmarks/ --benchmark-only` "
                 "(see `bench_output.txt`).\n")
    elapsed = time.time() - started
    lines.append(f"_Total regeneration time: {elapsed / 60:.1f} minutes "
                 "(pure-Python simulation on one core)._")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return ok


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    ok = record_all(path)
    print(f"wrote {path} ({'all claims reproduced' if ok else 'MISMATCHES'})")
    if len(sys.argv) > 2:
        report = export_traces(sys.argv[2])
        print(f"wrote trace artifacts to {sys.argv[2]}/ "
              f"(attribution coverage {report.coverage * 100:.1f} %)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
