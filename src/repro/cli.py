"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``list``
    Show every experiment of the registry
    (:data:`repro.experiments.runner.REGISTRY`).
``run <experiment> [--duration S] [--out DIR] [--diagnose]``
    Run one experiment (or ``all``) at its own scale, print its figure
    as text and exit 1 when its claims fail.  For an experiment with
    single runs, ``--out`` also writes each run's raw series/records as
    CSV+JSON and ``--diagnose`` appends each run's CTQO post-mortem.
``run-all [--workers N] [--seeds K] [--quick] [--out FILE]``
    Execute the whole experiment registry through the parallel engine
    (:mod:`repro.experiments.runner`); merged records are byte-identical
    for any worker count given the same seeds.
``diagnose <experiment> [--variant V] [--workload N] [--duration S] [--out DIR]``
    Run one experiment's representative single run and print the
    automated causal post-mortem:
    the §III/§IV diagnosis plus per-request CTQO attribution (the
    paper's Fig 4 walk for every VLRT/dropped request).  ``--out``
    instruments the run with the event bus and writes a Perfetto
    trace, a JSONL event log and the raw CSVs.
``watch <heartbeat.jsonl> [--tail N] [--label TEXT]``
    Render the live-telemetry heartbeat JSONL that ``run``/``run-all``
    ``--live --live-out`` writes (windowed per-tier p99, open episodes,
    drops/evictions, pipeline overhead).
``conditions [--rate R] [--duration S] [--depth N]``
    Evaluate the paper's §III overflow arithmetic for given parameters.
``bench [--smoke] [--only NAMES] [--label TEXT] [--out FILE] [--compare]``
    Run the substrate micro-benchmarks (:mod:`repro.bench`) and append
    the results to the ``BENCH_substrate.json`` trajectory; ``--smoke``
    is the CI-sized variant (scale 0.25, no JSON write by default) and
    ``--compare`` gates against the last trajectory entry instead of
    appending (exit 1 beyond ``--threshold`` percent ops/s loss).
``profile <target> [--quick] [--top N] [--sort KEY] [--out FILE]``
    Run one experiment or benchmark workload under :mod:`cProfile` and
    print the pstats hot-function table; ``--out`` writes a
    snakeviz-loadable raw profile (see docs/PERF.md).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench as bench_module
from . import profile as profile_module
from .core.conditions import (
    minimum_millibottleneck_duration,
    predicted_overflow,
)
from .experiments import runner
from .metrics.export import (
    chrome_trace_to_json,
    events_to_jsonl,
    request_log_to_csv,
    run_summary_to_json,
    timeseries_to_csv,
)

__all__ = ["build_parser", "main"]


def _cmd_list(_args):
    """Print the registry: one line per experiment (``list`` and
    ``run-all --list``)."""
    width = max(len(name) for name in runner.REGISTRY)
    for name, spec in runner.REGISTRY.items():
        variants = len(spec.variants or ({},))
        suffix = f"  [{variants} variants]" if variants > 1 else ""
        print(f"{name:<{width}}  {spec.description}{suffix}")
    return 0


def _live_trace_tracks(run):
    """(windows, episodes) for the Perfetto export when the run carried
    live telemetry, else (None, None)."""
    telemetry = getattr(run, "telemetry", None)
    if telemetry is None:
        return None, None
    return telemetry.windows, telemetry.detector.millibottlenecks()


def _export_run(label, run, out_dir, recorder=None):
    """Write one single run's raw data into ``out_dir``: the gauge and
    request CSVs, the summary JSON and the Perfetto trace, each named
    ``<label>_<kind>``; with ``recorder``, also its bus events."""
    os.makedirs(out_dir, exist_ok=True)

    def path(kind):
        return os.path.join(out_dir, f"{label}_{kind}")

    monitor = run.monitor
    timeseries_to_csv(path("cpu.csv"), monitor.cpu)
    timeseries_to_csv(path("queues.csv"), monitor.queues)
    request_log_to_csv(path("requests.csv"), run.log)
    run_summary_to_json(path("summary.json"), run)
    windows, episodes = _live_trace_tracks(run)
    chrome_trace_to_json(path("trace.json"), monitor=monitor, log=run.log,
                         recorder=recorder, windows=windows,
                         episodes=episodes)
    if recorder is not None:
        events_to_jsonl(path("events.jsonl"), recorder)


def _run_and_print(name, experiment, args):
    """``repro run NAME``: the experiment at its own scale, its report,
    and (``--diagnose``/``--out``) each of its single runs."""
    options = {}
    if args.duration is not None:
        options["duration"] = args.duration
    if args.streaming:
        options["streaming"] = True
    result = experiment.run(**options)
    print(experiment.report(result))
    if args.diagnose or args.out:
        from .core.diagnosis import diagnose

        for cell, run in experiment.runs(result).items():
            if args.diagnose:
                print()
                if cell:
                    print(f"--- {cell} ---")
                print(diagnose(run).render())
            if args.out:
                _export_run(f"{name}_{cell}" if cell else name, run,
                            args.out)
        if args.out:
            print(f"\n[raw data written to {args.out}/]")
    check_claims = getattr(experiment, "check_claims", None)
    return 1 if check_claims is not None and check_claims(result) else 0


def _live_settings(args):
    """``configure()`` keywords from the shared --live* flags, or None."""
    if args.live is None:
        return None
    settings = {"interval": args.live}
    if args.sample_rate is not None:
        settings["sample_rate"] = args.sample_rate
        settings["trace_budget"] = args.trace_budget
    return settings


def _cmd_run(args):
    if args.experiment == "all":
        names = runner.names_with("report")
    elif hasattr(runner.experiment(args.experiment), "report"):
        names = [args.experiment]
    else:
        print(f"error: {args.experiment} prints no figure of its own; run "
              f"it with 'repro run-all --jobs {args.experiment}'",
              file=sys.stderr)
        return 2
    experiments = {name: runner.experiment(name) for name in names}
    if args.out or args.diagnose:
        plain = [name for name, experiment in experiments.items()
                 if not hasattr(experiment, "runs")]
        if plain:
            print("error: --out and --diagnose act on single runs, which "
                  f"{', '.join(plain)} keep(s) none", file=sys.stderr)
            return 2
    if args.streaming:
        unsupported = sorted(set(names) & runner.STREAMING_UNSUPPORTED)
        if unsupported:
            print(f"error: {', '.join(unsupported)} need(s) the exact "
                  "per-request log and cannot run with --streaming",
                  file=sys.stderr)
            return 2
        if args.out:
            print("error: --out exports per-request records, which "
                  "--streaming does not retain; drop one of the two",
                  file=sys.stderr)
            return 2
    live_settings = _live_settings(args)
    sink = None
    if live_settings is not None:
        from .metrics import live as live_mode

        sink = (open(args.live_out, "w", buffering=1)
                if args.live_out else sys.stderr)
        live_mode.configure(sink=sink, **live_settings)
    status = 0
    try:
        for name, experiment in experiments.items():
            status |= _run_and_print(name, experiment, args)
            print()
    finally:
        if live_settings is not None:
            live_mode.reset()
            if sink is not sys.stderr:
                sink.close()
    return status


def _cmd_run_all(args):
    from .experiments import record as record_module
    from .experiments.report import run_report_table

    if args.list:
        return _cmd_list(args)

    if args.jobs is None:
        names = None
    else:
        names = [n.strip() for n in args.jobs.split(",") if n.strip()]
        if not names:
            print("--jobs given but names no experiments", file=sys.stderr)
            return 2
    if args.streaming:
        selected = names if names is not None else list(runner.REGISTRY)
        unsupported = sorted(set(selected) & runner.STREAMING_UNSUPPORTED)
        if unsupported:
            print(f"error: {', '.join(unsupported)} need(s) the exact "
                  "per-request log and cannot run with --streaming "
                  "(use --jobs to exclude it)", file=sys.stderr)
            return 2
    try:
        jobs = runner.expand_jobs(names=names, seeds=args.seeds,
                                  base_seed=args.seed, quick=args.quick)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.streaming:
        for job in jobs:
            job.params["streaming"] = True
    live_settings = _live_settings(args)
    if live_settings is not None:
        if args.live_out:
            live_settings["out"] = args.live_out
            # start fresh: workers append (they may share the file)
            open(args.live_out, "w").close()
        for job in jobs:
            job.params["live"] = dict(live_settings)
    if not jobs:
        print("nothing to run (is --seeds 0?)", file=sys.stderr)
        return 2

    total = len(jobs)
    done = {"count": 0}

    def progress(event, job, detail=""):
        jid = runner.job_id(job)
        if event == "done":
            done["count"] += 1
            print(f"[{done['count']}/{total}] ok      {jid}")
        elif event == "retry":
            print(f"[{done['count']}/{total}] retry   {jid}: {detail}")
        elif event == "fail":
            done["count"] += 1
            print(f"[{done['count']}/{total}] FAILED  {jid}: {detail}")

    print(f"running {total} jobs on {args.workers} worker(s)"
          f"{' (quick scale)' if args.quick else ''}")
    report = runner.run_jobs(jobs, workers=args.workers,
                             timeout=args.timeout, retries=args.retries,
                             progress=progress)
    print()
    print(run_report_table(report))
    if args.out:
        record_module.write_records(args.out, report.records)
        print(f"\n[merged records written to {args.out}]")
    return 0 if report.ok else 1


def _cmd_diagnose(args):
    """Run one experiment's representative single run and print the
    full causal post-mortem."""
    from .core.diagnosis import diagnose

    name = args.experiment
    overrides = {key: value for key, value in (
        ("variant", args.variant), ("clients", args.workload),
        ("duration", args.duration),
    ) if value is not None}
    try:
        heading, simulate = runner.experiment(name).single_run(**overrides)
    except ValueError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 2

    bus = recorder = None
    if args.out:
        # instrument only when exporting: the diagnosis itself is built
        # from the monitor and the request log, but the trace/JSONL
        # exports want the raw bus events too
        from .sim.instrument import EventBus, EventRecorder

        bus = EventBus()
        recorder = EventRecorder(bus, capacity=args.events)
    run = simulate(bus)

    print(f"=== repro diagnose: {name}{heading} ===\n")
    print(diagnose(run).render())
    print()
    print(run.attribution().render(examples=args.examples))

    if args.out:
        _export_run(name, run, args.out, recorder=recorder)
        dropped = recorder.recorded - len(recorder.events)
        note = f" ({dropped} oldest events beyond capacity)" if dropped else ""
        print(f"\n[trace + {len(recorder.events)} bus events{note} "
              f"written to {args.out}/]")
        if recorder.truncated:
            print(f"WARNING: the event recorder evicted {dropped} of "
                  f"{recorder.recorded} events (capacity {recorder.capacity});"
                  f" the exported event log and trace are missing the "
                  f"run's beginning — rerun with --events "
                  f"{recorder.recorded} or more for a complete log",
                  file=sys.stderr)
    return 0


def _cmd_watch(args):
    """Render a live-telemetry heartbeat JSONL file."""
    import json

    from .metrics.live import render_heartbeats

    try:
        with open(args.file) as handle:
            lines = [line for line in handle if line.strip()]
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    beats = []
    for index, line in enumerate(lines):
        try:
            beats.append(json.loads(line))
        except ValueError as exc:
            if index == len(lines) - 1:
                # a live writer may still be mid-heartbeat on the final
                # line; render the complete prefix instead of crashing
                # so watching a file under active --live-out just works
                break
            print(f"{args.file} is not heartbeat JSONL: {exc}",
                  file=sys.stderr)
            return 2
    if args.label:
        beats = [b for b in beats if args.label in b.get("label", "")]
        if not beats:
            print(f"no heartbeats labeled {args.label!r} in {args.file}",
                  file=sys.stderr)
            return 1
    print(render_heartbeats(beats, tail=args.tail))
    return 0


def _cmd_conditions(args):
    overflow = predicted_overflow(args.rate, args.duration, args.depth,
                                  drain_rate=args.drain)
    threshold = minimum_millibottleneck_duration(args.rate, args.depth,
                                                 drain_rate=args.drain)
    print(f"arrival rate       : {args.rate:.0f} req/s")
    print(f"millibottleneck    : {args.duration * 1000:.0f} ms")
    print(f"MaxSysQDepth       : {args.depth}")
    print(f"drain during stall : {args.drain:.0f} req/s")
    print(f"predicted overflow : {overflow:.0f} dropped packets")
    if threshold == float("inf"):
        print("minimum stall      : never overflows (drain keeps up)")
    else:
        print(f"minimum stall      : {threshold * 1000:.0f} ms before any drop")
    return 0


def _add_live_arguments(parser):
    """The shared --live* flag group of ``run`` and ``run-all``."""
    parser.add_argument("--live", nargs="?", const=1.0, type=float,
                        default=None, metavar="INTERVAL",
                        help="emit live telemetry heartbeats every "
                             "INTERVAL simulated seconds (default 1.0; "
                             "JSONL to stderr unless --live-out)")
    parser.add_argument("--live-out", default=None, metavar="FILE",
                        help="write heartbeat JSONL to FILE (render "
                             "with 'repro watch FILE')")
    parser.add_argument("--sample-rate", type=float, default=None,
                        metavar="RATE",
                        help="with --live: budgeted trace sampling — "
                             "head-sample RATE of normal requests' "
                             "traces (anomalous traces always kept)")
    parser.add_argument("--trace-budget", type=int, default=20_000,
                        metavar="N",
                        help="with --sample-rate: max traces retained "
                             "at once, oldest-normal evicted first "
                             "(default 20000)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Study of Long-Tail Latency in "
                    "n-Tier Systems: RPC vs. Asynchronous Invocations' "
                    "(ICDCS 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(
        handler=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run an experiment (or 'all')")
    run_parser.add_argument("experiment",
                            choices=list(runner.REGISTRY) + ["all"])
    run_parser.add_argument("--duration", type=float, default=None,
                            help="simulated seconds (default: the figure's)")
    run_parser.add_argument("--out", default=None,
                            help="directory for raw CSV/JSON export")
    run_parser.add_argument("--diagnose", action="store_true",
                            help="append the automated CTQO post-mortem")
    run_parser.add_argument("--streaming", action="store_true",
                            help="use the O(1)-memory streaming request "
                                 "log (sketch percentiles, exact tail "
                                 "records only — see docs/SCALE.md)")
    _add_live_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    run_all_parser = sub.add_parser(
        "run-all",
        help="run the whole experiment registry through the parallel engine",
    )
    run_all_parser.add_argument("--workers", type=int,
                                default=os.cpu_count() or 1,
                                help="worker processes (1 = serial in-process)")
    run_all_parser.add_argument("--seeds", type=int, default=1,
                                help="seeds per experiment (derived streams)")
    run_all_parser.add_argument("--seed", type=int, default=42,
                                help="base seed for derivation")
    run_all_parser.add_argument("--quick", action="store_true",
                                help="scaled-down durations (CI-sized runs)")
    run_all_parser.add_argument("--jobs", default=None,
                                help="comma-separated registry subset")
    run_all_parser.add_argument("--timeout", type=float, default=None,
                                help="per-job wall-clock timeout in seconds")
    run_all_parser.add_argument("--retries", type=int, default=1,
                                help="extra attempts for crashed/failed jobs")
    run_all_parser.add_argument("--out", default=None,
                                help="write merged records JSON to this file")
    run_all_parser.add_argument("--streaming", action="store_true",
                                help="run every job with the O(1)-memory "
                                     "streaming request log (rejected for "
                                     "exact-record experiments: fig02)")
    run_all_parser.add_argument("--list", action="store_true",
                                help="list the registry and exit")
    _add_live_arguments(run_all_parser)
    run_all_parser.set_defaults(handler=_cmd_run_all)

    watch_parser = sub.add_parser(
        "watch",
        help="render a live-telemetry heartbeat JSONL file",
    )
    watch_parser.add_argument("file", help="heartbeat JSONL written by "
                                           "run/run-all --live-out")
    watch_parser.add_argument("--tail", type=int, default=None,
                              help="show only the last N heartbeats")
    watch_parser.add_argument("--label", default=None,
                              help="filter to heartbeats whose label "
                                   "contains TEXT (run-all job ids)")
    watch_parser.set_defaults(handler=_cmd_watch)

    diag_parser = sub.add_parser(
        "diagnose",
        help="run an experiment and print the CTQO causal post-mortem",
    )
    diag_parser.add_argument("experiment",
                             choices=runner.names_with("single_run"))
    diag_parser.add_argument("--duration", type=float, default=None,
                             help="simulated seconds (default: the "
                                  "experiment's own)")
    diag_parser.add_argument("--workload", type=int, default=None,
                             help="client count (default: the "
                                  "experiment's own)")
    diag_parser.add_argument("--variant", default=None,
                             help="cell to diagnose (default: the "
                                  "experiment's own, e.g. policy_matrix "
                                  "shed_web, fig07 none: 'mysql' picks "
                                  "the §V-B variant)")
    diag_parser.add_argument("--examples", type=int, default=3,
                             help="example causal chains to print")
    diag_parser.add_argument("--out", default=None,
                             help="directory for Chrome trace JSON, JSONL "
                                  "event log and CSV export (instruments "
                                  "the run with the event bus)")
    diag_parser.add_argument("--events", type=int, default=200_000,
                             help="event-recorder capacity for --out")
    diag_parser.set_defaults(handler=_cmd_diagnose)

    cond_parser = sub.add_parser(
        "conditions", help="evaluate the §III overflow arithmetic"
    )
    cond_parser.add_argument("--rate", type=float, default=1000.0)
    cond_parser.add_argument("--duration", type=float, default=0.4)
    cond_parser.add_argument("--depth", type=int, default=278)
    cond_parser.add_argument("--drain", type=float, default=0.0)
    cond_parser.set_defaults(handler=_cmd_conditions)

    bench_parser = sub.add_parser(
        "bench",
        help="run the substrate benchmarks and record the trajectory",
    )
    bench_module.add_arguments(bench_parser)
    bench_parser.set_defaults(handler=bench_module.run_cli)

    profile_parser = sub.add_parser(
        "profile",
        help="profile an experiment or benchmark workload with cProfile",
    )
    profile_module.add_arguments(profile_parser)
    profile_parser.set_defaults(handler=profile_module.run_cli)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
