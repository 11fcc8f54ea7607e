"""One benchmark process: run one workload once, print one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` naming the checkout's
``src``.  With ``--profile PATH`` the process runs under cProfile from
before the first simulator import to the end of the workload's own
analyses, then writes the raw profile to ``PATH`` and reports the
per-layer table and the exact work counters.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import sys


def _counters(stats, simulated):
    """Exact work counters of one profiled run."""
    from repro.apps import servlet
    from repro.cpu.host import Host
    from repro.sim.process import Process

    from layers import calls_to

    steps = (servlet.Compute, servlet.Call, servlet.Gather,
             servlet.CacheGet, servlet.CachePut, servlet.CacheAbort,
             servlet.StorageRead, servlet.StorageWrite)
    requests = simulated["requests"]
    summary = simulated["summary"]
    return {
        "sim.kernel.events_per_req": simulated["events"] / requests,
        "sim.process.resumes_per_req": calls_to(
            stats, (Process._resume, Process._resume_timer, Process._throw)
        ) / requests,
        "cpu.reallocs_per_req": calls_to(stats, (Host._reallocate,))
        / requests,
        "net.packets_per_req": simulated["packets_sent"] / requests,
        "net.drops": simulated["packets_dropped"],
        "servers.steps_per_req": calls_to(
            stats, tuple(cls.__init__ for cls in steps)
        ) / requests,
        "metrics.trace.retained": simulated["retained"],
        "metrics.trace.p50_ms": summary["p50_ms"],
        "metrics.trace.p99_ms": summary["p99_ms"],
        "metrics.trace.vlrt": summary["vlrt"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--profile", default=None)
    args = parser.parse_args(argv)

    profiler = None
    if args.profile is not None:
        profiler = cProfile.Profile()
        profiler.enable()
    import workloads

    probe = workloads.Probe()
    outcome = workloads.WORKLOADS[args.workload](args.seed)
    simulated = workloads.outputs(outcome, probe)
    if profiler is not None:
        profiler.disable()

    report = {
        "first_run_at": probe.first_run_at,
        "run_s": probe.run_s,
        "requests": simulated["requests"],
        "digest": workloads.digest(simulated),
        "failures": workloads.check(args.workload, outcome, simulated),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if profiler is not None:
        from layers import attribute

        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler).stats
        report["layers"] = attribute(stats, args.src)
        report["counters"] = _counters(stats, simulated)
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    status = main()
    # skip tearing down the simulator's object graph: it is no part of
    # what the benchmark measures and only delays the next run
    os._exit(status)
