#!/usr/bin/env python
"""CI memory-budget smoke for the streaming metric path (docs/SCALE.md).

Pushes a scaled-down million-client run (default 200k open-loop
requests) through the full nx=0 stack with ``RequestLog(streaming=True)``
under ``tracemalloc`` and asserts:

- the run issued exactly the requested number of requests;
- the retained-exact-record count stays within the retention bound
  (only VLRT/dropped/shed/failed requests keep records);
- peak traced memory stays under the budget — the whole point of the
  streaming log is that metric memory is O(occupied sketch buckets),
  not O(requests), so the peak is set by in-flight simulation state
  and the 50 ms monitor series, both independent of request count;
- the run leaves no cyclic garbage: a ``gc.collect()`` right after it
  finds no unreachable object.  The simulator pauses the cyclic
  collector while events dispatch, so a reference cycle on the hot
  path would hold every finished request in memory until the run ends.

``--live`` runs the same workload with the online observability layer
on (windowed latency sketches, incremental episode detection, budgeted
trace sampling, heartbeats) under the *same* byte budget: the windowed
sketches are O(occupied buckets) per live window and sampled traces
are capped by the retention budget, so live mode must not change the
memory class (docs/OBSERVABILITY.md).

Usage::

    python scripts/memory_smoke.py [--requests N] [--rate R]
                                   [--budget-mb MB] [--live]
"""

import argparse
import gc
import os
import sys
import time
import tracemalloc

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))


def run_streaming(requests, rate, live=False):
    from repro.core.evaluation import Scenario
    from repro.topology.configs import SystemConfig

    live_config = None
    if live:
        from repro.metrics.live import LiveConfig

        # sink=None: heartbeats accumulate in memory (worst case for
        # this gate); 1% head sampling under a 5k-trace budget
        live_config = LiveConfig(interval=10.0, sample_rate=0.01,
                                 trace_budget=5000, label="memory-smoke")
    duration = requests / rate + 20.0
    scenario = Scenario(
        SystemConfig(nx=0, seed=42, streaming=True),
        duration=duration, warmup=0.0, live=live_config,
    ).with_consolidation("app", period=7.0)
    scenario.with_open_loop(rate, max_requests=requests)
    return scenario.run()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200_000)
    parser.add_argument("--rate", type=float, default=1000.0)
    parser.add_argument("--budget-mb", type=float, default=256.0,
                        help="peak tracemalloc budget in MiB")
    parser.add_argument("--live", action="store_true",
                        help="fly with the online observability layer "
                             "on (heartbeats, windowed sketches, "
                             "budgeted trace sampling)")
    args = parser.parse_args(argv)

    gc.collect()
    started = time.time()
    tracemalloc.start()
    result = run_streaming(args.requests, args.rate, live=args.live)
    unreachable = gc.collect()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    wall = time.time() - started

    log = result.log
    retained = len(log.records)
    retain_cap = max(20_000, args.requests // 5)
    peak_mb = peak / (1024 * 1024)
    mode = "live streaming" if args.live else "streaming"
    print(f"{mode} smoke: {len(log):,} requests in {wall:.1f} s "
          f"({len(log) / wall:,.0f} req/s wall), {retained:,} exact "
          f"records retained, peak {peak_mb:.1f} MiB "
          f"(budget {args.budget_mb:.0f} MiB), {unreachable:,} objects "
          f"of cyclic garbage")

    failures = []
    if len(log) != args.requests:
        failures.append(f"issued {len(log)} of {args.requests} requests")
    if retained > retain_cap:
        failures.append(f"retained {retained} exact records "
                        f"(cap {retain_cap})")
    if peak_mb > args.budget_mb:
        failures.append(f"peak memory {peak_mb:.1f} MiB exceeds the "
                        f"{args.budget_mb:.0f} MiB budget")
    if unreachable:
        failures.append(f"the run left {unreachable} unreachable objects "
                        "in reference cycles")
    if args.live:
        telemetry = result.telemetry
        if telemetry is None or not telemetry.heartbeats:
            failures.append("live run produced no heartbeats")
        else:
            traces = telemetry.sampler.counters()
            print(f"  live: {len(telemetry.heartbeats)} heartbeats, "
                  f"{telemetry.detector.episode_count()} episodes, "
                  f"{traces['retained']:,}/{traces['budget']:,} traces "
                  f"retained ({traces['evicted_normal'] + traces['evicted_anomalous']:,} evicted), "
                  f"overhead {telemetry.heartbeats[-1]['overhead']['wall_share'] * 100:.1f}% wall")
            if traces["retained"] > traces["budget"]:
                failures.append(
                    f"sampler retained {traces['retained']} traces over "
                    f"the {traces['budget']} budget"
                )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
