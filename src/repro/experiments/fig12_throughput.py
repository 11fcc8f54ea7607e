"""Fig 12 — throughput vs workload concurrency: 2000 threads vs async.

The paper's §V-E answer to the "RPC purist" alternative of simply
raising MaxSysQDepth with giant thread pools: a synchronous stack with
2000-thread pools collapses from 1159 req/s at 100 concurrent requests
to 374 req/s at 1600, because context switching, cache pollution and
JVM garbage collection grow with the runnable-thread count.  The
asynchronous stack keeps its runnable set tiny regardless of admitted
requests and sustains (indeed slightly grows) its throughput.

The synchronous system uses the calibrated
:class:`~repro.cpu.overhead.ThreadOverheadModel`; the asynchronous one
runs with no overhead because its concurrency never reaches the CPU.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.evaluation import Scenario
from ..topology.configs import SystemConfig
from .report import format_table

__all__ = ["CONCURRENCY_LEVELS", "record", "report", "run", "run_point"]

#: the paper's x-axis
CONCURRENCY_LEVELS = (100, 200, 400, 800, 1600)

#: closed loop with near-zero think time = "N concurrent requests"
THINK_MEAN = 0.05

_SYNC_CONFIG = SystemConfig(
    nx=0,
    web_threads=2000, app_threads=2000, db_threads=2000,
    db_pool_size=2000,
    web_spawn_extra_process=False,
    thread_overhead=True,
)

_ASYNC_CONFIG = SystemConfig(nx=3)


def run_point(config, concurrency, duration=25.0, warmup=5.0, seed=42,
              streaming=False):
    """Throughput of one (configuration, concurrency) point."""
    scenario = Scenario(
        replace(config, seed=seed, streaming=streaming),
        clients=concurrency,
        think_mean=THINK_MEAN, duration=duration, warmup=warmup,
    )
    result = scenario.run()
    return result.summary()["throughput_rps"]


def run(levels=CONCURRENCY_LEVELS, duration=25.0, warmup=5.0, seed=42,
        streaming=False):
    """The full sweep: {"synchronous": {...}, "asynchronous": {...}}."""
    out = {"synchronous": {}, "asynchronous": {}}
    for concurrency in levels:
        out["synchronous"][concurrency] = run_point(
            _SYNC_CONFIG, concurrency, duration, warmup, seed,
            streaming=streaming,
        )
        out["asynchronous"][concurrency] = run_point(
            _ASYNC_CONFIG, concurrency, duration, warmup, seed,
            streaming=streaming,
        )
    return out


def record(sweep):
    """The registry record of :func:`run`'s sweep."""
    return {
        stack: {str(level): tput for level, tput in points.items()}
        for stack, points in sweep.items()
    }


def report(sweep):
    levels = sorted(next(iter(sweep.values())).keys())
    rows = []
    for concurrency in levels:
        sync_tput = sweep["synchronous"][concurrency]
        async_tput = sweep["asynchronous"][concurrency]
        rows.append([
            concurrency,
            f"{sync_tput:.0f}",
            f"{async_tput:.0f}",
            f"{async_tput / sync_tput:.2f}x" if sync_tput else "-",
        ])
    table = format_table(
        ["concurrency", "sync (2000 thr) req/s", "async req/s", "async/sync"],
        rows,
    )
    sync_first = sweep["synchronous"][levels[0]]
    sync_last = sweep["synchronous"][levels[-1]]
    return (
        "=== Fig 12: throughput vs workload concurrency ===\n"
        + table
        + f"\n\nsync degradation {sync_first:.0f} -> {sync_last:.0f} req/s "
        f"({sync_last / sync_first * 100:.0f}% retained; paper: 1159 -> 374)"
    )
