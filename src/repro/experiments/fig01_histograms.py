"""Fig 1 — response-time histograms with the multi-modal long tail.

The fully synchronous stack under consolidation-driven millibottlenecks
at three workload levels.  The paper's operating points:

- WL 4000: ~572 req/s, highest average CPU 43 % — drops already occur,
- WL 7000: ~990 req/s, 75 %,
- WL 8000: ~1103 req/s, 85 %,

each showing the bulk of requests at milliseconds plus clusters near
3/6/9 s (one per TCP retransmission of a dropped packet).
"""

from __future__ import annotations

from ..core.evaluation import Scenario
from ..topology.configs import SystemConfig
from .report import format_table, histogram_rows

__all__ = ["WORKLOADS", "record", "report", "run", "run_one", "runs",
           "single_run"]

#: the paper's three workload levels
WORKLOADS = (4000, 7000, 8000)

#: bursts arrive roughly twice per 15 s, as in the §V-B scripted setup
BURST_PERIOD = 7.0

#: simulated seconds per workload level
DURATION = 120.0


def run_one(clients, duration=DURATION, warmup=10.0, seed=42, bus=None,
            streaming=False):
    """One workload level; returns a dict with the figure's content.

    ``bus`` (an :class:`~repro.sim.instrument.EventBus`) turns on the
    instrumentation hooks for the run; the default ``None`` keeps the
    hot paths on their zero-cost disabled branch.  ``streaming=True``
    runs with the O(1)-memory request log: identical workload and
    counts, histogram re-binned from the latency sketch (docs/SCALE.md).
    """
    scenario = Scenario(
        SystemConfig(nx=0, seed=seed, streaming=streaming), clients=clients,
        duration=duration, warmup=warmup, bus=bus,
    ).with_consolidation("app", period=BURST_PERIOD)
    result = scenario.run()
    summary = result.summary()
    return {
        "clients": clients,
        "throughput_rps": summary["throughput_rps"],
        "highest_avg_cpu": result.highest_avg_cpu(),
        "histogram": result.log.semilog_histogram(bin_width=0.25,
                                                  max_time=10.0),
        "modes": result.log.cluster_counts(),
        "vlrt": summary["vlrt"],
        "dropped_packets": summary["dropped_packets"],
        "result": result,
    }


def run(duration=DURATION, warmup=10.0, seed=42, workloads=WORKLOADS,
        streaming=False):
    """All three panels; returns ``{clients: panel_dict}``."""
    return {
        clients: run_one(clients, duration=duration, warmup=warmup,
                         seed=seed, streaming=streaming)
        for clients in workloads
    }


def record(panels):
    """The registry record of :func:`run`'s panels."""
    return {
        "panels": {
            str(clients): {
                "throughput_rps": panel["throughput_rps"],
                "highest_avg_cpu": panel["highest_avg_cpu"],
                "vlrt": panel["vlrt"],
                "dropped_packets": panel["dropped_packets"],
                "modes": panel["modes"],
                "histogram": [
                    [start, count] for start, count in panel["histogram"]
                    if count
                ],
            }
            for clients, panel in panels.items()
        }
    }


def report(panels):
    lines = ["=== Fig 1: request frequency by response time ==="]
    rows = []
    for clients, panel in sorted(panels.items()):
        modes = panel["modes"]
        rows.append([
            f"WL {clients}",
            f"{panel['throughput_rps']:.0f} req/s",
            f"{panel['highest_avg_cpu'] * 100:.0f}%",
            panel["vlrt"],
            " ".join(
                f"{k}:{v}" for k, v in sorted(modes.items()) if v
            ),
        ])
    lines.append(
        format_table(
            ["workload", "throughput", "top avg CPU", "VLRT",
             "mode clusters (k: n near 3k s)"],
            rows,
        )
    )
    for clients, panel in sorted(panels.items()):
        lines.append(f"\n--- WL {clients} (semi-log frequency) ---")
        lines.append(histogram_rows(panel["histogram"]))
    return "\n".join(lines)


def runs(panels):
    """Each panel's RunResult, labelled by its workload level."""
    return {f"wl{clients}": panel["result"]
            for clients, panel in panels.items()}


def single_run(variant=None, clients=7000, duration=45.0):
    """The run ``repro diagnose`` and ``repro profile`` take:
    ``(heading, simulate)`` (see :mod:`repro.experiments.runner`).  The
    panels differ only in workload, so there is no variant to pick."""
    if variant is not None:
        raise ValueError(f"no variant {variant!r}: the panels differ only "
                         "in workload (--workload)")

    def simulate(bus=None):
        return run_one(clients, duration=duration, warmup=5.0,
                       bus=bus)["result"]

    return f" @ WL {clients}, {duration:.0f}s", simulate
