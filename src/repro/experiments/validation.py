"""Substrate validation: simulator vs closed-form queueing theory.

Before trusting the simulator's CTQO results, check that its steady
state agrees with what an M/G/1-PS closed network predicts when nothing
pathological is injected.  For each workload level this module runs the
synchronous stack with *no* millibottleneck source and compares:

- throughput (fixed point of ``X = N / (Z + R(X))``),
- per-tier utilization,
- mean response time,

against :class:`repro.core.queueing.SteadyStateModel`.  Agreement within
a few percent validates the CPU/network/server substrates; the CTQO
phenomena then rest on the *additional* mechanisms (bounded queues,
drops, retransmission) the analytic model deliberately omits.
"""

from __future__ import annotations

from ..core.evaluation import Scenario
from ..core.queueing import SteadyStateModel
from ..topology.configs import SystemConfig
from .report import format_table

__all__ = ["WORKLOADS", "check_claims", "record", "report", "run"]

WORKLOADS = (2000, 4000, 7000, 8000)


def run_point(clients, duration=40.0, warmup=8.0, seed=42, streaming=False):
    scenario = Scenario(SystemConfig(nx=0, seed=seed, streaming=streaming),
                        clients=clients,
                        duration=duration, warmup=warmup)
    result = scenario.run()
    model = SteadyStateModel(result.system.app, think_mean=7.0)
    predicted = model.solve(clients)
    summary = result.summary()
    return {
        "clients": clients,
        "measured_tput": summary["throughput_rps"],
        "predicted_tput": predicted["throughput_rps"],
        "measured_app_util": result.cpu_mean()[result.names["app"]],
        "predicted_app_util": predicted["utilization"]["app"],
        "measured_mean_ms": summary["mean_ms"],
        "predicted_mean_ms": predicted["response_time_s"] * 1000,
        "dropped": summary["dropped_packets"],
    }


def run(workloads=WORKLOADS, duration=40.0, warmup=8.0, seed=42,
        streaming=False):
    return [run_point(c, duration, warmup, seed, streaming=streaming)
            for c in workloads]


def record(points):
    """The registry record of :func:`run`'s points."""
    return {"points": {str(point["clients"]): point for point in points}}


def report(points):
    rows = []
    for point in points:
        tput_err = (point["measured_tput"] / point["predicted_tput"] - 1) * 100
        util_err = (point["measured_app_util"]
                    - point["predicted_app_util"]) * 100
        rows.append([
            f"WL {point['clients']}",
            f"{point['predicted_tput']:.0f} / {point['measured_tput']:.0f}",
            f"{tput_err:+.1f}%",
            f"{point['predicted_app_util'] * 100:.0f}% / "
            f"{point['measured_app_util'] * 100:.0f}%",
            f"{util_err:+.1f}pp",
            f"{point['predicted_mean_ms']:.1f} / "
            f"{point['measured_mean_ms']:.1f}",
        ])
    table = format_table(
        ["workload", "tput pred/meas", "err",
         "app util pred/meas", "err", "mean ms pred/meas"],
        rows,
    )
    return (
        "=== substrate validation: queueing theory vs simulator "
        "(no millibottlenecks) ===\n" + table
    )


def check_claims(points):
    """Clean runs must not drop: no millibottleneck source, no CTQO."""
    return [
        f"WL {point['clients']} dropped {point['dropped']} packets "
        "without a millibottleneck"
        for point in points if point["dropped"]
    ]
