"""Fig 2 + Fig 3 at full fidelity: two complete systems, one shared core.

The other consolidation experiments model SysBursty as a CPU-demand
antagonist (equivalent for the victim, cheap to control).  This
experiment builds the paper's actual Fig 2 deployment — a second,
complete 3-tier RUBBoS system whose MySQL VM shares the physical host
with SysSteady-Tomcat, driven by its own burst-index workload — and
demonstrates that the Fig 3 phenomenology (upstream CTQO, drops at
Apache, plateaus at 293/428) **emerges** from the interaction of two
ordinary systems, with no scripted millibottlenecks at all.
"""

from __future__ import annotations

from ..core.evaluation import simulate
from ..topology.configs import SystemConfig
from ..topology.consolidation import build_consolidated_pair
from .report import ascii_timeline, format_table

__all__ = ["record", "report", "run"]


def run(duration=60.0, warmup=5.0, seed=42, streaming=False):
    """Run the consolidated pair; returns a result dict whose
    ``"result"`` is SysSteady's :class:`~repro.core.evaluation.RunResult`."""
    if streaming:
        raise ValueError(
            "fig02 needs the exact per-request log (the emergent-"
            "consolidation analysis reads both coupled systems' full "
            "record lists); run it without streaming"
        )
    pair = build_consolidated_pair(SystemConfig(nx=0, seed=seed))

    def start(_monitor, sampler):
        pair.start_workloads(sampler=sampler)
        return ()

    result = simulate(pair.steady, duration, warmup, start=start,
                      monitor=pair.attach_monitor())
    return {
        "pair": pair,
        "result": result,
        "summary": result.summary(),
        "burst_times": [
            t for t, state in pair.bursty_clients.transitions
            if state == "burst"
        ],
    }


def record(result):
    """The registry record of :func:`run`'s result."""
    return {
        "summary": result["summary"],
        "burst_times": list(result["burst_times"]),
    }


def report(result):
    pair = result["pair"]
    monitor = result["result"].monitor
    summary = result["summary"]
    names = pair.steady.names
    lines = [
        "=== Fig 2 (full fidelity): SysSteady + SysBursty on one core ===",
        "",
        "(a) CPU of the shared host's tenants",
        ascii_timeline(monitor.cpu[names["app"]], label=names["app"],
                       vmax=1.0),
        ascii_timeline(monitor.cpu[pair.bursty.names["db"]],
                       label=pair.bursty.names["db"], vmax=1.0),
        "",
        "(b) SysSteady queue depths",
        ascii_timeline(monitor.queues[names["web"]],
                       label=f"{names['web']}(428)"),
        ascii_timeline(monitor.queues[names["app"]],
                       label=f"{names['app']}(293)"),
        "",
        format_table(
            ["burst episodes", "throughput", "VLRT", "drop sites"],
            [[
                ", ".join(f"{t:.1f}s" for t in result["burst_times"]),
                f"{summary['throughput_rps']:.0f} req/s",
                summary["vlrt"],
                ", ".join(f"{k}:{v}" for k, v in
                          summary["drops_by_server"].items() if v) or "none",
            ]],
        ),
        "",
        "Same upstream-CTQO signature as Fig 3, but the millibottlenecks "
        "here are emergent:\nSysBursty's workload bursts saturate its "
        "MySQL, which starves the co-resident\nSysSteady-Tomcat — nothing "
        "in this experiment is scripted.",
    ]
    return "\n".join(lines)
