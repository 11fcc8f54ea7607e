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

from ..metrics import live
from ..topology.configs import SystemConfig
from ..topology.consolidation import build_consolidated_pair
from .report import ascii_timeline, format_table

__all__ = ["report", "run", "run_experiment"]


def run(duration=60.0, warmup=5.0, seed=42):
    """Run the consolidated pair; returns a result dict."""
    pair = build_consolidated_pair(SystemConfig(nx=0, seed=seed))
    monitor = pair.attach_monitor()
    telemetry, sampler = live.attach_configured(pair.steady, monitor)
    pair.start_workloads(sampler=sampler)
    pair.sim.run(until=duration)
    if telemetry is not None:
        telemetry.finish()
    log = pair.steady.log.after(warmup)
    summary = log.summary(duration - warmup)
    summary["drops_by_server"] = pair.steady.drop_counts()
    summary["dropped_packets"] = pair.steady.total_drops()
    burst_times = [
        t for t, state in pair.bursty_clients.transitions if state == "burst"
    ]
    return {
        "pair": pair,
        "monitor": monitor,
        "summary": summary,
        "burst_times": burst_times,
        "duration": duration,
        "telemetry": telemetry,
    }


def run_experiment(config):
    """Uniform registry entry point (see repro.experiments.runner)."""
    if config.params.get("streaming"):
        raise ValueError(
            "fig02 needs the exact per-request log (the emergent-"
            "consolidation analysis reads both coupled systems' full "
            "record lists); run it without streaming"
        )
    result = run(duration=config.duration or 60.0, seed=config.seed)
    return {
        "summary": result["summary"],
        "burst_times": list(result["burst_times"]),
    }


def report(result):
    pair = result["pair"]
    monitor = result["monitor"]
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
