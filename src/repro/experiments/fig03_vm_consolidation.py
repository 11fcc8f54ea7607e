"""Fig 3 — upstream CTQO from a CPU millibottleneck (VM consolidation).

The fully synchronous stack (Apache-Tomcat-MySQL) at WL 7000, with
SysBursty-MySQL consolidated onto the Tomcat host.  Each burst saturates
the shared core; Tomcat's queues fill to MaxSysQDepth(Tomcat), push-back
fills Apache to MaxSysQDepth(Apache)=278, a second Apache process raises
the plateau to 428, and overflowing packets are dropped *at Apache* —
becoming the VLRT spikes of panel (c).
"""

from __future__ import annotations

from ..topology.builder import build_system
from .timeline import TimelineSpec, run_timeline, timeline_record

__all__ = ["SPEC", "run", "run_experiment", "main"]

SPEC = TimelineSpec(
    figure="Fig 3",
    title="upstream CTQO, CPU millibottleneck in Tomcat (VM consolidation)",
    nx=0,
    bottleneck_kind="consolidation",
    bottleneck_tier="app",
    expect_drops_at=("apache",),
)


def run(duration=None, clients=None, seed=None):
    return run_timeline(SPEC, duration=duration, clients=clients, seed=seed)


def run_experiment(config):
    """Uniform registry entry point (see repro.experiments.runner)."""
    return timeline_record(SPEC, config)


def main():
    result = run()
    print(result.report())
    # the paper's two queue plateaus
    apache = result.run.system.servers["web"]
    tomcat = result.run.system.servers["app"]
    # a freshly built Apache has not spawned its second process yet
    built = build_system(SPEC.build_config()).servers["web"]
    print(
        f"\nMaxSysQDepth(Apache) grew {built.max_sys_q_depth}"
        f" -> {apache.max_sys_q_depth} (second process: "
        f"{apache.processes} processes)"
    )
    print(f"MaxSysQDepth(Tomcat) = {tomcat.max_sys_q_depth}")
    return result


if __name__ == "__main__":
    main()
