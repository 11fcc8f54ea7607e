"""The paper's Fig 2: two complete systems sharing one physical core.

Most experiments in this repository model SysBursty as a CPU-demand
antagonist (see :class:`~repro.injectors.ColocationInjector` and the
substitution table in DESIGN.md) because only its co-located MySQL's CPU
demand affects SysSteady.  For full fidelity this module builds the
actual Fig 2 deployment: **two** complete 3-tier systems, where
SysBursty's MySQL VM lives on the same physical host as one of
SysSteady's tiers, and SysBursty is driven by its own small,
burst-index-100 client population.

SysBursty's interaction mix is database-heavy (the paper drove it with
ViewStory requests): during a workload burst its MySQL demands several
cores' worth of CPU, saturating the shared machine and starving the
co-resident SysSteady tier — millibottlenecks emerge from workload
dynamics rather than from scripted injection.
"""

from __future__ import annotations

from dataclasses import replace

from ..apps.rubbos import InteractionSpec
from ..sim.kernel import Simulator
from ..units import ms
from ..workload.generators import ClosedLoopPopulation, MmppOpenLoop
from .builder import build_system
from .configs import SystemConfig

__all__ = ["ConsolidatedPair", "build_consolidated_pair", "sysbursty_mix"]


def sysbursty_mix(stochastic=True):
    """SysBursty's interaction mix: ViewStory-style, database-heavy.

    Between bursts SysBursty-MySQL consumes ~10 % of the shared core
    ("a negligible amount"); during a burst episode the arrival rate
    spikes ~15x and its queries demand well over a full core — the
    saturation that starves the co-resident SysSteady VM.
    """
    return [
        InteractionSpec(
            "ViewStory", 1.0, web_work=ms(0.1),
            app_stages=(ms(0.05), ms(0.1), ms(0.1)),
            db_queries=(ms(0.25), ms(0.25)),
            stochastic=stochastic,
        ),
    ]


class ConsolidatedPair:
    """SysSteady + SysBursty sharing one physical host (Fig 2)."""

    def __init__(self, sim, steady, bursty, shared_host):
        self.sim = sim
        self.steady = steady
        self.bursty = bursty
        self.shared_host = shared_host
        self.steady_clients = None
        self.bursty_clients = None

    def start_workloads(self, steady_clients=7000, steady_think=7.0,
                        bursty_normal_rate=60.0, bursty_burst_rate=4000.0,
                        burst_duration=0.6, normal_duration=14.0,
                        sampler=None):
        """Attach both systems' workloads (paper's §IV-A).

        SysSteady is the standard closed-loop population.  SysBursty is
        driven by a Markov-modulated Poisson process — the open-loop
        form of Mi et al.'s burst-index workload: a light trickle
        between episodes ("SysBursty MySQL consumes a negligible
        amount") and rare sub-second episodes whose arrival rate spikes
        by almost two orders of magnitude, saturating the shared core.
        (Think-time modulation of a closed population cannot switch an
        arrival rate within a half-second episode — sleeping clients do
        not wake for a burst — so the MMPP form is the faithful one.)
        ``sampler`` is SysSteady's trace sampler (live telemetry's).
        """
        self.steady_clients = ClosedLoopPopulation(
            self.sim, self.steady.fabric, self.steady.entry,
            self.steady.app, self.steady.log,
            clients=steady_clients, think_mean=steady_think,
            rng_label="syssteady-clients", sampler=sampler,
        ).start()
        self.bursty_clients = MmppOpenLoop(
            self.sim, self.bursty.fabric, self.bursty.entry,
            self.bursty.app, self.bursty.log,
            normal_rate=bursty_normal_rate, burst_rate=bursty_burst_rate,
            burst_duration=burst_duration, normal_duration=normal_duration,
            rng_label="sysbursty-mmpp",
        ).start()
        return self

    def attach_monitor(self, interval=None):
        """One monitor over SysSteady's tiers plus SysBursty's MySQL."""
        monitor = self.steady.attach_monitor(interval=interval)
        monitor.watch_vm(self.bursty.names["db"], self.bursty.vms["db"])
        monitor.watch_server(self.bursty.names["db"],
                             self.bursty.servers["db"])
        return monitor

    def __repr__(self):
        return (
            f"<ConsolidatedPair shared={self.shared_host.name} "
            f"steady={self.steady!r}>"
        )


def build_consolidated_pair(steady_config=None, bursty_config=None,
                            shared_tier="app", sim=None,
                            bursty_db_shares=30.0):
    """Build the Fig 2 deployment.

    SysBursty's *database* VM is placed on SysSteady's ``shared_tier``
    host (the paper co-locates SysBursty-MySQL with SysSteady-Tomcat in
    §IV-A and with SysSteady-MySQL in §V-C).

    ``bursty_db_shares`` models the severity of consolidation
    interference at millisecond timescales: an idealised fair-share
    scheduler would never starve the victim below 50 %, but the paper's
    Fig 3(a)/9(a) show the bursting VM effectively monopolising the
    core during its episodes (cache pollution and scheduling granularity
    compound the raw CPU contention).  The default matches the severity
    used by :class:`~repro.injectors.ColocationInjector`; set it to 1.0
    for idealised fair sharing.
    """
    steady_config = steady_config or SystemConfig()
    if bursty_config is None:
        bursty_config = replace(
            steady_config,
            nx=0,
            interaction_specs=sysbursty_mix(),
            app_vcpus=1,
        )
    if shared_tier not in ("web", "app", "db"):
        raise ValueError(f"unknown shared tier {shared_tier!r}")
    if sim is not None and sim.seed != steady_config.seed:
        raise ValueError(
            f"simulator seed {sim.seed!r} != steady_config.seed "
            f"{steady_config.seed!r}; forked RNG streams would not be "
            "reproducible from the config"
        )
    sim = sim or Simulator(seed=steady_config.seed)
    steady = build_system(steady_config, sim=sim)
    bursty = build_system(
        bursty_config, sim=sim,
        host_overrides={"db": steady.hosts[shared_tier]},
        name_prefix="sysbursty-",
    )
    bursty.vms["db"].shares = bursty_db_shares
    return ConsolidatedPair(sim, steady, bursty,
                            steady.hosts[shared_tier])
