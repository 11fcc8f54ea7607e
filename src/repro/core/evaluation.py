"""The one run lifecycle, the scenario runner and the NX-sweep harness.

:func:`simulate` runs a built system — warm-up, monitor, live
telemetry, clients and injectors, the simulator, the result — and is
the only code that does so: every experiment's simulated run goes
through it and returns a :class:`RunResult` with everything the
paper's figures are drawn from.  :class:`Scenario` assembles a 3-tier
experiment — system, workload, millibottleneck injectors — and runs it
through :func:`simulate`.  :func:`nx_sweep` repeats one scenario across
asynchrony levels (NX = 0..3), which is the paper's §V evaluation
method: "All the experiments use the same workload to produce the same
millibottlenecks, so we can study and compare the impact of
asynchronous messages".
"""

from __future__ import annotations

from dataclasses import replace

from ..injectors.colocation import ColocationInjector
from ..injectors.gcpause import GcPauseInjector
from ..injectors.logflush import LogFlushInjector
from ..injectors.netjam import NetworkJamInjector
from ..metrics import live as live_telemetry
from ..metrics.attribution import CtqoAttributor
from ..metrics.detector import (
    detect_millibottlenecks,
    overflow_episodes,
    overflow_gauge,
)
from ..topology.builder import build_system
from ..topology.configs import SystemConfig
from ..workload.generators import ClosedLoopPopulation
from ..workload.openloop import ArrayOpenLoop

__all__ = ["RunResult", "Scenario", "nx_sweep", "simulate"]

#: Severe-consolidation defaults used across the §V experiments: the
#: antagonist demands one full second of CPU with dominant scheduler
#: shares, starving the victim almost completely — matching the paper's
#: Fig 3(a)/9(a) where the bursting VM grabs ~100 % of the shared core.
CONSOLIDATION_BURST_CPU = 1.0
CONSOLIDATION_BURST_JOBS = 400
CONSOLIDATION_SHARES = 30.0


def _one(obj):
    """First replica when a replicated system hands back a list."""
    return obj[0] if isinstance(obj, list) else obj


class RunResult:
    """Everything observable from one finished run (see :func:`simulate`).

    ``config`` is the system's
    :class:`~repro.topology.configs.SystemConfig`, or ``None`` for a
    built service graph; ``scenario`` is the :class:`Scenario` behind
    the run, set only by :meth:`Scenario.run`.
    """

    def __init__(self, system, log, monitor, duration, warmup,
                 injectors=(), telemetry=None):
        self.system = system
        self.config = getattr(system, "config", None)
        self.scenario = None
        self.log = log
        self.monitor = monitor
        self.injectors = list(injectors)
        self.duration = duration
        self.warmup = warmup
        self.names = system.names
        #: the run's :class:`~repro.metrics.live.LiveTelemetry`, or
        #: ``None`` when live mode was off
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    @property
    def measured_duration(self):
        return self.duration - self.warmup

    @property
    def drops(self):
        """Server display name → packets dropped there."""
        return self.system.drop_counts()

    @property
    def dropped_packets(self):
        return self.system.total_drops()

    @property
    def sheds(self):
        """Server display name → packets 503'd there."""
        return self.system.shed_counts()

    @property
    def shed_packets(self):
        return self.system.total_sheds()

    def summary(self):
        """Client-side digest over the measured window."""
        out = self.log.summary(self.measured_duration)
        out["drops_by_server"] = self.drops
        out["dropped_packets"] = self.dropped_packets
        # shed keys appear only when a load-shedding admission actually
        # fired, so classic (drop/retransmit-only) runs keep their
        # golden summaries byte-identical
        if self.shed_packets:
            out["sheds_by_server"] = self.sheds
            out["shed_packets"] = self.shed_packets
        return out

    # figure-oriented accessors ----------------------------------------
    def cpu_series(self, tier):
        return self.monitor.cpu[self.names[tier]]

    def iowait_series(self, tier):
        return self.monitor.iowait[self.names[tier]]

    def queue_series(self, tier):
        return self.monitor.queues[self.names[tier]]

    def queue_max(self):
        return {
            name: int(self.monitor.queues[name].max())
            for name, _server in self.system.server_items()
        }

    def cpu_mean(self):
        """Per-tier run-average utilization, hypervisor view.

        Operating points use granted core-time: the guest view would
        count every millibottleneck stall as busy time and overstate
        the steady-state load the paper's "highest average CPU util"
        annotations describe.
        """
        return {
            name: self.monitor.host_cpu[name].mean()
            for name, _vm in self.system.vm_items()
        }

    def highest_avg_cpu(self):
        """The paper's "highest average CPU util" figure annotation."""
        return max(self.cpu_mean().values())

    def vlrt_series(self, window=0.05, threshold=3.0):
        return self.log.vlrt_time_series(
            self.duration, window=window, threshold=threshold
        )

    # analysis ----------------------------------------------------------
    def millibottlenecks(self, threshold=0.95, min_duration=0.05,
                         max_duration=2.5):
        return detect_millibottlenecks(
            self.monitor, threshold=threshold,
            min_duration=min_duration, max_duration=max_duration,
        )

    def vm_to_server(self):
        """Map every monitored VM name to the server it stands for.

        A consolidation antagonist maps to the tier it is co-located
        with, since its bursts *are* that tier's millibottlenecks.
        """
        host_items = self.system.host_items()
        vm_of = {name: name for name, _host in host_items}
        for injector in self.injectors:
            vm = getattr(injector, "vm", None)
            if vm is None:
                continue
            for name, host in host_items:
                if host is vm.host:
                    vm_of[vm.name] = name
        return vm_of

    def _tier_order(self):
        """Attributor tier order: plain names, with a tier's replicas
        grouped into a sub-list when it is replicated."""
        return [
            group[0] if len(group) == 1 else group
            for group in self.system.tier_groups()
        ]

    def _attributor(self, **kwargs):
        return CtqoAttributor(
            self._tier_order(), vm_of=self.vm_to_server(),
            edges=self.system.tier_edges(), **kwargs,
        )

    def ctqo_events(self, **kwargs):
        """Every listener drop and 503 shed grouped into classified
        :class:`~repro.metrics.attribution.CtqoEvent` incidents;
        ``kwargs`` go to :meth:`millibottlenecks`."""
        servers = self.system.server_items()
        return self._attributor().ctqo_events(
            self.millibottlenecks(**kwargs),
            {name: [t for t, _ex in server.listener.drop_log]
             for name, server in servers},
            {name: [t for t, _ex in server.listener.shed_log]
             for name, server in servers},
        )

    def attribution(self, threshold=0.95, mb_min_duration=0.15,
                    max_duration=2.5, window=1.0, overflow_slack=2,
                    extra_episodes=()):
        """Per-request CTQO causal chains (the automated Fig 4).

        Links every VLRT/dropped request in the log to its drop site,
        the backlog-overflow episode covering the drop, and the owning
        millibottleneck, labeled with the propagation direction.
        Returns an :class:`~repro.metrics.attribution.AttributionReport`.

        ``extra_episodes`` are appended to the detected millibottleneck
        list before the walk — application-level episodes (e.g. a
        ``cache-miss burst`` from the cache-storage experiments) join
        the ownership search on equal footing: the attributor prefers
        the earliest-starting episode active at a drop, so a burst that
        *caused* a backing-tier saturation owns the chains through it.
        """
        monitor = self.monitor
        overflow = {}
        for name, server in self.system.server_items():
            series, capacity = overflow_gauge(monitor, name, server)
            overflow[name] = overflow_episodes(
                series, capacity, name=name, slack=overflow_slack,
            )
            if server.listener.sheds:
                # a load-shedding admission 503s while the backlog stays
                # empty, so the overflowing resource is the lightweight
                # queue itself: segment its occupancy against the
                # admission depth (MaxSysQDepth minus the backlog part)
                occupancy = monitor.occupancy.get(name)
                if occupancy is not None:
                    depth = server.max_sys_q_depth - server.listener.backlog
                    overflow[name] = list(overflow[name]) + overflow_episodes(
                        occupancy, depth, name=name, slack=overflow_slack,
                    )
        attributor = self._attributor(
            window=window, tolerance=monitor.interval + 1e-9,
        )
        # extras first: ownership prefers the earliest-starting episode
        # and breaks ties by list order, so a same-instant application
        # burst beats the secondary saturation it caused
        episodes = list(extra_episodes)
        episodes.extend(
            self.millibottlenecks(threshold=threshold,
                                  min_duration=mb_min_duration,
                                  max_duration=max_duration)
        )
        return attributor.attribute(self.log, overflow, episodes)

    def __repr__(self):
        stack = (repr(self.system) if self.config is None
                 else f"nx={self.config.nx}")
        return (
            f"<RunResult {stack} requests={len(self.log)} "
            f"drops={self.dropped_packets}>"
        )


def simulate(system, duration, warmup=0.0, *, start, monitor=None,
             live=None):
    """Run a built ``system`` for ``duration`` simulated seconds and
    return its :class:`RunResult`: the one lifecycle of a simulated run.

    In order: declare a streaming log's warm-up; attach ``monitor``
    (the system's own when ``None``; a given one is started here);
    attach the configured live telemetry (``live``, else the
    process-global :func:`repro.metrics.live.configure`); call
    ``start(monitor, sampler)``, which starts the clients and
    injectors and returns the injectors; run the simulator; finish the
    telemetry; and drop the first ``warmup`` seconds from the log.
    """
    log = system.log
    if log.streaming and warmup:
        # a streaming log cannot re-filter folded records post-hoc;
        # declare the warm-up cutoff before the first request
        log.set_warmup(warmup)
    monitor = system.attach_monitor() if monitor is None else monitor.start()
    telemetry, sampler = live_telemetry.attach_configured(
        system, monitor, live
    )
    injectors = start(monitor, sampler)
    system.sim.run(until=duration)
    if telemetry is not None:
        telemetry.finish()
    if warmup:
        log = log.after(warmup)
    return RunResult(system, log, monitor, duration, warmup, injectors,
                     telemetry)


class Scenario:
    """A declarative experiment description.

    Example — the paper's Fig 3 (upstream CTQO from VM consolidation)::

        result = (
            Scenario(SystemConfig(nx=0), clients=7000, duration=60)
            .with_consolidation("app", times=[15, 22, 29, 36])
            .run()
        )

    ``warmup`` excludes the closed-loop ramp-up from client statistics
    (the monitor still records the full run).
    """

    def __init__(self, config=None, clients=7000, think_mean=None,
                 duration=60.0, warmup=5.0, bus=None,
                 live=None):
        self.config = config or SystemConfig()
        self.clients = clients
        self.think_mean = (
            think_mean if think_mean is not None else self.config.think_mean
        )
        if duration <= warmup:
            raise ValueError("duration must exceed warmup")
        self.duration = duration
        self.warmup = warmup
        #: optional instrumentation EventBus, forwarded to build_system
        self.bus = bus
        #: optional :class:`~repro.metrics.live.LiveConfig`; when None
        #: the process-global one (``repro.metrics.live.configure``) is
        #: consulted — that is how ``repro run --live`` reaches every
        #: experiment module without changing their signatures
        self.live = live
        #: one ``inject(system, monitor) -> injector`` per ``with_*``
        #: call, started in declaration order after the clients
        self._injectors = []
        self._open_loop = None

    # ------------------------------------------------------------------
    # millibottleneck sources
    # ------------------------------------------------------------------
    def with_consolidation(self, tier, times=None, period=None,
                           burst_cpu=CONSOLIDATION_BURST_CPU,
                           burst_jobs=CONSOLIDATION_BURST_JOBS,
                           shares=CONSOLIDATION_SHARES, name=None):
        """Consolidate a bursty antagonist VM onto ``tier``'s host.

        ``name`` labels the antagonist VM in monitors and diagnosis
        output; the default keeps the historical ``sysbursty-mysql``
        (changing it would rename golden-record series).
        """
        if (times is None) == (period is None):
            raise ValueError("give exactly one of times= or period=")
        extra = {} if name is None else {"name": name}

        def inject(system, monitor):
            injector = ColocationInjector(
                system.sim, system.host_of(tier),
                burst_cpu_seconds=burst_cpu, burst_jobs=burst_jobs,
                shares=shares, **extra,
            )
            if times is not None:
                injector.scripted(times)
            else:
                injector.periodic(period, self.duration)
            # show the antagonist's CPU alongside the tiers (the
            # black/pink pair of Fig 3(a))
            monitor.watch_vm(injector.vm.name, injector.vm)
            return injector

        self._injectors.append(inject)
        return self

    def with_log_flush(self, tier="db", period=30.0, duration=0.35,
                       offset=None):
        """collectl-style periodic I/O freeze of ``tier``'s VM."""
        self._injectors.append(lambda system, _monitor: LogFlushInjector(
            system.sim, _one(system.vms[tier]), period=period,
            duration=duration, offset=offset,
        ).start())
        return self

    def with_gc_pauses(self, tier="app", period=20.0, min_pause=0.2,
                       max_pause=0.8):
        """Irregular stop-the-world GC pauses on ``tier``'s VM
        (the memory-class millibottleneck of the paper's §II)."""
        self._injectors.append(lambda system, _monitor: GcPauseInjector(
            system.sim, _one(system.vms[tier]), period=period,
            min_pause=min_pause, max_pause=max_pause,
        ).start())
        return self

    def with_network_jam(self, tier="app", period=30.0, duration=0.4,
                         offset=None):
        """Transient delivery stalls on the link into ``tier``
        (the network-class millibottleneck)."""
        self._injectors.append(lambda system, _monitor: NetworkJamInjector(
            system.sim, _one(system.servers[tier]).listener, period=period,
            duration=duration, offset=offset,
        ).start())
        return self

    def with_open_loop(self, rate, distribution="poisson", shape=2.5,
                       sigma=1.0, max_requests=None, batch_size=None):
        """Replace the closed-loop client population with an
        array-backed open-loop stream (:class:`ArrayOpenLoop`) at
        ``rate`` req/s — the million-request workload engine.  The
        ``clients`` count is ignored when an open loop is attached."""
        spec = dict(rate=rate, distribution=distribution, shape=shape,
                    sigma=sigma, max_requests=max_requests)
        if batch_size is not None:
            spec["batch_size"] = batch_size
        self._open_loop = spec
        return self

    # ------------------------------------------------------------------
    def run(self):
        """Build the system and run it through :func:`simulate`: the
        clients start first, then the injectors in declaration order."""
        system = build_system(self.config, bus=self.bus)

        def start(monitor, sampler):
            if self._open_loop is not None:
                ArrayOpenLoop(
                    system.sim, system.fabric, system.entry, system.app,
                    system.log, horizon=self.duration, sampler=sampler,
                    **self._open_loop,
                ).start()
            else:
                ClosedLoopPopulation(
                    system.sim, system.fabric, system.entry, system.app,
                    system.log, clients=self.clients,
                    think_mean=self.think_mean, sampler=sampler,
                ).start()
            return [inject(system, monitor) for inject in self._injectors]

        result = simulate(system, self.duration, self.warmup, start=start,
                          live=self.live)
        result.scenario = self
        return result


def nx_sweep(scenario_factory, levels=(0, 1, 2, 3)):
    """Run the same scenario at several asynchrony levels.

    ``scenario_factory(nx)`` must return a fresh :class:`Scenario` whose
    config has that ``nx``.  Returns ``{nx: RunResult}``.
    """
    results = {}
    for nx in levels:
        scenario = scenario_factory(nx)
        if scenario.config.nx != nx:
            scenario.config = replace(scenario.config, nx=nx)
        results[nx] = scenario.run()
    return results
