"""The timeline figures (Fig 3, 5, 7, 8, 9, 10, 11): one table, one runner.

Each of those figures is the same three-panel story told under a
different configuration:

  (a) fine-grained CPU (or iowait) utilization showing millibottlenecks,
  (b) per-server queue depths showing where MaxSysQDepth is reached,
  (c) VLRT requests per 50 ms window showing the dropped packets.

:data:`TIMELINES` holds each figure's :class:`TimelineSpec`, keyed by
its registry name, so a new timeline figure is one more row.
:meth:`TimelineSpec.run` executes a row (or one of its variants) and
returns a :class:`TimelineResult` that knows how to check the figure's
headline claims and render the three panels as text;
:meth:`TimelineSpec.record` turns it into the row's registry record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.evaluation import Scenario
from ..topology.configs import SystemConfig
from .report import ascii_timeline, format_table

__all__ = ["TIMELINES", "TimelineResult", "TimelineSpec"]

#: burst instants used by the consolidation timelines (a 45 s run),
#: mirroring the paper's irregular marks (e.g. 2/5/9/15 s in Fig 3).
DEFAULT_BURST_TIMES = (15.0, 22.0, 29.0, 36.0)


@dataclass
class TimelineSpec:
    """One timeline experiment's parameters.

    A row of :data:`TIMELINES` is also the experiment ``repro run``,
    ``repro diagnose`` and ``repro profile`` drive for its registry
    name (see :func:`repro.experiments.runner.experiment`).
    """

    figure: str
    title: str
    nx: int
    bottleneck_kind: str          # "consolidation" or "logflush"
    bottleneck_tier: str          # "web" | "app" | "db"
    clients: int = 7000
    duration: float = 45.0
    warmup: float = 5.0
    burst_times: tuple = DEFAULT_BURST_TIMES
    flush_period: float = 30.0
    flush_duration: float = 0.5
    flush_offset: float = 10.0
    app_vcpus: int = 1
    seed: int = 42
    expect_drops_at: tuple = ()   # server display names
    expect_no_drops: bool = False
    config_overrides: dict = field(default_factory=dict)
    #: the paper's claim, as EXPERIMENTS.md quotes it
    claim: str = ""
    #: named variants, each run as one more registry job of this row
    #: (``run(variant=...)``)
    variants: dict = field(default_factory=dict)

    def build_config(self):
        return SystemConfig(
            nx=self.nx, seed=self.seed, app_vcpus=self.app_vcpus,
            **self.config_overrides,
        )

    def scaled(self, duration=None, clients=None, seed=None):
        """A copy resized for quick tests or benchmark budgets."""
        out = replace(self)
        if duration is not None:
            out.duration = duration
            out.burst_times = tuple(
                t for t in self.burst_times if t < duration - 2.0
            )
        if clients is not None:
            out.clients = clients
        if seed is not None:
            out.seed = seed
        return out

    def variant(self, name=None):
        """The named variant of this row (``None``: the row itself)."""
        if name is None:
            return self
        if name not in self.variants:
            valid = ", ".join(sorted(self.variants)) or "none"
            raise ValueError(f"unknown {self.figure} variant {name!r}; "
                             f"valid variants: {valid}")
        return self.variants[name]

    def run(self, duration=None, clients=None, seed=None, bus=None,
            streaming=False, variant=None):
        """Execute the row, or its named ``variant``, optionally
        rescaled, and wrap the result.

        ``bus`` (an :class:`~repro.sim.instrument.EventBus`) switches the
        instrumentation hooks on for this run; ``None`` (the default)
        keeps them on the zero-cost disabled branch.  ``streaming=True``
        runs the figure with the O(1)-memory request log
        (docs/SCALE.md); the three panels and claim checks are
        unchanged — they only need counters, monitors, and the
        exactly-retained VLRT records.
        """
        spec = self.variant(variant).scaled(duration=duration,
                                            clients=clients, seed=seed)
        config = spec.build_config()
        if streaming:
            config = replace(config, streaming=True)
        scenario = Scenario(
            config, clients=spec.clients,
            duration=spec.duration, warmup=spec.warmup, bus=bus,
        )
        if spec.bottleneck_kind == "consolidation":
            scenario.with_consolidation(spec.bottleneck_tier,
                                        times=list(spec.burst_times))
        elif spec.bottleneck_kind == "logflush":
            scenario.with_log_flush(
                spec.bottleneck_tier, period=spec.flush_period,
                duration=spec.flush_duration, offset=spec.flush_offset,
            )
        else:
            raise ValueError(
                f"unknown bottleneck kind {spec.bottleneck_kind!r}"
            )
        return TimelineResult(spec, scenario.run())

    # the experiment interface of a row ----------------------------------
    @staticmethod
    def record(result):
        """The registry record of one run of the row or a variant."""
        return {
            "figure": result.spec.figure,
            "summary": result.summary(),
            "queue_max": result.run.queue_max(),
            "claim_failures": result.check_claims(),
        }

    @staticmethod
    def report(result):
        return result.report()

    @staticmethod
    def check_claims(result):
        return result.check_claims()

    @staticmethod
    def runs(result):
        """The figure's one single run; its files carry the bare
        registry name."""
        return {"": result.run}

    def single_run(self, variant=None, clients=None, duration=None):
        """The run ``repro diagnose`` and ``repro profile`` take:
        ``(heading, simulate)`` (see :mod:`repro.experiments.runner`)."""
        spec = self.variant(variant)
        length = spec.duration if duration is None else duration

        def simulate(bus=None):
            return spec.run(duration=duration, clients=clients, bus=bus).run

        return f": {spec.title} ({length:.0f}s)", simulate


class TimelineResult:
    """A finished timeline run plus its figure-shaped views."""

    def __init__(self, spec, run):
        self.spec = spec
        self.run = run

    # convenience passthroughs ------------------------------------------
    @property
    def names(self):
        return self.run.names

    @property
    def drops(self):
        return self.run.drops

    def summary(self):
        return self.run.summary()

    # the figure's three panels -----------------------------------------
    def panel_a(self):
        """(label, TimeSeries) pairs: utilization of the relevant VMs."""
        rows = []
        for tier in ("web", "app", "db"):
            rows.append((self.names[tier], self.run.cpu_series(tier)))
        if self.spec.bottleneck_kind == "logflush":
            tier = self.spec.bottleneck_tier
            rows.append(
                (f"{self.names[tier]}-iowait", self.run.iowait_series(tier))
            )
        else:
            for injector in self.run.injectors:
                vm = getattr(injector, "vm", None)
                if vm is not None and vm.name in self.run.monitor.cpu:
                    rows.append((vm.name, self.run.monitor.cpu[vm.name]))
        return rows

    def panel_b(self):
        """(label, TimeSeries, MaxSysQDepth) triples: queue depths."""
        rows = []
        for tier in ("web", "app", "db"):
            server = self.run.system.servers[tier]
            rows.append(
                (self.names[tier], self.run.queue_series(tier),
                 server.max_sys_q_depth)
            )
        return rows

    def panel_c(self, window=0.05):
        """VLRT-per-window TimeSeries (Fig x(c))."""
        return self.run.vlrt_series(window=window)

    # claim checking ------------------------------------------------------
    def check_claims(self):
        """Compare observed drop sites against the figure's claims.

        Returns a list of failure strings (empty = the shape holds).
        """
        failures = []
        drops = self.drops
        if self.spec.expect_no_drops:
            if any(drops.values()):
                failures.append(f"expected no drops, saw {drops}")
        for name in self.spec.expect_drops_at:
            if drops.get(name, 0) == 0:
                failures.append(f"expected drops at {name}, saw {drops}")
        unexpected = [
            name for name, count in drops.items()
            if count > 0 and name not in self.spec.expect_drops_at
        ]
        if not self.spec.expect_no_drops and self.spec.expect_drops_at:
            # secondary drop sites are tolerated if small relative to the
            # primary site (the paper's figures show minor companion drops)
            primary = max(drops.get(n, 0) for n in self.spec.expect_drops_at)
            for name in unexpected:
                if drops[name] > max(10, 0.2 * primary):
                    failures.append(
                        f"unexpectedly large drops at {name}: {drops}"
                    )
        return failures

    def report(self):
        """Render the whole figure as text."""
        spec = self.spec
        lines = [
            f"=== {spec.figure}: {spec.title} ===",
            f"stack: {'-'.join(self.names[t] for t in ('web', 'app', 'db'))}"
            f"   WL {spec.clients} clients, {spec.duration:.0f}s run",
            "",
            "(a) CPU utilization",
        ]
        for label, series in self.panel_a():
            lines.append(ascii_timeline(series, label=label, vmax=1.0))
        lines.append("")
        lines.append("(b) queued requests (threshold = MaxSysQDepth)")
        queues = self.panel_b()
        for label, series, threshold in queues:
            lines.append(
                ascii_timeline(series, label=f"{label}({threshold})")
            )
        lines.append("")
        lines.append("(c) VLRT requests per 50 ms")
        lines.append(ascii_timeline(self.panel_c(), label="VLRT"))
        lines.append("")
        summary = self.summary()
        lines.append(
            format_table(
                ["requests", "throughput", "VLRT", "dropped", "drop sites"],
                [[
                    summary["requests"],
                    f"{summary['throughput_rps']:.0f} req/s",
                    summary["vlrt"],
                    summary["dropped_packets"],
                    ", ".join(
                        f"{k}:{v}" for k, v in summary["drops_by_server"].items()
                        if v
                    ) or "none",
                ]],
            )
        )
        # end-of-run values: Apache's grows when it spawns its second
        # process
        lines.append("")
        lines.extend(f"MaxSysQDepth({label}) = {threshold}"
                     for label, _series, threshold in queues)
        failures = self.check_claims()
        lines.append("")
        if failures:
            lines.append("CLAIM CHECK: FAILED")
            lines.extend(f"  - {f}" for f in failures)
        else:
            lines.append("CLAIM CHECK: ok — drop sites match the paper")
        return "\n".join(lines)


#: every timeline figure, keyed by its registry name, in the paper's
#: order
TIMELINES = {
    # The fully synchronous stack (Apache-Tomcat-MySQL) at WL 7000 with
    # SysBursty-MySQL consolidated onto the Tomcat host.  Each burst
    # starves Tomcat; its queues fill to MaxSysQDepth(Tomcat), push-back
    # fills Apache to MaxSysQDepth(Apache)=278 (428 once a second Apache
    # process spawns), and packets drop *at Apache*: panel (c)'s spikes.
    "fig03": TimelineSpec(
        figure="Fig 3",
        title="upstream CTQO, CPU millibottleneck in Tomcat "
              "(VM consolidation)",
        claim="drops at Apache; Tomcat queue caps at 293; Apache plateau "
              "278 then 428 via second process",
        nx=0,
        bottleneck_kind="consolidation",
        bottleneck_tier="app",
        expect_drops_at=("apache",),
    ),
    # The synchronous stack, Tomcat scaled to four cores, and collectl
    # flushing its log on the MySQL node every 30 s.  Each flush freezes
    # MySQL; queued queries exceed Tomcat's connection pool, Tomcat and
    # then Apache fill up, and Apache drops: a two-hop upstream cascade.
    "fig05": TimelineSpec(
        figure="Fig 5",
        title="upstream CTQO, I/O millibottleneck in MySQL "
              "(collectl log flush)",
        claim="I/O freeze in MySQL cascades to Apache drops",
        nx=0,
        bottleneck_kind="logflush",
        bottleneck_tier="db",
        duration=80.0,
        flush_period=30.0,
        flush_duration=0.5,
        flush_offset=10.0,
        app_vcpus=4,
        expect_drops_at=("apache",),
    ),
    # NX=1, Nginx-Tomcat-MySQL: Nginx's ~65535-deep lightweight queue
    # never drops, so it keeps forwarding into the stalled Tomcat, which
    # drops past MaxSysQDepth(Tomcat)=293 (downstream CTQO).  The §V-B
    # variant stalls MySQL instead: the still-synchronous Tomcat blocks
    # on its 50-connection pool and drops (upstream CTQO).
    "fig07": TimelineSpec(
        figure="Fig 7",
        title="NX=1, downstream CTQO at Tomcat (millibottleneck in Tomcat)",
        claim="no drops at Nginx; Tomcat drops at 293",
        nx=1,
        bottleneck_kind="consolidation",
        bottleneck_tier="app",
        expect_drops_at=("tomcat",),
        variants={
            "mysql": TimelineSpec(
                figure="§V-B",
                title="NX=1, upstream CTQO at Tomcat "
                      "(millibottleneck in MySQL)",
                claim="MySQL millibottleneck still drops at Tomcat "
                      "(upstream CTQO through the JDBC pool)",
                nx=1,
                bottleneck_kind="consolidation",
                bottleneck_tier="db",
                expect_drops_at=("tomcat",),
            ),
        },
    ),
    # NX=2, Nginx-XTomcat-MySQL: the asynchronous tiers never suffer
    # CTQO, but their continuous inflow overwhelms the synchronous MySQL
    # during its own stall; it drops past 100 threads + 128 backlog = 228.
    "fig08": TimelineSpec(
        figure="Fig 8",
        title="NX=2, downstream CTQO at MySQL (millibottleneck in MySQL)",
        claim="MySQL drops; queue caps at 228 = 100+128",
        nx=2,
        bottleneck_kind="consolidation",
        bottleneck_tier="db",
        expect_drops_at=("mysql",),
    ),
    # NX=2 with the stall in the asynchronous XTomcat: requests park in
    # its lightweight queue, and when the stall ends XTomcat fires their
    # queries in one batch that overflows MySQL's 228.
    "fig09": TimelineSpec(
        figure="Fig 9",
        title="NX=2, downstream CTQO at MySQL (millibottleneck in XTomcat)",
        claim="XTomcat's post-stall batch floods MySQL",
        nx=2,
        bottleneck_kind="consolidation",
        bottleneck_tier="app",
        expect_drops_at=("mysql",),
    ),
    # NX=3, Nginx-XTomcat-XMySQL: XTomcat's post-stall batch lands in
    # XMySQL's lightweight queue (8 executors + a 2000-entry queue), which
    # absorbs it; nothing drops and no VLRT request appears.
    "fig10": TimelineSpec(
        figure="Fig 10",
        title="NX=3, no CTQO despite millibottleneck in XTomcat",
        claim="no drops, no VLRT despite the same millibottlenecks",
        nx=3,
        bottleneck_kind="consolidation",
        bottleneck_tier="app",
        expect_no_drops=True,
    ),
    # NX=3 under Fig 5's log-flush freeze, now in XMySQL: every tier
    # buffers to similar depths (no cross-tier amplification) and
    # nothing drops.
    "fig11": TimelineSpec(
        figure="Fig 11",
        title="NX=3, no CTQO despite I/O millibottleneck in XMySQL",
        claim="no drops, no VLRT despite the I/O freezes",
        nx=3,
        bottleneck_kind="logflush",
        bottleneck_tier="db",
        duration=80.0,
        flush_period=30.0,
        flush_duration=0.5,
        flush_offset=10.0,
        expect_no_drops=True,
    ),
}
