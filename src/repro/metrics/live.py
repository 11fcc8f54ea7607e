"""Live telemetry: in-flight heartbeats for streaming-scale runs.

A ``fig01_streaming_1m`` run is in flight for minutes and, before this
module, reported nothing until it finished — the operator was exactly
as flight-blind as the coarse monitoring the paper argues against.
:class:`LiveTelemetry` assembles the online observability layer for
one run:

- a :class:`~repro.metrics.window.LatencyWindows` ring fed from the
  request log's fold path (per request kind) and from every server's
  reply site (per tier), giving rolling p50/p99/p99.9;
- an :class:`~repro.metrics.online.OnlineEpisodeDetector` driven by
  the monitor's sample loop, so saturation/millibottleneck/overflow
  episodes are visible while they are open;
- an optional :class:`~repro.workload.sampling.TraceSampler` whose
  retention/eviction counters ride along in every heartbeat;
- a **heartbeat** emitted every ``interval`` simulated seconds from
  the monitor's own 50 ms sample hook — never from a kernel process of
  its own, so attaching telemetry schedules no events, draws no
  randomness, and perturbs nothing (the same discipline as the event
  bus, and the reason golden records stay byte-identical).

Each heartbeat is one JSON object (see ``docs/OBSERVABILITY.md`` for
the schema) written as a line to the configured sink; ``repro watch``
renders the resulting JSONL.  The pipeline reports its *own* overhead
in every heartbeat: window observations folded, bus events published,
approximate bytes retained by trace sampling, and the wall-clock share
spent inside the telemetry hooks.

Process-level configuration
---------------------------
``configure()`` installs a process-global :class:`LiveConfig` that
every run picks up through :func:`attach_configured` — called by
:func:`repro.core.evaluation.simulate`, the one lifecycle of every
simulated run — the hand-off that lets ``repro run --live`` and
``repro run-all --live`` reach every experiment without threading a
parameter through the experiments' ``run`` signatures.  ``reset()``
clears it; both are cheap and idempotent.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass

from .detector import overflow_gauge
from .online import OnlineEpisodeDetector
from .window import LatencyWindows

__all__ = ["LiveConfig", "LiveTelemetry", "active", "attach_configured",
           "configure", "reset", "render_heartbeats"]

#: rough per-trace-event retention cost (one (time, event, detail)
#: tuple plus list slot) used for the heartbeat's bytes estimate
TRACE_EVENT_BYTES = 120


@dataclass
class LiveConfig:
    """Process-global live-mode settings (see :func:`configure`)."""

    interval: float = 1.0
    sink: object = None          # file-like; None = collect only
    label: str = ""
    window: float = 0.25
    depth: int = 4
    sample_rate: float = None    # head-sampling rate; None = no sampler
    trace_budget: int = 20_000

    def build(self, sim):
        """A fresh :class:`LiveTelemetry` for one run."""
        sampler = None
        if self.sample_rate is not None:
            from ..workload.sampling import TraceSampler

            sampler = TraceSampler(rate=self.sample_rate,
                                   budget=self.trace_budget)
        return LiveTelemetry(
            sim, interval=self.interval, sink=self.sink, label=self.label,
            window=self.window, depth=self.depth, sampler=sampler,
        )


_active = None


def configure(interval=1.0, sink=None, label="", window=0.25, depth=4,
              sample_rate=None, trace_budget=20_000):
    """Install the process-global live configuration and return it."""
    global _active
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    _active = LiveConfig(interval=float(interval), sink=sink, label=label,
                         window=window, depth=depth,
                         sample_rate=sample_rate,
                         trace_budget=trace_budget)
    return _active


def active():
    """The installed :class:`LiveConfig`, or ``None``."""
    return _active


def reset():
    """Clear the process-global live configuration."""
    global _active
    _active = None


def attach_configured(system, monitor, config=None):
    """Live telemetry for one run of a built ``system``.

    Builds ``config`` (default: the process-global one from
    :func:`configure`) and attaches it to ``system`` and its
    ``monitor``.  Returns ``(telemetry, sampler)``: the attached
    :class:`LiveTelemetry` and its trace sampler, each ``None`` when
    live mode (or sampling) is off.
    :func:`repro.core.evaluation.simulate` calls this before
    ``sim.run``, hands ``sampler`` to the run's clients and calls
    ``telemetry.finish()`` after the run.
    """
    config = _active if config is None else config
    if config is None:
        return None, None
    telemetry = config.build(system.sim).attach(system, monitor)
    return telemetry, telemetry.sampler


class LiveTelemetry:
    """The online observability harness for one run.

    Build directly (or via :meth:`LiveConfig.build`), then
    :meth:`attach` to a built system + monitor *before* ``sim.run``;
    call :meth:`finish` after the run to flush trailing episode spans
    and emit the final heartbeat.
    """

    def __init__(self, sim, interval=1.0, sink=None, label="",
                 window=0.25, depth=4, sampler=None):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = float(interval)
        self.sink = sink
        self.label = label
        self.sampler = sampler
        self.windows = LatencyWindows(width=window, depth=depth)
        self.detector = None
        #: every heartbeat emitted, in order (dicts as written)
        self.heartbeats = []
        self._system = None
        self._monitor = None
        self._log = None
        self._next_beat = None
        self._last_completed = 0
        self._last_sim_time = 0.0
        self._wall_started = None
        self._hook_wall = 0.0        # perf_counter seconds inside hooks
        self._finished = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, system, monitor):
        """Hook the run: log observer, per-server reply observers, the
        online detector, and the heartbeat tick on the monitor."""
        if self._system is not None:
            raise RuntimeError("LiveTelemetry is already attached")
        self._system = system
        self._monitor = monitor
        self._log = system.log
        system.log.observer = self._on_request
        for name, server in system.server_items():
            observer = getattr(server, "latency_observer", False)
            if observer is False:
                continue  # a minimal test double without the hook
            server.latency_observer = self._tier_observer(name)
        self.detector = OnlineEpisodeDetector(monitor)
        for name, server in system.server_items():
            self.detector.watch_overflow(
                name, *overflow_gauge(monitor, name, server)
            )
        monitor.listeners.append(self._on_sample)
        self._next_beat = self.sim.now + self.interval
        self._last_sim_time = self.sim.now
        self._wall_started = _time.perf_counter()
        return self

    def _tier_observer(self, name):
        windows, sim = self.windows, self.sim

        def observe(elapsed):
            windows.observe(f"tier:{name}", sim.now, elapsed)

        return observe

    def _on_request(self, record):
        if not record.failed:
            self.windows.observe(f"kind:{record.kind}", record.end,
                                 record.response_time)

    # ------------------------------------------------------------------
    # the 50 ms tick
    # ------------------------------------------------------------------
    def _on_sample(self, now):
        started = _time.perf_counter()
        self.detector.on_sample()
        if now >= self._next_beat:
            self._emit(now, final=False)
            self._next_beat = now + self.interval
        self._hook_wall += _time.perf_counter() - started

    def finish(self):
        """Flush trackers and emit one final heartbeat."""
        if self._finished:
            return self
        self._finished = True
        started = _time.perf_counter()
        if self.detector is not None:
            self.detector.finish()
        self._hook_wall += _time.perf_counter() - started
        if self._system is not None:
            self._emit(self.sim.now, final=True)
        if self._log is not None:
            self._log.observer = None
        return self

    # ------------------------------------------------------------------
    # heartbeat assembly
    # ------------------------------------------------------------------
    def _counters(self):
        """Cumulative run counters from the cheapest exact source."""
        log = self._log
        system = self._system
        out = {
            "requests": len(log),
            "drops": system.total_drops(),
            "sheds": system.total_sheds(),
        }
        if log.streaming:
            stats = log.stats
            out["completed"] = stats.completed
            out["failed"] = stats.failed
            out["retries"] = stats.retries
        else:
            failed = sum(1 for r in log.records if r.failed)
            out["completed"] = len(log.records) - failed
            out["failed"] = failed
            out["retries"] = sum(
                r.attempts - 1 for r in log.records if r.attempts > 1
            )
        hedges = 0
        for group in getattr(self._monitor, "_groups", {}).values():
            hedges += group.hedges_issued
        out["hedges"] = hedges
        return out

    def heartbeat(self, now=None, final=False):
        """One snapshot dict (the JSONL line, before serialization)."""
        now = self.sim.now if now is None else now
        counters = self._counters()
        completed = counters["completed"]
        elapsed = now - self._last_sim_time
        rate = ((completed - self._last_completed) / elapsed
                if elapsed > 0 else 0.0)
        tiers = {}
        kinds = {}
        for label, snap in self.windows.snapshots(now=now).items():
            scope, _, name = label.partition(":")
            target = tiers if scope == "tier" else kinds
            target[name] = {
                "count": snap["count"],
                "p50_ms": round(snap["p50"] * 1000.0, 3),
                "p99_ms": round(snap["p99"] * 1000.0, 3),
                "p999_ms": round(snap["p999"] * 1000.0, 3),
            }
        beat = {
            "sim_time": round(now, 3),
            "label": self.label,
            "final": final,
            "throughput_rps": round(rate, 1),
            "tiers": tiers,
            "kinds": kinds,
            "open_episodes": [
                {
                    "resource": span["resource"],
                    "kind": span["kind"],
                    "start": round(span["start"], 3),
                    "age_s": round(now - span["start"], 3),
                    "peak": round(span["peak"], 4),
                }
                for span in self.detector.open_episodes()
            ],
            "episodes_closed": self.detector.episode_count(),
        }
        beat.update(counters)
        if self.sampler is not None:
            beat["traces"] = self.sampler.counters()
        beat["overhead"] = self._overhead()
        return beat

    def _overhead(self):
        wall = (_time.perf_counter() - self._wall_started
                if self._wall_started is not None else 0.0)
        bus = getattr(self.sim, "bus", None)
        retained_bytes = 0
        if self.sampler is not None:
            retained_bytes = self.sampler.retained_events * TRACE_EVENT_BYTES
        return {
            "window_observations": self.windows.observations,
            "events_published": bus.events_emitted if bus else 0,
            "bytes_retained": retained_bytes,
            "wall_share": round(self._hook_wall / wall, 4) if wall > 0
            else 0.0,
        }

    def _emit(self, now, final):
        beat = self.heartbeat(now, final=final)
        self.heartbeats.append(beat)
        self._last_completed = beat["completed"]
        self._last_sim_time = now
        sink = self.sink
        if sink is not None:
            sink.write(json.dumps(beat, sort_keys=True))
            sink.write("\n")
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()
        return beat

    def __repr__(self):
        return (f"<LiveTelemetry interval={self.interval} "
                f"beats={len(self.heartbeats)}>")


# ----------------------------------------------------------------------
# `repro watch` rendering
# ----------------------------------------------------------------------
def render_heartbeats(beats, tail=None):
    """Text table for a sequence of heartbeat dicts (newest last)."""
    beats = list(beats)
    if tail is not None:
        beats = beats[-tail:]
    if not beats:
        return "no heartbeats"
    lines = [f"{'sim time':>9} {'req':>10} {'rps':>8} {'p99 by tier':<34} "
             f"{'open episodes':<26} {'drops':>7} {'evict':>6}"]
    for beat in beats:
        tiers = beat.get("tiers", {})
        p99s = " ".join(
            f"{name}:{cell['p99_ms']:.0f}ms"
            for name, cell in sorted(tiers.items())
        ) or "-"
        episodes = ", ".join(
            f"{e['kind']}@{e['resource']}({e['age_s']:.1f}s)"
            for e in beat.get("open_episodes", [])
        ) or "-"
        traces = beat.get("traces") or {}
        evicted = (traces.get("evicted_normal", 0)
                   + traces.get("evicted_anomalous", 0))
        flag = "*" if beat.get("final") else " "
        lines.append(
            f"{beat['sim_time']:>8.1f}{flag} {beat['requests']:>10,} "
            f"{beat['throughput_rps']:>8,.0f} {p99s:<34.34} "
            f"{episodes:<26.26} {beat['drops']:>7,} {evicted:>6,}"
        )
    last = beats[-1]
    overhead = last.get("overhead", {})
    lines.append("")
    lines.append(
        f"last beat: {last['completed']:,} completed, "
        f"{last['failed']:,} failed, {last['retries']:,} retries, "
        f"{last['sheds']:,} sheds, {last['hedges']:,} hedges; "
        f"pipeline overhead: {overhead.get('window_observations', 0):,} "
        f"window folds, {overhead.get('events_published', 0):,} bus events, "
        f"{overhead.get('bytes_retained', 0):,} trace bytes, "
        f"{overhead.get('wall_share', 0.0) * 100:.1f}% wall"
    )
    return "\n".join(lines)
