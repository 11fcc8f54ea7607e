"""Episode segmentation: millibottlenecks and queue-overflow spans.

The paper's detection problem is the same in every figure: take a
fine-grained (50 ms) gauge series and segment it into *episodes* — spans
where the gauge sat above a threshold.  Two instantiations matter:

- **millibottlenecks** — utilization (CPU guest-view or iowait) above
  ~95 % for a fraction of a second (§III's "very short bottlenecks");
- **overflow episodes** — a bounded queue (the TCP accept queue, or a
  whole server's ``MaxSysQDepth``) pinned at its capacity, which is
  exactly when arriving packets drop.

One fold does the segmentation: :class:`OnlineSaturationTracker`
consumes one ``(time, value)`` sample per call.  Live telemetry feeds
it while the gauges are still being sampled
(:class:`~repro.metrics.online.OnlineEpisodeDetector`); the offline
entry points below feed it a finished series.  Episodes carry their
peak, and consecutive spans can be merged across short gaps: a sampled
gauge at a queue that briefly drains between drop batches otherwise
fragments one physical overflow into many small episodes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Episode",
    "OnlineSaturationTracker",
    "cache_miss_episodes",
    "describe_millibottleneck",
    "detect_millibottlenecks",
    "overflow_episodes",
    "overflow_gauge",
    "overflow_tracker",
    "saturation_episodes",
]


@dataclass(frozen=True)
class Episode:
    """One contiguous span of a gauge above its threshold."""

    resource: str          # series/server/VM the episode was observed on
    kind: str              # "cpu", "io", "overflow", ...
    start: float
    end: float
    peak: float
    threshold: float

    @property
    def duration(self):
        return self.end - self.start

    def overlaps(self, start, end):
        """True if this episode intersects [start, end)."""
        return self.start < end and start < self.end

    def covers(self, when, tolerance=0.0):
        """True if ``when`` falls inside the episode, widened by
        ``tolerance`` on both sides (sampling can miss an instant by up
        to one monitoring interval)."""
        return self.start - tolerance <= when <= self.end + tolerance

    def __str__(self):
        return (
            f"{self.kind}-episode on {self.resource} "
            f"[{self.start:.2f}s, {self.end:.2f}s] "
            f"({self.duration * 1000:.0f} ms, peak {self.peak:g})"
        )


def describe_millibottleneck(episode):
    """The report line for a millibottleneck episode, e.g.
    ``cpu-millibottleneck on tomcat [15.05s, 17.25s] (2200 ms)``."""
    return (
        f"{episode.kind}-millibottleneck on {episode.resource} "
        f"[{episode.start:.2f}s, {episode.end:.2f}s] "
        f"({episode.duration * 1000:.0f} ms)"
    )


class OnlineSaturationTracker:
    """Segments one gauge series into :class:`Episode` objects, one
    sample at a time.

    Feed monotonically non-decreasing ``(time, value)`` samples with
    :meth:`feed`; closed episodes accumulate in :attr:`episodes`.  Call
    :meth:`finish` once the series is complete to flush the trailing
    span.  The fold, left to right:

    - values strictly above ``threshold`` are saturated; a raw span
      ends (exclusive) at the first sample back at/below it, and a span
      still open at the end of the series closes at the last sample
      time;
    - a closed raw span merges into the pending span when the gap
      between them is at most ``merge_gap`` seconds;
    - the pending span is filtered — kept when ``min_duration <=
      duration``, dropped when longer than ``max_duration`` (None =
      unbounded; the paper's millibottlenecks are *sub-second*, a
      persistent bottleneck is a different diagnosis) — once a later
      raw span fails to merge with it, or at :meth:`finish`.
    """

    __slots__ = ("resource", "kind", "threshold", "min_duration",
                 "max_duration", "merge_gap", "episodes",
                 "_start", "_peak", "_pending", "_last_time", "_finished")

    def __init__(self, resource, threshold, min_duration=0.05,
                 max_duration=None, merge_gap=0.0, kind="saturation"):
        if min_duration < 0:
            raise ValueError(f"min_duration must be >= 0, got {min_duration}")
        if merge_gap < 0:
            raise ValueError(f"merge_gap must be >= 0, got {merge_gap}")
        self.resource = resource
        self.kind = kind
        self.threshold = threshold
        self.min_duration = min_duration
        self.max_duration = max_duration
        self.merge_gap = merge_gap
        #: closed, filter-passing episodes, in start order
        self.episodes = []
        self._start = None          # open raw span start
        self._peak = 0.0
        self._pending = None        # merged (start, end, peak) not yet final
        self._last_time = None
        self._finished = False

    # ------------------------------------------------------------------
    def feed(self, time, value):
        if self._finished:
            raise RuntimeError(
                f"tracker for {self.resource!r} already finished"
            )
        self._last_time = time
        if value > self.threshold:
            if self._start is None:
                self._start, self._peak = time, value
            elif value > self._peak:
                self._peak = value
        elif self._start is not None:
            self._close_raw(time)

    def _close_raw(self, end):
        span = (self._start, end, self._peak)
        self._start = None
        pending = self._pending
        if pending is not None and span[0] - pending[1] <= self.merge_gap:
            self._pending = (pending[0], span[1], max(pending[2], span[2]))
        else:
            self._flush_pending()
            self._pending = span

    def _flush_pending(self):
        span = self._pending
        if span is None:
            return
        self._pending = None
        start, end, peak = span
        duration = end - start
        if duration < self.min_duration:
            return
        if self.max_duration is not None and duration > self.max_duration:
            return
        self.episodes.append(
            Episode(self.resource, self.kind, start, end, peak,
                    self.threshold)
        )

    def finish(self):
        """Flush the trailing spans and return :attr:`episodes`;
        further :meth:`feed` calls raise.

        A raw span still open at the end of the series closes at the
        last sample time.
        """
        if self._finished:
            return self.episodes
        self._finished = True
        if self._start is not None and self._last_time is not None:
            self._close_raw(self._last_time)
        self._flush_pending()
        return self.episodes

    # ------------------------------------------------------------------
    def open_span(self):
        """The in-flight (not yet emitted) span, or ``None``.

        Combines the pending merged span with a still-open raw span —
        what a live heartbeat should show as "episode in progress".
        The reported end is the last sample time seen.
        """
        start = peak = None
        if self._pending is not None:
            start, _end, peak = self._pending
        if self._start is not None:
            if start is None:
                start, peak = self._start, self._peak
            else:
                peak = max(peak, self._peak)
        if start is None:
            return None
        return {
            "resource": self.resource,
            "kind": self.kind,
            "start": start,
            "last_seen": self._last_time,
            "peak": peak,
            "threshold": self.threshold,
        }

    def __repr__(self):
        state = "open" if self._start is not None else "idle"
        return (f"<OnlineSaturationTracker {self.kind}:{self.resource} "
                f"{state} episodes={len(self.episodes)}>")


def _fold(tracker, series):
    """Feed a finished series through ``tracker``; its episodes."""
    feed = tracker.feed
    for time, value in zip(series.times, series.values):
        feed(time, value)
    return tracker.finish()


def saturation_episodes(series, threshold, min_duration=0.05,
                        max_duration=None, merge_gap=0.0, resource=None,
                        kind="saturation"):
    """Segment one finished gauge series into :class:`Episode` objects
    (see :class:`OnlineSaturationTracker` for the parameters).
    ``resource`` defaults to the series name."""
    return _fold(
        OnlineSaturationTracker(
            resource if resource is not None else series.name, threshold,
            min_duration=min_duration, max_duration=max_duration,
            merge_gap=merge_gap, kind=kind,
        ),
        series,
    )


def detect_millibottlenecks(monitor, threshold=0.95, min_duration=0.05,
                            max_duration=2.5, merge_gap=0.0):
    """The millibottleneck episodes over every VM a monitor watches.

    Scans the guest-view CPU series (a starved VM reads 100 % busy —
    that *is* the millibottleneck signal, Fig 3a) and the iowait series.
    ``threshold`` is a utilization fraction in (0, 1].  Returns episodes
    sorted by start time.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    episodes = []
    for kind, gauges in (("cpu", monitor.cpu), ("io", monitor.iowait)):
        for name, series in gauges.items():
            episodes.extend(
                saturation_episodes(
                    series, threshold, min_duration=min_duration,
                    max_duration=max_duration, merge_gap=merge_gap,
                    resource=name, kind=kind,
                )
            )
    episodes.sort(key=lambda e: (e.start, e.resource))
    return episodes


def cache_miss_episodes(miss_series, rate_threshold, min_duration=0.05,
                        max_duration=None, merge_gap=0.25, name=None):
    """Spans where a cache's miss *rate* spiked — the miss-storm
    signature of a bulk invalidation (thundering herd).

    ``miss_series`` is the monitor's cumulative ``cache_misses``
    counter; this differentiates it into a per-second miss rate (the
    same counter-to-rate view collectl gives) and segments spans whose
    rate exceeds ``rate_threshold`` misses/s into episodes of kind
    ``"cache-miss burst"``.  The episodes carry the same
    resource/start/end surface as millibottlenecks, so CTQO attribution
    consumes them unchanged.
    """
    if rate_threshold <= 0:
        raise ValueError(
            f"rate_threshold must be positive, got {rate_threshold}"
        )
    tracker = OnlineSaturationTracker(
        name if name is not None else miss_series.name, rate_threshold,
        min_duration=min_duration, max_duration=max_duration,
        merge_gap=merge_gap, kind="cache-miss burst",
    )
    times = miss_series.times
    values = miss_series.values
    for index in range(1, len(times)):
        dt = times[index] - times[index - 1]
        if dt > 0:
            tracker.feed(times[index],
                         (values[index] - values[index - 1]) / dt)
    return tracker.finish()


def overflow_tracker(name, capacity, slack=2, merge_gap=0.25,
                     min_duration=0.0):
    """The tracker for a bounded queue's depth gauge: it saturates when
    the queue sits at (or within ``slack`` of) its ``capacity`` — the
    instants arriving packets drop.  ``merge_gap`` bridges the brief
    dips a draining queue shows between drop batches."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    return OnlineSaturationTracker(
        name, capacity - slack - 0.5, min_duration=min_duration,
        merge_gap=merge_gap, kind="overflow",
    )


def overflow_episodes(depth_series, capacity, slack=2, merge_gap=0.25,
                      min_duration=0.0, name=None):
    """Overflow episodes of one finished queue-depth gauge (see
    :func:`overflow_tracker`); ``name`` defaults to the series name."""
    return _fold(
        overflow_tracker(
            name if name is not None else depth_series.name, capacity,
            slack=slack, merge_gap=merge_gap, min_duration=min_duration,
        ),
        depth_series,
    )


def overflow_gauge(monitor, name, server):
    """``(series, capacity)`` of the queue whose overflow drops
    ``server``'s packets, from the monitor's gauges for ``name``.

    The accept queue is the resource that actually drops: its capacity
    is fixed (unlike MaxSysQDepth, which grows when Apache spawns a
    second process).  A server without a backlog gauge, or with a
    zero-length accept queue, falls back to its whole-server
    MaxSysQDepth gauge.
    """
    backlog = monitor.backlog.get(name)
    if backlog is not None and server.listener.backlog >= 1:
        return backlog, server.listener.backlog
    return monitor.queues[name], server.max_sys_q_depth
