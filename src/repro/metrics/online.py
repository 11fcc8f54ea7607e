"""Live episode detection: the detector's fold, driven by the monitor.

:class:`~repro.metrics.detector.OnlineSaturationTracker` is the one
fold that turns a gauge series into episodes; the offline entry points
(:func:`~repro.metrics.detector.saturation_episodes` and the functions
built on it) feed it a finished series in one pass.
:class:`OnlineEpisodeDetector` feeds the same trackers while the run is
still being sampled: one tracker per guest-view CPU and iowait series
with the millibottleneck parameters, plus registered queue-capacity
gauges with the overflow parameters.  It rides the monitor's
``listeners`` hook, so episodes close within one 50 ms sample of the
span's end and *open* episodes are visible to the live heartbeat while
they are still growing.  A tracker never reorders or revisits samples,
so how they are chunked into ``on_sample`` rounds does not matter:
after ``finish()`` the detector answers exactly like the offline pass
over the finished series (pinned by ``tests/test_metrics_online.py``).
"""

from __future__ import annotations

from .detector import OnlineSaturationTracker, overflow_tracker

__all__ = ["OnlineEpisodeDetector"]


class OnlineEpisodeDetector:
    """Live millibottleneck + overflow detection over a system monitor.

    Attach with ``monitor.listeners.append(detector.on_sample)`` (or
    let :class:`~repro.metrics.live.LiveTelemetry` do it): every 50 ms
    sample is forwarded to one tracker per watched series.  Series the
    monitor starts watching mid-run (e.g. a consolidation antagonist's
    VM) get their tracker lazily, with a per-series cursor so no sample
    is ever skipped or double-fed.

    ``millibottlenecks()`` / ``overflow()`` answer with the same
    contents as :func:`~repro.metrics.detector.detect_millibottlenecks`
    and :func:`~repro.metrics.detector.overflow_episodes` over the
    finished series (call :meth:`finish` first for the trailing spans).
    """

    def __init__(self, monitor, threshold=0.95, min_duration=0.05,
                 max_duration=2.5, merge_gap=0.0):
        self.monitor = monitor
        self.threshold = threshold
        self.min_duration = min_duration
        self.max_duration = max_duration
        self.merge_gap = merge_gap
        #: series name -> (tracker, cursor) for cpu/iowait trackers
        self._trackers = {"cpu": {}, "io": {}}
        #: overflow gauges: name -> (series, tracker, cursor)
        self._overflow = {}
        self._finished = False

    # ------------------------------------------------------------------
    def watch_overflow(self, name, series, capacity):
        """Track a bounded queue's gauge with the default parameters of
        :func:`~repro.metrics.detector.overflow_tracker`."""
        tracker = overflow_tracker(name, capacity)
        self._overflow[name] = [series, tracker, 0]
        return tracker

    # ------------------------------------------------------------------
    def _feed_group(self, series_map, group, kind):
        trackers = self._trackers[group]
        for name, series in series_map.items():
            entry = trackers.get(name)
            if entry is None:
                entry = trackers[name] = [
                    OnlineSaturationTracker(
                        name, self.threshold,
                        min_duration=self.min_duration,
                        max_duration=self.max_duration,
                        merge_gap=self.merge_gap, kind=kind,
                    ),
                    0,
                ]
            tracker, cursor = entry
            times, values = series.times, series.values
            n = len(times)
            while cursor < n:
                tracker.feed(times[cursor], values[cursor])
                cursor += 1
            entry[1] = cursor

    def on_sample(self, _now=None):
        """Monitor-listener entry point: consume every new gauge point."""
        monitor = self.monitor
        self._feed_group(monitor.cpu, "cpu", "cpu")
        self._feed_group(monitor.iowait, "io", "io")
        for entry in self._overflow.values():
            series, tracker, cursor = entry
            times, values = series.times, series.values
            n = len(times)
            while cursor < n:
                tracker.feed(times[cursor], values[cursor])
                cursor += 1
            entry[2] = cursor

    def finish(self):
        """Consume any unseen samples and flush trailing spans."""
        if self._finished:
            return self
        self.on_sample()
        self._finished = True
        for trackers in self._trackers.values():
            for tracker, _cursor in trackers.values():
                tracker.finish()
        for _series, tracker, _cursor in self._overflow.values():
            tracker.finish()
        return self

    # ------------------------------------------------------------------
    def millibottlenecks(self):
        """Closed cpu/io episodes so far, sorted like
        :func:`~repro.metrics.detector.detect_millibottlenecks`."""
        episodes = []
        for trackers in self._trackers.values():
            for tracker, _cursor in trackers.values():
                episodes.extend(tracker.episodes)
        episodes.sort(key=lambda e: (e.start, e.resource))
        return episodes

    def overflow(self):
        """``{name: closed overflow episodes}`` so far."""
        return {
            name: list(entry[1].episodes)
            for name, entry in self._overflow.items()
        }

    def open_episodes(self):
        """Every in-flight span across all trackers (for heartbeats),
        sorted by (start, resource)."""
        spans = []
        for trackers in self._trackers.values():
            for tracker, _cursor in trackers.values():
                span = tracker.open_span()
                if span is not None:
                    spans.append(span)
        for _series, tracker, _cursor in self._overflow.values():
            span = tracker.open_span()
            if span is not None:
                spans.append(span)
        spans.sort(key=lambda s: (s["start"], s["resource"]))
        return spans

    def episode_count(self):
        """Closed episodes so far (cpu + io + overflow)."""
        return (len(self.millibottlenecks())
                + sum(len(e) for e in self.overflow().values()))

    def __repr__(self):
        return (f"<OnlineEpisodeDetector cpu={len(self._trackers['cpu'])} "
                f"io={len(self._trackers['io'])} "
                f"overflow={len(self._overflow)}>")
