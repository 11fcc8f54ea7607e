"""Equivalence suite: the episode fold vs a list-based reference.

The contract pinned here (and relied on by the live heartbeat and every
offline detector, which all drive the same fold): feeding a gauge
series one sample at a time through
:class:`~repro.metrics.detector.OnlineSaturationTracker` and calling
``finish()`` yields the *same* episode list — spans, peaks, merging,
filters — as :func:`reference_episodes`, a direct list-based
segmentation of the finished series that serves as the oracle.
Real-run equivalence covers the assembled
:class:`~repro.metrics.online.OnlineEpisodeDetector`, fed sample by
sample during the run, against ``detect_millibottlenecks`` /
``overflow_episodes`` over the finished monitor series, across the
scenario shapes the quick registry exercises (plain, consolidation,
bursty; nx = 0 and 1).

The satellite edge cases — episode still open at end-of-run, a
zero-length gauge series, a single saturated sample — are asserted for
the tracker and the oracle side by side.
"""

import random

import pytest

from repro.core import Scenario
from repro.metrics import TimeSeries
from repro.metrics.detector import (
    Episode,
    OnlineSaturationTracker,
    detect_millibottlenecks,
    overflow_episodes,
    overflow_gauge,
    saturation_episodes,
)
from repro.metrics.live import LiveConfig
from repro.metrics.online import OnlineEpisodeDetector
from repro.topology import SystemConfig

from conftest import tiny_mix


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def series(values, name="cpu:vm", interval=0.05):
    out = TimeSeries(name)
    for index, value in enumerate(values):
        out.append((index + 1) * interval, value)
    return out


def reference_episodes(series, threshold, min_duration=0.05,
                       max_duration=None, merge_gap=0.0, resource=None,
                       kind="saturation"):
    """The oracle: segment a finished series in three list passes —
    raw above-threshold spans (end exclusive at the first sample back
    at/below the threshold, a trailing open span closed at the last
    sample time), then left-to-right merging of spans with gaps
    ``<= merge_gap``, then the duration filters."""
    resource = resource if resource is not None else series.name
    raw = []
    start = None
    peak = 0.0
    for time, value in zip(series.times, series.values):
        if value > threshold:
            if start is None:
                start, peak = time, value
            elif value > peak:
                peak = value
        elif start is not None:
            raw.append((start, time, peak))
            start = None
    if start is not None and series.times:
        raw.append((start, series.times[-1], peak))

    merged = []
    for span in raw:
        if merged and span[0] - merged[-1][1] <= merge_gap:
            prev = merged[-1]
            merged[-1] = (prev[0], span[1], max(prev[2], span[2]))
        else:
            merged.append(span)

    episodes = []
    for start, end, peak in merged:
        duration = end - start
        if duration < min_duration:
            continue
        if max_duration is not None and duration > max_duration:
            continue
        episodes.append(
            Episode(resource, kind, start, end, peak, threshold)
        )
    return episodes


def online(values, threshold, **params):
    s = series(values)
    tracker = OnlineSaturationTracker("cpu:vm", threshold, **params)
    for time, value in zip(s.times, s.values):
        tracker.feed(time, value)
    episodes = tracker.finish()
    # the offline entry point drives the same fold in one pass
    assert saturation_episodes(s, threshold, **params) == episodes
    return episodes


def offline(values, threshold, **params):
    return reference_episodes(series(values), threshold, **params)


def tiny_config(nx=0, **overrides):
    defaults = dict(
        nx=nx, seed=11,
        web_threads=8, app_threads=8, db_threads=4,
        web_backlog=4, app_backlog=4, db_backlog=4,
        db_pool_size=4, web_spawn_extra_process=False,
        lite_q_depth=64, xtomcat_workers=8,
        interaction_specs=tiny_mix(stochastic=True),
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def assert_run_equivalent(result):
    """The live detector of a finished run answers exactly like the
    offline pass over the same monitor series."""
    telemetry = result.telemetry
    assert telemetry is not None
    detector = telemetry.detector
    monitor = result.monitor
    assert detector.millibottlenecks() == detect_millibottlenecks(monitor)
    live_overflow = detector.overflow()
    for name, server in result.system.server_items():
        series, capacity = overflow_gauge(monitor, name, server)
        assert live_overflow[name] == overflow_episodes(
            series, capacity, name=name
        )
    assert detector.open_episodes() == []


# ----------------------------------------------------------------------
# property tests: random series, several parameter regimes
# ----------------------------------------------------------------------
PARAM_GRID = [
    dict(min_duration=0.0),
    dict(min_duration=0.05),
    dict(min_duration=0.05, max_duration=0.3),
    dict(min_duration=0.0, merge_gap=0.06),
    dict(min_duration=0.1, max_duration=0.5, merge_gap=0.11),
]


@pytest.mark.parametrize("params", PARAM_GRID)
@pytest.mark.parametrize("seed", range(6))
def test_random_series_equivalence(seed, params):
    rng = random.Random(seed)
    # bursty gauge: mostly idle, occasional saturated stretches
    values = []
    for _ in range(400):
        if rng.random() < 0.25:
            values.extend([rng.uniform(0.96, 1.0)] * rng.randint(1, 6))
        else:
            values.extend([rng.uniform(0.0, 0.95)] * rng.randint(1, 4))
    assert online(values, 0.95, **params) == offline(values, 0.95, **params)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_boundary_value_series_equivalence(params):
    # values exactly at the threshold (strictly-above convention) and
    # alternating single-sample spikes — the merge/filter edge cases
    values = [0.95, 0.96, 0.95, 0.96, 0.95, 0.94, 0.96, 0.96,
              0.95, 0.96] * 10
    assert online(values, 0.95, **params) == offline(values, 0.95, **params)


def test_feed_batching_does_not_matter():
    # episodes must not depend on how samples are chunked into
    # on_sample() rounds — feed one-by-one vs all-at-once
    values = [0.99, 0.99, 0.1, 0.99, 0.1, 0.99, 0.99, 0.99, 0.2]
    s = series(values)
    one_by_one = OnlineSaturationTracker("cpu:vm", 0.95, min_duration=0.0,
                                         merge_gap=0.06)
    for time, value in zip(s.times, s.values):
        one_by_one.feed(time, value)
    bulk = OnlineSaturationTracker("cpu:vm", 0.95, min_duration=0.0,
                                   merge_gap=0.06)
    for time, value in zip(s.times, s.values):
        bulk.feed(time, value)
    assert one_by_one.finish() == bulk.finish()
    assert one_by_one.finish() == offline(values, 0.95, min_duration=0.0,
                                          merge_gap=0.06)


# ----------------------------------------------------------------------
# satellite edge cases, offline and online side by side
# ----------------------------------------------------------------------
def test_edge_episode_open_at_end_of_run():
    # the gauge is still saturated when the run ends: both detectors
    # close the span at the last sample time
    values = [0.1, 0.99, 1.0, 0.99]
    for params in (dict(min_duration=0.0), dict(min_duration=0.0,
                                                merge_gap=0.1)):
        off = offline(values, 0.95, **params)
        on = online(values, 0.95, **params)
        assert on == off
        assert len(off) == 1
        assert off[0].end == pytest.approx(0.20)   # last sample time
        assert off[0].peak == pytest.approx(1.0)


def test_edge_open_at_end_visible_before_finish():
    # before finish() the online tracker exposes the growing span —
    # the offline detector cannot see it at all until the series ends
    tracker = OnlineSaturationTracker("vm", 0.95, min_duration=0.0)
    tracker.feed(0.05, 0.99)
    tracker.feed(0.10, 1.0)
    assert tracker.episodes == []
    span = tracker.open_span()
    assert span["start"] == pytest.approx(0.05)
    assert span["last_seen"] == pytest.approx(0.10)
    assert span["peak"] == pytest.approx(1.0)
    episodes = tracker.finish()
    assert len(episodes) == 1
    assert tracker.open_span() is None or tracker.episodes  # flushed


def test_edge_zero_length_series():
    # a gauge that never sampled: no episodes, no crash, either way
    empty = TimeSeries("cpu:vm")
    assert reference_episodes(empty, 0.95) == []
    assert saturation_episodes(empty, 0.95) == []
    tracker = OnlineSaturationTracker("cpu:vm", 0.95)
    assert tracker.finish() == []
    assert tracker.open_span() is None


def test_edge_single_saturated_sample():
    # one sample above threshold and nothing else: the raw span closes
    # at the last (= only) sample time, so it has zero duration — kept
    # only when min_duration is 0, in both detectors
    values = [0.99]
    assert offline(values, 0.95, min_duration=0.05) == []
    assert online(values, 0.95, min_duration=0.05) == []
    off = offline(values, 0.95, min_duration=0.0)
    on = online(values, 0.95, min_duration=0.0)
    assert on == off
    assert len(off) == 1
    assert off[0].start == off[0].end == pytest.approx(0.05)


def test_tracker_parameter_validation_matches_offline():
    with pytest.raises(ValueError):
        OnlineSaturationTracker("vm", 0.95, min_duration=-1)
    with pytest.raises(ValueError):
        OnlineSaturationTracker("vm", 0.95, merge_gap=-0.1)


def test_feed_after_finish_raises():
    tracker = OnlineSaturationTracker("vm", 0.95)
    tracker.finish()
    with pytest.raises(RuntimeError):
        tracker.feed(1.0, 0.99)
    # finish() stays idempotent
    assert tracker.finish() == []


# ----------------------------------------------------------------------
# OnlineEpisodeDetector over a monitor-shaped object
# ----------------------------------------------------------------------
class _FakeMonitor:
    def __init__(self):
        self.cpu = {}
        self.iowait = {}
        self.listeners = []


def test_detector_picks_up_series_lazily():
    # a consolidation antagonist's VM appears mid-run: the detector
    # must start its tracker from sample 0 without double-feeding
    monitor = _FakeMonitor()
    monitor.cpu["web"] = series([0.1, 0.99, 0.99, 0.1])
    detector = OnlineEpisodeDetector(monitor, min_duration=0.0)
    detector.on_sample()
    late = series([0.99, 0.99, 0.99, 0.1])
    monitor.cpu["antagonist"] = late
    detector.on_sample()
    detector.on_sample()   # nothing new: cursors must hold
    detector.finish()
    expected = detect_millibottlenecks(monitor, min_duration=0.0)
    assert detector.millibottlenecks() == expected
    assert {e.resource for e in expected} == {"web", "antagonist"}


def test_detector_overflow_tracker_equivalence():
    monitor = _FakeMonitor()
    depths = series([1, 3, 63, 64, 64, 62, 64, 2, 0], name="web")
    detector = OnlineEpisodeDetector(monitor)
    detector.watch_overflow("web", depths, 64)
    detector.on_sample()
    detector.finish()
    assert detector.overflow()["web"] == overflow_episodes(
        depths, 64, name="web"
    )
    assert detector.episode_count() == len(detector.overflow()["web"])


# ----------------------------------------------------------------------
# real-run equivalence across the scenario shapes of the quick registry
# ----------------------------------------------------------------------
def live_scenario(nx=0, **kwargs):
    return Scenario(tiny_config(nx=nx), clients=60, think_mean=1.0,
                    duration=10.0, warmup=2.0,
                    live=LiveConfig(interval=1.0), **kwargs)


def test_run_equivalence_plain():
    assert_run_equivalent(live_scenario().run())


def test_run_equivalence_consolidation():
    result = live_scenario().with_consolidation("app", period=3.0).run()
    assert_run_equivalent(result)
    # the consolidation antagonist must actually produce episodes for
    # the equivalence to be meaningful
    assert result.telemetry.detector.millibottlenecks()


@pytest.mark.slow
def test_run_equivalence_quick_registry_experiments():
    # the real thing: registry experiments (not scaled-down doubles)
    # run under ambient live mode, online answers == offline answers
    from repro.experiments import TIMELINES, fig01_histograms
    from repro.metrics import live as live_mode

    live_mode.configure(interval=2.0)
    try:
        for name in ("fig03", "fig05"):
            result = TIMELINES[name].run(duration=14.0)
            assert_run_equivalent(result.run)
            # these figures exist because millibottlenecks happen:
            # the equivalence must be exercised on non-empty episode sets
            assert result.run.telemetry.detector.millibottlenecks()
        panel = fig01_histograms.run_one(7000, duration=12.0, warmup=2.0)
        assert_run_equivalent(panel["result"])
    finally:
        live_mode.reset()


@pytest.mark.slow
def test_run_equivalence_across_registry_shapes():
    # the workload shapes the quick registry drives: RPC chain depth 1,
    # consolidation on the db tier, and a streaming log
    shapes = [
        live_scenario(nx=1),
        live_scenario().with_consolidation("db", period=3.0),
        Scenario(tiny_config(streaming=True), clients=60, think_mean=1.0,
                 duration=10.0, warmup=2.0,
                 live=LiveConfig(interval=1.0)),
    ]
    for scenario in shapes:
        assert_run_equivalent(scenario.run())
