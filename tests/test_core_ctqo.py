"""Unit tests for CTQO event grouping and direction classification
(repro.metrics.attribution: CtqoAttributor.ctqo_events and the
ownership-and-direction rule it shares with per-request attribution)."""

import pytest

from repro.metrics import TimeSeries
from repro.metrics.attribution import CtqoAttributor
from repro.metrics.detector import Episode, overflow_episodes

TIERS = ["apache", "tomcat", "mysql"]


def millibottleneck(resource, start, end):
    return Episode(resource, "cpu", start, end, peak=1.0, threshold=0.95)


@pytest.fixture
def attributor():
    return CtqoAttributor(TIERS)


def test_single_node_graph_is_valid():
    # a one-server graph must analyze (empty-but-valid), not crash
    # `repro diagnose` — every drop is local, hence downstream
    attributor = CtqoAttributor(["solo"])
    assert attributor.classify_direction("solo", "solo") == "downstream"
    assert attributor.ctqo_events([], {"solo": []}) == []


def test_empty_tier_order_is_valid():
    assert CtqoAttributor([]).ctqo_events([], {}) == []


def test_direction_classification(attributor):
    # millibottleneck in tomcat, drops at apache -> upstream (Fig 3)
    assert attributor.classify_direction("tomcat", "apache") == "upstream"
    # millibottleneck in tomcat, drops at tomcat -> downstream (Fig 7)
    assert attributor.classify_direction("tomcat", "tomcat") == "downstream"
    # millibottleneck in tomcat, drops at mysql -> downstream (Fig 9)
    assert attributor.classify_direction("tomcat", "mysql") == "downstream"
    # millibottleneck in mysql, drops at apache -> upstream (Fig 5)
    assert attributor.classify_direction("mysql", "apache") == "upstream"


def test_unknown_server_rejected(attributor):
    # an off-graph server has no direction (ctqo_events labels such an
    # owner "unknown-origin" instead of failing)
    assert attributor.classify_direction("tomcat", "redis") is None


def test_vm_name_mapping_default_strips_suffix(attributor):
    assert attributor.server_for_vm("tomcat-vm") == "tomcat"
    assert attributor.server_for_vm("tomcat") == "tomcat"


def test_vm_name_mapping_explicit():
    attributor = CtqoAttributor(TIERS, vm_of={"steady-app": "tomcat"})
    assert attributor.server_for_vm("steady-app") == "tomcat"


def test_attribute_drops_builds_classified_events(attributor):
    mb = millibottleneck("tomcat-vm", 10.0, 10.5)
    events = attributor.ctqo_events(
        [mb],
        {"apache": [10.2, 10.3, 10.9], "tomcat": [], "mysql": []},
    )
    assert len(events) == 1
    event = events[0]
    assert event.direction == "upstream"
    assert event.dropping_server == "apache"
    assert event.drops == 3  # 10.9 lands inside the post-episode window
    assert event.millibottleneck is mb
    assert event.cause == "drop"


def test_drops_outside_window_are_unattributed(attributor):
    mb = millibottleneck("tomcat-vm", 10.0, 10.5)
    events = attributor.ctqo_events([mb], {"apache": [20.0]})
    assert len(events) == 1
    assert events[0].direction == "unattributed"
    assert events[0].millibottleneck is None


def test_earliest_covering_millibottleneck_wins(attributor):
    """Secondary saturations start later than their root cause, so the
    earliest covering episode gets the drops."""
    root_cause = millibottleneck("tomcat-vm", 10.0, 10.6)
    secondary = millibottleneck("apache-vm", 10.3, 10.5)
    events = attributor.ctqo_events(
        [root_cause, secondary], {"apache": [10.45]}
    )
    assert len(events) == 1
    assert events[0].millibottleneck is root_cause
    assert events[0].direction == "upstream"


def test_separate_events_per_millibottleneck_and_server(attributor):
    mb1 = millibottleneck("tomcat-vm", 10.0, 10.5)
    mb2 = millibottleneck("tomcat-vm", 20.0, 20.5)
    events = attributor.ctqo_events(
        [mb1, mb2],
        {"apache": [10.1, 20.1], "tomcat": [10.2]},
    )
    assert len(events) == 3
    keys = {(e.millibottleneck.start, e.dropping_server) for e in events}
    assert keys == {(10.0, "apache"), (10.0, "tomcat"), (20.0, "apache")}


def test_events_sorted_by_first_drop(attributor):
    mb1 = millibottleneck("tomcat-vm", 10.0, 10.5)
    mb2 = millibottleneck("tomcat-vm", 5.0, 5.5)
    events = attributor.ctqo_events(
        [mb1, mb2], {"apache": [10.1], "mysql": [5.1]}
    )
    assert [e.dropping_server for e in events] == ["mysql", "apache"]


def test_overflow_episodes_detects_plateaus():
    series = TimeSeries("queue:apache")
    for t, v in [(0.0, 10), (1.0, 278), (1.5, 278), (2.0, 50)]:
        series.append(t, v)
    episodes = overflow_episodes(series, 278, slack=0, name="apache")
    assert len(episodes) == 1
    episode = episodes[0]
    assert episode.resource == "apache"
    assert episode.peak == 278
    # saturated means "at capacity": depth > capacity - slack - 0.5
    assert episode.threshold == 278 - 0.5
    assert episode.duration == pytest.approx(1.0)


def test_overflow_episodes_slack():
    series = TimeSeries("queue:mysql")
    for t, v in [(0.0, 10), (1.0, 225), (2.0, 10)]:
        series.append(t, v)
    none = overflow_episodes(series, 228, slack=0)
    some = overflow_episodes(series, 228, slack=5)
    assert none == []
    assert len(some) == 1


def test_event_str(attributor):
    mb = millibottleneck("tomcat-vm", 10.0, 10.5)
    events = attributor.ctqo_events([mb], {"apache": [10.1]})
    text = str(events[0])
    assert "upstream CTQO" in text and "apache" in text
    assert text == ("upstream CTQO: cpu-millibottleneck on tomcat-vm "
                    "[10.00s, 10.50s] (500 ms) -> 1 drops at apache")
