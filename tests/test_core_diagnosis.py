"""Tests for automated diagnosis (repro.core.diagnosis)."""

import sys

import pytest

sys.path.insert(0, "tests")
from test_core_evaluation import tiny_scenario  # noqa: E402

from repro.core import diagnose  # noqa: E402


@pytest.fixture(scope="module")
def sync_ctqo_result():
    return (
        tiny_scenario()
        .with_consolidation("app", times=[4.0, 7.0], burst_cpu=2.0,
                            burst_jobs=40, shares=200.0)
        .run()
    )


@pytest.fixture(scope="module")
def clean_result():
    return tiny_scenario().run()


def test_diagnosis_detects_ctqo(sync_ctqo_result):
    diagnosis = diagnose(sync_ctqo_result)
    assert diagnosis.has_long_tail
    assert diagnosis.is_ctqo
    assert "apache" in diagnosis.dropping_servers
    assert not diagnosis.steady_state_sufficient
    assert diagnosis.mode_clusters.get(1, 0) > 0


def test_diagnosis_recommends_replacing_the_dropping_server(sync_ctqo_result):
    diagnosis = diagnose(sync_ctqo_result)
    text = diagnosis.render()
    assert "replace apache" in text
    assert "Nginx" in text


def test_diagnosis_clean_run(clean_result):
    diagnosis = diagnose(clean_result)
    assert not diagnosis.has_long_tail
    assert not diagnosis.is_ctqo
    assert diagnosis.vlrt_count == 0
    assert "No long tail" in diagnosis.render()


def test_diagnosis_steady_state_prediction_is_small(clean_result):
    diagnosis = diagnose(clean_result)
    assert diagnosis.predicted_response_ms < 50.0


def test_diagnosis_async_absorbs(sync_ctqo_result):
    result = (
        tiny_scenario(nx=3)
        .with_consolidation("app", times=[4.0, 7.0], burst_cpu=2.0,
                            burst_jobs=40, shares=200.0)
        .run()
    )
    diagnosis = diagnose(result)
    assert not diagnosis.is_ctqo
    assert result.dropped_packets == 0
    assert "absorbed" in diagnosis.render()


# ----------------------------------------------------------------------
# policy-matrix cells: 503 sheds are CTQO too, and the event view agrees
# with the per-request attribution view of the same run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def policy_cells():
    from repro.experiments import policy_matrix

    return {
        variant: policy_matrix.run_one(variant, clients=3000,
                                       duration=12.0)["result"]
        for variant in ("db_stall", "shed_web")
    }


def test_diagnosis_reports_sheds_as_ctqo(policy_cells):
    result = policy_cells["shed_web"]
    diagnosis = diagnose(result)
    assert diagnosis.is_ctqo
    shed_events = [e for e in diagnosis.ctqo_events if e.cause == "shed"]
    assert len(shed_events) == 1
    event = shed_events[0]
    assert event.direction == "upstream"
    assert event.dropping_server == "apache"
    assert event.drops == result.shed_packets == 63
    assert diagnosis.shedding_servers == ["apache"]
    assert diagnosis.dropping_servers == []
    text = diagnosis.render()
    assert "63 sheds (503) at apache" in text
    assert "RECOMMEND: apache sheds requests (503)" in text
    assert "no action required" not in text


@pytest.mark.parametrize("variant", ["db_stall", "shed_web"])
def test_ctqo_events_agree_with_attribution(policy_cells, variant):
    # min_duration=0.15 matches the episodes attribution() owns chains by
    result = policy_cells[variant]
    events = {
        (e.millibottleneck.resource, e.millibottleneck.start,
         e.millibottleneck.end, e.dropping_server, e.direction, e.cause)
        for e in result.ctqo_events(min_duration=0.15)
        if e.millibottleneck is not None
    }
    chains = result.attribution().complete
    assert chains
    for chain in chains:
        owner = chain.millibottleneck
        assert (owner.resource, owner.start, owner.end, chain.drop_site,
                chain.direction, chain.cause) in events, chain.describe()
