"""Unit tests for the timeline experiment machinery
(repro.experiments.timeline) — spec handling and claim checking."""

import pytest

from repro.experiments.timeline import TIMELINES, TimelineResult, TimelineSpec


def spec(**overrides):
    defaults = dict(
        figure="Fig X", title="test", nx=0,
        bottleneck_kind="consolidation", bottleneck_tier="app",
        burst_times=(15.0, 22.0, 29.0, 36.0),
    )
    defaults.update(overrides)
    return TimelineSpec(**defaults)


class FakeRun:
    def __init__(self, drops):
        self._drops = drops

    @property
    def drops(self):
        return self._drops


def result_with_drops(the_spec, drops):
    return TimelineResult(the_spec, FakeRun(drops))


# ----------------------------------------------------------------------
# spec scaling
# ----------------------------------------------------------------------
def test_scaled_trims_burst_times_past_duration():
    scaled = spec().scaled(duration=25.0)
    assert scaled.duration == 25.0
    assert scaled.burst_times == (15.0, 22.0)
    # original untouched
    assert spec().burst_times == (15.0, 22.0, 29.0, 36.0)


def test_scaled_overrides_clients_and_seed():
    scaled = spec().scaled(clients=100, seed=9)
    assert scaled.clients == 100
    assert scaled.seed == 9
    assert scaled.duration == spec().duration


def test_build_config_carries_nx_and_vcpus():
    config = spec(nx=2, app_vcpus=4).build_config()
    assert config.nx == 2
    assert config.app_vcpus == 4


def test_build_config_overrides():
    config = spec(config_overrides={"tcp_rto": 1.5}).build_config()
    assert config.tcp_rto == 1.5


# ----------------------------------------------------------------------
# claim checking
# ----------------------------------------------------------------------
def test_claims_pass_when_drops_at_expected_site():
    the_spec = spec(expect_drops_at=("apache",))
    result = result_with_drops(the_spec, {"apache": 100, "tomcat": 5,
                                          "mysql": 0})
    assert result.check_claims() == []


def test_claims_fail_when_expected_site_clean():
    the_spec = spec(expect_drops_at=("apache",))
    result = result_with_drops(the_spec, {"apache": 0, "tomcat": 50,
                                          "mysql": 0})
    failures = result.check_claims()
    assert any("expected drops at apache" in f for f in failures)


def test_claims_fail_on_large_unexpected_site():
    the_spec = spec(expect_drops_at=("apache",))
    result = result_with_drops(the_spec, {"apache": 100, "tomcat": 90,
                                          "mysql": 0})
    failures = result.check_claims()
    assert any("unexpectedly large" in f for f in failures)


def test_claims_tolerate_small_companion_drops():
    the_spec = spec(expect_drops_at=("apache",))
    result = result_with_drops(the_spec, {"apache": 1000, "tomcat": 30,
                                          "mysql": 0})
    assert result.check_claims() == []


def test_no_drops_claim():
    the_spec = spec(expect_no_drops=True)
    clean = result_with_drops(the_spec, {"nginx": 0, "xtomcat": 0,
                                         "xmysql": 0})
    dirty = result_with_drops(the_spec, {"nginx": 0, "xtomcat": 1,
                                         "xmysql": 0})
    assert clean.check_claims() == []
    assert dirty.check_claims()


# ----------------------------------------------------------------------
# the shipped figure specs
# ----------------------------------------------------------------------
def test_fig03_spec_expectations():
    the_spec = TIMELINES["fig03"]
    assert the_spec.nx == 0
    assert the_spec.bottleneck_tier == "app"
    assert the_spec.expect_drops_at == ("apache",)


def test_fig10_spec_expectations():
    the_spec = TIMELINES["fig10"]
    assert the_spec.nx == 3
    assert the_spec.expect_no_drops


def test_unknown_bottleneck_kind_rejected():
    with pytest.raises(ValueError):
        spec(bottleneck_kind="cosmic-rays").run()


# ----------------------------------------------------------------------
# the table is the registry's source for timeline figures
# ----------------------------------------------------------------------
def test_every_table_row_is_one_registry_entry():
    """A timeline figure is declared once, as a row: the registry
    entry, its description and its variant jobs come from the table."""
    from repro.experiments.runner import REGISTRY, experiment

    timeline_entries = [
        name for name, entry in REGISTRY.items()
        if entry.module == "timeline"
    ]
    assert timeline_entries == list(TIMELINES)
    for name, row in TIMELINES.items():
        assert REGISTRY[name].description == row.title
        assert REGISTRY[name].variants == (
            ({},) + tuple({"variant": v} for v in row.variants)
        )
        assert experiment(name) is row
        assert row.claim
    assert REGISTRY["fig07"].variants == ({}, {"variant": "mysql"})
    assert TIMELINES["fig07"].variant("mysql").bottleneck_tier == "db"


def test_unknown_variant_names_the_valid_ones():
    with pytest.raises(ValueError, match="valid variants: mysql"):
        TIMELINES["fig07"].variant("bogus")
    with pytest.raises(ValueError, match="valid variants: none"):
        TIMELINES["fig03"].single_run(variant="mysql")


def test_report_prints_every_servers_end_of_run_max_sys_q_depth():
    result = TIMELINES["fig03"].run(duration=7.0, clients=300)
    lines = result.report().splitlines()
    depths = [line for line in lines if line.startswith("MaxSysQDepth(")]
    assert depths == [
        f"MaxSysQDepth({result.names[tier]}) = "
        f"{result.run.system.servers[tier].max_sys_q_depth}"
        for tier in ("web", "app", "db")
    ]
    assert depths[0] == "MaxSysQDepth(apache) = 278"
