"""Integration tests: the paper's figures, end to end, at full scale.

Each test runs one evaluation scenario (shorter than the benchmark
version but with the real WL 7000 workload) and asserts the figure's
qualitative claim.  These are the repository's ground truth that the
whole stack — kernel, CPU, TCP, servers, app, workload, injectors,
monitoring, analysis — composes into the paper's phenomena.
"""

import pytest

from repro.experiments import TIMELINES

pytestmark = [pytest.mark.integration, pytest.mark.slow]

#: two bursts are enough to demonstrate every claim
SHORT = 26.0


@pytest.fixture(scope="module")
def fig03():
    return TIMELINES["fig03"].run(duration=SHORT)


def test_fig03_upstream_ctqo_drops_at_apache(fig03):
    assert fig03.check_claims() == []
    assert fig03.drops["apache"] > 50


def test_fig03_tomcat_queue_caps_at_max_sys_q_depth(fig03):
    assert fig03.run.queue_max()["tomcat"] == 293


def test_fig03_apache_second_process_plateau(fig03):
    assert fig03.run.system.servers["web"].processes == 2
    assert fig03.run.queue_max()["apache"] == 428


def test_fig03_vlrt_spikes_align_with_bursts(fig03):
    series = fig03.panel_c()
    burst_times = fig03.run.injectors[0].burst_times
    for burst_at in burst_times:
        window = series.slice(burst_at - 0.5, burst_at + 2.5)
        assert sum(window.values) > 0, f"no VLRT near burst at {burst_at}"
    quiet = series.slice(2.0, burst_times[0] - 2.0)
    assert sum(quiet.values) == 0, "VLRT before any millibottleneck"


def test_fig03_response_modes_at_3s(fig03):
    modes = fig03.run.log.modes()
    assert modes.get(1, 0) > 20      # the 3-second cluster
    assert modes[0] > 10 * modes[1]  # the bulk is still fast


def test_fig03_ctqo_classified_upstream(fig03):
    events = [e for e in fig03.run.ctqo_events()
              if e.dropping_server == "apache" and e.drops > 20]
    assert events
    assert all(e.direction == "upstream" for e in events)


def test_fig05_log_flush_cascades_to_apache():
    result = TIMELINES["fig05"].run(duration=45.0)
    assert result.check_claims() == []
    # the I/O millibottleneck is visible in the MySQL iowait series
    episodes = [e for e in result.run.millibottlenecks() if e.kind == "io"]
    assert episodes and episodes[0].resource == "mysql"
    # and classified as upstream CTQO towards apache
    events = [e for e in result.run.ctqo_events()
              if e.dropping_server == "apache" and e.drops > 20]
    assert events and all(e.direction == "upstream" for e in events)


def test_fig07_nx1_drops_move_to_tomcat():
    result = TIMELINES["fig07"].run(duration=SHORT)
    assert result.check_claims() == []
    assert result.drops["nginx"] == 0
    assert result.run.queue_max()["tomcat"] == 293


def test_fig07_variant_mysql_millibottleneck_also_drops_at_tomcat():
    result = TIMELINES["fig07"].variant("mysql").run(duration=SHORT)
    assert result.check_claims() == []
    assert result.drops["nginx"] == 0
    assert result.drops["mysql"] == 0


def test_fig08_nx2_mysql_drops_at_228():
    result = TIMELINES["fig08"].run(duration=SHORT)
    assert result.check_claims() == []
    assert result.run.queue_max()["mysql"] == 228
    assert result.drops["nginx"] == 0 and result.drops["xtomcat"] == 0


def test_fig09_xtomcat_batch_floods_mysql():
    result = TIMELINES["fig09"].run(duration=SHORT)
    assert result.check_claims() == []
    assert result.drops["mysql"] > 0
    # the async tiers themselves never drop
    assert result.drops["nginx"] == 0 and result.drops["xtomcat"] == 0
    # XTomcat buffered far past any synchronous MaxSysQDepth
    assert result.run.queue_max()["xtomcat"] > 400


def test_fig10_nx3_no_drops_no_vlrt():
    result = TIMELINES["fig10"].run(duration=SHORT)
    assert result.check_claims() == []
    assert result.summary()["vlrt"] == 0
    assert result.summary()["failed"] == 0


def test_fig11_nx3_log_flush_no_drops():
    result = TIMELINES["fig11"].run(duration=45.0)
    assert result.check_claims() == []
    assert result.summary()["vlrt"] == 0
    # XMySQL buffered the freeze in its lightweight queue
    assert result.run.queue_max()["xmysql"] > 100


def test_same_seed_same_figure():
    """Full determinism at system scale: identical runs, identical drops
    and identical response-time multiset."""
    a = TIMELINES["fig03"].run(duration=SHORT)
    b = TIMELINES["fig03"].run(duration=SHORT)
    assert a.drops == b.drops
    assert sorted(a.run.log.response_times()) == sorted(
        b.run.log.response_times()
    )
    assert a.run.queue_max() == b.run.queue_max()


@pytest.mark.integration
def test_replication_dilutes_but_keeps_ctqo():
    """Extension check: adding an app replica reduces drops but the
    round-robin head-of-line blocking keeps upstream CTQO alive."""
    from repro.experiments import replication

    single = replication.run_one(replicas=1, duration=26.0,
                                 burst_times=(15.0,))
    double = replication.run_one(replicas=2, duration=26.0,
                                 burst_times=(15.0,))
    assert single["drops"]["apache"] > 0
    assert double["drops"]["apache"] > 0           # still drops
    assert double["drops"]["apache"] < single["drops"]["apache"]
