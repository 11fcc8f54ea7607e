"""Ablations of the design choices DESIGN.md calls out.

These are not figures from the paper; they probe the knobs the paper's
§III dynamic conditions and §V-E discussion identify:

- TCP backlog size vs drop onset,
- millibottleneck duration vs the predicted-overflow model,
- retransmission timeout vs where the response-time modes sit,
- "just add threads" (the RPC-purist alternative) without and with the
  concurrency-overhead cost,
- XMySQL LiteQDepth sizing: when 2000 is and is not enough.
"""

import pytest

from repro.core import Scenario, minimum_millibottleneck_duration, mode_times
from repro.topology import SystemConfig

from conftest import scaled

BURSTS = [12.0, 19.0]


def consolidation_scenario(config, duration, burst_cpu=1.0):
    return (
        Scenario(config, clients=7000, duration=duration, warmup=5.0)
        .with_consolidation("app", times=BURSTS, burst_cpu=burst_cpu)
    )


def run_with_config(config, duration, burst_cpu=1.0):
    return consolidation_scenario(config, duration, burst_cpu).run()


# ----------------------------------------------------------------------
def test_ablation_backlog_size(once, benchmark):
    """Bigger backlogs absorb more of the burst but cannot prevent the
    overflow — MaxSysQDepth only moves, CTQO remains."""
    duration = scaled(26.0)

    def sweep():
        out = {}
        for backlog in (64, 128, 256):
            config = SystemConfig(nx=0, web_backlog=backlog,
                                  app_backlog=backlog)
            out[backlog] = run_with_config(config, duration)
        return out

    results = once(sweep)
    drops = {backlog: r.dropped_packets for backlog, r in results.items()}
    benchmark.extra_info["drops_by_backlog"] = drops
    assert all(d > 0 for d in drops.values())      # CTQO at every size
    assert drops[256] < drops[64]                  # but bigger absorbs more


def test_ablation_millibottleneck_duration(once, benchmark):
    """The §III dynamic condition: stalls shorter than the queue-fill
    time produce no drops; longer ones do."""
    duration = scaled(26.0)
    config = SystemConfig(nx=0)

    def sweep():
        out = {}
        for burst_cpu in (0.15, 1.2):
            out[burst_cpu] = run_with_config(config, duration,
                                             burst_cpu=burst_cpu)
        return out

    results = once(sweep)
    drops = {b: r.dropped_packets for b, r in results.items()}
    benchmark.extra_info["drops_by_burst_cpu"] = drops

    # the model's threshold: ~1000 req/s against 278+293 of queue space
    threshold = minimum_millibottleneck_duration(1000, 278 + 293)
    benchmark.extra_info["predicted_min_duration_s"] = round(threshold, 3)
    assert drops[0.15] == 0   # stall shorter than the predicted minimum
    assert drops[1.2] > 0     # stall comfortably beyond it


def test_ablation_retransmission_timeout(once, benchmark):
    """The 3-second VLRT mode is purely the kernel's RTO: halving the
    timeout moves the mode to ~1.5 s."""
    duration = scaled(26.0)

    def sweep():
        out = {}
        for rto in (1.5, 3.0):
            config = SystemConfig(nx=0, tcp_rto=rto)
            out[rto] = run_with_config(config, duration)
        return out

    results = once(sweep)
    locations = {}
    for rto, result in results.items():
        rts = result.log.response_times(include_failures=True)
        modes = mode_times(rts, spacing=rto)
        locations[rto] = modes.get(1)
    benchmark.extra_info["first_mode_location"] = {
        k: round(v, 2) for k, v in locations.items() if v
    }
    assert locations[3.0] == pytest.approx(3.0, abs=0.4)
    assert locations[1.5] == pytest.approx(1.5, abs=0.4)


def test_ablation_thread_pool_alternative(once, benchmark):
    """§V-E: giant thread pools do prevent the drops (MaxSysQDepth
    grows past any burst) — that part of the RPC-purist argument is
    real, and Fig 12 shows what it costs at high concurrency."""
    duration = scaled(26.0)

    def sweep():
        big = SystemConfig(nx=0, web_threads=2000, app_threads=2000,
                           db_threads=2000, db_pool_size=2000,
                           web_spawn_extra_process=False)
        return {
            "default": run_with_config(SystemConfig(nx=0), duration),
            "threads2000": run_with_config(big, duration),
        }

    results = once(sweep)
    drops = {k: r.dropped_packets for k, r in results.items()}
    benchmark.extra_info["drops"] = drops
    assert drops["default"] > 0
    assert drops["threads2000"] == 0


def test_ablation_xmysql_queue_sizing(once, benchmark):
    """LiteQDepth(XMySQL) must cover the post-stall batch: with the
    paper's 2000 the NX=3 stack is clean; with a tiny wait queue the
    batch overflows even XMySQL."""
    duration = scaled(26.0)

    def sweep():
        return {
            2000: run_with_config(SystemConfig(nx=3, xmysql_queue=2000),
                                  duration),
            40: run_with_config(SystemConfig(nx=3, xmysql_queue=40),
                                duration),
        }

    results = once(sweep)
    drops = {k: r.drops for k, r in results.items()}
    benchmark.extra_info["drops"] = drops
    assert results[2000].dropped_packets == 0
    assert results[40].drops["xmysql"] > 0


def test_ablation_xtomcat_pacing(once, benchmark):
    """Extension beyond the paper: pacing XTomcat's downstream query
    rate defuses the Fig 9 batch flood without making MySQL async —
    at the cost of extra queueing delay inside XTomcat."""
    duration = scaled(26.0)

    def sweep():
        return {
            "unpaced": run_with_config(SystemConfig(nx=2), duration),
            "paced": run_with_config(
                SystemConfig(nx=2, xtomcat_pace_rate=1200.0), duration
            ),
        }

    results = once(sweep)
    drops = {k: r.drops for k, r in results.items()}
    benchmark.extra_info["drops"] = drops
    benchmark.extra_info["p999_ms"] = {
        k: round(r.summary()["p999_ms"]) for k, r in results.items()
    }
    assert results["unpaced"].drops["mysql"] > 0   # Fig 9 as published
    assert results["paced"].drops["mysql"] == 0    # the mitigation
    # pacing buys the fix with in-tier queueing, not packet loss
    assert results["paced"].summary()["failed"] == 0


def test_extension_deep_chain_depth_sweep(once, benchmark):
    """Extension: the CTQO mechanism at depths beyond the paper's 3
    tiers — every synchronous depth drops at the front tier, every
    asynchronous depth absorbs the identical leaf stall."""
    from repro.experiments import deep_chain

    sweep = once(deep_chain.run, (3, 4, 5), scaled(30.0, minimum=25.0))
    benchmark.extra_info["drops"] = {
        f"{depth}-{kind}": sum(pair[kind]["drops"].values())
        for depth, pair in sweep.items() for kind in ("sync", "async")
    }
    for depth, pair in sweep.items():
        assert pair["sync"]["drops"]["tier1"] > 0, f"depth {depth}"
        front_only = all(
            count == 0
            for name, count in pair["sync"]["drops"].items()
            if name != "tier1"
        )
        assert front_only, f"depth {depth}: {pair['sync']['drops']}"
        assert sum(pair["async"]["drops"].values()) == 0, f"depth {depth}"


def test_ablation_full_rubbos_mix(once, benchmark):
    """Workload-realism check: the Fig 3 phenomenology is not an
    artifact of the calibrated 3-interaction mix — the full 21-
    interaction RUBBoS catalog (calibrated to the same app-tier
    operating point) reproduces the same drop sites and plateaus."""
    from repro.apps import calibrated, read_write_mix

    duration = scaled(26.0)

    def sweep():
        full = SystemConfig(
            nx=0, interaction_specs=calibrated(read_write_mix())
        )
        return {
            "default_mix": run_with_config(SystemConfig(nx=0), duration),
            "full_rubbos": run_with_config(full, duration),
        }

    results = once(sweep)
    for label, result in results.items():
        benchmark.extra_info[label] = {
            "drops": {k: v for k, v in result.drops.items() if v},
            "queue_max": result.queue_max(),
        }
        assert result.drops["apache"] > 0, label
        assert result.queue_max()["tomcat"] == 293, label


def test_substrate_validation_against_queueing_theory(once, benchmark):
    """The simulator's clean steady state matches the analytic closed
    network within a few percent — the CTQO results then rest only on
    the queue-bound/drop/retransmit mechanisms the theory omits."""
    from repro.experiments import validation

    points = once(validation.run, (4000, 7000),
                  scaled(40.0, minimum=25.0))
    benchmark.extra_info["points"] = [
        {
            "wl": p["clients"],
            "tput": f"{p['predicted_tput']:.0f}/{p['measured_tput']:.0f}",
            "util": f"{p['predicted_app_util']:.2f}/"
                    f"{p['measured_app_util']:.2f}",
        }
        for p in points
    ]
    for point in points:
        assert point["dropped"] == 0
        assert point["measured_tput"] == pytest.approx(
            point["predicted_tput"], rel=0.05
        )
        assert point["measured_app_util"] == pytest.approx(
            point["predicted_app_util"], abs=0.05
        )


def test_cause_independence(once, benchmark):
    """§III: the same conditions produce CTQO under four different
    millibottleneck causes — CPU contention, disk I/O, GC pauses and
    network stalls — and the async stack absorbs all four."""
    from repro.experiments import cause_variety

    points = once(cause_variety.run, cause_variety.CAUSES,
                  scaled(28.0, minimum=24.0))
    benchmark.extra_info["dropped"] = {
        f"{cause}-{stack}": point["dropped"]
        for (cause, stack), point in points.items()
    }
    for cause in cause_variety.CAUSES:
        assert points[(cause, "sync")]["dropped"] > 0, cause
        assert "apache" in points[(cause, "sync")]["drop_sites"], cause
        assert points[(cause, "async")]["dropped"] == 0, cause
