"""Figs 3, 5, 7 (+ §V-B), 8, 9, 10, 11 — the timeline experiments.

Each benchmark runs one figure's scenario and asserts its headline
shape: which server drops packets (or that none does), and where the
queue plateaus sit relative to MaxSysQDepth.
"""

import pytest

from repro.experiments import TIMELINES

from conftest import scaled

#: every row of the timeline table and its variants, at its own length
TIMELINE_SPECS = [
    (f"{name}_{variant}" if variant else name, spec)
    for name, row in TIMELINES.items()
    for variant, spec in ((None, row), *row.variants.items())
]


@pytest.mark.parametrize(
    "name, spec", TIMELINE_SPECS, ids=[t[0] for t in TIMELINE_SPECS]
)
def test_timeline_figure(once, benchmark, name, spec):
    result = once(spec.run, duration=scaled(spec.duration, minimum=30.0))

    summary = result.summary()
    benchmark.extra_info["figure"] = spec.figure
    benchmark.extra_info["throughput_rps"] = round(summary["throughput_rps"], 1)
    benchmark.extra_info["vlrt"] = summary["vlrt"]
    benchmark.extra_info["drops"] = {
        k: v for k, v in result.drops.items() if v
    }
    benchmark.extra_info["queue_max"] = result.run.queue_max()

    failures = result.check_claims()
    assert not failures, f"{spec.figure}: {failures}"

    if spec.expect_no_drops:
        # the fully asynchronous stack also removes the VLRT tail
        assert summary["vlrt"] == 0
    else:
        assert summary["vlrt"] > 0


def test_fig03_queue_plateaus(once, benchmark):
    """Fig 3(b)'s specific numbers: Tomcat caps at 293; Apache grows
    from 278 to 428 via the second process."""
    result = once(TIMELINES["fig03"].run,
                  duration=scaled(45.0, minimum=30.0))
    queue_max = result.run.queue_max()
    benchmark.extra_info["queue_max"] = queue_max
    apache = result.run.system.servers["web"]
    tomcat = result.run.system.servers["app"]
    assert queue_max["tomcat"] == tomcat.max_sys_q_depth == 293
    assert apache.processes == 2
    assert queue_max["apache"] == apache.max_sys_q_depth == 428


def test_fig08_mysql_plateau(once, benchmark):
    """Fig 8(b): MySQL's queue caps at exactly 228 = 100 + 128."""
    result = once(TIMELINES["fig08"].run,
                  duration=scaled(45.0, minimum=30.0))
    queue_max = result.run.queue_max()
    benchmark.extra_info["queue_max"] = queue_max
    assert queue_max["mysql"] == 228
    # the async tiers buffer far beyond any sync MaxSysQDepth unharmed
    assert queue_max["xtomcat"] > 428
    assert result.drops["nginx"] == 0 and result.drops["xtomcat"] == 0


def test_fig02_emergent(once, benchmark):
    """Fig 2 at full fidelity: a complete second system (SysBursty)
    consolidated onto the Tomcat host reproduces the Fig 3 phenomenology
    with *emergent* millibottlenecks — nothing scripted."""
    from repro.experiments import fig02_full_sysbursty

    result = once(fig02_full_sysbursty.run, scaled(60.0, minimum=45.0))
    summary = result["summary"]
    benchmark.extra_info["drops"] = {
        k: v for k, v in summary["drops_by_server"].items() if v
    }
    benchmark.extra_info["bursts"] = [
        round(t, 1) for t in result["burst_times"]
    ]
    assert summary["drops_by_server"]["apache"] > 20
    assert result["burst_times"], "SysBursty never burst"
    # the shared-core tenant idles between episodes (the paper's
    # "negligible amount")
    monitor = result["result"].monitor
    assert monitor.host_cpu["sysbursty-mysql"].mean() < 0.3
