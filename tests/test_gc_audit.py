"""Cyclic-garbage audit: the simulator's hot path creates no cycles.

:meth:`~repro.sim.kernel.Simulator.run` pauses Python's cyclic garbage
collector for its whole event loop, so every reference cycle the hot
path leaves behind would be a leak for the length of the run.  These
tests run representative scenarios with every ``Simulator.run``
bracketed by collections under ``gc.DEBUG_SAVEALL`` and require the
collection after each run to save nothing: every finished request
tree, process and failed call was freed by reference counting.

The fast cells cover the closed-loop sync and async stacks under a
consolidation millibottleneck, the streaming open loop with live
telemetry, a fan-out gather behind a frozen leaf, the timeout/retry
and circuit-breaker remediation policies and requests that fail with
``ConnectionTimeout``; the slow cell replays every job of the quick
registry.
"""

import collections
import gc

import pytest

from repro.core.evaluation import Scenario
from repro.metrics.live import LiveConfig
from repro.sim import Simulator
from repro.topology.configs import SystemConfig


def cyclic_garbage(scenario):
    """Call ``scenario()``; return the objects its ``Simulator.run``
    calls left for the cyclic collector.

    A collection before each run frees whatever set-up left behind;
    the run then executes with ``gc.DEBUG_SAVEALL`` set, so the
    collection after it saves every object that had become
    unreachable inside the run but was still held by a reference cycle
    to ``gc.garbage`` instead of freeing it.  The debug flags and
    ``Simulator.run`` are always restored.
    """
    saved = []
    run = Simulator.run

    def audited_run(sim, *args, **kwargs):
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            return run(sim, *args, **kwargs)
        finally:
            gc.collect()
            saved.extend(gc.garbage)
            gc.garbage.clear()
            gc.set_debug(flags)

    Simulator.run = audited_run
    try:
        scenario()
    finally:
        Simulator.run = run
    return saved


def assert_no_cycles(scenario):
    garbage = cyclic_garbage(scenario)
    kinds = collections.Counter(type(obj).__name__ for obj in garbage)
    assert not garbage, (f"{len(garbage)} objects left to the cyclic "
                         f"collector: {kinds.most_common(8)}")


def _three_tier(nx):
    return Scenario(
        SystemConfig(nx=nx, seed=5), clients=7000, duration=4.0,
        warmup=0.5,
    ).with_consolidation("app", period=1.5)


def test_sync_stack_with_consolidation_leaves_no_cycles():
    assert_no_cycles(_three_tier(0).run)


def test_async_stack_with_consolidation_leaves_no_cycles():
    assert_no_cycles(_three_tier(3).run)


def test_connection_timeouts_leave_no_cycles():
    """With no retransmissions every dropped packet fails its request
    with ``ConnectionTimeout`` after one RTO: failed exchanges, failed
    downstream calls and error replies all on the hot path."""
    scenario = Scenario(
        SystemConfig(nx=0, seed=5, max_retransmits=0), clients=7000,
        duration=8.0, warmup=0.5,
    ).with_consolidation("app", period=1.5)
    assert_no_cycles(scenario.run)


def test_streaming_open_loop_with_live_telemetry_leaves_no_cycles():
    scenario = Scenario(
        SystemConfig(nx=0, seed=5, streaming=True), duration=5.0,
        warmup=0.0,
        live=LiveConfig(interval=1.0, sample_rate=0.05, trace_budget=500),
    ).with_consolidation("app", period=1.5)
    scenario.with_open_loop(1000.0, max_requests=3000)
    assert_no_cycles(scenario.run)


def test_fanout_gather_behind_a_frozen_leaf_leaves_no_cycles():
    from repro.experiments import fanout

    assert_no_cycles(lambda: fanout.run_one(
        "sync", clients=2000, n=4, duration=8.0, warmup=0.5, seed=5,
    ))


@pytest.mark.parametrize("variant",
                         ["retry_amplification", "breaker_protected"])
def test_retry_and_breaker_policies_leave_no_cycles(variant):
    """Retries that run out and breakers that fail fast raise
    ``ServletError`` inside the servlets: the failed-call path of the
    thread driver."""
    from repro.experiments import policy_matrix

    spec = policy_matrix.VARIANTS[variant]
    scenario = Scenario(
        SystemConfig(nx=0, seed=5, **spec["policies"]), clients=7000,
        duration=4.0, warmup=0.5,
    ).with_consolidation(spec["stall"], period=1.0)
    assert_no_cycles(scenario.run)


@pytest.mark.slow
def test_quick_registry_leaves_no_cycles():
    """Every job of the quick registry, run serially in-process."""
    from repro.experiments.runner import execute_job, expand_jobs, job_id

    leaks = {}
    for job in expand_jobs(quick=True):
        garbage = cyclic_garbage(lambda job=job: execute_job(job))
        if garbage:
            leaks[job_id(job)] = collections.Counter(
                type(obj).__name__ for obj in garbage).most_common(4)
    assert not leaks, leaks
