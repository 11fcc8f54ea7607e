"""Scheduler equivalence: calendar queue vs the reference binary heap.

The calendar-queue :class:`~repro.sim.kernel.Simulator` must execute
*exactly* the same callbacks, in the same order, at the same float
times, as the reference heap kernel (``reference_kernel.HeapSimulator``) — for
any schedule, any geometry, any interleaving of ``run(until=...)``
phases.  Determinism of every golden record in this repository rests on
that equivalence, so these tests drive both kernels with randomized
scripts (absolute/relative scheduling, priorities, same-instant ties,
bulk batches, nested scheduling from callbacks, far-future overflow
times) and require byte-identical traces.

The slow test at the bottom is the full lock: the whole quick registry
replayed on the heap kernel must reproduce
``tests/data/golden_registry_quick.json`` byte-identically, exactly as
the default calendar kernel does in ``test_policy_equivalence``.
"""

import json
import os
import random

import pytest

from repro.sim import Simulator

from reference_kernel import HeapSimulator, use_heap_kernel

#: wheel geometries under test: the default, sub-event-rate tiny
#: buckets (maximal rollover churn), one huge bucket (degenerates to a
#: heap per bucket) and a single-bucket wheel (everything overflows)
GEOMETRIES = (
    {},
    {"bucket_width": 0.05, "wheel_buckets": 8},
    {"bucket_width": 1000.0, "wheel_buckets": 4},
    {"bucket_width": 0.001, "wheel_buckets": 1},
)


def build_script(seed, ops=150):
    """Pre-draw a schedule script so both kernels replay identical ops.

    Times mix all the interesting shapes: sub-bucket jitter, exact
    bucket-boundary multiples, same-instant duplicates and far-future
    overflow landings.
    """
    rng = random.Random(seed)
    script = []
    time_pool = [0.0]
    for i in range(ops):
        base = rng.choice(time_pool)
        shape = rng.random()
        if shape < 0.25:
            when = base + rng.random() * 0.01
        elif shape < 0.45:
            # exact bucket boundaries of every geometry under test
            when = base + rng.randrange(1, 50) * 0.05
        elif shape < 0.60:
            when = base  # same-instant tie
        elif shape < 0.80:
            when = base + rng.random() * 5.0
        else:
            when = base + rng.random() * 200.0  # overflow territory
        time_pool.append(when)
        kind = rng.random()
        priority = rng.choice((-2, -1, 0, 0, 0, 1, 2))
        nested = [
            (rng.random() * rng.choice((0.01, 1.0, 30.0)),
             f"n{i}.{j}", rng.choice((-1, 0, 1)))
            for j in range(rng.randrange(3))
        ]
        if kind < 0.55:
            script.append(("at", when, f"a{i}", priority, nested))
        elif kind < 0.8:
            script.append(("in", when, f"i{i}", priority, nested))
        else:
            batch = sorted(
                when + rng.random() * 10.0 for _ in range(rng.randrange(1, 6))
            )
            script.append(("batch", batch, f"b{i}"))
    return script


def run_script(sim, script, until_points=()):
    """Replay ``script`` on ``sim``; returns the execution trace."""
    trace = []

    def fire(label, nested):
        trace.append((sim.now, label))
        for delay, sub_label, sub_priority in nested:
            sim.call_in(delay, fire, sub_label, (), priority=sub_priority)

    for op in script:
        if op[0] == "at":
            _kind, when, label, priority, nested = op
            sim.call_at(when, fire, label, nested, priority=priority)
        elif op[0] == "in":
            _kind, delay, label, priority, nested = op
            sim.call_in(delay, fire, label, nested, priority=priority)
        else:
            _kind, batch, label = op
            # batch callbacks take no args: close over empty nesting
            sim.call_at_batch(batch, lambda label=label: trace.append(
                (sim.now, label)))
    for until in until_points:
        sim.run(until=until)
        trace.append(("run-until", sim.now, sim.executed_events))
    sim.run()
    trace.append(("end", sim.now, sim.executed_events))
    return trace


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=["default", "tiny", "huge", "one-bucket"])
def test_random_schedules_trace_identically(seed, geometry):
    script = build_script(seed)
    heap_trace = run_script(HeapSimulator(seed=0), script)
    wheel_trace = run_script(Simulator(seed=0, **geometry), script)
    assert wheel_trace == heap_trace


@pytest.mark.parametrize("seed", range(6))
def test_run_until_phases_trace_identically(seed):
    """Interleaved bounded runs (stopping mid-schedule, re-scheduling
    nothing in between) advance both kernels through identical states."""
    script = build_script(seed + 1000, ops=80)
    until_points = (0.5, 7.0, 33.0, 150.0)
    heap_trace = run_script(HeapSimulator(seed=0), script, until_points)
    wheel_trace = run_script(
        Simulator(seed=0, bucket_width=0.25, wheel_buckets=16),
        script, until_points,
    )
    assert wheel_trace == heap_trace


def test_same_instant_priority_ties_match():
    """Priorities at one instant order before insertion sequence, the
    same way on both kernels (including negative priorities)."""
    results = []
    for make in (HeapSimulator, Simulator):
        sim = make(seed=0)
        hits = []
        for i, priority in enumerate((1, 0, -1, 0, 2, -2, 0)):
            sim.call_at(3.0, hits.append, (priority, i), priority=priority)
        sim.run()
        results.append(hits)
    assert results[0] == results[1]
    assert results[0] == sorted(results[0])


@pytest.mark.parametrize("make", [HeapSimulator, Simulator],
                         ids=["heap", "wheel"])
def test_error_paths_are_identical(make):
    sim = make(seed=0)
    sim.call_in(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match=r"at t=0\.5 \(in the past\)"):
        sim.call_at(0.5, lambda: None)
    with pytest.raises(ValueError, match=r"a negative delay \(-0\.25\)"):
        sim.call_in(-0.25, lambda: None)
    with pytest.raises(ValueError, match=r"at t=0\.5 \(in the past\)"):
        sim.call_at_batch([2.0, 0.5], lambda: None)
    with pytest.raises(ValueError, match="in the past"):
        sim.run(until=0.5)


@pytest.mark.parametrize("make", [HeapSimulator, Simulator],
                         ids=["heap", "wheel"])
def test_batch_failure_keeps_sequence_consistent(make):
    """A batch that fails mid-way must still account the entries it
    scheduled, so later ties order identically on both kernels."""
    sim = make(seed=0)
    hits = []
    with pytest.raises(ValueError):
        sim.call_at_batch([1.0, 1.0, -1.0], lambda: hits.append("batch"))
    sim.call_at(1.0, hits.append, "after")
    sim.run()
    # the two valid batch entries fired first (earlier sequence)
    assert hits == ["batch", "batch", "after"]


# ----------------------------------------------------------------------
# the golden lock: the quick registry under the heap kernel
# ----------------------------------------------------------------------
GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_registry_quick.json"
)


def test_fig03_quick_record_matches_golden_under_heap(monkeypatch):
    """One full 3-tier consolidation run on the *heap* kernel matches
    the golden record (which the calendar kernel also reproduces, in
    ``test_policy_equivalence``) — both schedulers, one byte-identical
    history."""
    from repro.experiments.runner import JobConfig, execute_job, job_id

    use_heap_kernel(monkeypatch)
    assert type(Simulator(seed=0)) is HeapSimulator
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    job = JobConfig(name="fig03", seed=42, duration=18.0)
    assert execute_job(job) == golden[job_id(job)]


@pytest.mark.slow
def test_quick_registry_replays_golden_under_heap(monkeypatch):
    """The entire quick registry, replayed on the heap kernel through
    the parallel engine (whose forked workers inherit the patch),
    reproduces the golden bytes."""
    from repro.experiments.record import records_to_json
    from repro.experiments.runner import expand_jobs, run_jobs

    use_heap_kernel(monkeypatch)
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    names = sorted({record["experiment"] for record in golden.values()})
    jobs = expand_jobs(names=names, quick=True)
    report = run_jobs(jobs, workers=os.cpu_count() or 1,
                      timeout=600, retries=1)
    assert report.ok, report.failures
    with open(GOLDEN_PATH) as handle:
        assert records_to_json(report.records) == handle.read()
