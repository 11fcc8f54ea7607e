"""Unit tests for the discrete-event kernel (repro.sim.kernel)."""

import gc

import pytest

from repro.sim import KernelTracer, SimulationDeadlock, Simulator


def test_callbacks_run_in_time_order():
    sim = Simulator()
    hits = []
    sim.call_in(2.0, hits.append, "late")
    sim.call_in(1.0, hits.append, "early")
    sim.run()
    assert hits == ["early", "late"]


def test_same_time_callbacks_run_in_insertion_order():
    sim = Simulator()
    hits = []
    for i in range(10):
        sim.call_at(5.0, hits.append, i)
    sim.run()
    assert hits == list(range(10))


def test_priority_breaks_ties_before_insertion_order():
    sim = Simulator()
    hits = []
    sim.call_at(1.0, hits.append, "normal")
    sim.call_at(1.0, hits.append, "first", priority=-1)
    sim.call_at(1.0, hits.append, "last", priority=1)
    sim.run()
    assert hits == ["first", "normal", "last"]


def test_now_advances_to_callback_time():
    sim = Simulator()
    seen = []
    sim.call_in(3.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.5]
    assert sim.now == 3.5


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.call_in(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(0.5, lambda: None)


NAN = float("nan")
INF = float("inf")


def _kernels():
    from reference_kernel import HeapSimulator

    return [Simulator, HeapSimulator]


@pytest.mark.parametrize("kernel", _kernels(), ids=["calendar", "heap"])
@pytest.mark.parametrize("schedule", [
    pytest.param(lambda sim: sim.call_at(NAN, print), id="call_at-nan"),
    pytest.param(lambda sim: sim.call_at(INF, print), id="call_at-inf"),
    pytest.param(lambda sim: sim.call_in(NAN, print), id="call_in-nan"),
    pytest.param(lambda sim: sim.call_in(INF, print), id="call_in-inf"),
    pytest.param(lambda sim: sim.call_at_batch([NAN], print),
                 id="batch-nan"),
    pytest.param(lambda sim: sim.call_at_batch([INF], print),
                 id="batch-inf"),
])
def test_non_finite_times_are_rejected(kernel, schedule):
    """A NaN or infinite entry would sit beyond every calendar window,
    and ``run(until=...)`` would roll the window forever: the kernel
    rejects it at the call instead, and the run still ends."""
    sim = kernel(seed=1)
    sim.call_in(1.0, print)
    with pytest.raises(ValueError, match="not a finite time|non-finite"):
        schedule(sim)
    sim.call_in(6.0, print)
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.executed_events == 1


def test_run_until_stops_before_later_events():
    sim = Simulator()
    hits = []
    sim.call_in(1.0, hits.append, "in")
    sim.call_in(10.0, hits.append, "out")
    sim.run(until=5.0)
    assert hits == ["in"]
    assert sim.now == 5.0  # clock advanced exactly to the horizon


def test_run_until_can_resume():
    sim = Simulator()
    hits = []
    sim.call_in(1.0, hits.append, "a")
    sim.call_in(10.0, hits.append, "b")
    sim.run(until=5.0)
    sim.run(until=20.0)
    assert hits == ["a", "b"]


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.call_in(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=0.5)


def test_error_on_starvation():
    sim = Simulator()
    sim.call_in(1.0, lambda: None)
    with pytest.raises(SimulationDeadlock):
        sim.run(until=100.0, error_on_starvation=True)


def test_stop_halts_run():
    sim = Simulator()
    hits = []
    sim.call_in(1.0, hits.append, "a")
    sim.call_in(2.0, sim.stop)
    sim.call_in(3.0, hits.append, "b")
    sim.run()
    assert hits == ["a"]
    # resumable after stop
    sim.run()
    assert hits == ["a", "b"]


def test_callbacks_scheduled_during_run_execute():
    sim = Simulator()
    hits = []

    def first():
        sim.call_in(1.0, hits.append, "second")

    sim.call_in(1.0, first)
    sim.run()
    assert hits == ["second"]
    assert sim.now == 2.0


def test_zero_delay_callback_runs_same_time():
    sim = Simulator()
    times = []
    sim.call_in(1.0, lambda: sim.call_in(0.0, times.append, sim.now))
    sim.run()
    assert times == [1.0]


def test_executed_events_counter():
    sim = Simulator()
    for _ in range(5):
        sim.call_in(1.0, lambda: None)
    sim.run()
    assert sim.executed_events == 5


def test_fork_rng_streams_are_independent_and_deterministic():
    values = []
    for _ in range(2):
        sim = Simulator(seed=42)
        a = sim.fork_rng("a")
        b = sim.fork_rng("b")
        values.append(([a.random() for _ in range(3)], [b.random() for _ in range(3)]))
    assert values[0] == values[1]  # reproducible from the seed
    assert values[0][0] != values[0][1]  # distinct streams differ


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.call_in(4.0, lambda: None)
    sim.call_in(2.0, lambda: None)
    assert sim.peek() == 2.0


# ----------------------------------------------------------------------
# the cyclic collector is paused while events dispatch
# ----------------------------------------------------------------------
@pytest.fixture
def collecting():
    """Start with the collector on, and leave it on whatever happens."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("until", [None, 5.0])
@pytest.mark.parametrize("traced", [False, True], ids=["inline", "step"])
def test_run_pauses_the_collector_inside_callbacks(collecting, until,
                                                   traced):
    sim = Simulator()
    if traced:
        KernelTracer(sim)  # forces the step-dispatch path
    seen = []
    sim.call_in(1.0, lambda: seen.append(gc.isenabled()))
    sim.run(until=until)
    assert seen == [False]
    assert gc.isenabled()


def test_run_restores_the_collector_when_a_callback_raises(collecting):
    sim = Simulator()

    def boom():
        raise RuntimeError("boom")

    sim.call_in(1.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert gc.isenabled()


def test_run_restores_the_collector_after_a_deadlock(collecting):
    sim = Simulator()
    with pytest.raises(SimulationDeadlock):
        sim.run(until=3.0, error_on_starvation=True)
    assert gc.isenabled()


def test_nested_run_leaves_the_outer_run_paused(collecting):
    outer, inner = Simulator(), Simulator()
    seen = []
    inner.call_in(1.0, lambda: seen.append(("inner", gc.isenabled())))

    def run_inner():
        inner.run()
        seen.append(("outer", gc.isenabled()))

    outer.call_in(1.0, run_inner)
    outer.run()
    assert seen == [("inner", False), ("outer", False)]
    assert gc.isenabled()


def test_run_leaves_a_disabled_collector_disabled(collecting):
    gc.disable()
    sim = Simulator()
    sim.call_in(1.0, lambda: None)
    sim.run()
    assert not gc.isenabled()
