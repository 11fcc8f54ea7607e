"""Unit tests for generator processes (repro.sim.process)."""

import gc

import pytest

from repro.sim import ProcessInterrupt, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=3)


def test_process_requires_generator(sim):
    def plain():
        return 1

    with pytest.raises(TypeError):
        sim.process(plain())  # plain() returns an int, not a generator


def test_yield_numeric_delay(sim):
    trace = []

    def proc():
        trace.append(sim.now)
        yield 1.5
        trace.append(sim.now)
        yield 2  # ints work too
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 1.5, 3.5]


def test_yield_event_receives_value(sim):
    ev = sim.event()
    got = []

    def proc():
        value = yield ev
        got.append(value)

    sim.process(proc())
    sim.call_in(1.0, ev.succeed, "hello")
    sim.run()
    assert got == ["hello"]


def test_failed_event_raises_inside_process(sim):
    ev = sim.event()
    caught = []

    def proc():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(proc())
    sim.call_in(1.0, ev.fail, RuntimeError("bad"))
    sim.run()
    assert caught == ["bad"]


def test_process_return_value_becomes_event_value(sim):
    def proc():
        yield 1.0
        return 42

    p = sim.process(proc())
    sim.run()
    assert p.ok
    assert p.value == 42


def test_process_join(sim):
    def child():
        yield 2.0
        return "child-result"

    results = []

    def parent():
        result = yield sim.process(child())
        results.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert results == [(2.0, "child-result")]


def test_uncaught_exception_fails_process_event(sim):
    def proc():
        yield 1.0
        raise ValueError("oops")

    p = sim.process(proc())
    watched = []
    p.add_callback(lambda e: watched.append(e.failed))
    sim.run()
    assert p.failed
    assert isinstance(p.value, ValueError)
    assert watched == [True]


def test_interrupt_wakes_process(sim):
    trace = []

    def proc():
        try:
            yield 100.0
        except ProcessInterrupt as interrupt:
            trace.append((sim.now, interrupt.cause))

    p = sim.process(proc())
    sim.call_in(1.0, p.interrupt, "reason")
    sim.run()
    assert trace == [(1.0, "reason")]


def test_interrupt_finished_process_is_noop(sim):
    def proc():
        yield 1.0

    p = sim.process(proc())
    sim.run()
    p.interrupt()  # must not raise
    sim.run()


def test_unhandled_interrupt_fails_process(sim):
    """Nothing waits on the process, so the interrupt it does not catch
    stops the run."""
    def proc():
        yield 100.0

    p = sim.process(proc())
    sim.call_in(1.0, p.interrupt)
    with pytest.raises(ProcessInterrupt):
        sim.run()
    assert sim.now == 1.0
    assert p.failed
    assert isinstance(p.value, ProcessInterrupt)


def test_unwatched_process_fault_stops_the_run(sim):
    """A process that raises with nothing waiting on it must not fail
    silently: the exception leaves ``run`` at the instant it happened."""
    def proc():
        yield 0.1
        raise KeyError("lost")

    p = sim.process(proc())
    with pytest.raises(KeyError):
        sim.run(until=1.0)
    assert sim.now == pytest.approx(0.1)
    assert p.failed


def test_watched_process_fault_fails_as_an_event(sim):
    """A process someone waits on still fails as an event: the waiter
    receives the exception and the run goes on."""
    def worker():
        yield 0.1
        raise KeyError("handled")

    caught = []

    def parent():
        try:
            yield sim.process(worker())
        except KeyError as exc:
            caught.append((sim.now, exc.args[0]))

    sim.process(parent())
    sim.run(until=1.0)
    assert caught == [(pytest.approx(0.1), "handled")]
    assert sim.now == 1.0


def test_stale_wakeup_after_interrupt_is_ignored(sim):
    """The abandoned event firing later must not resume the process."""
    ev = sim.event()
    trace = []

    def proc():
        try:
            yield ev
            trace.append("resumed-by-event")
        except ProcessInterrupt:
            trace.append("interrupted")
            yield 5.0
            trace.append("post-sleep")

    p = sim.process(proc())
    sim.call_in(1.0, p.interrupt)
    sim.call_in(2.0, ev.succeed, None)  # fires while proc sleeps
    sim.run()
    assert trace == ["interrupted", "post-sleep"]


def test_stale_event_after_the_end_is_ignored(sim):
    """An abandoned event firing after the process ended finds it
    released and does nothing."""
    ev = sim.event()

    def proc():
        try:
            yield ev
        except ProcessInterrupt:
            return "interrupted"

    p = sim.process(proc())
    sim.call_in(1.0, p.interrupt)
    sim.call_in(2.0, ev.succeed, "late")
    sim.run()
    assert p.value == "interrupted"
    assert p.generator is None


def test_finished_process_is_freed_by_reference_counting(sim):
    """On termination a process drops its generator and its bound
    resume callback (a cycle through the process), so reference
    counting frees it: the collector finds nothing."""
    def proc():
        yield 1.0
        yield sim.timeout(1.0)
        return "done"

    values = []
    sim.process(proc()).add_callback(lambda p: values.append(p.value))
    gc.collect()
    sim.run()
    assert values == ["done"]
    assert gc.collect() == 0


def test_yield_bad_type_fails_process(sim):
    def proc():
        yield "not an event"

    p = sim.process(proc())
    with pytest.raises(TypeError):
        sim.run()
    assert p.failed
    assert isinstance(p.value, TypeError)


def test_process_is_alive_until_done(sim):
    def proc():
        yield 2.0

    p = sim.process(proc())
    assert p.is_alive
    sim.run(until=1.0)
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_many_processes_deterministic_order(sim):
    order = []

    def proc(i):
        yield 1.0
        order.append(i)

    for i in range(20):
        sim.process(proc(i))
    sim.run()
    assert order == list(range(20))
