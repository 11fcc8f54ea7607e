"""Calendar-queue internals: window rollover, boundaries, overflow.

The equivalence suite (``test_kernel_equivalence``) proves the wheel
*behaves* like the reference heap; these tests pin the calendar
machinery itself — tiny geometries force every structural transition
(rollover refill, idle jump, boundary bucketing, mid-bucket bounded
runs, starvation detection with a non-empty overflow heap) through
observable behaviour and the documented invariants.
"""

import pytest

from repro.sim import SimulationDeadlock, Simulator


def tiny(width=0.1, buckets=4, seed=0):
    """A 4-bucket, 0.4 s window: rollovers every few events."""
    return Simulator(seed=seed, bucket_width=width, wheel_buckets=buckets)


def test_geometry_validation():
    with pytest.raises(ValueError, match="bucket_width"):
        Simulator(bucket_width=0.0)
    with pytest.raises(ValueError, match="bucket_width"):
        Simulator(bucket_width=-1.0)
    with pytest.raises(ValueError, match="wheel_buckets"):
        Simulator(wheel_buckets=0)


def test_rollover_refills_from_overflow():
    """Events beyond the window land in overflow and come back out in
    exact time order once the window slides over them."""
    sim = tiny()  # window [0, 0.4)
    hits = []
    # far beyond the first window, deliberately scheduled out of order
    for when in (1.17, 0.93, 2.04, 0.56, 0.41):
        sim.call_at(when, hits.append, when)
    assert len(sim._overflow) == 5  # all beyond the 0.4 s window
    sim.call_at(0.05, hits.append, 0.05)  # one in-window event
    sim.run()
    assert hits == [0.05, 0.41, 0.56, 0.93, 1.17, 2.04]
    assert sim._overflow == []


def test_overflow_invariant_holds_after_rollovers():
    """Everything left in overflow is always at/after the window end."""
    sim = tiny()
    for step in range(40):
        sim.call_at(step * 0.13, lambda: None)
    sim.run(until=2.0)
    horizon = sim._t0 + sim._span
    assert all(entry[0] >= horizon for entry in sim._overflow)


def test_event_exactly_on_bucket_boundary():
    """A time exactly at ``t0 + i*width`` belongs to bucket ``i``, and
    one exactly at the window end belongs to overflow — both fire in
    order with their neighbours."""
    sim = tiny()  # boundaries at 0.1, 0.2, 0.3; window ends at 0.4
    hits = []
    for when in (0.1, 0.2, 0.3, 0.4):  # 0.4 == window end -> overflow
        sim.call_at(when, hits.append, when)
    assert len(sim._overflow) == 1
    sim.call_at(0.30000001, hits.append, "just-after")
    sim.run()
    assert hits == [0.1, 0.2, 0.3, "just-after", 0.4]


def test_run_until_stops_mid_bucket():
    """A bounded run must stop *inside* a bucket when the horizon falls
    between two events sharing one bucket, and resume cleanly."""
    sim = tiny(width=1.0, buckets=4)
    hits = []
    sim.call_at(0.2, hits.append, 0.2)  # same bucket [0, 1)
    sim.call_at(0.7, hits.append, 0.7)
    sim.run(until=0.5)
    assert hits == [0.2]
    assert sim.now == 0.5
    sim.run()
    assert hits == [0.2, 0.7]


def test_run_until_before_overflow_events():
    """Bounded runs do not drag overflow events across the horizon."""
    sim = tiny()
    hits = []
    sim.call_at(5.0, hits.append, 5.0)  # overflow
    sim.run(until=1.0)
    assert hits == []
    assert sim.now == 1.0
    sim.run()
    assert hits == [5.0]


def test_peek_with_empty_wheel_but_pending_overflow():
    """``peek`` must see through an empty window into the overflow heap
    (and rolling the window forward to answer must not disturb order)."""
    sim = tiny()
    sim.call_at(3.25, lambda: None)
    assert len(sim._overflow) == 1
    assert sim.peek() == 3.25
    assert sim.pending == 1
    sim.run()
    assert sim.now == 3.25


def test_starvation_detection_sees_overflow():
    """An overflow-only kernel is *not* starved: deadlock detection
    fires only when wheel and overflow are both empty."""
    sim = tiny()
    sim.call_at(9.0, lambda: None)  # far in overflow
    sim.run(until=5.0, error_on_starvation=True)  # events remain: fine
    assert sim.now == 5.0
    sim.run(error_on_starvation=False)
    with pytest.raises(SimulationDeadlock):
        sim.run(until=99.0, error_on_starvation=True)


def test_idle_jump_skips_empty_windows():
    """A gap of many windows costs one jump, not one sweep per span."""
    sim = tiny()  # 0.4 s span; 1e6 s gap would be 2.5M rollovers
    hits = []
    sim.call_at(0.05, hits.append, "near")
    sim.call_at(1_000_000.0, hits.append, "far")
    sim.run()
    assert hits == ["near", "far"]
    assert sim.now == 1_000_000.0
    # the window jumped to the far event rather than sliding span-wise
    assert sim._t0 == pytest.approx(1_000_000.0)


def test_schedule_before_window_after_idle_jump():
    """After an idle jump the window can sit ahead of ``now``; new
    near-term events must still be accepted and ordered correctly."""
    sim = tiny()
    hits = []
    sim.call_at(100.0, hits.append, "far")
    sim.run(until=100.0)  # window has jumped to ~100
    assert hits == ["far"]
    # now == 100.0 but t0 == 100.0 too; schedule at now and slightly after
    sim.call_at(100.0, hits.append, "same-instant")
    sim.call_in(0.05, hits.append, "soon")
    sim.run()
    assert hits == ["far", "same-instant", "soon"]


def test_callbacks_scheduling_into_active_bucket():
    """A callback scheduling at the current instant lands in the
    *active* (heap-ordered) bucket and runs within the same instant."""
    sim = tiny(width=1.0, buckets=4)
    hits = []

    def first():
        hits.append("first")
        sim.call_at(sim.now, hits.append, "chained")
        sim.call_at(sim.now + 0.5, hits.append, "same-bucket-later")

    sim.call_at(0.25, first)
    sim.call_at(0.9, hits.append, "preexisting")
    sim.run()
    assert hits == ["first", "chained", "same-bucket-later", "preexisting"]


def test_single_bucket_wheel_degenerates_to_heap():
    """wheel_buckets=1 pushes everything through overflow + rollover;
    order must survive the degenerate geometry."""
    sim = Simulator(seed=0, bucket_width=0.01, wheel_buckets=1)
    hits = []
    for when in (0.5, 0.005, 3.7, 0.0, 1.2):
        sim.call_at(when, hits.append, when)
    sim.run()
    assert hits == sorted(hits)


def test_pending_counts_wheel_and_overflow():
    sim = tiny()
    assert sim.pending == 0
    sim.call_at(0.05, lambda: None)   # in-window
    sim.call_at(7.0, lambda: None)    # overflow
    assert sim.pending == 2
    sim.run()
    assert sim.pending == 0


def test_step_on_empty_kernel_raises():
    sim = tiny()
    with pytest.raises(IndexError):
        sim.step()


def test_executed_events_counts_across_rollovers():
    sim = tiny()
    n = 137
    for i in range(n):
        sim.call_at(i * 0.037, lambda: None)
    sim.run()
    assert sim.executed_events == n
