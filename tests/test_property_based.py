"""Property-based tests (hypothesis) on the core substrates.

These pin down the invariants everything else relies on:

- the kernel executes callbacks in exact time order, deterministically;
- the processor-sharing CPU conserves work and never over-allocates;
- resources never exceed capacity and grant FIFO;
- stores preserve FIFO order and never exceed capacity;
- the tail statistics partition their input;
- the overflow-condition model is monotone in each argument;
- the log-linear latency sketch merges associatively/commutatively and
  answers percentile queries within its documented relative-error bound.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import predicted_overflow
from repro.core.tail import multimodal_clusters, percentiles
from repro.cpu import Host
from repro.metrics import LatencySketch, TimeSeries, saturation_episodes
from repro.sim import Resource, Simulator, Store


# ----------------------------------------------------------------------
# kernel ordering
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_kernel_executes_in_time_order(times):
    sim = Simulator(seed=0)
    fired = []
    for t in times:
        sim.call_at(t, lambda t=t: fired.append(t))
    sim.run()
    assert fired == sorted(times)
    assert len(fired) == len(times)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.integers(min_value=-5, max_value=5)),
                min_size=1, max_size=100))
def test_kernel_priority_then_insertion_order(entries):
    sim = Simulator(seed=0)
    fired = []
    for index, (t, priority) in enumerate(entries):
        sim.call_at(t, lambda i=index: fired.append(i), priority=priority)
    sim.run()
    expected = [
        i for i, _ in sorted(
            enumerate(entries),
            key=lambda pair: (pair[1][0], pair[1][1], pair[0]),
        )
    ]
    assert fired == expected


# ----------------------------------------------------------------------
# processor-sharing CPU: conservation and bounds
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),  # at
            st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),  # work
        ),
        min_size=1, max_size=30,
    ),
    st.integers(min_value=1, max_value=4),  # cores
)
@settings(max_examples=50, deadline=None)
def test_cpu_conserves_work(jobs, cores):
    sim = Simulator(seed=0)
    host = Host(sim, cores=cores)
    vm = host.add_vm("vm", vcpus=cores)
    completions = []

    def submit(at, work):
        def go():
            yield at
            start = sim.now
            yield vm.execute(work)
            completions.append((start, sim.now, work))

        sim.process(go())

    for at, work in jobs:
        submit(at, work)
    sim.run()
    host.settle()
    total_work = sum(w for _a, w in jobs)
    # conservation: effective work completed equals work submitted
    assert vm.effective == pytest.approx(total_work, rel=1e-6, abs=1e-9)
    assert vm.consumed == pytest.approx(total_work, rel=1e-6, abs=1e-9)
    assert len(completions) == len(jobs)
    for start, end, work in completions:
        # nothing finishes faster than running alone at one core
        assert end - start >= work - 1e-9
    # the host can never have been busier than wall-time * cores
    makespan = max(end for _s, end, _w in completions)
    assert vm.consumed <= makespan * cores + 1e-9


@given(st.lists(st.floats(min_value=1e-4, max_value=0.2, allow_nan=False),
                min_size=2, max_size=20))
@settings(max_examples=50, deadline=None)
def test_cpu_simultaneous_jobs_complete_in_work_order(works):
    """With equal-share PS and identical start times, jobs finish in
    order of their size (virtual-progress FIFO)."""
    sim = Simulator(seed=0)
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    order = []
    for index, work in enumerate(works):
        vm.execute(work).add_callback(lambda ev, i=index: order.append(i))
    sim.run()
    expected = [i for i, _w in sorted(enumerate(works),
                                      key=lambda p: (p[1], p[0]))]
    assert order == expected


# ----------------------------------------------------------------------
# resources and stores
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=10),
       st.lists(st.sampled_from(["acquire", "release"]), max_size=100))
def test_resource_never_exceeds_capacity(capacity, ops):
    sim = Simulator(seed=0)
    res = Resource(sim, capacity=capacity)
    outstanding = 0  # grants handed out (held or queued) minus releases
    for op in ops:
        if op == "acquire":
            res.acquire()
            outstanding += 1
        elif outstanding > 0:
            res.release()
            outstanding -= 1
        assert 0 <= res.in_use <= res.capacity
        assert res.in_use == min(outstanding, res.capacity)
        assert res.queue_length == max(0, outstanding - res.capacity)


@given(st.integers(min_value=0, max_value=20),
       st.lists(st.integers(), max_size=60))
def test_store_fifo_and_capacity(capacity, items):
    sim = Simulator(seed=0)
    store = Store(sim, capacity=capacity)
    accepted = []
    for item in items:
        if store.put(item):
            accepted.append(item)
    assert len(store) == len(accepted) == min(len(items), capacity)
    drained = []
    while True:
        item = store.try_get()
        if item is None:
            break
        drained.append(item)
    assert drained == accepted  # FIFO, exactly the accepted prefix
    assert accepted == items[: len(accepted)]


# ----------------------------------------------------------------------
# tail statistics
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=30.0,
                          allow_nan=False), max_size=300))
def test_multimodal_clusters_partition_input(rts):
    clusters = multimodal_clusters(rts)
    assert sum(clusters.values()) == len(rts)
    assert all(count >= 0 for count in clusters.values())


@given(st.lists(st.floats(min_value=1e-6, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=300))
def test_percentiles_monotone_and_bounded(rts):
    stats = percentiles(rts, qs=(1, 50, 99))
    assert min(rts) - 1e-9 <= stats[1] <= stats[50] <= stats[99] <= max(rts) + 1e-9


# ----------------------------------------------------------------------
# the latency sketch (streaming metrics)
# ----------------------------------------------------------------------
#: response times spanning microseconds to the 10 s VLRT regime, plus
#: values below min_value (the underflow bucket)
_latency = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)

#: adversarial fixed inputs: bucket boundaries (powers of two scaled by
#: min_value), identical values, a lone sample, and a huge dynamic range
_ADVERSARIAL = [
    [1e-6 * 2.0 ** k for k in range(40)],          # octave boundaries
    [0.003] * 500,                                  # one bucket only
    [7.25],                                         # single sample
    [1e-7, 1e-6, 0.001, 1.0, 9.0, 99.0],            # full dynamic range
    [3.0 - 1e-12, 3.0, 3.0 + 1e-12] * 50,           # boundary straddling
]


def _fill(values, subbuckets=64):
    sketch = LatencySketch(subbuckets=subbuckets)
    for value in values:
        sketch.add(value)
    return sketch


@given(st.lists(_latency, max_size=150), st.lists(_latency, max_size=150))
def test_sketch_merge_commutes(a, b):
    ab = _fill(a).merge(_fill(b))
    ba = _fill(b).merge(_fill(a))
    assert ab.buckets == ba.buckets
    assert len(ab) == len(ba) == len(a) + len(b)
    assert ab.max == ba.max and ab.min == ba.min
    assert ab.mean == pytest.approx(ba.mean, rel=1e-12, abs=1e-15)
    for q in (0, 50, 90, 99, 100):
        assert ab.quantile(q) == ba.quantile(q)


@given(st.lists(_latency, max_size=100), st.lists(_latency, max_size=100),
       st.lists(_latency, max_size=100))
def test_sketch_merge_associates(a, b, c):
    left = _fill(a).merge(_fill(b)).merge(_fill(c))
    right = _fill(a).merge(_fill(b).merge(_fill(c)))
    assert left.buckets == right.buckets
    assert len(left) == len(right)
    assert left.max == right.max and left.min == right.min
    # count-derived stats are exactly associative; the float total can
    # differ by an ulp per regrouping
    assert left.mean == pytest.approx(right.mean, rel=1e-12, abs=1e-15)
    for q in (0, 50, 90, 99, 100):
        assert left.quantile(q) == right.quantile(q)


@given(st.lists(_latency, min_size=1, max_size=300))
def test_sketch_percentiles_monotone_and_clamped(values):
    sketch = _fill(values)
    qs = (0, 10, 25, 50, 75, 90, 99, 99.9, 100)
    estimates = [sketch.quantile(q) for q in qs]
    for lower, higher in zip(estimates, estimates[1:]):
        assert lower <= higher
    # every estimate is clamped into the observed range
    assert all(sketch.min <= e <= sketch.max for e in estimates)
    assert sketch.max == max(values)
    assert estimates[-1] == pytest.approx(
        sketch.max, rel=sketch.relative_error, abs=sketch.min_value
    )


@given(st.lists(st.floats(min_value=1e-6, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=300))
@settings(max_examples=200)
def test_sketch_relative_error_bound_random(values):
    _assert_within_bound(values)


@pytest.mark.parametrize("values", _ADVERSARIAL)
def test_sketch_relative_error_bound_adversarial(values):
    _assert_within_bound(values)


def _assert_within_bound(values, subbuckets=64):
    """Sketch quantiles vs the sorted-list nearest-rank oracle."""
    sketch = _fill(values, subbuckets=subbuckets)
    ordered = sorted(values)
    bound = sketch.relative_error
    assert bound == 1.0 / (2 * subbuckets)
    for q in (1, 25, 50, 75, 90, 95, 99, 99.9):
        exact = ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]
        estimate = sketch.quantile(q)
        if exact < sketch.min_value:
            # underflow bucket: absolute error below min_value
            assert abs(estimate - exact) <= sketch.min_value
        else:
            assert abs(estimate - exact) <= bound * exact + 1e-15, (
                f"q={q}: |{estimate} - {exact}| > {bound} * {exact}"
            )


def test_sketch_underflow_bucket_and_validation():
    sketch = LatencySketch()
    sketch.add(0.0)
    sketch.add(1e-9)
    assert len(sketch) == 2
    assert sketch.quantile(50) <= sketch.min_value
    with pytest.raises(ValueError):
        sketch.add(-1.0)
    with pytest.raises(ValueError):
        sketch.add(1.0, count=0)
    with pytest.raises(ValueError):
        sketch.quantile(101)
    with pytest.raises(ValueError):
        LatencySketch(subbuckets=32).merge(LatencySketch(subbuckets=64))


# ----------------------------------------------------------------------
# the overflow-condition model
# ----------------------------------------------------------------------
@given(st.floats(min_value=0, max_value=1e4, allow_nan=False),
       st.floats(min_value=0, max_value=10, allow_nan=False),
       st.integers(min_value=0, max_value=1000),
       st.floats(min_value=0, max_value=1e4, allow_nan=False))
def test_predicted_overflow_properties(rate, duration, bound, drain):
    overflow = predicted_overflow(rate, duration, bound, drain_rate=drain)
    assert overflow >= 0.0
    assert overflow <= rate * duration + 1e-6  # can't drop more than arrived
    # monotone: more queue space never increases the overflow
    assert predicted_overflow(rate, duration, bound + 10, drain) <= overflow + 1e-9
    # monotone: more drain never increases the overflow
    assert predicted_overflow(rate, duration, bound, drain + 10) <= overflow + 1e-9


# ----------------------------------------------------------------------
# time series
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.floats(min_value=0, max_value=2,
                                    allow_nan=False)),
                min_size=1, max_size=200),
       st.floats(min_value=0.1, max_value=1.9, allow_nan=False))
def test_intervals_above_are_sorted_disjoint_in_range(pairs, threshold):
    pairs = sorted(pairs, key=lambda p: p[0])
    ts = TimeSeries("x")
    for t, v in pairs:
        ts.append(t, v)
    spans = [(e.start, e.end)
             for e in saturation_episodes(ts, threshold, min_duration=0.0)]
    t_min, t_max = pairs[0][0], pairs[-1][0]
    previous_end = -math.inf
    for start, end in spans:
        assert t_min <= start <= end <= t_max
        assert start >= previous_end  # disjoint and sorted
        previous_end = end
