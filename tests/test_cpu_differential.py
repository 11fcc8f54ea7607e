"""Bit-exact differential test of the processor-sharing CPU model.

``reference_cpu_host`` is the CPU model as it stood before the host
learned to skip its water-fill: it water-fills on every arrival,
completion, freeze boundary and settle.  :class:`repro.cpu.Host`
water-fills only while its allocation is stale, which is exact only if
every change to an input of the water-fill marks it stale.

Both models run the same random host (1–3 VMs, random cores, shares,
vcpus, limits and efficiency models) under one random schedule on two
simulators.  The schedule submits several jobs at one instant, submits
jobs at exactly a freeze end (scheduled before the freeze, so they run
before its wake-up), chains jobs and freezes from completion callbacks,
overlaps freezes and makes zero-length ones, settles the host mid-run
and changes a VM's shares mid-run.  Everything observable must be equal
with ``==``: each job's completion time, every VM counter, ``host.busy``,
the number of kernel events executed, and the bus records in order —
the ``cpu.alloc`` records interleaved with a marker per submission and
completion, so an allocation published one event late is caught too.

The ``@example`` cases pin the three ways a gate can miss a change: an
arrival that raises a multi-vCPU VM's capped job count past one, a
completion that lowers it without emptying the VM, and a submission at
a freeze end that runs before the freeze's wake-up timer.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu import Host, ThreadOverheadModel
from repro.sim import Simulator
from repro.sim.instrument import EventBus, EventRecorder

import reference_cpu_host

#: dyadic grid: sums of grid times are exact floats, so a submission
#: can land on the very instant a freeze ends
GRID = 1 / 16
TIMES = st.integers(0, 16).map(lambda k: k * GRID)
DURATIONS = st.integers(0, 8).map(lambda k: k * GRID)
WORKS = (st.integers(0, 12).map(lambda k: k / 32)
         | st.floats(min_value=1e-3, max_value=0.5))
SHARES = st.sampled_from([0.5, 1.0, 2.0, 30.0]) | st.floats(0.1, 50.0)
#: steep enough to vary between one and four runnable jobs
OVERHEAD = ThreadOverheadModel(switch_cost=0.05, gc_cost=0.01,
                               free_threads=1)


@st.composite
def vm_specs(draw):
    vcpus = draw(st.integers(1, 4))
    limit = draw(st.none() | st.integers(1, 4 * vcpus).map(lambda k: k / 4))
    efficiency = draw(st.sampled_from([None, OVERHEAD]))
    return vcpus, draw(SHARES), limit, efficiency


def jobs(n_vms):
    """A job ``("job", vm, work, children)`` submits or freezes its
    children from its completion callback."""
    vm = st.integers(0, n_vms - 1)
    freeze = st.tuples(st.just("freeze"), vm, DURATIONS)
    leaf = st.tuples(st.just("job"), vm, WORKS, st.just(()))
    return st.recursive(
        leaf,
        lambda kids: st.tuples(st.just("job"), vm, WORKS,
                               st.lists(kids | freeze, max_size=2)
                               .map(tuple)),
        max_leaves=4,
    )


def operations(n_vms):
    vm = st.integers(0, n_vms - 1)
    batch = st.lists(jobs(n_vms), min_size=1, max_size=4).map(tuple)
    return st.one_of(
        st.tuples(st.just("submit"), TIMES, batch),
        # (at, vm, duration, jobs submitted at exactly at + duration)
        st.tuples(st.just("freeze"), TIMES, vm, DURATIONS,
                  st.just(()) | batch),
        st.tuples(st.just("settle"), TIMES),
        st.tuples(st.just("shares"), TIMES, vm, SHARES),
    )


@st.composite
def scenarios(draw):
    cores = draw(st.integers(1, 4))
    specs = draw(st.lists(vm_specs(), min_size=1, max_size=3))
    ops = draw(st.lists(operations(len(specs)), min_size=1, max_size=12))
    return cores, specs, ops


def run(host_cls, cores, specs, ops):
    """Drive one model through the schedule; everything observable."""
    bus = EventBus()
    sim = Simulator(seed=0, bus=bus)
    recorder = EventRecorder(bus)
    host = host_cls(sim, cores=cores)
    vms = [host.add_vm(f"vm{i}", vcpus=vcpus, shares=shares,
                       efficiency=efficiency, limit=limit)
           for i, (vcpus, shares, limit, efficiency) in enumerate(specs)]
    done_at = {}
    ids = itertools.count()

    def submit(batch):
        for step in batch:
            if step[0] == "freeze":
                _kind, index, duration = step
                vms[index].freeze(duration)
                continue
            _kind, index, work, children = step
            vm = vms[index]
            job_id = next(ids)

            def finished(_event, job_id=job_id, vm=vm, children=children):
                done_at[job_id] = sim.now
                bus.emit("test.done", vm.name, job_id)
                submit(children)

            vm.execute(work).add_callback(finished)
            bus.emit("test.submit", vm.name, job_id)

    for op in ops:
        kind, at = op[0], op[1]
        if kind == "submit":
            sim.call_at(at, submit, op[2])
        elif kind == "freeze":
            _kind, at, index, duration, thawing = op
            sim.call_at(at, vms[index].freeze, duration)
            sim.call_at(at + duration, submit, thawing)
        elif kind == "settle":
            sim.call_at(at, host.settle)
        else:
            _kind, at, index, shares = op
            sim.call_at(at, setattr, vms[index], "shares", shares)
    sim.run()
    host.settle()
    return {
        "done_at": done_at,
        "vms": [(vm.consumed, vm.runnable, vm.iowait, vm.effective,
                 vm.jobs_completed) for vm in vms],
        "busy": host.busy,
        "records": list(recorder.events),
        "executed": sim.executed_events,
        "submitted": next(ids),
    }


@settings(max_examples=200, deadline=None)
@given(scenarios())
# an arrival takes a 2-vCPU VM from one job to two (after t = 0, where
# the host water-fills regardless: no freeze has ended yet)
@example((2, [(2, 1.0, None, None)],
          [("submit", GRID, (("job", 0, 0.5, ()), ("job", 0, 0.5, ())))]))
# a completion takes a 2-vCPU VM from two jobs to one
@example((2, [(2, 1.0, None, None)],
          [("submit", GRID, (("job", 0, 0.25, ()), ("job", 0, 0.5, ())))]))
# a submission at a freeze end runs before the freeze's wake-up
@example((1, [(1, 1.0, None, None)],
          [("submit", 0.0, (("job", 0, 0.5, ()),)),
           ("freeze", 0.125, 0, 0.25, (("job", 0, 0.25, ()),))]))
def test_gated_host_matches_reference_bit_for_bit(scenario):
    cores, specs, ops = scenario
    expected = run(reference_cpu_host.Host, cores, specs, ops)
    assert run(Host, cores, specs, ops) == expected
    assert len(expected["done_at"]) == expected["submitted"]
