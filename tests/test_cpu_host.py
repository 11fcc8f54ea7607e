"""Unit tests for the processor-sharing CPU model (repro.cpu.host)."""

import pytest

from repro.cpu import Host, PerfectEfficiency, ThreadOverheadModel
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=5)


def completion_times(sim, vm, works):
    """Submit jobs and return their completion times."""
    times = {}
    for i, work in enumerate(works):
        vm.execute(work).add_callback(
            lambda ev, i=i: times.setdefault(i, sim.now)
        )
    sim.run()
    return times


# ----------------------------------------------------------------------
# single VM basics
# ----------------------------------------------------------------------
def test_single_job_runs_at_full_speed(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    times = completion_times(sim, vm, [0.5])
    assert times[0] == pytest.approx(0.5)


def test_two_jobs_share_the_core_equally(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    times = completion_times(sim, vm, [1.0, 1.0])
    # each runs at 0.5 cores -> both finish at t=2
    assert times[0] == pytest.approx(2.0)
    assert times[1] == pytest.approx(2.0)


def test_unequal_jobs_processor_sharing(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    times = completion_times(sim, vm, [1.0, 3.0])
    # shared until the short job gets 1s of work at t=2; the long one then
    # has 2s left alone -> finishes at t=4.
    assert times[0] == pytest.approx(2.0)
    assert times[1] == pytest.approx(4.0)


def test_job_arriving_later_shares_from_arrival(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    times = {}
    vm.execute(2.0).add_callback(lambda ev: times.setdefault("a", sim.now))

    def late():
        yield 1.0
        vm.execute(0.5).add_callback(lambda ev: times.setdefault("b", sim.now))

    sim.process(late())
    sim.run()
    # a runs alone [0,1] (1s done), then shares: a needs 1s more at 0.5x
    # b needs 0.5 at 0.5x -> b finishes at t=2.0; a at 1 + 1.0/0.5 = 3.0... but
    # after b leaves at t=2, a has 0.5 left alone -> t=2.5.
    assert times["b"] == pytest.approx(2.0)
    assert times["a"] == pytest.approx(2.5)


def test_zero_work_completes_immediately(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    ev = vm.execute(0.0)
    assert ev.ok


def test_negative_work_raises(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    with pytest.raises(ValueError):
        vm.execute(-1.0)


@pytest.mark.parametrize("work", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_non_finite_work_raises(sim, work):
    """NaN or infinite work would put the completion horizon out of
    reach and stall the kernel: rejected at submission."""
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    with pytest.raises(ValueError):
        vm.execute(work)
    with pytest.raises(ValueError):
        vm.submit(work, lambda: None)
    assert vm.active_jobs == 0
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_submit_calls_back_at_completion(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    done = []
    assert vm.submit(0.5, lambda: done.append(sim.now)) is True
    # zero work is done at once: no callback, the caller goes on
    assert vm.submit(0.0, lambda: done.append("never")) is False
    sim.run()
    assert done == [pytest.approx(0.5)]


def test_vcpu_cap_limits_vm_rate(sim):
    host = Host(sim, cores=4)
    vm = host.add_vm("vm", vcpus=1)
    times = completion_times(sim, vm, [1.0, 1.0])
    # Only 1 vcpu despite 4 cores: two jobs share one core.
    assert times[0] == pytest.approx(2.0)
    assert times[1] == pytest.approx(2.0)


def test_multicore_vm_runs_jobs_in_parallel(sim):
    host = Host(sim, cores=4)
    vm = host.add_vm("vm", vcpus=4)
    times = completion_times(sim, vm, [1.0, 1.0, 1.0])
    for i in range(3):
        assert times[i] == pytest.approx(1.0)


def test_job_cannot_exceed_one_core(sim):
    host = Host(sim, cores=4)
    vm = host.add_vm("vm", vcpus=4)
    times = completion_times(sim, vm, [2.0])
    assert times[0] == pytest.approx(2.0)  # not 0.5


# ----------------------------------------------------------------------
# consolidation: two VMs on one core
# ----------------------------------------------------------------------
def test_two_vms_share_core_by_equal_shares(sim):
    host = Host(sim, cores=1)
    a = host.add_vm("a")
    b = host.add_vm("b")
    done = {}
    a.execute(1.0).add_callback(lambda ev: done.setdefault("a", sim.now))
    b.execute(1.0).add_callback(lambda ev: done.setdefault("b", sim.now))
    sim.run()
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(2.0)


def test_shares_weight_allocation(sim):
    host = Host(sim, cores=1)
    a = host.add_vm("a", shares=3.0)
    b = host.add_vm("b", shares=1.0)
    done = {}
    a.execute(0.75).add_callback(lambda ev: done.setdefault("a", sim.now))
    b.execute(0.75).add_callback(lambda ev: done.setdefault("b", sim.now))
    sim.run()
    # a gets 0.75 cores, b 0.25 -> a at t=1.0; then b alone: it completed
    # 0.25 work by t=1, remaining 0.5 at full speed -> t=1.5.
    assert done["a"] == pytest.approx(1.0)
    assert done["b"] == pytest.approx(1.5)


def test_shares_change_applies_at_the_next_replan(sim):
    host = Host(sim, cores=1)
    a = host.add_vm("a")
    b = host.add_vm("b")
    done = {}
    a.execute(1.0).add_callback(lambda ev: done.setdefault("a", sim.now))
    b.execute(1.0).add_callback(lambda ev: done.setdefault("b", sim.now))

    def reweight():
        yield 0.5
        with pytest.raises(ValueError):
            a.shares = 0.0
        a.shares = 3.0
        host.settle()

    sim.process(reweight())
    sim.run()
    # 0.25 each by t=0.5; then a gets 0.75 cores and finishes its 0.75 at
    # t=1.5, when b (0.5 done) has 0.5 left alone -> t=2.0
    assert done["a"] == pytest.approx(1.5)
    assert done["b"] == pytest.approx(2.0)


def test_idle_vm_leaves_capacity_to_the_other(sim):
    host = Host(sim, cores=1)
    a = host.add_vm("a")
    host.add_vm("b")  # never runs anything
    done = completion_times(sim, a, [1.0])
    assert done[0] == pytest.approx(1.0)


def test_antagonist_burst_starves_coresident_vm(sim):
    """The paper's consolidation scenario: a burst slows the steady VM."""
    host = Host(sim, cores=1)
    steady = host.add_vm("steady")
    bursty = host.add_vm("bursty")
    done = {}
    steady.execute(1.0).add_callback(lambda ev: done.setdefault("s", sim.now))

    def burst():
        yield 0.5
        for _ in range(4):
            bursty.execute(0.5)

    sim.process(burst())
    sim.run()
    # steady alone [0,0.5] -> 0.5 done. Then it shares 50/50 with the
    # antagonist VM (4 jobs inside bursty share bursty's half).
    # steady's remaining 0.5 at rate 0.5 -> finishes at t=1.5.
    assert done["s"] == pytest.approx(1.5)


# ----------------------------------------------------------------------
# freeze (I/O millibottleneck)
# ----------------------------------------------------------------------
def test_freeze_delays_completion_and_counts_iowait(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    done = {}
    vm.execute(1.0).add_callback(lambda ev: done.setdefault("j", sim.now))

    def flush():
        yield 0.4
        vm.freeze(0.3)

    sim.process(flush())
    sim.run()
    assert done["j"] == pytest.approx(1.3)
    assert vm.iowait == pytest.approx(0.3)


def test_overlapping_freezes_extend_not_stack(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    done = {}
    vm.execute(1.0).add_callback(lambda ev: done.setdefault("j", sim.now))

    def flush():
        yield 0.2
        vm.freeze(0.4)  # until 0.6
        yield 0.2
        vm.freeze(0.1)  # until 0.5 -> no effect
        vm.freeze(0.5)  # until 0.9 -> extends

    sim.process(flush())
    sim.run()
    assert done["j"] == pytest.approx(1.7)  # 1.0 work + 0.7 frozen


def test_freeze_does_not_affect_other_vm(sim):
    host = Host(sim, cores=1)
    a = host.add_vm("a")
    b = host.add_vm("b")
    done = {}
    a.execute(1.0).add_callback(lambda ev: done.setdefault("a", sim.now))
    b.execute(1.0).add_callback(lambda ev: done.setdefault("b", sim.now))
    a.freeze(0.5)
    sim.run()
    # b runs alone at full speed while a is frozen -> b at 1.0;
    # a starts at 0.5... b finished 0.5 of work by then; from 0.5 to 1.0
    # they share; by t=1.0 b has 0.75 -- wait, b finishes at:
    # [0,0.5] b alone rate 1 -> 0.5 done; [0.5,?] share 0.5 each.
    # b needs 0.5 more -> t=1.5; a needs 1.0 at 0.5 -> would be t=2.5,
    # but after b leaves at 1.5 a runs alone: a did 0.5 by then, 0.5 left
    # -> t=2.0.
    assert done["b"] == pytest.approx(1.5)
    assert done["a"] == pytest.approx(2.0)


def test_negative_freeze_raises(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    with pytest.raises(ValueError):
        vm.freeze(-0.1)


def test_job_submitted_during_freeze_waits(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    vm.freeze(1.0)
    done = {}
    vm.execute(0.5).add_callback(lambda ev: done.setdefault("j", sim.now))
    sim.run()
    assert done["j"] == pytest.approx(1.5)


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
def test_consumed_and_busy_accounting(sim):
    host = Host(sim, cores=1)
    a = host.add_vm("a")
    b = host.add_vm("b")
    a.execute(0.6)
    b.execute(0.2)
    sim.run()
    host.settle()
    assert a.consumed == pytest.approx(0.6)
    assert b.consumed == pytest.approx(0.2)
    assert host.busy == pytest.approx(0.8)


def test_utilization_interval_measurement(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")

    def load():
        while True:
            yield vm.execute(0.07)
            yield 0.03  # 70% duty cycle

    sim.process(load())
    sim.run(until=10.0)
    host.settle()
    assert vm.consumed / 10.0 == pytest.approx(0.7, rel=0.02)


def test_effective_tracks_efficiency_model(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm(
        "vm",
        efficiency=ThreadOverheadModel(switch_cost=0.0, gc_cost=0.0, free_threads=0),
    )
    # zero coefficients -> efficiency 1.0 -> effective == consumed
    vm.execute(0.5)
    sim.run()
    host.settle()
    assert vm.effective == pytest.approx(vm.consumed)


def test_overhead_slows_completion_but_not_consumption(sim):
    host = Host(sim, cores=1)
    # 50% efficiency whenever any job runs
    class Half:
        def __call__(self, n):
            return 0.5

    vm = host.add_vm("vm", efficiency=Half())
    done = {}
    vm.execute(1.0).add_callback(lambda ev: done.setdefault("j", sim.now))
    sim.run()
    host.settle()
    assert done["j"] == pytest.approx(2.0)  # work takes twice as long
    assert vm.consumed == pytest.approx(2.0)  # CPU was busy the whole time
    assert vm.effective == pytest.approx(1.0)


def test_jobs_completed_counter(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    for _ in range(5):
        vm.execute(0.1)
    sim.run()
    assert vm.jobs_completed == 5


# ----------------------------------------------------------------------
# efficiency models
# ----------------------------------------------------------------------
def test_perfect_efficiency_is_one():
    model = PerfectEfficiency()
    assert model(1) == 1.0
    assert model(100000) == 1.0


def test_thread_overhead_monotone_decreasing():
    model = ThreadOverheadModel()
    values = [model(n) for n in (1, 64, 100, 500, 1000, 2000)]
    assert values[0] == 1.0  # below the free-thread grace count
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert 0 < values[-1] < 0.6  # 2000 runnable threads hurt badly


def test_thread_overhead_invalid_params():
    with pytest.raises(ValueError):
        ThreadOverheadModel(switch_cost=-1)
    with pytest.raises(ValueError):
        ThreadOverheadModel(free_threads=-1)


# ----------------------------------------------------------------------
# host validation
# ----------------------------------------------------------------------
def test_host_invalid_cores(sim):
    with pytest.raises(ValueError):
        Host(sim, cores=0)


def test_vm_invalid_params(sim):
    host = Host(sim)
    with pytest.raises(ValueError):
        host.add_vm("x", vcpus=0)
    with pytest.raises(ValueError):
        host.add_vm("x", shares=0)


def test_chained_jobs_from_callbacks(sim):
    """Completion callbacks submitting follow-up work (reentrancy)."""
    host = Host(sim, cores=1)
    vm = host.add_vm("vm")
    finished = []

    def chain(n):
        if n == 0:
            finished.append(sim.now)
            return
        vm.execute(0.1).add_callback(lambda ev: chain(n - 1))

    chain(5)
    sim.run()
    assert finished == [pytest.approx(0.5)]


# ----------------------------------------------------------------------
# ESXi-style CPU limits (the paper's Fig 13 "cpulimit" column)
# ----------------------------------------------------------------------
def test_cpu_limit_caps_allocation_despite_idle_capacity(sim):
    host = Host(sim, cores=4)
    vm = host.add_vm("vm", vcpus=4, limit=1.0)
    times = completion_times(sim, vm, [0.5, 0.5])
    # 1.0 total work at a 1-core cap, despite 4 idle cores
    assert times[0] == pytest.approx(1.0)
    assert times[1] == pytest.approx(1.0)


def test_cpu_limit_below_single_job_rate(sim):
    host = Host(sim, cores=1)
    vm = host.add_vm("vm", limit=0.5)
    times = completion_times(sim, vm, [0.5])
    assert times[0] == pytest.approx(1.0)  # half-speed cap


def test_cpu_limit_validation(sim):
    host = Host(sim, cores=1)
    with pytest.raises(ValueError):
        host.add_vm("vm", limit=0)


def test_cpu_limit_leaves_capacity_for_other_vms(sim):
    host = Host(sim, cores=1)
    capped = host.add_vm("capped", limit=0.25)
    other = host.add_vm("other")
    done = {}
    capped.execute(0.25).add_callback(lambda ev: done.setdefault("c", sim.now))
    other.execute(0.75).add_callback(lambda ev: done.setdefault("o", sim.now))
    sim.run()
    # capped runs at 0.25 cores; the other gets the remaining 0.75
    assert done["c"] == pytest.approx(1.0)
    assert done["o"] == pytest.approx(1.0)
