"""Processor-sharing CPU model with VM consolidation.

The paper's millibottlenecks are *CPU time starvation events*: a bursty
co-located VM (SysBursty-MySQL) transiently saturates the shared physical
core, so the steady VM (SysSteady-Tomcat) cannot drain its queues for a
few hundred milliseconds.  To reproduce that we model:

- a :class:`Host` — a physical machine with ``cores`` units of capacity,
- :class:`Vm` objects attached to the host, each with ESXi-style
  ``shares`` (weight) and a ``vcpus`` cap,
- *jobs*: pieces of CPU work submitted by server threads or event
  handlers; each job can use at most one core at a time.

Capacity is divided by weighted water-filling across VMs (a VM never
gets more than it demands or than its vcpus cap) and equally among a
VM's runnable jobs.  Rates only change at discrete instants (job
arrival/completion, freeze boundaries), so between instants each job's
remaining work decreases linearly and the next completion can be
scheduled exactly — no time-stepping, no quantum artifacts.

Internally each VM tracks a *virtual progress* integral
(``∫ per-job-rate dt``); a job submitted when the integral is ``p``
completes when the integral reaches ``p + work``.  Because every
runnable job in a VM advances at the same rate, completions pop off a
per-VM heap in O(log n) — updates do not touch every job.

Freezes model I/O stalls: a frozen VM gets zero allocation and the
frozen time is accounted as *iowait* (this is how we reproduce the
collectl log-flush millibottleneck, Fig 5/11).

Concurrency overhead (Fig 12) plugs in via an
:class:`~repro.cpu.overhead.EfficiencyModel`: the VM consumes its full
allocation but completes work at ``allocation * efficiency(n_jobs)``.
"""

from __future__ import annotations

import heapq
from heapq import heappop as _heappop

from repro.sim.events import Event

__all__ = ["Host", "Vm", "Job"]

# Remaining work below this is considered complete (guards float drift).
_WORK_EPSILON = 1e-12


class Job:
    """A unit of CPU work running on a VM.

    ``done`` is an event succeeding (with the job) when the work finishes.
    """

    __slots__ = ("vm", "work", "target", "done", "submitted_at")

    def __init__(self, vm, work, done):
        self.vm = vm
        self.work = work
        self.target = vm._progress + work  # virtual-progress finish line
        self.done = done
        self.submitted_at = vm.sim.now

    @property
    def remaining(self):
        """Seconds of work left, at the VM's last settled instant."""
        return max(0.0, self.target - self.vm._progress)

    def __repr__(self):
        return f"<Job on {self.vm.name} remaining={self.remaining:.6f}s>"


class Vm:
    """A virtual machine pinned to one host.

    Create via :meth:`Host.add_vm`.  Public counters (all cumulative,
    in seconds; samplers take windowed differences):

    - ``consumed`` — physical CPU time actually allocated and used,
    - ``runnable`` — core-time the guest *wanted*: demand whether or not
      the hypervisor granted it.  This is what monitoring inside the VM
      reports — a starved VM reads 100 % busy (the paper's Fig 3(a)
      "yellow line reaching 100 %") even though its physical allocation
      collapsed.  Equal to ``consumed`` when uncontended,
    - ``iowait`` — time spent frozen on I/O with work pending,
    - ``effective`` — useful work completed (≤ consumed when an
      efficiency model is active).
    """

    def __init__(self, host, name, vcpus=1, shares=1.0, efficiency=None,
                 limit=None):
        if vcpus <= 0:
            raise ValueError(f"vcpus must be positive, got {vcpus}")
        if shares <= 0:
            raise ValueError(f"shares must be positive, got {shares}")
        if limit is not None and limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        self.host = host
        #: plain attribute (not a property): read on every job submit,
        #: accounting update and freeze check
        self.sim = host.sim
        self.name = name
        self.vcpus = vcpus
        self.shares = shares
        self.efficiency = efficiency
        #: ESXi-style CPU limit in cores: a hard cap on this VM's
        #: allocation even when the host has idle capacity (the
        #: "cpulimit" column of the paper's Fig 13).  None = uncapped.
        self.limit = limit
        self.frozen_until = 0.0
        self._job_event_name = f"{name}.job"
        # cumulative accounting
        self.consumed = 0.0
        self.iowait = 0.0
        self.effective = 0.0
        self.runnable = 0.0
        self.jobs_completed = 0
        # current allocation (cores), refreshed by Host._reallocate
        self._alloc = 0.0
        # last allocation published on the instrumentation bus
        self._bus_alloc = 0.0
        # virtual progress machinery
        self._progress = 0.0
        self._heap = []  # (target, seq, job)
        self._seq = 0

    # ------------------------------------------------------------------
    @property
    def is_frozen(self):
        return self.sim.now < self.frozen_until

    @property
    def active_jobs(self):
        """Number of runnable jobs (threads demanding CPU right now)."""
        return len(self._heap)

    def demand(self):
        """Cores this VM could use right now (0 while frozen)."""
        if self.is_frozen or not self._heap:
            return 0.0
        demand = float(min(len(self._heap), self.vcpus))
        if self.limit is not None:
            demand = min(demand, self.limit)
        return demand

    def current_efficiency(self):
        """Work-per-allocated-core factor for the current job count."""
        if self.efficiency is None or not self._heap:
            return 1.0
        return self.efficiency(len(self._heap))

    # ------------------------------------------------------------------
    # work submission
    # ------------------------------------------------------------------
    def execute(self, work):
        """Submit ``work`` seconds of CPU work; returns the done event.

        Zero-work jobs complete immediately (same instant).
        """
        if work < 0:
            raise ValueError(f"negative work {work!r}")
        done = Event(self.sim, name=self._job_event_name)
        if work <= _WORK_EPSILON:
            done.succeed(None)
            return done
        self.host._add_job(self, work, done)
        return done

    def freeze(self, duration):
        """Stall this VM for ``duration`` seconds (100 % iowait).

        Overlapping freezes extend rather than stack: the VM is frozen
        until the latest requested end.
        """
        if duration < 0:
            raise ValueError(f"negative freeze duration {duration!r}")
        end = self.sim.now + duration
        if end <= self.frozen_until:
            return
        self.host._update()  # settle accounting before the state change
        self.frozen_until = end
        self.host._schedule_wakeup(end)
        self.host._reallocate_and_schedule()

    def __repr__(self):
        return (
            f"<Vm {self.name} jobs={len(self._heap)} "
            f"alloc={self._alloc:.3f} frozen={self.is_frozen}>"
        )


class Host:
    """A physical machine whose cores are shared by its VMs."""

    def __init__(self, sim, cores=1, name="host"):
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        self.sim = sim
        self.cores = cores
        self.name = name
        self.vms = []
        # instrumentation bus, captured once; allocation changes are
        # published from _reallocate_and_schedule (the single funnel all
        # reallocations pass through) so _reallocate itself stays clean
        self._bus = getattr(sim, "bus", None)
        #: cumulative busy core-seconds across all VMs.
        self.busy = 0.0
        self._last_update = sim.now
        self._completion_version = 0
        self._updating = False
        self._dirty = False

    def add_vm(self, name, vcpus=1, shares=1.0, efficiency=None, limit=None):
        """Attach a new VM to this host."""
        vm = Vm(self, name, vcpus=vcpus, shares=shares,
                efficiency=efficiency, limit=limit)
        self.vms.append(vm)
        return vm

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def _reallocate(self):
        """Weighted water-filling of ``cores`` across VM demands."""
        # Vm.demand() is inlined here (same arithmetic): this runs on
        # every job arrival/completion, for every VM.
        pending = []
        now = self.sim.now
        for vm in self.vms:
            heap = vm._heap
            if not heap or now < vm.frozen_until:
                vm._alloc = 0.0
                continue
            n = len(heap)
            d = float(n if n <= vm.vcpus else vm.vcpus)
            limit = vm.limit
            if limit is not None and limit < d:
                d = limit
            pending.append((vm, d))
        if not pending:
            return
        remaining = float(self.cores)
        if len(pending) == 1:
            # Dominant case in steady state: one VM demanding.  The
            # arithmetic mirrors the general loop exactly (including the
            # shares/shares fair-share division) so allocations stay
            # byte-identical with the water-filling below.
            vm, d = pending[0]
            if remaining > 1e-15:
                fair = remaining * vm.shares / vm.shares
                vm._alloc = d if fair >= d - 1e-15 else fair
            else:
                vm._alloc = 0.0
            return
        self._reallocate_general(pending, remaining)

    def _reallocate_general(self, pending, remaining):
        # Iteratively cap VMs whose fair share exceeds their demand and
        # redistribute the leftovers by weight.
        while pending and remaining > 1e-15:
            total_shares = sum(vm.shares for vm, _d in pending)
            capped = []
            uncapped = []
            for entry in pending:
                vm, d = entry
                fair = remaining * vm.shares / total_shares
                if fair >= d - 1e-15:
                    capped.append(entry)
                else:
                    uncapped.append(entry)
            if not capped:
                # Everyone is limited by the fair share: final split.
                for vm, _d in pending:
                    vm._alloc = remaining * vm.shares / total_shares
                pending = []
                break
            for vm, d in capped:
                vm._alloc = d
                remaining -= d
            pending = uncapped
        for vm, _d in pending:
            vm._alloc = 0.0

    def _update(self):
        """Advance accounting and fire completions; reentrancy-safe.

        Completion callbacks routinely submit the request's *next* CPU
        stage synchronously; those nested calls just mark the host dirty
        and the outer invocation loops until the job set is stable.

        The integration pass (formerly ``_advance``) is inlined: this
        runs on every job arrival and completion of every request.  The
        two-phase shape is load-bearing — all completed jobs are popped
        *before* any completion callback runs, so callbacks that freeze
        or submit work never see a half-integrated pass.
        """
        if self._updating:
            self._dirty = True
            return
        self._updating = True
        try:
            sim = self.sim
            vms = self.vms
            while True:
                self._dirty = False
                # -- integrate consumption/progress since last update --
                now = sim.now
                elapsed = now - self._last_update
                self._last_update = now
                finished = None
                if elapsed > 0:
                    for vm in vms:
                        heap = vm._heap
                        # `now <= frozen_until` == `is_frozen or now ==
                        # frozen_until`: freezes trigger updates at both
                        # boundaries, so the whole elapsed interval was
                        # frozen for this VM.
                        if now <= vm.frozen_until:
                            if heap:
                                vm.iowait += elapsed
                            continue
                        if not heap:
                            continue
                        n = len(heap)
                        # guest-perceived demand: runnable whether
                        # granted or not
                        vm.runnable += (n if n <= vm.vcpus
                                        else vm.vcpus) * elapsed
                        alloc = vm._alloc
                        if alloc <= 0:
                            continue
                        used = alloc * elapsed
                        vm.consumed += used
                        self.busy += used
                        efficiency = vm.efficiency
                        eff = 1.0 if efficiency is None else efficiency(n)
                        vm.effective += alloc * eff * elapsed
                        vm._progress = progress = (
                            vm._progress + (alloc / n) * eff * elapsed
                        )
                        limit = progress + _WORK_EPSILON
                        while heap and heap[0][0] <= limit:
                            _target, _seq, job = _heappop(heap)
                            vm.jobs_completed += 1
                            if finished is None:
                                finished = [job]
                            else:
                                finished.append(job)
                if finished is not None:
                    for job in finished:
                        job.done.succeed(job)
                # every mutation a completion callback can make (execute,
                # freeze) funnels through a nested _update and sets
                # _dirty, so a clean flag means the job set is stable —
                # no need for a confirming zero-elapsed advance pass
                if not self._dirty:
                    break
        finally:
            self._updating = False

    def _reallocate_and_schedule(self):
        # _reallocate() + _schedule_next_completion() inlined: the pair
        # runs back to back on every job arrival/completion, and both
        # walk self.vms — keeping them one call saves two method
        # dispatches per event on the hottest CPU-model path.  All
        # allocations are assigned before the completion scan reads
        # them, exactly as the split methods did.
        self._reallocate()
        if self._bus is not None:
            for vm in self.vms:
                alloc = vm._alloc
                if alloc != vm._bus_alloc:
                    vm._bus_alloc = alloc
                    self._bus.emit("cpu.alloc", vm.name, alloc)
        # -- schedule an update at the earliest projected completion --
        self._completion_version = version = self._completion_version + 1
        now = self.sim.now
        horizon = None
        for vm in self.vms:
            heap = vm._heap
            alloc = vm._alloc
            if not heap or alloc <= 0 or now < vm.frozen_until:
                continue
            n = len(heap)
            efficiency = vm.efficiency
            eff = 1.0 if efficiency is None else efficiency(n)
            rate = (alloc / n) * eff
            if rate <= 0:
                continue
            head_remaining = heap[0][0] - vm._progress
            if head_remaining < 0.0:
                head_remaining = 0.0
            eta = now + head_remaining / rate
            if horizon is None or eta < horizon:
                horizon = eta
        if horizon is not None:
            self.sim.call_at(horizon, self._on_completion_timer, version)

    def _add_job(self, vm, work, done):
        self._update()
        vm._seq += 1
        job = Job(vm, work, done)
        heapq.heappush(vm._heap, (job.target, vm._seq, job))
        if not self._updating:
            self._reallocate_and_schedule()
        # else: the outer _update caller reallocates once the job set
        # settles (every top-level entry point ends with a reallocation).

    def _schedule_wakeup(self, when):
        """Ensure an update happens at ``when`` (freeze boundaries)."""
        self.sim.call_at(when, self._on_timer)

    def _on_timer(self):
        self._update()
        self._reallocate_and_schedule()

    def _on_completion_timer(self, version):
        if version != self._completion_version:
            return  # superseded by a later reallocation
        self._update()
        self._reallocate_and_schedule()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def settle(self):
        """Bring accounting up to the current instant (for samplers)."""
        self._update()
        self._reallocate_and_schedule()

    def __repr__(self):
        return f"<Host {self.name} cores={self.cores} vms={len(self.vms)}>"
