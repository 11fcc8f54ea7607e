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
per-VM heap of ``(target, seq, callback)`` entries in O(log n) —
updates do not touch every job.  A job is only its heap entry: a
servlet driver submits a CPU stage with :meth:`Vm.submit` and the
completion calls the driver straight back, with no event in between;
:meth:`Vm.execute` wraps the same submission in an event for callers
that wait on one.

The water-fill is a pure function of each VM's capped job count
(``min(jobs, vcpus, limit)``), frozen flag and shares and of the host's
cores, so it re-runs only when the host is *stale*: after an arrival
leaves a VM with at most ``vcpus`` jobs, completions leave one with
fewer, a freeze starts or extends, a freeze wake-up fires or ``shares``
is set — and at every re-plan up to the latest freeze end, since frozen
flags also flip with time alone.

Freezes model I/O stalls: a frozen VM gets zero allocation and the
frozen time is accounted as *iowait* (this is how we reproduce the
collectl log-flush millibottleneck, Fig 5/11).

Concurrency overhead (Fig 12) plugs in via an
:class:`~repro.cpu.overhead.EfficiencyModel`: the VM consumes its full
allocation but completes work at ``allocation * efficiency(n_jobs)``.
"""

from __future__ import annotations

from heapq import heappop as _heappop
from heapq import heappush as _heappush

from ..sim.events import Event

__all__ = ["Host", "Vm"]

# Remaining work below this is considered complete (guards float drift).
_WORK_EPSILON = 1e-12
_INF = float("inf")


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
        self.host = host
        self.shares = shares
        if limit is not None and limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        #: plain attribute (not a property): read on every job submit,
        #: accounting update and freeze check
        self.sim = host.sim
        self.name = name
        self.vcpus = vcpus
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
        self._heap = []  # (target, seq, done)
        self._seq = 0

    # ------------------------------------------------------------------
    @property
    def shares(self):
        """ESXi-style CPU shares: this VM's weight in the water-fill."""
        return self._shares

    @shares.setter
    def shares(self, value):
        if value <= 0:
            raise ValueError(f"shares must be positive, got {value}")
        self._shares = value
        self.host._stale = True

    @property
    def is_frozen(self):
        return self.sim.now < self.frozen_until

    @property
    def active_jobs(self):
        """Number of runnable jobs (threads demanding CPU right now)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # work submission
    # ------------------------------------------------------------------
    def submit(self, work, callback):
        """Submit ``work`` seconds of CPU work; ``callback()`` runs when
        it finishes.

        Returns ``True`` when the job was queued.  Zero work is done at
        once: ``submit`` returns ``False`` and never calls ``callback``,
        so the caller goes on in the same instant without recursing.
        ``work`` must be finite and non-negative (``ValueError``): an
        infinite or NaN job would push the completion horizon out of
        reach and stall the kernel.
        """
        if not 0.0 <= work < _INF:
            raise ValueError(
                f"work must be finite and non-negative, got {work!r}"
            )
        if work <= _WORK_EPSILON:
            return False
        host = self.host
        host._update()
        heap = self._heap
        self._seq += 1
        # finishes when virtual progress reaches the target
        _heappush(heap, (self._progress + work, self._seq, callback))
        if len(heap) <= self.vcpus:
            host._stale = True  # the capped job count grew
        if not host._updating:  # else the outer _update caller re-plans
            host._replan()
        return True

    def execute(self, work):
        """Submit ``work`` seconds of CPU work; returns the done event,
        which succeeds with ``None`` when the work finishes.

        Zero-work jobs complete immediately (same instant).  The event
        wrapper of :meth:`submit`, for callers that wait on an event
        (processes, the colocation injector, tests).
        """
        done = Event(self.sim, name=self._job_event_name)
        if not self.submit(work, done.succeed):
            done.succeed(None)
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
        host = self.host
        host._update()  # settle accounting before the state change
        self.frozen_until = end
        if end > host._frozen_until:
            host._frozen_until = end
        host._stale = True
        self.sim.call_at(end, host._on_timer)
        host._replan()

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
        # published right after the water-fill in _replan, so
        # _reallocate itself stays clean
        self._bus = getattr(sim, "bus", None)
        #: cumulative busy core-seconds across all VMs.
        self.busy = 0.0
        self._last_update = sim.now
        self._completion_version = 0
        self._completion_timer = self._on_completion_timer
        self._updating = False
        self._dirty = False
        # an input of the water-fill changed since it last ran
        self._stale = False
        # the latest frozen_until of any VM on this host
        self._frozen_until = 0.0

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
                fair = remaining * vm._shares / vm._shares
                vm._alloc = d if fair >= d - 1e-15 else fair
            else:
                vm._alloc = 0.0
            return
        self._reallocate_general(pending, remaining)

    def _reallocate_general(self, pending, remaining):
        # Iteratively cap VMs whose fair share exceeds their demand and
        # redistribute the leftovers by weight.
        while pending and remaining > 1e-15:
            total_shares = sum(vm._shares for vm, _d in pending)
            capped = []
            uncapped = []
            for entry in pending:
                vm, d = entry
                fair = remaining * vm._shares / total_shares
                if fair >= d - 1e-15:
                    capped.append(entry)
                else:
                    uncapped.append(entry)
            if not capped:
                # Everyone is limited by the fair share: final split.
                for vm, _d in pending:
                    vm._alloc = remaining * vm._shares / total_shares
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

        The integration pass is inlined: this runs on every job arrival
        and completion of every request.  The two-phase shape is
        load-bearing — all completed jobs are popped *before* any
        completion callback runs, so callbacks that freeze or submit
        work never see a half-integrated pass.
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
                finished = []
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
                        vcpus = vm.vcpus
                        # guest-perceived demand: runnable whether
                        # granted or not
                        vm.runnable += (n if n <= vcpus else vcpus) * elapsed
                        alloc = vm._alloc
                        if alloc <= 0:
                            continue
                        used = alloc * elapsed
                        vm.consumed += used
                        self.busy += used
                        efficiency = vm.efficiency
                        if efficiency is None:  # x * 1.0 == x, exactly
                            vm.effective += used
                            progress = vm._progress + (alloc / n) * elapsed
                        else:
                            eff = efficiency(n)
                            vm.effective += alloc * eff * elapsed
                            progress = (vm._progress
                                        + (alloc / n) * eff * elapsed)
                        vm._progress = progress
                        limit = progress + _WORK_EPSILON
                        if heap[0][0] <= limit:
                            while heap and heap[0][0] <= limit:
                                finished.append(_heappop(heap)[2])
                                vm.jobs_completed += 1
                            if len(heap) < vcpus:
                                self._stale = True  # capped count fell
                for callback in finished:
                    callback()
                # every mutation a completion callback can make (execute,
                # freeze) funnels through a nested _update and sets
                # _dirty, so a clean flag means the job set is stable —
                # no need for a confirming zero-elapsed advance pass
                if not self._dirty:
                    break
        finally:
            self._updating = False

    def _replan(self):
        """Water-fill if the host is stale, then schedule an update at
        the earliest projected completion (one ``call_at``, if any)."""
        now = self.sim.now
        vms = self.vms
        if self._stale or now <= self._frozen_until:
            self._stale = False
            self._reallocate()
            bus = self._bus
            if bus is not None:
                for vm in vms:
                    alloc = vm._alloc
                    if alloc != vm._bus_alloc:
                        vm._bus_alloc = alloc
                        bus.emit("cpu.alloc", vm.name, alloc)
        self._completion_version = version = self._completion_version + 1
        horizon = None
        for vm in vms:
            heap = vm._heap
            alloc = vm._alloc
            if not heap or alloc <= 0 or now < vm.frozen_until:
                continue
            n = len(heap)
            efficiency = vm.efficiency
            rate = (alloc / n if efficiency is None
                    else (alloc / n) * efficiency(n))
            if rate <= 0:
                continue
            head_remaining = heap[0][0] - vm._progress
            if head_remaining < 0.0:
                head_remaining = 0.0
            eta = now + head_remaining / rate
            if horizon is None or eta < horizon:
                horizon = eta
        if horizon is not None:
            self.sim.call_at(horizon, self._completion_timer, version)

    def _on_timer(self):
        # a freeze boundary: a frozen flag the water-fill reads flips
        self._stale = True
        self._update()
        self._replan()

    def _on_completion_timer(self, version):
        if version != self._completion_version:
            return  # superseded by a later re-plan
        self._update()
        self._replan()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def settle(self):
        """Bring accounting up to the current instant (for samplers)."""
        self._update()
        self._replan()

    def __repr__(self):
        return f"<Host {self.name} cores={self.cores} vms={len(self.vms)}>"
