"""CPU millibottlenecks via VM consolidation (the paper's §IV-A).

In the paper, SysSteady-Tomcat shares a physical core with
SysBursty-MySQL (Fig 2).  SysBursty idles most of the time but its
workload bursts demand 100 % of the shared CPU for a few hundred milliseconds —
starving the co-resident steady VM into a millibottleneck.

We model SysBursty's co-located MySQL as an *antagonist VM* on the same
host that receives a slug of CPU demand at each burst.  Only its CPU
demand on the shared core matters to SysSteady (the rest of SysBursty
ran on dedicated nodes), so this preserves the interference behaviour
exactly — see the substitution table in DESIGN.md.

Bursts fire at exact times (:meth:`ColocationInjector.scripted`,
reproducible millibottlenecks in the style of §V) or on a fixed period
(:meth:`ColocationInjector.periodic`).  The emergent form of §IV-A, a
complete SysBursty system driven by its own bursty arrivals, is
:func:`~repro.topology.consolidation.build_consolidated_pair`.
"""

from __future__ import annotations

__all__ = ["ColocationInjector"]


class ColocationInjector:
    """A bursty antagonist VM consolidated onto a victim's host.

    Parameters
    ----------
    host:
        The physical host shared with the victim VM.
    burst_cpu_seconds:
        Total CPU demand per burst.  400 ViewStory requests at ~0.75 ms
        each ≈ 0.3 s — the paper's "millibottlenecks that last for
        approximately 300 ms".
    burst_jobs:
        How many parallel jobs carry that demand (the burst's request
        batch); only the total matters for starvation, the count shapes
        the antagonist's own concurrency.
    shares:
        ESXi shares of the antagonist VM (the paper used "Normal", i.e.
        equal shares).
    """

    def __init__(self, sim, host, name="sysbursty-mysql",
                 burst_cpu_seconds=0.3, burst_jobs=400, shares=1.0):
        if burst_cpu_seconds <= 0:
            raise ValueError("burst_cpu_seconds must be positive")
        if burst_jobs < 1:
            raise ValueError("burst_jobs must be >= 1")
        self.sim = sim
        self.vm = host.add_vm(name, vcpus=1, shares=shares)
        self.burst_cpu_seconds = burst_cpu_seconds
        self.burst_jobs = burst_jobs
        #: times at which bursts were injected (for analysis/tests).
        self.burst_times = []
        #: small background demand between bursts (paper: "negligible").
        self.idle_util = 0.02
        self._started = False

    # ------------------------------------------------------------------
    # trigger styles
    # ------------------------------------------------------------------
    def scripted(self, times):
        """Inject one burst at each absolute time in ``times``."""
        self._ensure_background()
        for when in sorted(times):
            self.sim.call_at(when, self._burst)
        return self

    def periodic(self, period, until, offset=None):
        """Bursts every ``period`` seconds until ``until``."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        first = offset if offset is not None else period
        times = []
        t = first
        while t < until:
            times.append(t)
            t += period
        return self.scripted(times)

    # ------------------------------------------------------------------
    def _ensure_background(self):
        if self._started:
            return
        self._started = True
        if self.idle_util > 0:
            self.sim.process(self._background())

    def _background(self):
        """Negligible steady demand, so the VM is not strictly idle."""
        slice_work = 0.002
        gap = slice_work / self.idle_util - slice_work
        while True:
            yield self.vm.execute(slice_work)
            yield gap

    def _burst(self):
        self.burst_times.append(self.sim.now)
        per_job = self.burst_cpu_seconds / self.burst_jobs
        for _ in range(self.burst_jobs):
            self.vm.execute(per_job)

    def __repr__(self):
        return (
            f"<ColocationInjector {self.vm.name} bursts={len(self.burst_times)} "
            f"demand={self.burst_cpu_seconds}s>"
        )
