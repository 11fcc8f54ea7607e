"""The composed server runtime.

A :class:`PolicyServer` is :class:`~repro.servers.base.BaseServer`
wiring plus one policy of each kind from
:mod:`repro.servers.policies`:

- an **admission** policy decides how packets enter (kernel backlog,
  eager LiteQ, or bounded LiteQ with load shedding),
- a **concurrency** policy decides who runs the servlet driver
  (blocking thread pool or continuation-parking event loop),
- a **remediation** policy decides what this server does as a *caller*
  when a downstream tier is slow (nothing, or timeout+retry+breaker).

``SyncServer`` and ``AsyncServer`` are thin presets over this class —
see their modules — and any other combination is reachable through
:func:`policy_server` and the declarative
:class:`~repro.servers.policies.TierPolicy` spec.

Construction order is deliberate and matches the classic servers so
that preset-composed systems replay *byte-identically* against the
pre-refactor golden records: kernel wiring first (listener + RNG
fork), then concurrency state (the ``<name>.events`` store for event
loops), then the admission acceptor, then remediation's invoker
rebinding, and the server threads or loop workers last.
"""

from __future__ import annotations

from .base import BaseServer
from .policies import (
    KernelBacklogAdmission,
    NoRemediation,
    ThreadPoolConcurrency,
    build_admission,
    build_concurrency,
    build_remediation,
)

__all__ = ["PolicyServer", "policy_server"]


class PolicyServer(BaseServer):
    """A server composed from admission × concurrency × remediation.

    Parameters
    ----------
    admission, concurrency, remediation:
        Policy instances (see :mod:`repro.servers.policies`); each
        belongs to exactly one server.  Defaults compose the classic
        synchronous RPC server.
    """

    def __init__(self, sim, fabric, name, vm, handler,
                 admission=None, concurrency=None, remediation=None,
                 backlog=128):
        super().__init__(sim, fabric, name, vm, handler, backlog=backlog)
        self.admission = (admission if admission is not None
                          else KernelBacklogAdmission())
        self.concurrency = (concurrency if concurrency is not None
                            else ThreadPoolConcurrency())
        self.remediation = (remediation if remediation is not None
                            else NoRemediation())
        #: admitted-but-unanswered requests (maintained by eager
        #: admissions and the event loop; stays 0 for the classic
        #: pull-based thread pool, which tracks ``busy_threads``)
        self.inflight = 0
        # the classic sync gauge counts busy threads; every eager or
        # event-loop composition counts lightweight-queue occupancy
        self._occ_busy = (self.concurrency.kind == "threads"
                          and not self.admission.eager)
        self.concurrency.prepare(self)
        self.admission.bind(self)
        self.remediation.bind(self)
        self.concurrency.start(self)

    # ------------------------------------------------------------------
    @property
    def max_sys_q_depth(self):
        """Overflow threshold: admission capacity + kernel backlog."""
        return self.admission.capacity(self) + self.listener.backlog

    def queue_depth(self):
        """Requests inside the server plus accept-queue occupancy."""
        occupancy = self.busy_threads if self._occ_busy else self.inflight
        return occupancy + self.listener.backlog_length

    def occupancy(self):
        """The fine-grained gauge's numerator: busy threads for the
        classic pull-based pool, lightweight-queue occupancy otherwise."""
        return self.busy_threads if self._occ_busy else self.inflight

    def _note_queue_depth(self):
        # queue_depth() inlined (same value, see Store.__len__): this
        # observer fires on every accept-queue put and get, so the
        # method + property chain is measurable at 10^6 requests.
        depth = ((self.busy_threads if self._occ_busy else self.inflight)
                 + len(self.listener.accept_queue.items))
        stats = self.stats
        if depth > stats.peak_queue_depth:
            stats.peak_queue_depth = depth

    @property
    def ready_events(self):
        """Continuations waiting for a loop worker right now."""
        return len(self._ready)

    # ------------------------------------------------------------------
    # completion plumbing shared by eager admissions and the event loop
    # ------------------------------------------------------------------
    def _finish(self, task, response, count_completed=True):
        request = task.exchange.payload
        request.record(self.sim.now, "reply" if response.ok else "error",
                       self.name)
        task.exchange.reply(response)
        if count_completed:
            self.stats.completed += 1
        observer = self.latency_observer
        if observer is not None:
            observer(self.sim.now - task.exchange.first_sent_at)
        self._task_done()

    def _task_done(self):
        """One admitted request left the building; refill from backlog."""
        self.inflight -= 1
        self.admission.drain(self)

    def _drain_backlog(self):
        self.admission.drain(self)

    def __repr__(self):
        return (
            f"<{self.__class__.__name__} {self.name} "
            f"{self.admission.kind}+{self.concurrency.kind}"
            f"+{self.remediation.kind} depth={self.queue_depth()}>"
        )


def policy_server(sim, fabric, name, vm, handler, policy, backlog=128):
    """Build a :class:`PolicyServer` from a declarative
    :class:`~repro.servers.policies.TierPolicy` spec."""
    return PolicyServer(
        sim, fabric, name, vm, handler,
        admission=build_admission(policy.admission),
        concurrency=build_concurrency(policy.concurrency),
        remediation=build_remediation(policy.remediation),
        backlog=backlog,
    )
