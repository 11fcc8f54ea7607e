"""The one server class.

A :class:`PolicyServer` owns a listening socket, a VM to burn CPU on, a
servlet handler and the routes to its downstream tiers, and is built
from one :class:`~repro.servers.policies.TierPolicy` — the one
description of a server.  The policy names one class per axis of
:mod:`repro.servers.policies`, looked up in that axis's table
(``ADMISSIONS``, ``CONCURRENCIES``, ``REMEDIATIONS``) and built from
its spec:

- an **admission** policy decides how packets enter (kernel backlog,
  eager LiteQ, or bounded LiteQ with load shedding),
- a **concurrency** policy decides who runs the servlet driver
  (blocking thread pool or continuation-parking event loop),
- a **remediation** policy decides what this server does as a *caller*
  when a downstream tier is slow (nothing, or timeout+retry+breaker).

``SyncServer`` and ``AsyncServer`` keep the paper's names and
parameters and build through the ``TierPolicy.sync`` and
``TierPolicy.asynchronous`` presets — see their modules.

Whatever the policies, a server visit ends in one place,
:meth:`PolicyServer._finish`, which records the visit's ``reply`` or
``error "<server>: <reason>"``, replies and counts the outcome, for
both servlet drivers (the visit's ``start`` is recorded where the
driver's task is created, :class:`~repro.servers.base._Task`).

Construction order is deliberate and matches the classic servers so
that preset-composed systems replay *byte-identically* against the
pre-refactor golden records: kernel wiring first (listener + RNG
fork), then concurrency state (the ``<name>.events`` store for event
loops), then the admission acceptor, then remediation's invoker
rebinding, and the server threads or loop workers last.
"""

from __future__ import annotations

from ..apps.servlet import Response, ServletContext
from ..net.tcp import Listener
from ..sim.resources import Resource
from .base import DownstreamCall, ServerStats
from .policies import ADMISSIONS, CONCURRENCIES, REMEDIATIONS, TierPolicy
from .replica import ReplicaGroup

__all__ = ["PolicyServer"]


class PolicyServer:
    """A server composed from admission × concurrency × remediation.

    Parameters
    ----------
    sim, fabric:
        The kernel and the network fabric.
    name:
        Server name (also the listener name — drop attribution uses it).
    vm:
        The :class:`repro.cpu.Vm` this server's work runs on.
    handler:
        Servlet generator function ``fn(ctx, request)``.
    policy:
        The server's shape, a :class:`~repro.servers.policies.TierPolicy`;
        the default is the classic synchronous RPC server.
    backlog:
        TCP accept-queue size of this server's listener (the kernel
        backlog, 128 on the paper's testbed).
    """

    def __init__(self, sim, fabric, name, vm, handler, policy=TierPolicy(),
                 backlog=128):
        # one policy instance per axis and server, from the axis's table
        self.admission = ADMISSIONS[policy.admission.kind](policy.admission)
        self.concurrency = CONCURRENCIES[policy.concurrency.kind](
            policy.concurrency
        )
        self.remediation = REMEDIATIONS[policy.remediation.kind](
            policy.remediation
        )
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.vm = vm
        self.handler = handler
        self.listener = fabric.listener(name, backlog=backlog)
        self.listener.observer = self._note_queue_depth
        self.ctx = ServletContext(name, sim, sim.fork_rng(f"server/{name}"))
        #: target -> the Listener or ReplicaGroup it is routed to
        self.downstream = {}
        #: target -> caller-side pool Resource, for pooled routes only
        self.pools = {}
        #: target -> (listener-or-group, pool-or-None, trace label
        #: "<this server>-><target>"): one dict lookup per downstream
        #: call, and no label built per call
        self._routes = {}
        self.stats = ServerStats()
        #: attached :class:`~repro.servers.cache.LruCache`, or ``None``;
        #: required by ``CacheGet``/``CachePut``/``CacheAbort`` steps
        self.cache = None
        #: attached :class:`~repro.servers.storage.WriteBackStore`, or
        #: ``None``; required by ``StorageRead``/``StorageWrite`` steps
        self.storage = None
        #: live-telemetry hook: called with each reply's tier sojourn
        #: (seconds since the caller first sent the packet, so accept
        #: queueing and retransmissions count); ``None`` = off
        self.latency_observer = None
        #: downstream calls per second this server may transmit, or
        #: ``None`` for unpaced; set by an event-loop concurrency policy
        self.pace_rate = None
        #: downstream invoker used by the drivers; a remediation policy
        #: rebinds this to wrap ``_invoke`` with timeouts/retries/circuit
        #: breaking
        self._call = self._invoke
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
    # wiring
    # ------------------------------------------------------------------
    def connect(self, target, listener, pool_size=None):
        """Route :class:`~repro.apps.servlet.Call` steps naming
        ``target`` to ``listener``.

        ``listener`` is a :class:`~repro.net.tcp.Listener`, or a
        :class:`~repro.servers.replica.ReplicaGroup` for replicas of the
        downstream tier: balancing, per-replica pools and hedging (the
        group then owns all pooling, so ``pool_size`` must be None).
        Anything else is a ``TypeError`` here, at wiring time.

        ``pool_size`` installs a caller-side connection pool (the
        Tomcat→MySQL JDBC pool of 50): at most that many outstanding
        calls to the target; further callers queue *inside this server*,
        which is exactly how MySQL's effective ``MaxSysQDepth`` seen
        from a synchronous Tomcat becomes ~50 in the paper.

        Re-wiring an already-connected target is rejected: silently
        overwriting the route would leak the old pool ``Resource``
        (with any waiters still queued on it) and invalidate the
        balancer state mid-run.
        """
        if target in self._routes:
            raise ValueError(
                f"{self.name} is already connected to {target!r}; "
                "routes are fixed once wired"
            )
        if isinstance(listener, ReplicaGroup):
            if pool_size is not None:
                raise ValueError(
                    f"{self.name}->{target}: a ReplicaGroup manages its "
                    "own per-replica pools; pool_size must be None"
                )
        elif not isinstance(listener, Listener):
            raise TypeError(
                f"{self.name}->{target}: a route is a Listener or a "
                f"ReplicaGroup, got {listener!r}"
            )
        self.downstream[target] = listener
        pool = None
        if pool_size is not None:
            pool = self.pools[target] = Resource(
                self.sim, pool_size, name=f"{self.name}->{target}.pool"
            )
        self._routes[target] = (listener, pool, f"{self.name}->{target}")
        return self

    def _invoke(self, step, request):
        """Issue one downstream call; returns the :class:`DownstreamCall`
        to wait on (it fails with :class:`ServletError` on a timeout,
        an error reply, or an unknown route)."""
        return DownstreamCall(self, step, request)

    # ------------------------------------------------------------------
    # queue depth — the quantity plotted in every figure of the paper
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
    # the end of a server visit, on either driver
    # ------------------------------------------------------------------
    def _finish(self, exchange, value, error):
        """Finish one visit whose servlet returned ``value`` or raised
        ``error``: record ``reply`` or ``error "<server>: <reason>"`` on
        the trace, reply, count the outcome and report the visit's tier
        sojourn to the latency observer.  The driver then frees its
        slot."""
        now = self.sim.now
        if error is None:
            exchange.payload.record(now, "reply", self.name)
            exchange.reply(Response.success(value))
            self.stats.completed += 1
        else:
            exchange.payload.record(now, "error", f"{self.name}: {error}")
            exchange.reply(Response.failure(str(error)))
            self.stats.failed += 1
        observer = self.latency_observer
        if observer is not None:
            observer(now - exchange.first_sent_at)

    def _task_done(self):
        """One admitted request left the building; refill from backlog."""
        self.inflight -= 1
        self.admission.drain(self)

    def __repr__(self):
        return (
            f"<{self.__class__.__name__} {self.name} "
            f"{self.admission.kind}+{self.concurrency.kind}"
            f"+{self.remediation.kind} depth={self.queue_depth()}>"
        )
