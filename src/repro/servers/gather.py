"""Scatter-gather: one servlet step, N parallel downstream legs.

:class:`GatherCall` is the composite in-flight object behind a servlet's
:class:`~repro.apps.servlet.Gather` step.  It mirrors the leg lifecycle
of :class:`~repro.servers.replica.HedgedCall` — pool grants with O(1)
cancellation, a settled-race guard on delayed transmissions, wasted-work
accounting for responses that arrive after the barrier — but where a
hedged call races duplicates of *one* request, a gather fans a request
out to *different* downstream targets and resumes the servlet once a
quorum of them has answered.

Both servlet drivers consume the same object: the thread-pool driver
yields ``call.response`` (the thread blocks at the fan-in barrier,
holding its thread across all N legs — RPC semantics), while the
event-loop driver parks the continuation and re-enqueues it from the
response callback (no thread held, the async semantics the paper's
XTomcat applies to single calls).

Per-server counters live in ``server.gather_stats`` (a plain dict,
created on first use) rather than :class:`ServerStats` — monitor
snapshots iterate the stats ``__slots__`` and must not grow keys under
existing topologies.
"""

from __future__ import annotations

from ..apps.servlet import ServletError
from ..sim.events import Event

__all__ = ["GatherCall", "gather_stats"]


def gather_stats(server):
    """The server's gather counters, created on first use.

    ``gathers``/``legs`` count issued work, ``legs_cancelled`` counts
    queued pool grants withdrawn at the barrier, ``legs_wasted`` counts
    responses that arrived after the gather settled (the fan-out
    analogue of hedge losses), ``leg_failures`` counts legs that timed
    out or returned an error.
    """
    stats = getattr(server, "gather_stats", None)
    if stats is None:
        stats = server.gather_stats = {
            "gathers": 0,
            "legs": 0,
            "legs_cancelled": 0,
            "legs_wasted": 0,
            "leg_failures": 0,
        }
    return stats


class _GatherLeg:
    """One downstream leg of a gather."""

    __slots__ = ("index", "route", "pool", "grant", "exchange", "done")

    def __init__(self, index, route):
        self.index = index
        #: the server's (listener-or-group, pool, label) route triple
        self.route = route
        self.pool = route[1]
        #: pending pool grant, None once granted, cancelled or unpooled
        self.grant = None
        self.exchange = None
        self.done = False


class GatherCall:
    """Composite in-flight fan-out; settles ``response`` at the quorum.

    The settled value is a list of ``len(calls)`` response payloads in
    call order (``None`` for legs cancelled or still outstanding when a
    ``quorum < N`` barrier was met).  If more legs fail than the quorum
    tolerates, ``response`` fails with :class:`ServletError` — raised
    into a blocking servlet at its ``yield``, or thrown into a parked
    continuation by the event-loop driver.

    Raises :class:`ServletError` from the constructor when any leg
    names a target the server has no route to, before launching
    anything; the ``Gather`` handler in :mod:`repro.servers.base`
    turns that into a failed event, as a mis-routed :class:`Call`
    fails its :class:`~repro.servers.base.DownstreamCall` at once.
    """

    __slots__ = (
        "server",
        "step",
        "request",
        "sim",
        "response",
        "legs",
        "results",
        "quorum",
        "successes",
        "failures",
        "_stats",
        "_last_error",
    )

    def __init__(self, server, step, request):
        calls = step.calls
        routes = []
        for call in calls:
            route = server._routes.get(call.target)
            if route is None:
                raise ServletError(
                    f"{server.name} has no route to tier {call.target!r}"
                )
            routes.append(route)
        self.server = server
        self.step = step
        self.request = request
        self.sim = server.sim
        self.response = Event(server.sim, name="gather-call")
        self.results = [None] * len(calls)
        self.quorum = step.quorum if step.quorum is not None else len(calls)
        self.successes = 0
        self.failures = 0
        self._last_error = None
        self._stats = stats = gather_stats(server)
        stats["gathers"] += 1
        stats["legs"] += len(calls)
        server.stats.downstream_calls += len(calls)
        self.legs = legs = []
        for index, route in enumerate(routes):
            leg = _GatherLeg(index, route)
            legs.append(leg)
        # launch after every leg exists: a zero-capacity pool callback
        # must never observe a half-built gather
        for leg in legs:
            self._launch(leg)

    # -- leg lifecycle -------------------------------------------------
    def _launch(self, leg):
        pool = leg.pool
        if pool is None:
            self._transmit(leg)
            return
        grant = pool.acquire()
        if grant.triggered:
            self._transmit(leg)
        else:
            leg.grant = grant
            grant.add_callback(lambda _g, leg=leg: self._granted(leg))

    def _granted(self, leg):
        leg.grant = None
        self._transmit(leg)

    def _transmit(self, leg):
        if self.response.triggered:
            # the barrier settled while this leg queued for a pool
            # connection and the cancel raced a same-instant release;
            # hand the connection straight back
            if leg.pool is not None:
                leg.pool.release()
            leg.done = True
            self._stats["legs_cancelled"] += 1
            return
        server = self.server
        call = self.step.calls[leg.index]
        target, _pool, label = leg.route
        sub = self.request.child(call.operation, self.sim.now,
                                 work_hint=call.work_hint)
        sub.record(self.sim.now, "call", label)
        leg.exchange = target.send(server.fabric, sub)
        leg.exchange.response.add_callback(
            lambda event, leg=leg: self._leg_done(leg, event)
        )

    def _leg_done(self, leg, event):
        leg.done = True
        if leg.pool is not None:
            leg.pool.release()
        if self.response.triggered:
            # arrived after the quorum barrier: wasted downstream work
            self._stats["legs_wasted"] += 1
            return
        if event.failed:
            self._leg_failed(str(event.value))
            return
        reply = event.value
        if not reply.ok:
            self._leg_failed(reply.error)
            return
        self.results[leg.index] = reply.value
        self.successes += 1
        if self.successes >= self.quorum:
            self._cancel_pending()
            self.response.succeed(self.results)

    def _leg_failed(self, error):
        self.server.stats.downstream_failures += 1
        self._stats["leg_failures"] += 1
        self.failures += 1
        self._last_error = error
        if self.failures > len(self.legs) - self.quorum:
            self._cancel_pending()
            self.response.fail(ServletError(
                f"gather quorum {self.quorum}/{len(self.legs)} unreachable: "
                f"{error}"
            ))

    def _cancel_pending(self):
        """Withdraw every leg still queued on a connection pool.

        Legs already transmitted cannot be recalled off the wire; their
        eventual responses hit the settled-race branch in
        :meth:`_leg_done` and are counted as wasted work instead.

        ``cancel`` returning False means the grant was delivered in the
        same instant the quorum settled (a release racing this cancel):
        the leg's ``_granted`` callback is already in flight and will
        take the settled-race path in :meth:`_transmit`, handing the
        connection back and counting the cancellation itself.  Marking
        such a leg done here would double-count ``legs_cancelled`` and,
        worse, strand the granted pool unit — the occupancy invariant
        (outstanding back to zero after the gather) is exactly what the
        regression tests pin.
        """
        for leg in self.legs:
            if leg.done or leg.grant is None:
                continue
            if leg.pool.cancel(leg.grant):
                leg.grant = None
                leg.done = True
                self._stats["legs_cancelled"] += 1

    def __repr__(self):
        return (
            f"<GatherCall {self.server.name} {self.successes}+"
            f"{self.failures}/{len(self.legs)} quorum={self.quorum}>"
        )
