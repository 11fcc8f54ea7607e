"""The servlet machinery shared by every server's drivers.

A server (:class:`~repro.servers.runtime.PolicyServer`) owns a listening
socket, a VM to burn CPU on, a servlet handler and wiring to its
downstream tiers; this module runs its servlets.  One table,
:data:`INSTRUCTION_HANDLERS`, interprets the servlet's instructions
(:mod:`repro.apps.servlet`): each handler returns the value the servlet
resumes with at once, or an event to wait on (a downstream call in
flight, a gather barrier, a single-flight cache fill, a storage
command).

A server thread and an event-loop worker are both a
:class:`ServletDriver`: a small callback object, not a simulated
process.  Its one continuation loop (:meth:`ServletDriver.run`) sends or
throws into the servlet, runs :class:`Compute` inline (the CPU stage
completes straight into the driver through
:meth:`~repro.cpu.host.Vm.submit`) and every other instruction through
the table, and returns whenever it has to wait, leaving a bound method
as the callback that continues it.  Both drivers share one server-visit
lifecycle: a :class:`_Task` records the visit's ``start`` when it is
created, and :meth:`~repro.servers.runtime.PolicyServer._finish` records
its ``reply`` or ``error "<server>: <reason>"``, replies and counts the
outcome.  The drivers differ only in how they wait on a handler's event
and in how they free their slot (:mod:`repro.servers.policies`):

- a server thread (:class:`~repro.servers.policies.ThreadPoolConcurrency`,
  as in a :class:`~repro.servers.sync_server.SyncServer`) resumes itself
  when the event settles and so **blocks**: it holds its thread through
  the wait (RPC semantics — the paper's Apache/Tomcat/MySQL), while
- an event-loop worker
  (:class:`~repro.servers.policies.EventLoopConcurrency`, as in an
  :class:`~repro.servers.async_server.AsyncServer`) parks the
  continuation (:class:`_Task`) on the event and takes the next ready
  one (event-driven semantics — Nginx/XTomcat/XMySQL).
"""

from __future__ import annotations

from ..apps.servlet import (
    CacheAbort,
    CacheGet,
    CachePut,
    Call,
    Compute,
    Gather,
    ServletError,
    StorageRead,
    StorageWrite,
)
from ..sim.events import _FAILED, _PENDING, Event
from .gather import GatherCall

__all__ = [
    "INSTRUCTION_HANDLERS",
    "DownstreamCall",
    "ServerStats",
    "ServletDriver",
    "unknown_instruction",
]


class ServerStats:
    """Cumulative per-server counters (cheap; sampled by monitors)."""

    __slots__ = (
        "arrivals",
        "completed",
        "failed",
        "downstream_calls",
        "downstream_failures",
        "peak_queue_depth",
        "shed",
        "retries",
        "breaker_fast_fails",
    )

    def __init__(self):
        self.arrivals = 0
        self.completed = 0
        self.failed = 0
        self.downstream_calls = 0
        self.downstream_failures = 0
        self.peak_queue_depth = 0
        #: requests refused with a 503 by a load-shedding admission
        self.shed = 0
        #: downstream attempts re-issued by a retry remediation
        self.retries = 0
        #: downstream calls failed instantly by an open circuit breaker
        self.breaker_fast_fails = 0

    def snapshot(self):
        return {name: getattr(self, name) for name in self.__slots__}


# ----------------------------------------------------------------------
# the instruction handlers
# ----------------------------------------------------------------------
# Each takes (server, step, request) and returns the servlet's resume
# value or an Event to wait on: the servlet then resumes with the
# event's value, or has its ServletError thrown in.  A ServletError
# raised by a handler is thrown into the servlet at once.

def _call(server, step, request):
    # looked up per call: a remediation policy rebinds server._call
    return server._call(step, request)


def _gather(server, step, request):
    # gathers bypass the remediation invoker: the quorum already
    # tolerates losing legs, and per-leg retries would amplify fan-out
    try:
        return GatherCall(server, step, request).response
    except ServletError as exc:
        # an unrouted leg still answers with an event, like an unrouted
        # Call, so the event loop re-enqueues the continuation for both
        return Event(server.sim).fail(exc)


def _attached(server, kind):
    """The server's ``cache`` or ``storage`` backend, which must exist."""
    backend = getattr(server, kind)
    if backend is None:
        raise ServletError(f"{server.name} has no {kind} attached")
    return backend


def _cache_get(server, step, request):
    cache = _attached(server, "cache")
    route = step.route if step.route is not None else request.operation
    found = cache.get(step.key, route)
    if found[0] or not step.coalesce:
        return found
    # single-flight miss: the leader resumes with the miss and goes to
    # fetch; a follower waits on the leader's event, whose value is the
    # (hit, value) pair it resumes with
    follow = cache.lead_or_follow(step.key)
    return found if follow is None else follow


def _cache_put(server, step, request):
    _attached(server, "cache").put(step.key, step.value, step.ttl)


def _cache_abort(server, step, request):
    _attached(server, "cache").abort(step.key)


def _storage_read(server, step, request):
    return _attached(server, "storage").read(step.size)


def _storage_write(server, step, request):
    ack = _attached(server, "storage").write(step.size)
    # the write-back fast path acks at admission: resume at once
    return ack.value if ack.triggered else ack


#: instruction class -> handler (see the comment above the handlers);
#: a new instruction needs one entry here and one handler
INSTRUCTION_HANDLERS = {
    Call: _call,
    Gather: _gather,
    CacheGet: _cache_get,
    CachePut: _cache_put,
    CacheAbort: _cache_abort,
    StorageRead: _storage_read,
    StorageWrite: _storage_write,
}


def unknown_instruction(name, step):
    """The ``TypeError`` a driver raises when a servlet yields something
    that is no instruction — a programming error, so it is not turned
    into an error reply: it propagates out of the kernel callback that
    resumed the driver and stops :meth:`~repro.sim.kernel.Simulator.run`."""
    kinds = ", ".join(cls.__name__
                      for cls in (Compute, *INSTRUCTION_HANDLERS))
    return TypeError(
        f"{name}: servlet yielded {step!r}, expected one of {kinds}"
    )


class _Task:
    """One admitted request's continuation: its servlet, and — while an
    event-loop worker has it parked — the outcome to resume it with.

    Creating it records the visit's ``start``: when a server thread
    takes the exchange, or when an eager admission hands it to the
    event loop.  ``ready`` is the event loop's ready queue (``None`` on
    a server thread, which never parks a task).
    """

    __slots__ = ("exchange", "request", "send", "throw", "send_value",
                 "throw_value", "ready")

    def __init__(self, server, exchange, ready=None):
        self.exchange = exchange
        self.request = request = exchange.payload
        request.record(server.sim.now, "start", server.name)
        gen = server.handler(server.ctx, request)
        # bound once per request: the loop resumes once per instruction
        self.send = gen.send
        self.throw = gen.throw
        self.send_value = None
        self.throw_value = None
        self.ready = ready

    def settle(self, event):
        """Keep ``event``'s outcome for the servlet: its value, or its
        exception to throw in."""
        if event._state == _FAILED:
            self.send_value = None
            self.throw_value = event._value
        else:
            self.send_value = event._value
            self.throw_value = None

    def resume(self, event):
        """Callback of the event the continuation is parked on: keep its
        outcome and re-enqueue the task."""
        self.settle(event)
        self.ready.put(self)


class ServletDriver:
    """One server thread or event-loop worker: a callback object that
    takes tasks from ``source`` (a :class:`~repro.sim.resources.Store`)
    and runs their servlets through the one continuation loop,
    :meth:`run`.

    A servlet that returned or raised :class:`ServletError` is
    finished by the server's one ``_finish``.  Subclasses supply the
    differences between the drivers:

    - ``_adopt(item)`` turns a taken item into the :class:`_Task` to
      run;
    - ``_wait(task, event)`` decides what the driver does about the
      event an instruction handler returned, and returns the task to
      run next (``None``: the driver waits for a callback);
    - ``_free()`` frees the driver's slot once a task finished.

    The first take runs on a fresh zero-delay kernel tick, exactly as a
    simulated process starts, so a driver's entries keep the kernel
    order of the generator process it replaces.
    """

    __slots__ = ("server", "source", "task", "_submit", "_cpu_done",
                 "_took")

    def __init__(self, server, source):
        self.server = server
        self.source = source
        #: the task this driver runs or waits for; None when idle
        self.task = None
        self._submit = server.vm.submit
        # bound once, not once per wait (the driver lives for the run)
        self._cpu_done = self._resume_cpu
        self._took = self._on_take
        server.sim.call_in(0.0, self._start)

    def _start(self):
        task = self._next()
        if task is not None:
            self.run(task, task.send_value, task.throw_value)

    def _next(self):
        """The next task to run, or ``None`` once the driver waits for
        one (the take then calls :meth:`_on_take`)."""
        source = self.source
        items = source.items
        if items:
            # what ``get`` would hand over at once, minus its grant
            return self._adopt(items.popleft())
        self.task = None
        source.get().add_callback(self._took)
        return None

    def _on_take(self, grant):
        task = self._adopt(grant._value)
        self.run(task, task.send_value, task.throw_value)

    def _resume_cpu(self):
        """The task's CPU stage finished: continue its servlet."""
        self.run(self.task, None, None)

    def run(self, task, value, error):
        """Continue ``task``'s servlet with ``value`` (or by throwing
        ``error`` into it), task after task, until the driver has to
        wait."""
        server = self.server
        handlers = INSTRUCTION_HANDLERS
        while True:
            try:
                if error is None:
                    step = task.send(value)
                else:
                    try:
                        step = task.throw(error)
                    finally:
                        # the traceback holds this loop's frame, whose
                        # caller may hold the failed event holding the
                        # error: dropped, the error, the frames and the
                        # request are freed by reference counting
                        error.__traceback__ = None
                    error = None
            except StopIteration as stop:
                value = stop.value
                error = None
            except ServletError as exc:
                exc.__traceback__ = None  # as above
                error = exc
            else:
                cls = step.__class__
                if cls is Compute:
                    self.task = task
                    if self._submit(step.work, self._cpu_done):
                        return
                    value = None  # zero work: done at once
                    continue
                handler = handlers.get(cls)
                if handler is None:
                    raise unknown_instruction(server.name, step)
                try:
                    value = handler(server, step, task.request)
                except ServletError as exc:
                    error = exc
                    value = None
                    continue
                if not isinstance(value, Event):
                    continue
                task = self._wait(task, value)
                if task is None:
                    return
                value = task.send_value
                error = task.throw_value
                continue
            # the servlet ended: finish it (outside the except clauses,
            # so no exception raised by what the reply sets off chains
            # to the caught one), free the slot and take the next task
            server._finish(task.exchange, value, error)
            self._free()
            task = self._next()
            if task is None:
                return
            value = task.send_value
            error = task.throw_value


class DownstreamCall(Event):
    """One downstream :class:`Call` in flight — the event both drivers
    wait on.

    Settles with the reply payload, or fails with :class:`ServletError`
    when the route is unknown (at once), when retransmissions run out,
    or when the downstream replies with an error.  Side effects keep one
    order: ``downstream_calls`` is counted before the pool is asked for
    a connection, and the connection goes back to the pool before the
    waiting servlet resumes.  Transmission honours the server's
    ``pace_rate``.  :class:`~repro.servers.policies.TimeoutRetry`
    subclasses it to retry.
    """

    __slots__ = ("server", "step", "request", "route", "exchange")

    def __init__(self, server, step, request):
        # Event.__init__ inlined (as in Grant): one call per
        # downstream call of every request on every tier
        self.sim = server.sim
        self._name = None
        self._state = _PENDING
        self._value = None
        self.callbacks = None
        self.server = server
        self.step = step
        self.request = request
        self.route = route = server._routes.get(step.target)
        if route is None:
            self.fail(ServletError(
                f"{server.name} has no route to tier {step.target!r}"
            ))
            return
        server.stats.downstream_calls += 1
        pool = route[1]
        grant = pool.acquire() if pool is not None else None
        if grant is not None and grant._state == _PENDING:
            grant.add_callback(self._transmit)
        else:
            self._transmit()

    def _transmit(self, _grant=None):
        """Send now, or at the server's next pacing slot."""
        server = self.server
        pace_rate = server.pace_rate
        if pace_rate is not None:
            sim = server.sim
            now = sim.now
            send_at = max(now, server._next_send_at)
            server._next_send_at = send_at + 1.0 / pace_rate
            if send_at > now:
                sim.call_at(send_at, self._send)
                return
        self._send()

    def _send(self):
        server = self.server
        now = server.sim.now
        step = self.step
        target, _pool, label = self.route
        sub = self.request.child(step.operation, now,
                                 work_hint=step.work_hint)
        sub.record(now, "call", label)
        self.exchange = exchange = target.send(server.fabric, sub)
        exchange.response.add_callback(self._on_response)

    def _on_response(self, response):
        pool = self.route[1]
        if pool is not None:
            pool.release()
        # state read directly, as Process._resume does: this runs once
        # per downstream call of every request on every tier
        if response._state == _FAILED:
            # ConnectionTimeout: every retransmission was dropped
            error = str(response._value)
        else:
            reply = response._value
            if reply.ok:
                self.succeed(reply.value)
                return
            error = reply.error
        self.server.stats.downstream_failures += 1
        self.fail(ServletError(error))

    def _release(self):
        pool = self.route[1]
        if pool is not None:
            pool.release()
