"""The composable invocation-policy layer.

A server (:class:`~repro.servers.runtime.PolicyServer`) is no longer a
class per design point but a composition of three orthogonal policies:

**AdmissionPolicy** — what happens when a packet reaches the listener:

- :class:`KernelBacklogAdmission` — the RPC stack's behaviour: packets
  wait in the bounded kernel accept queue until a worker ``accept()``\\ s
  them; overflow drops into the 3/6/9 s retransmission schedule.
- :class:`EagerAdmission` — the event-driven stack's behaviour: an
  acceptor admits packets into a huge lightweight queue the instant
  they arrive (LiteQDepth slots; Nginx uses all 65535 ports).
- :class:`SheddingAdmission` — *beyond the paper*: a **bounded**
  lightweight queue that answers overflow with an immediate 503
  instead of letting TCP drop and retransmit — trading silent 3-second
  stalls for fast, explicit failures.

**ConcurrencyPolicy** — who runs the servlet's instructions, all
interpreted by the one handler table in :mod:`repro.servers.base`; the
two policies differ only in how they wait on the event a handler
returns:

- :class:`ThreadPoolConcurrency` — a bounded pool of threads, each
  held for a request's entire lifetime including downstream waits
  (Apache/Tomcat/MySQL), with the optional Apache-style second
  process.
- :class:`EventLoopConcurrency` — a few loop workers execute one CPU
  stage at a time; any other wait parks the continuation and the
  event's callback re-enqueues it (Nginx/XTomcat/XMySQL).

**RemediationPolicy** — what a *caller* does about a slow or failed
downstream call:

- :class:`NoRemediation` — the paper's behaviour: wait for the TCP
  layer to deliver, retransmit, or give up.
- :class:`TimeoutRetry` — *beyond the paper*: a caller-side timeout
  with exponential-backoff retries and a per-route circuit breaker —
  the Tail-at-Scale toolkit, including its dark side: retries
  *amplify* load on a struggling downstream (see
  ``experiments/policy_matrix.py`` for where that regime bites).

A remediation policy replaces one invoker, ``server._call``, which
returns the downstream call in flight that both drivers wait on.

The classic servers are thin presets over this layer::

    SyncServer  = KernelBacklogAdmission + ThreadPoolConcurrency + none
    AsyncServer = EagerAdmission(65535)  + EventLoopConcurrency  + none

and hybrids (eager admission feeding a thread pool, a bounded shedding
queue in front of either, retries at any tier) become configuration —
see the :class:`TierPolicy` spec: ``SystemConfig.tier_policy`` maps each
3-tier server to one, and every ``NodeSpec`` of a service graph carries
one, so ``topology/graph.py`` builds every server from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import sqrt

from ..apps.servlet import Compute, Response, ServletError
from ..net.tcp import SHED
from ..sim.events import Event
from ..sim.resources import Store
from .base import INSTRUCTION_HANDLERS, DownstreamCall, unknown_instruction

__all__ = [
    "AdmissionPolicy",
    "AdmissionSpec",
    "CircuitBreaker",
    "CoDelAdmission",
    "ConcurrencyPolicy",
    "ConcurrencySpec",
    "EagerAdmission",
    "EventLoopConcurrency",
    "KernelBacklogAdmission",
    "NoRemediation",
    "RemediationPolicy",
    "RemediationSpec",
    "SheddingAdmission",
    "ThreadPoolConcurrency",
    "TierPolicy",
    "TimeoutRetry",
    "build_admission",
    "build_concurrency",
    "build_remediation",
]


class _Task:
    """One admitted request's continuation state (event-loop driver)."""

    __slots__ = ("exchange", "gen", "ready", "send_value", "throw_value")

    def __init__(self, server, exchange):
        self.exchange = exchange
        self.gen = server.handler(server.ctx, exchange.payload)
        self.ready = server._ready
        self.send_value = None
        self.throw_value = None

    def resume(self, event):
        """Callback of the event the continuation is parked on: keep its
        outcome for the servlet and re-enqueue the task."""
        if event.failed:
            self.throw_value = event.value
        else:
            self.send_value = event.value
        self.ready.put(self)


# ======================================================================
# admission
# ======================================================================
class AdmissionPolicy:
    """Decides how arriving packets enter the server.

    One policy instance belongs to exactly one server (``bind`` stores
    the back-reference).  ``eager`` admissions count admitted requests
    in ``server.inflight`` and must drain the kernel backlog when a
    request finishes; pull-style admission leaves packets in the accept
    queue for the concurrency policy's workers to ``accept()``.
    """

    kind = "backlog"
    eager = False

    def bind(self, server):
        self._server = server

    def drain(self, server):
        """Called after every finished request (eager admissions pull
        backlog leftovers here); default is a no-op."""

    def capacity(self, server):
        """Contribution of admission to MaxSysQDepth (before backlog)."""
        raise NotImplementedError


class KernelBacklogAdmission(AdmissionPolicy):
    """Packets queue in the kernel backlog until a worker accepts them.

    The paper's RPC stack: MaxSysQDepth = concurrency capacity +
    backlog, and overflow means *dropped packets* and TCP
    retransmission stalls.
    """

    def capacity(self, server):
        # thread pools bound admitted work by their (growable) pool;
        # an event loop pulls as fast as it can, so only the workers
        # themselves hold requests
        capacity = getattr(server, "thread_capacity", None)
        return capacity if capacity is not None else server.workers


class EagerAdmission(AdmissionPolicy):
    """Admit instantly into a lightweight queue of ``depth`` slots.

    The event-driven stack's admission: the kernel backlog stays empty
    in normal operation because the acceptor moves packets straight
    into the LiteQ; packets fall back to the backlog only when the
    LiteQ itself is full (only possible near ``depth``).
    """

    kind = "eager"
    eager = True

    def __init__(self, depth):
        if depth < 1:
            raise ValueError(f"lite_q_depth must be >= 1, got {depth}")
        self.depth = depth

    def bind(self, server):
        self._server = server
        server.lite_q_depth = self.depth
        server.listener.acceptor = self._admit

    def capacity(self, server):
        return self.depth

    def _admit(self, exchange):
        """Eager acceptor: admit into the lightweight queue, or decline."""
        server = self._server
        if server.inflight >= self.depth:
            return False
        self._start(server, exchange)
        return True

    def _start(self, server, exchange):
        server.inflight += 1
        server.stats.arrivals += 1
        server._note_queue_depth()
        server.concurrency.submit(server, exchange)

    def drain(self, server):
        """Pull packets that overflowed into the kernel backlog while
        the lightweight queue was full."""
        while server.inflight < self.depth:
            exchange = server.listener.try_accept()
            if exchange is None:
                return
            self._start(server, exchange)


class SheddingAdmission(EagerAdmission):
    """A *bounded* lightweight queue that sheds overload with a 503.

    Same eager admission as :class:`EagerAdmission` while there is
    room; at ``depth`` admitted requests the acceptor replies with an
    immediate failure instead of letting the packet fall back to the
    kernel backlog.  The caller sees a fast explicit error rather than
    a silent 3-second retransmission stall — the classic
    load-shedding trade (availability of the fast path over completion
    of every request).
    """

    kind = "shed"

    def _admit(self, exchange):
        server = self._server
        if server.inflight >= self.depth:
            server.stats.shed += 1
            exchange.reply(Response.failure(
                f"503 {server.name}: lightweight queue full "
                f"({self.depth} admitted)"
            ))
            return SHED
        self._start(server, exchange)
        return True

    def drain(self, server):
        """Nothing to drain: overflow was answered, never queued."""


class CoDelAdmission(SheddingAdmission):
    """Delay-based AQM in the spirit of CoDel (RFC 8289).

    Depth-based shedding (:class:`SheddingAdmission`) only reacts once
    the queue is *full* — a deep lightweight queue is pure bufferbloat:
    it absorbs a miss storm silently and converts it into seconds of
    sojourn for everyone behind it.  CoDel instead watches *delay*: the
    age of the oldest admitted-but-unfinished request (the standing
    queue's sojourn proxy).  When that age has stayed at or above
    ``target`` for a full ``interval``, the policy enters the dropping
    state and sheds arrivals with a 503 on the CoDel control law — the
    next shed after ``interval / sqrt(count)``, so the shed rate ramps
    until the standing queue dissolves.  One observation below target
    exits the dropping state.

    ``depth`` stays as the hard bound (sheds like the parent when hit),
    so CoDel strictly tightens the shedding admission.  Shed packets
    surface to clients and attribution exactly like the parent's (a
    fast 503 and a ``"shed"`` trace record at this server's listener).
    """

    kind = "codel"

    def __init__(self, depth, target=0.05, interval=0.1):
        super().__init__(depth)
        if target <= 0:
            raise ValueError(f"codel target must be positive, got {target}")
        if interval <= 0:
            raise ValueError(
                f"codel interval must be positive, got {interval}"
            )
        self.target = target
        self.interval = interval
        #: admit timestamps of in-flight requests, FIFO (head = oldest)
        self._admitted_at = deque()
        self._above_since = None
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0

    def _admit(self, exchange):
        server = self._server
        now = server.sim.now
        admitted = self._admitted_at
        sojourn = (now - admitted[0]) if admitted else 0.0
        if sojourn < self.target:
            self._above_since = None
            self._dropping = False
        else:
            if self._above_since is None:
                self._above_since = now
            if self._dropping:
                if now >= self._drop_next:
                    self._drop_count += 1
                    self._drop_next = now + self.interval / sqrt(
                        self._drop_count
                    )
                    return self._shed(server, exchange, sojourn)
            elif now - self._above_since >= self.interval:
                self._dropping = True
                self._drop_count = 1
                self._drop_next = now + self.interval
                return self._shed(server, exchange, sojourn)
        if server.inflight >= self.depth:
            server.stats.shed += 1
            exchange.reply(Response.failure(
                f"503 {server.name}: lightweight queue full "
                f"({self.depth} admitted)"
            ))
            return SHED
        admitted.append(now)
        self._start(server, exchange)
        return True

    def _shed(self, server, exchange, sojourn):
        server.stats.shed += 1
        exchange.reply(Response.failure(
            f"503 {server.name}: codel shed "
            f"(sojourn {sojourn * 1000:.0f} ms over target "
            f"{self.target * 1000:.0f} ms)"
        ))
        return SHED

    def drain(self, server):
        """One request finished: retire the oldest admit timestamp
        (requests move near-FIFO through the pool, and the control law
        only needs the standing queue's *age*, not exact identity)."""
        if self._admitted_at:
            self._admitted_at.popleft()


# ======================================================================
# concurrency
# ======================================================================
class ConcurrencyPolicy:
    """Decides who executes the servlet driver.

    ``prepare`` installs counters/queues on the server, ``start``
    spawns the worker processes (in that order around admission
    binding, preserving the classic servers' construction sequence).
    ``submit`` receives exchanges from an eager admission.
    """

    kind = None

    def prepare(self, server):
        raise NotImplementedError

    def start(self, server):
        raise NotImplementedError

    def submit(self, server, exchange):
        raise NotImplementedError

    def busy(self, server):
        """Requests currently holding an execution slot."""
        raise NotImplementedError


class ThreadPoolConcurrency(ConcurrencyPolicy):
    """A bounded thread pool; each thread blocks through a request.

    With pull admission the workers ``accept()`` straight from the
    kernel backlog (the classic SyncServer).  With an eager admission
    the admitted exchanges queue in an internal intake store and the
    pool drains that instead — a hybrid the paper does not have:
    LiteQ-fronted blocking workers.
    """

    kind = "threads"

    def __init__(self, threads=150, spawn_extra_process=False,
                 spawn_after=0.5, max_processes=2):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self.spawn_extra_process = spawn_extra_process
        self.spawn_after = spawn_after
        self.max_processes = max_processes

    def prepare(self, server):
        server.threads_per_process = self.threads
        server.thread_capacity = self.threads
        server.processes = 1
        server.max_processes = (
            self.max_processes if self.spawn_extra_process else 1
        )
        server.spawn_after = self.spawn_after
        server.busy_threads = 0
        server._saturated_since = None
        if server.admission.eager:
            server._intake = Store(server.sim, name=f"{server.name}.intake")

    def start(self, server):
        for _ in range(self.threads):
            server.sim.process(self._worker(server))
        if self.spawn_extra_process:
            server.sim.process(self._process_spawner(server))

    def submit(self, server, exchange):
        server._intake.put(exchange)

    def busy(self, server):
        return server.busy_threads

    # ------------------------------------------------------------------
    def _worker(self, server):
        """One server thread: take a request, drive the servlet, repeat."""
        eager = server.admission.eager
        source = (server._intake if eager else server.listener.accept_queue)
        take = source.get
        stats = server.stats
        note_depth = server._note_queue_depth
        drive = server._drive
        while True:
            exchange = yield take()
            if not eager:
                stats.arrivals += 1
            server.busy_threads += 1
            note_depth()
            try:
                yield from drive(exchange)
            finally:
                server.busy_threads -= 1
                if eager:
                    server._task_done()

    def _process_spawner(self, server):
        """Watch for sustained thread exhaustion; spawn a second process.

        Mirrors Apache's process manager: the paper observes the second
        process (and the jump of MaxSysQDepth from 278 to 428) only
        after the first pool has been fully consumed for a while.
        """
        poll = 0.05
        while server.processes < server.max_processes:
            yield poll
            saturated = server.busy_threads >= server.thread_capacity
            if not saturated:
                server._saturated_since = None
                continue
            if server._saturated_since is None:
                server._saturated_since = server.sim.now
                continue
            if server.sim.now - server._saturated_since >= server.spawn_after:
                self._spawn_process(server)
                server._saturated_since = None

    def _spawn_process(self, server):
        server.processes += 1
        server.thread_capacity += server.threads_per_process
        for _ in range(server.threads_per_process):
            server.sim.process(self._worker(server))


class EventLoopConcurrency(ConcurrencyPolicy):
    """A few loop workers run ready continuations, one CPU stage at a
    time; downstream calls park the continuation instead of blocking."""

    kind = "eventloop"

    def __init__(self, workers=1, pace_rate=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if pace_rate is not None and pace_rate <= 0:
            raise ValueError(f"pace_rate must be positive, got {pace_rate}")
        self.workers = workers
        self.pace_rate = pace_rate

    def prepare(self, server):
        server.workers = self.workers
        server.pace_rate = self.pace_rate
        server._next_send_at = 0.0
        server._ready = Store(server.sim, name=f"{server.name}.events")

    def start(self, server):
        for _ in range(self.workers):
            server.sim.process(self._worker(server))

    def submit(self, server, exchange):
        server._ready.put(_Task(server, exchange))

    def busy(self, server):
        return server.inflight

    # ------------------------------------------------------------------
    def _worker(self, server):
        """One loop worker: run ready continuations, one CPU stage at a
        time; never blocks on downstream calls."""
        ready = server._ready
        execute = server.vm.execute
        stats = server.stats
        finish = server._finish
        handlers = INSTRUCTION_HANDLERS
        while True:
            task = yield ready.get()
            gen = task.gen
            send = gen.send
            throw = gen.throw
            request = task.exchange.payload
            while True:
                try:
                    throw_value = task.throw_value
                    if throw_value is not None:
                        task.throw_value = None
                        step = throw(throw_value)
                    else:
                        step = send(task.send_value)
                except StopIteration as stop:
                    finish(task, Response.success(stop.value))
                    break
                except ServletError as exc:
                    stats.failed += 1
                    finish(task, Response.failure(str(exc)),
                           count_completed=False)
                    break
                task.send_value = None
                cls = step.__class__
                if cls is Compute:
                    # the loop worker executes the stage itself
                    yield execute(step.work)
                    continue
                handler = handlers.get(cls)
                if handler is None:
                    raise unknown_instruction(server.name, step)
                try:
                    outcome = handler(server, step, request)
                except ServletError as exc:
                    task.throw_value = exc
                    continue
                if isinstance(outcome, Event):
                    # a call that failed at once (no route, open breaker)
                    # is settled already: resume then runs at once and
                    # re-enqueues the task behind the other ready ones
                    outcome.add_callback(task.resume)
                    break  # continuation parked
                task.send_value = outcome


# ======================================================================
# remediation
# ======================================================================
class CircuitBreaker:
    """Consecutive-failure circuit breaker for one downstream route.

    Closed until ``threshold`` consecutive failures, then open for
    ``reset_after`` seconds (every call fails fast), then half-open:
    one trial call is let through — success closes the breaker,
    failure re-opens it for another window.
    """

    __slots__ = ("sim", "threshold", "reset_after", "failures",
                 "opened_at", "half_open", "opens")

    def __init__(self, sim, threshold, reset_after):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if reset_after <= 0:
            raise ValueError(f"reset_after must be > 0, got {reset_after}")
        self.sim = sim
        self.threshold = threshold
        self.reset_after = reset_after
        self.failures = 0
        self.opened_at = None
        self.half_open = False
        self.opens = 0

    @property
    def state(self):
        if self.opened_at is None:
            return "closed"
        return "half_open" if self.half_open else "open"

    def allow(self):
        """May a call go out right now?"""
        if self.opened_at is None:
            return True
        if self.half_open:
            return False  # the one trial call is already outstanding
        if self.sim.now - self.opened_at >= self.reset_after:
            self.half_open = True
            return True
        return False

    def record_success(self):
        self.failures = 0
        self.opened_at = None
        self.half_open = False

    def record_failure(self):
        self.failures += 1
        if self.half_open or (self.opened_at is None
                              and self.failures >= self.threshold):
            self.opened_at = self.sim.now
            self.half_open = False
            self.opens += 1

    def __repr__(self):
        return (f"<CircuitBreaker {self.state} failures={self.failures}"
                f"/{self.threshold} opens={self.opens}>")


class RemediationPolicy:
    """Decides what a caller does about slow/failed downstream calls."""

    kind = "none"

    def bind(self, server):
        """Install the policy's invoker on ``server`` as ``_call``."""


class NoRemediation(RemediationPolicy):
    """The paper's behaviour: trust TCP's retransmission schedule.

    ``bind`` is a no-op — the server's default ``_call`` already points
    at the plain, unwrapped invoker.
    """


class TimeoutRetry(RemediationPolicy):
    """Caller-side timeout + exponential-backoff retries + breaker.

    Every downstream call races against ``timeout`` simulated seconds.
    A timeout or failure is retried up to ``retries`` times, waiting
    ``backoff * 2**(attempt-1)`` between attempts.  A per-route
    :class:`CircuitBreaker` (enabled when ``breaker_threshold`` is not
    None) fails calls fast while a route looks dead.

    Beware the regime this creates: a timed-out request is usually
    still *queued* at the downstream, so every retry adds load exactly
    when the downstream is least able to absorb it — the paper's drops
    turn into a self-amplifying storm unless the breaker interrupts it.
    """

    kind = "retry"

    def __init__(self, timeout=1.0, retries=2, backoff=0.1,
                 breaker_threshold=5, breaker_reset=5.0):
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self.breakers = {}
        self._server = None

    def bind(self, server):
        self._server = server
        server._call = self.invoke

    def breaker_for(self, target):
        """The per-route breaker (created on first use), or None."""
        if self.breaker_threshold is None:
            return None
        breaker = self.breakers.get(target)
        if breaker is None:
            breaker = self.breakers[target] = CircuitBreaker(
                self._server.sim, self.breaker_threshold, self.breaker_reset
            )
        return breaker

    def invoke(self, step, request):
        """Replaces ``BaseServer._invoke``: the same call in flight, with
        a timeout per attempt, retries and the route's breaker."""
        return _RetriedCall(self, self._server, step, request)


class _RetriedCall(DownstreamCall):
    """A :class:`~repro.servers.base.DownstreamCall` under
    :class:`TimeoutRetry`.

    Each attempt is sent (paced like any call), then raced against the
    policy's timeout; a timed-out or failed attempt is retried after
    the backoff until the retry budget runs out or the route's breaker
    fails the call fast.  The pool connection is held across attempts.
    """

    __slots__ = ("policy", "breaker", "attempt")

    def __init__(self, policy, server, step, request):
        self.policy = policy
        self.breaker = None
        self.attempt = 0
        DownstreamCall.__init__(self, server, step, request)

    def _send(self):
        policy = self.policy
        server = self.server
        self.breaker = breaker = policy.breaker_for(self.step.target)
        if breaker is not None and not breaker.allow():
            label = self.route[2]
            server.stats.breaker_fast_fails += 1
            self.request.record(server.sim.now, "breaker_open", label)
            self._give_up(f"{label}: circuit open, failing fast")
            return
        DownstreamCall._send(self)
        server.sim.call_in(policy.timeout, self._timed_out, self.exchange)

    def _on_response(self, response):
        exchange = self.exchange
        if exchange is None or response is not exchange.response:
            return  # that attempt already timed out
        self.exchange = None
        if response.failed:
            # ConnectionTimeout: TCP gave up before our timer did
            self._attempt_failed(str(response.value))
            return
        reply = response.value
        if not reply.ok:
            self._attempt_failed(reply.error)
            return
        if self.breaker is not None:
            self.breaker.record_success()
        self._release()
        self.succeed(reply.value)

    def _timed_out(self, exchange):
        if exchange is not self.exchange:
            return  # that attempt already answered
        self.exchange = None
        self._attempt_failed(
            f"{self.route[2]}: no response within "
            f"{self.policy.timeout:g}s (attempt {self.attempt + 1})"
        )

    def _attempt_failed(self, error):
        policy = self.policy
        server = self.server
        server.stats.downstream_failures += 1
        if self.breaker is not None:
            self.breaker.record_failure()
        if self.attempt >= policy.retries:
            self._give_up(error)
            return
        self.attempt += 1
        server.stats.retries += 1
        self.request.record(server.sim.now, "retry", self.route[2])
        backoff = policy.backoff * (2 ** (self.attempt - 1))
        if backoff > 0:
            server.sim.call_in(backoff, self._transmit)
        else:
            self._transmit()

    def _give_up(self, error):
        self._release()
        self.fail(ServletError(error))


# ======================================================================
# declarative specs (one per server: NodeSpec.policy, tier_policy())
# ======================================================================
_ADMISSION_KINDS = ("backlog", "eager", "shed", "codel")
_CONCURRENCY_KINDS = ("threads", "eventloop")
_REMEDIATION_KINDS = ("none", "retry")


@dataclass(frozen=True)
class AdmissionSpec:
    """Declarative admission choice:
    ``backlog`` / ``eager`` / ``shed`` / ``codel``.

    ``depth`` is the lightweight-queue bound for eager/shed/codel
    admission (ignored for backlog admission); ``target`` and
    ``interval`` are the CoDel control-law parameters (seconds),
    consulted only by the ``codel`` kind.
    """

    kind: str = "backlog"
    depth: int = None
    target: float = 0.05
    interval: float = 0.1

    def __post_init__(self):
        if self.kind not in _ADMISSION_KINDS:
            raise ValueError(
                f"admission kind must be one of {_ADMISSION_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind != "backlog" and (self.depth is None or self.depth < 1):
            raise ValueError(
                f"{self.kind} admission needs a depth >= 1, got {self.depth}"
            )
        if self.kind == "codel" and (self.target <= 0 or self.interval <= 0):
            raise ValueError(
                "codel admission needs positive target and interval, got "
                f"target={self.target} interval={self.interval}"
            )


@dataclass(frozen=True)
class ConcurrencySpec:
    """Declarative concurrency choice: ``threads`` / ``eventloop``."""

    kind: str = "threads"
    threads: int = 150
    spawn_extra_process: bool = False
    spawn_after: float = 0.5
    max_processes: int = 2
    workers: int = 1
    pace_rate: float = None

    def __post_init__(self):
        if self.kind not in _CONCURRENCY_KINDS:
            raise ValueError(
                f"concurrency kind must be one of {_CONCURRENCY_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.pace_rate is not None and self.pace_rate <= 0:
            raise ValueError(
                f"pace_rate must be positive or None, got {self.pace_rate}"
            )


@dataclass(frozen=True)
class RemediationSpec:
    """Declarative remediation choice: ``none`` / ``retry``.

    ``breaker_threshold=None`` disables the circuit breaker (pure
    timeout+retry — the configuration that maximizes retry
    amplification).
    """

    kind: str = "none"
    timeout: float = 1.0
    retries: int = 2
    backoff: float = 0.1
    breaker_threshold: int = 5
    breaker_reset: float = 5.0

    def __post_init__(self):
        if self.kind not in _REMEDIATION_KINDS:
            raise ValueError(
                f"remediation kind must be one of {_REMEDIATION_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")


@dataclass(frozen=True)
class TierPolicy:
    """One tier's full policy triple, with preset constructors.

    The defaults compose the classic RPC server: kernel backlog, a
    150-thread pool and no remediation.
    """

    admission: AdmissionSpec = field(default_factory=AdmissionSpec)
    concurrency: ConcurrencySpec = field(default_factory=ConcurrencySpec)
    remediation: RemediationSpec = field(default_factory=RemediationSpec)

    def __post_init__(self):
        for name, spec in (("admission", AdmissionSpec),
                           ("concurrency", ConcurrencySpec),
                           ("remediation", RemediationSpec)):
            value = getattr(self, name)
            if not isinstance(value, spec):
                raise ValueError(
                    f"{name} must be an instance of {spec.__name__}, "
                    f"got {value!r}"
                )

    @classmethod
    def sync(cls, threads=150, spawn_extra_process=False, spawn_after=0.5,
             max_processes=2, remediation=None):
        """The classic RPC tier (SyncServer semantics)."""
        return cls(
            admission=AdmissionSpec("backlog"),
            concurrency=ConcurrencySpec(
                "threads", threads=threads,
                spawn_extra_process=spawn_extra_process,
                spawn_after=spawn_after, max_processes=max_processes,
            ),
            remediation=remediation or RemediationSpec("none"),
        )

    @classmethod
    def asynchronous(cls, lite_q_depth=65535, workers=1, pace_rate=None,
                     remediation=None):
        """The classic event-driven tier (AsyncServer semantics)."""
        return cls(
            admission=AdmissionSpec("eager", depth=lite_q_depth),
            concurrency=ConcurrencySpec(
                "eventloop", workers=workers, pace_rate=pace_rate,
            ),
            remediation=remediation or RemediationSpec("none"),
        )

    @classmethod
    def shedding(cls, depth, threads=150, remediation=None):
        """A bounded-LiteQ, load-shedding front for a thread pool."""
        return cls(
            admission=AdmissionSpec("shed", depth=depth),
            concurrency=ConcurrencySpec("threads", threads=threads),
            remediation=remediation or RemediationSpec("none"),
        )

    @classmethod
    def codel(cls, depth, threads=150, target=0.05, interval=0.1,
              remediation=None):
        """A delay-based (CoDel) AQM front for a thread pool."""
        return cls(
            admission=AdmissionSpec("codel", depth=depth, target=target,
                                    interval=interval),
            concurrency=ConcurrencySpec("threads", threads=threads),
            remediation=remediation or RemediationSpec("none"),
        )


def build_admission(spec):
    if spec.kind == "backlog":
        return KernelBacklogAdmission()
    if spec.kind == "eager":
        return EagerAdmission(spec.depth)
    if spec.kind == "codel":
        return CoDelAdmission(spec.depth, target=spec.target,
                              interval=spec.interval)
    return SheddingAdmission(spec.depth)


def build_concurrency(spec):
    if spec.kind == "threads":
        return ThreadPoolConcurrency(
            threads=spec.threads,
            spawn_extra_process=spec.spawn_extra_process,
            spawn_after=spec.spawn_after,
            max_processes=spec.max_processes,
        )
    return EventLoopConcurrency(workers=spec.workers,
                                pace_rate=spec.pace_rate)


def build_remediation(spec):
    if spec.kind == "none":
        return NoRemediation()
    return TimeoutRetry(
        timeout=spec.timeout,
        retries=spec.retries,
        backoff=spec.backoff,
        breaker_threshold=spec.breaker_threshold,
        breaker_reset=spec.breaker_reset,
    )
