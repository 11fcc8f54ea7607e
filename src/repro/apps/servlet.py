"""The servlet programming model (the paper's Fig 14).

A *servlet* is a generator function ``fn(ctx, request)`` that yields
instructions:

- :class:`Compute` — burn CPU on the server's VM,
- :class:`Call` — a request to a downstream tier ("app", "db", ...),
  whose yielded value is the downstream response payload,
- :class:`Gather` — several Calls in parallel, resumed at a quorum,
- :class:`CacheGet`, :class:`CachePut`, :class:`CacheAbort` — the
  server's attached LRU cache, with single-flight miss coalescing,
- :class:`StorageRead`, :class:`StorageWrite` — the server's attached
  write-back store,

and whose ``return`` value becomes the response payload sent upstream.

The same servlet body runs on a synchronous server (a thread blocks at
each ``Call``, exactly Fig 14a) and on an asynchronous server (the
``Call`` suspends a continuation that resumes when the response event
fires, exactly the event-handler chain of Fig 14b).  That is precisely
Schneider's transformation the paper applies to RUBBoS: the control flow
is written once, the *blocking semantics* are supplied by the server.
Both servers interpret the instructions through one handler table,
:data:`repro.servers.base.INSTRUCTION_HANDLERS`.

For completeness — and because the paper prints both versions —
:func:`callback_form` converts a servlet into an explicit
callback/event-handler chain, which :mod:`examples.servlet_transformation`
demonstrates side by side.
"""

from __future__ import annotations

import itertools

__all__ = [
    "CacheAbort",
    "CacheGet",
    "CachePut",
    "Call",
    "Compute",
    "Gather",
    "Request",
    "Response",
    "ServletContext",
    "ServletError",
    "StorageRead",
    "StorageWrite",
    "callback_form",
]

_INF = float("inf")


class ServletError(Exception):
    """A downstream call failed (dropped beyond retries, or error reply).

    Raised inside the servlet generator at the ``yield Call`` that
    failed; an uncaught ServletError makes the server send an error
    response upstream, cascading the failure towards the client.
    """


class Compute:
    """Burn ``work`` seconds of CPU on the executing server's VM."""

    __slots__ = ("work",)

    def __init__(self, work):
        # False for negative, infinite and NaN work alike
        if not 0.0 <= work < _INF:
            raise ValueError(
                f"compute work must be finite and non-negative, got {work!r}"
            )
        self.work = work

    def __repr__(self):
        return f"Compute({self.work * 1000:.3f}ms)"


class Call:
    """Invoke a downstream tier and wait for (or be resumed with) its reply.

    Parameters
    ----------
    target:
        Downstream tier name as wired in the topology (e.g. ``"app"``,
        ``"db"``).
    operation:
        Operation name, used by the downstream handler and for traces.
    work_hint:
        Optional override of the downstream's nominal service time for
        this call (seconds); the downstream servlet may consult it.
    """

    __slots__ = ("target", "operation", "work_hint")

    def __init__(self, target, operation, work_hint=None):
        self.target = target
        self.operation = operation
        self.work_hint = work_hint

    def __repr__(self):
        return f"Call({self.target}:{self.operation})"


class Gather:
    """Issue several downstream :class:`Call`\\ s in parallel and resume
    once a quorum of them has answered.

    Parameters
    ----------
    calls:
        The parallel legs, each a :class:`Call`.  Every leg is
        transmitted immediately (subject to its route's connection-pool
        limit); the servlet suspends at the ``yield`` until the gather
        settles.
    quorum:
        How many successful legs satisfy the fan-in barrier.  ``None``
        (the default) means all-of; ``K < len(calls)`` resumes on the
        first K responses and *cancels* the losing legs — queued pool
        grants are withdrawn, in-flight responses are ignored (counted
        as wasted work, like hedge losses).

    The resumed value is a list of length ``len(calls)`` holding each
    leg's response payload in call order, with ``None`` in the slots of
    legs that were cancelled or ignored after the quorum was met.  If
    more legs fail than the quorum can tolerate the gather raises
    :class:`ServletError` inside the servlet.
    """

    __slots__ = ("calls", "quorum")

    def __init__(self, calls, quorum=None):
        calls = tuple(calls)
        if not calls:
            raise ValueError("Gather needs at least one Call")
        for call in calls:
            if not isinstance(call, Call):
                raise TypeError(f"Gather legs must be Calls, got {call!r}")
        if quorum is not None:
            if quorum < 1:
                raise ValueError(f"Gather quorum must be >= 1, got {quorum}")
            if quorum > len(calls):
                raise ValueError(
                    f"Gather quorum {quorum} exceeds leg count {len(calls)}"
                )
        self.calls = calls
        self.quorum = quorum

    def __repr__(self):
        k = self.quorum if self.quorum is not None else len(self.calls)
        return f"Gather({len(self.calls)} legs, quorum={k})"


class CacheGet:
    """Look ``key`` up in the executing server's attached LRU cache.

    The servlet resumes with a ``(hit, value)`` pair.  ``route`` labels
    the lookup in the cache's per-route hit-ratio statistics (defaults
    to the request's operation name at dispatch time).

    With ``coalesce=True`` the lookup is *single-flight*: the first
    servlet to miss on a key becomes that key's leader and resumes with
    ``(False, None)`` — it is expected to fetch the value and publish
    it with :class:`CachePut` (or give up with :class:`CacheAbort`).
    Every concurrent miss on the same key parks until the leader
    settles, then resumes with ``(True, value)`` on a put or
    ``(False, None)`` on an abort — the thundering herd collapses into
    one backing-tier fetch.

    Yielding a CacheGet on a server with no attached cache raises
    :class:`ServletError` inside the servlet.
    """

    __slots__ = ("key", "route", "coalesce")

    def __init__(self, key, route=None, coalesce=False):
        self.key = key
        self.route = route
        self.coalesce = bool(coalesce)

    def __repr__(self):
        flight = ", single-flight" if self.coalesce else ""
        return f"CacheGet({self.key!r}{flight})"


class CachePut:
    """Store ``value`` under ``key`` in the attached LRU cache.

    ``ttl`` (seconds) overrides the cache's default time-to-live; an
    entry is valid strictly *before* ``now + ttl`` and expired at and
    after it.  Publishing also wakes any single-flight followers parked
    on the key.  Resumes with ``None`` immediately (the cache is
    in-process; there is no I/O to wait for).
    """

    __slots__ = ("key", "value", "ttl")

    def __init__(self, key, value, ttl=None):
        if ttl is not None and ttl <= 0:
            raise ValueError(f"CachePut ttl must be positive, got {ttl}")
        self.key = key
        self.value = value
        self.ttl = ttl

    def __repr__(self):
        return f"CachePut({self.key!r})"


class CacheAbort:
    """Release single-flight leadership of ``key`` without publishing.

    The miss leader yields this when its backing fetch failed, before
    re-raising: parked followers resume with ``(False, None)`` and the
    next miss elects a new leader, so one failed fetch does not wedge
    the key forever.  A no-op when nobody is in flight on the key.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __repr__(self):
        return f"CacheAbort({self.key!r})"


class StorageRead:
    """Read ``size`` units through the server's attached storage backend.

    The read joins the device's single command queue *behind* every
    previously admitted command — including buffered write-backs, which
    is exactly the bufferbloat coupling: a deep write buffer delays
    reads even though write callers saw instant acks.  Resumes with the
    device's completion value once the read is served.
    """

    __slots__ = ("size",)

    def __init__(self, size=1.0):
        if size <= 0:
            raise ValueError(f"StorageRead size must be positive, got {size}")
        self.size = size

    def __repr__(self):
        return f"StorageRead({self.size:g})"


class StorageWrite:
    """Write ``size`` units through the attached write-back store.

    The write is acknowledged when the buffer *admits* it — normally
    immediately, the write-back fast path — while the device drains the
    buffer in the background.  When the buffer is bounded and full, the
    servlet blocks until a slot frees (backpressure).
    """

    __slots__ = ("size",)

    def __init__(self, size=1.0):
        if size <= 0:
            raise ValueError(f"StorageWrite size must be positive, got {size}")
        self.size = size

    def __repr__(self):
        return f"StorageWrite({self.size:g})"


_request_ids = itertools.count(1)


class Request:
    """A request travelling through the system.

    The client creates a *root* request; each :class:`Call` spawns a
    child request whose :meth:`record` appends to the root's trace, so
    analysis can attribute every packet drop anywhere in the tree to
    one client request.

    A request holds no reference to itself, directly or through its
    children: a child reaches the root's trace through the trace list,
    not the root object, so a finished request tree is freed by
    reference counting without waiting for the cyclic collector.
    """

    __slots__ = (
        "id",
        "kind",
        "operation",
        "work_hint",
        "created_at",
        "parent",
        "trace",
        "_root_trace",
    )

    def __init__(self, kind, operation, created_at, work_hint=None, parent=None):
        self.id = next(_request_ids)
        self.kind = kind
        self.operation = operation
        self.work_hint = work_hint
        self.created_at = created_at
        self.parent = parent
        #: (time, event, detail) tuples appended by servers and fabric;
        #: only a root request's list fills up.
        self.trace = []
        self._root_trace = (parent._root_trace if parent is not None
                            else self.trace)

    @property
    def root(self):
        """The client's request at the top of this request's tree."""
        request = self
        while request.parent is not None:
            request = request.parent
        return request

    def child(self, operation, created_at, work_hint=None):
        """Create the sub-request for a downstream :class:`Call`."""
        return Request(
            self.kind, operation, created_at, work_hint=work_hint, parent=self
        )

    def record(self, time, event, detail=None):
        self._root_trace.append((time, event, detail))

    def __repr__(self):
        return f"<Request #{self.id} {self.kind}:{self.operation}>"


class Response:
    """Envelope for a tier's reply: payload on success, error message
    (and the originating :class:`ServletError`) on failure."""

    __slots__ = ("ok", "value", "error")

    def __init__(self, ok, value=None, error=None):
        self.ok = ok
        self.value = value
        self.error = error

    @classmethod
    def success(cls, value=None):
        return cls(True, value=value)

    @classmethod
    def failure(cls, error):
        return cls(False, error=error)

    def __repr__(self):
        if self.ok:
            return f"Response.ok({self.value!r})"
        return f"Response.err({self.error!r})"


class ServletContext:
    """What a servlet body may inspect: the executing server's name,
    the simulated clock, and a deterministic per-server RNG stream."""

    __slots__ = ("server_name", "sim", "rng")

    def __init__(self, server_name, sim, rng):
        self.server_name = server_name
        self.sim = sim
        self.rng = rng

    @property
    def now(self):
        return self.sim.now


def callback_form(servlet):
    """Mechanically convert a servlet into an event-handler chain.

    Returns a function ``start(ctx, request, engine, finish)`` where
    ``engine`` supplies ``compute(work, cont)`` and
    ``invoke(call, request, cont)`` primitives and ``finish(result)``
    receives the servlet's return value.  Each ``yield`` becomes one
    callback — the transformation of Fig 14(b), applied generically
    (Schneider's rules handle arbitrary control flow because the
    generator *is* the reified continuation).
    """

    def start(ctx, request, engine, finish, on_error=None):
        gen = servlet(ctx, request)

        def step(send_value=None, throw=None):
            try:
                if throw is not None:
                    item = gen.throw(throw)
                else:
                    item = gen.send(send_value)
            except StopIteration as stop:
                finish(stop.value)
                return
            except ServletError as exc:
                if on_error is not None:
                    on_error(exc)
                    return
                raise
            if isinstance(item, Compute):
                engine.compute(item.work, lambda: step(None))
            elif isinstance(item, Call):
                engine.invoke(
                    item,
                    request,
                    lambda value: step(value),
                    lambda exc: step(throw=exc),
                )
            else:
                raise TypeError(f"servlet yielded {item!r}")

        step()

    return start
