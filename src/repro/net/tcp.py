"""TCP-level mechanisms that create VLRT requests.

The paper's dropped packets are SYN/request packets arriving at a
listening socket whose *accept queue* (the kernel "backlog", 128 entries
on the authors' RHEL 6.3 / kernel 2.6.32) is full because every server
thread is busy.  The dropped packet is retransmitted by the sender's TCP
roughly 3 seconds later, and again at ~6 s and ~9 s — producing the
multi-modal response-time clusters of Fig 1.

Model
-----
- :class:`Listener` — a listening socket with a bounded accept queue.
  Synchronous servers ``accept()`` from it when a thread frees up;
  asynchronous servers register an *eager acceptor* that admits packets
  into their lightweight queue the instant they arrive.
- :class:`Exchange` — one logical request/response over a connection:
  carries the payload, the first-send timestamp, the retransmission
  schedule, the per-attempt drop record, and the response event the
  caller waits on.
- :class:`NetworkFabric` — delivers packets after a propagation latency,
  applies the drop/retransmit policy and keeps global drop statistics.

Simplifications (documented in DESIGN.md): response packets are never
dropped (the paper's drops are request-side), and the retransmission
timer is a fixed ``rto`` per attempt so attempt *k* arrives ``k * rto``
after the original — matching the observed 3/6/9-second clusters.
"""

from __future__ import annotations

from ..sim.events import Event
from ..sim.resources import Store

__all__ = ["SHED", "ConnectionTimeout", "Exchange", "Listener",
           "NetworkFabric"]


class _Shed:
    """Sentinel an acceptor returns for an *actively rejected* packet.

    Unlike a drop (kernel backlog full, silent, retransmitted ~3 s
    later) a shed packet was accepted at the TCP level and answered
    immediately with an application-level refusal (a 503), so the
    fabric must neither retransmit it nor count it as dropped.  Truthy
    on purpose: legacy ``if listener.deliver(...)`` callers keep
    treating it as "not dropped".
    """

    __slots__ = ()

    def __bool__(self):
        return True

    def __repr__(self):
        return "SHED"


#: returned by :meth:`Listener.deliver` (and load-shedding acceptors)
#: when the packet was refused with an immediate error reply.
SHED = _Shed()


class ConnectionTimeout(Exception):
    """All retransmission attempts of an exchange were dropped."""

    def __init__(self, exchange):
        super().__init__(
            f"request to {exchange.listener.name} dropped "
            f"{len(exchange.drops)} times; giving up"
        )
        self.exchange = exchange


class Exchange:
    """One request/response exchange between a caller and a listener.

    Attributes
    ----------
    payload:
        Opaque request object handed to the server.
    response:
        Event the caller waits on; succeeds with the server's reply or
        fails with :class:`ConnectionTimeout`.
    first_sent_at / attempts / drops:
        Retransmission bookkeeping.  ``drops`` is a list of
        ``(time, listener_name)`` tuples — one per dropped attempt.
    """

    __slots__ = (
        "fabric",
        "listener",
        "payload",
        "response",
        "first_sent_at",
        "attempts",
        "drops",
        "delivered_at",
        "replied_at",
    )

    def __init__(self, fabric, listener, payload):
        self.fabric = fabric
        self.listener = listener
        self.payload = payload
        # the listener's precomputed label: one f-string per exchange
        # otherwise
        self.response = Event(fabric.sim, name=listener._response_name)
        self.first_sent_at = None
        self.attempts = 0
        self.drops = []
        self.delivered_at = None
        self.replied_at = None

    @property
    def was_dropped(self):
        return bool(self.drops)

    def reply(self, value):
        """Send the server's response back to the caller.

        Responses traverse the network (latency applies) but are never
        dropped in this model.
        """
        if self.replied_at is not None:
            raise RuntimeError(f"exchange to {self.listener.name} replied twice")
        fabric = self.fabric
        sim = fabric.sim
        self.replied_at = sim.now
        sim.call_in(fabric.latency, self.response.succeed, value)

    def __repr__(self):
        return (
            f"<Exchange to={self.listener.name} attempts={self.attempts} "
            f"drops={len(self.drops)}>"
        )


class Listener:
    """A listening socket: bounded accept queue plus optional acceptor.

    Synchronous servers take packets with :meth:`accept` (an event that
    succeeds with the next exchange).  Asynchronous servers set
    :attr:`acceptor` to a callable ``fn(exchange) -> bool``; a True
    return means the exchange was admitted without touching the accept
    queue.  If the acceptor declines (lightweight queue full) the packet
    falls back to the accept queue, and is dropped only when that is
    also full.
    """

    def __init__(self, sim, name, backlog=128):
        if backlog < 0:
            raise ValueError(f"backlog must be >= 0, got {backlog}")
        self.sim = sim
        self.name = name
        self.backlog = backlog
        self._response_name = f"rsp:{name}"
        self.accept_queue = Store(sim, capacity=backlog, name=f"{name}.backlog")
        self.acceptor = None
        #: optional callable invoked after every packet delivery/drop —
        #: servers hook their queue-depth peak tracking here so arrival
        #: instants (where the bound is actually hit) are observed.
        self.observer = None
        #: total packets dropped at this listener (all attempts counted).
        self.drops = 0
        #: (time, exchange) for every dropped packet, for micro-analysis.
        self.drop_log = []
        #: packets refused with an immediate 503 by a load-shedding
        #: acceptor (see :data:`SHED`) — the bounded-LiteQ alternative
        #: to silently dropping into the retransmission schedule.
        self.sheds = 0
        #: (time, exchange) per shed packet, mirroring ``drop_log``.
        self.shed_log = []
        self.delivered = 0

    @property
    def backlog_length(self):
        """Packets currently waiting in the accept queue."""
        return len(self.accept_queue)

    def accept(self):
        """Event succeeding with the next queued exchange (FIFO)."""
        return self.accept_queue.get()

    def try_accept(self):
        """Pop a queued exchange immediately, or None."""
        return self.accept_queue.try_get()

    def send(self, fabric, payload):
        """Send ``payload`` here over ``fabric``; returns the
        :class:`Exchange`.  A route or client entry is a listener or a
        :class:`~repro.servers.replica.ReplicaGroup`, and both answer
        this call."""
        return fabric.send(self, payload)

    def deliver(self, exchange):
        """A packet arrives; returns True if admitted, False if dropped,
        or :data:`SHED` if the acceptor refused it with an error reply."""
        try:
            if self.acceptor is not None:
                verdict = self.acceptor(exchange)
                if verdict is SHED:
                    self.sheds += 1
                    self.shed_log.append((self.sim.now, exchange))
                    return SHED
                if verdict:
                    self.delivered += 1
                    return True
            if self.accept_queue.put(exchange):
                self.delivered += 1
                return True
            self.drops += 1
            self.drop_log.append((self.sim.now, exchange))
            return False
        finally:
            if self.observer is not None:
                self.observer()

    def __repr__(self):
        return (
            f"<Listener {self.name} backlog={self.backlog_length}/"
            f"{self.backlog} drops={self.drops}>"
        )


class NetworkFabric:
    """Delivers packets between tiers with latency, drops and retries.

    Parameters
    ----------
    latency:
        One-way propagation + stack delay in seconds (LAN-scale default).
    rto:
        Retransmission timeout: attempt ``k`` (1-based) of a dropped
        packet leaves ``k * rto`` after the first attempt — 3/6/9 s
        with the RHEL-6-era default of 3 s, matching the paper's
        observed clusters.
    max_retransmits:
        Retransmissions before the caller sees :class:`ConnectionTimeout`.
    """

    def __init__(self, sim, latency=0.0002, rto=3.0, max_retransmits=3):
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if rto <= 0:
            raise ValueError(f"rto must be > 0, got {rto}")
        if max_retransmits < 0:
            raise ValueError(f"max_retransmits must be >= 0, got {max_retransmits}")
        self.sim = sim
        self.latency = latency
        self.rto = rto
        self.max_retransmits = max_retransmits
        # instrumentation bus, captured once; None disables every emit
        # site at the cost of one attribute load + identity check
        self._bus = getattr(sim, "bus", None)
        #: global counters for quick experiment summaries
        self.packets_sent = 0
        self.packets_dropped = 0
        self.packets_shed = 0
        self.requests_timed_out = 0

    def listener(self, name, backlog=128):
        """Create a listening socket attached to this fabric."""
        return Listener(self.sim, name, backlog=backlog)

    def send(self, listener, payload):
        """Send a request to ``listener``; returns the :class:`Exchange`.

        The caller waits on ``exchange.response``.
        """
        exchange = Exchange(self, listener, payload)
        exchange.first_sent_at = self.sim.now
        self._transmit(exchange)
        return exchange

    # ------------------------------------------------------------------
    def _transmit(self, exchange):
        exchange.attempts += 1
        self.packets_sent += 1
        self.sim.call_in(self.latency, self._arrive, exchange)

    def _arrive(self, exchange):
        bus = self._bus
        verdict = exchange.listener.deliver(exchange)
        if verdict is SHED:
            # refused with an immediate error reply: no retransmission,
            # but record the refusal on the root trace (like drops) so
            # attribution can walk the causal chain for shed requests
            self.packets_shed += 1
            if bus is not None:
                bus.emit("net.shed", exchange.listener.name,
                         exchange.attempts)
            record = getattr(exchange.payload, "record", None)
            if record is not None:
                record(self.sim.now, "shed", exchange.listener.name)
            return
        if verdict:
            exchange.delivered_at = self.sim.now
            if bus is not None:
                bus.emit("net.deliver", exchange.listener.name,
                         exchange.attempts)
            return
        self.packets_dropped += 1
        exchange.drops.append((self.sim.now, exchange.listener.name))
        if bus is not None:
            bus.emit("net.drop", exchange.listener.name, exchange.attempts)
        record = getattr(exchange.payload, "record", None)
        if record is not None:
            # propagate to the root request's trace so the client can
            # attribute drops anywhere in the call tree
            record(self.sim.now, "drop", exchange.listener.name)
        if exchange.attempts > self.max_retransmits:
            self.requests_timed_out += 1
            if bus is not None:
                bus.emit("net.timeout", exchange.listener.name,
                         exchange.attempts)
            exchange.response.fail(ConnectionTimeout(exchange))
            return
        # attempt k+1 leaves k * rto after the first send
        resend_at = exchange.first_sent_at + exchange.attempts * self.rto
        delay = max(0.0, resend_at - self.sim.now)
        if bus is not None:
            bus.emit("net.retransmit", exchange.listener.name,
                     exchange.attempts)
        self.sim.call_in(delay, self._transmit, exchange)

    def __repr__(self):
        return (
            f"<NetworkFabric sent={self.packets_sent} "
            f"dropped={self.packets_dropped} timeouts={self.requests_timed_out}>"
        )
