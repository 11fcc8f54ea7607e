"""Replica groups: scale-out tiers behind a load balancer.

The paper studies one server per tier; at production scale each tier is
a *replica group*, and the tail-at-scale literature (Dean & Barroso;
Sriraman et al.) shows that a single stalled replica recreates the very
long response time modes the paper attributes to millibottlenecks — on
roughly 1/N of requests under naive balancing.  Whether that tail is
amplified or absorbed is a *policy* decision, so this module follows
the same composition style as :mod:`repro.servers.policies`:

:class:`LoadBalancer`
    Pluggable replica selection — round-robin, uniform random,
    least-outstanding, or power-of-two-choices.  Balancers see only the
    *caller-local* outstanding counts (each upstream server owns its
    group instance), matching how real client-side balancers work.
:class:`HedgingPolicy`
    Optional request hedging: when the primary replica has not answered
    within an adaptive p95-based deferral, duplicate the request to a
    second replica and take whichever response arrives first.  The
    losing duplicate is cancelled where possible (a connection-pool
    grant not yet issued) and otherwise accounted as wasted work.
:class:`ReplicaGroup`
    N downstream listeners + a balancer + optional hedging + optional
    per-replica connection pools, exposed to the servers through the
    same ``send(fabric, payload)`` surface as a plain
    :class:`~repro.net.tcp.Listener` route.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..sim.events import Event
from ..sim.resources import Resource

__all__ = [
    "BALANCERS",
    "HedgedCall",
    "HedgingPolicy",
    "HedgingSpec",
    "LeastOutstandingBalancer",
    "LoadBalancer",
    "PowerOfTwoChoicesBalancer",
    "RandomBalancer",
    "ReplicaGroup",
    "RoundRobinBalancer",
    "build_balancer",
]


# ----------------------------------------------------------------------
# load balancers
# ----------------------------------------------------------------------
class LoadBalancer:
    """Chooses which replica of a group receives the next request.

    ``pick(group)`` returns a replica *index*.  Stateful balancers keep
    their state here (round-robin cursor, RNG stream), while load-aware
    ones read ``group.outstanding`` — the caller-local count of calls
    in flight (or queued on the per-replica pool) per replica.
    """

    kind = "base"

    def __init__(self, rng=None):
        self.rng = rng

    def pick(self, group):
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.__class__.__name__}>"


class RoundRobinBalancer(LoadBalancer):
    """Strict rotation, blind to load — the stalled-replica worst case."""

    kind = "round_robin"

    def __init__(self, rng=None):
        super().__init__(rng)
        self._index = 0

    def pick(self, group):
        index = self._index
        self._index = (index + 1) % len(group.listeners)
        return index


class RandomBalancer(LoadBalancer):
    """Uniform random choice from the group's forked RNG stream."""

    kind = "random"

    def pick(self, group):
        return self.rng.randrange(len(group.listeners))


class LeastOutstandingBalancer(LoadBalancer):
    """Send to the replica with the fewest calls in flight.

    Ties break toward the lowest index, so the choice is a pure
    function of the outstanding counts (deterministic, no RNG draw).
    """

    kind = "least_outstanding"

    def pick(self, group):
        outstanding = group.outstanding
        best = 0
        for index in range(1, len(outstanding)):
            if outstanding[index] < outstanding[best]:
                best = index
        return best


class PowerOfTwoChoicesBalancer(LoadBalancer):
    """Sample two distinct replicas, send to the less loaded one.

    The classic Mitzenmacher result: two random choices get most of the
    benefit of global least-loaded while touching O(1) state.  Ties
    keep the first sample, so equal-load behaviour stays uniform.
    """

    kind = "power_of_two"

    def pick(self, group):
        n = len(group.listeners)
        if n == 1:
            return 0
        rng = self.rng
        first = rng.randrange(n)
        second = rng.randrange(n - 1)
        if second >= first:
            second += 1
        if group.outstanding[second] < group.outstanding[first]:
            return second
        return first


BALANCERS = {
    cls.kind: cls
    for cls in (
        RoundRobinBalancer,
        RandomBalancer,
        LeastOutstandingBalancer,
        PowerOfTwoChoicesBalancer,
    )
}


def build_balancer(kind, rng=None):
    """Instantiate a balancer by name (``BALANCERS`` keys)."""
    try:
        cls = BALANCERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown balancer {kind!r}; expected one of "
            f"{sorted(BALANCERS)}"
        ) from None
    return cls(rng)


# ----------------------------------------------------------------------
# hedging
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HedgingSpec:
    """Declarative hedging parameters.

    ``quantile`` sets the adaptive deferral: a duplicate is issued once
    the primary has been outstanding longer than that percentile of
    recently observed group latencies.  Until ``min_samples`` latencies
    have been seen the fixed ``initial_delay`` is used; ``min_delay``
    floors the adaptive value so a burst of fast responses cannot turn
    hedging into eager duplication of every request.
    """

    quantile: float = 95.0
    initial_delay: float = 0.050
    min_samples: int = 20
    window: int = 256
    min_delay: float = 0.002

    def __post_init__(self):
        if not 0.0 < self.quantile < 100.0:
            raise ValueError(f"quantile must be in (0, 100), got {self.quantile}")
        if self.initial_delay <= 0.0:
            raise ValueError(f"initial_delay must be > 0, got {self.initial_delay}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")
        if self.window < self.min_samples:
            raise ValueError(
                f"window ({self.window}) must be >= min_samples "
                f"({self.min_samples})"
            )
        if self.min_delay <= 0.0:
            raise ValueError(f"min_delay must be > 0, got {self.min_delay}")


class HedgingPolicy:
    """Adaptive hedge-deferral tracker over a bounded latency window.

    Observes group response latencies and answers "how long should a
    request wait before its duplicate is sent" — the spec quantile of
    the last ``window`` observations.  The quantile is cached and
    recomputed at most every ``REFRESH`` observations, so the per-send
    cost stays O(1).
    """

    REFRESH = 16

    def __init__(self, spec=None):
        self.spec = spec or HedgingSpec()
        self._samples = deque(maxlen=self.spec.window)
        self._cached = None
        self._stale = 0

    def observe(self, latency):
        self._samples.append(latency)
        self._stale += 1
        if self._stale >= self.REFRESH:
            self._cached = None
            self._stale = 0

    def delay(self):
        spec = self.spec
        if len(self._samples) < spec.min_samples:
            return spec.initial_delay
        if self._cached is None:
            # imported here: repro.core pulls in the topology builders,
            # which import the servers package this module lives in
            from ..core.tail import percentiles

            q = spec.quantile
            value = percentiles(list(self._samples), qs=(q,))[q]
            self._cached = value if value > spec.min_delay else spec.min_delay
        return self._cached

    def __repr__(self):
        return (
            f"<HedgingPolicy p{self.spec.quantile:g} "
            f"samples={len(self._samples)} delay={self.delay():.4f}>"
        )


# ----------------------------------------------------------------------
# the group and its composite call
# ----------------------------------------------------------------------
class _Leg:
    """One attempt of a (possibly hedged) group call."""

    __slots__ = ("index", "grant", "exchange", "done")

    def __init__(self, index):
        self.index = index
        #: pending pool grant, None once granted or unpooled
        self.grant = None
        self.exchange = None
        self.done = False


class HedgedCall:
    """Composite in-flight call: one or two legs, first response wins.

    Mirrors the :class:`~repro.net.tcp.Exchange` surface the servers
    and workload generators consume — ``.response`` (an
    :class:`~repro.sim.events.Event`) and ``.attempts`` — so a
    :class:`ReplicaGroup` route is a drop-in replacement for a single
    listener.  Both legs carry the *same* payload object, so drops and
    sheds from either leg land on the shared root trace and attribution
    sees exactly which replica's queue overflowed.
    """

    __slots__ = (
        "group",
        "fabric",
        "payload",
        "started_at",
        "response",
        "legs",
        "_hedge_pending",
        "_last_error",
    )

    def __init__(self, group, fabric, payload):
        self.group = group
        self.fabric = fabric
        self.payload = payload
        self.started_at = group.sim.now
        self.response = Event(group.sim, name="hedged-call")
        self.legs = []
        self._hedge_pending = False
        self._last_error = None

    @property
    def attempts(self):
        """Total transmissions across legs (incl. TCP retransmits)."""
        total = 0
        for leg in self.legs:
            if leg.exchange is not None:
                total += leg.exchange.attempts
        return total if total else 1

    @property
    def hedged(self):
        return len(self.legs) > 1

    # -- leg lifecycle -------------------------------------------------
    def _launch(self, index):
        group = self.group
        leg = _Leg(index)
        self.legs.append(leg)
        group.outstanding[index] += 1
        group.sent[index] += 1
        pool = group.pools[index] if group.pools is not None else None
        if pool is None:
            self._transmit(leg)
        else:
            grant = pool.acquire()
            if grant.triggered:
                self._transmit(leg)
            else:
                leg.grant = grant
                grant.add_callback(lambda _g, leg=leg: self._granted(leg))
        return leg

    def _granted(self, leg):
        leg.grant = None
        self._transmit(leg)

    def _transmit(self, leg):
        group = self.group
        if self.response.triggered:
            # the other leg settled while this one waited for a pool
            # connection and the cancel raced a same-instant release;
            # hand the connection straight back
            if group.pools is not None:
                group.pools[leg.index].release()
            leg.done = True
            group.outstanding[leg.index] -= 1
            group.hedges_cancelled += 1
            return
        leg.exchange = self.fabric.send(group.listeners[leg.index], self.payload)
        leg.exchange.response.add_callback(
            lambda event, leg=leg: self._leg_done(leg, event)
        )

    def _leg_done(self, leg, event):
        group = self.group
        leg.done = True
        group.outstanding[leg.index] -= 1
        if group.pools is not None:
            group.pools[leg.index].release()
        if self.response.triggered:
            # the slower leg of a hedged pair: wasted duplicate work
            group.hedge_losses += 1
            return
        if event.failed:
            self._last_error = event.value
            if self._settled_out():
                self.response.fail(self._last_error)
            return
        if self.hedged and leg is not self.legs[0]:
            group.hedge_wins += 1
        if group.hedging is not None:
            group.hedging.observe(group.sim.now - self.started_at)
        self._cancel_pending()
        self.response.succeed(event.value)

    # -- hedging -------------------------------------------------------
    def _maybe_hedge(self):
        self._hedge_pending = False
        group = self.group
        if self.response.triggered:
            return
        primary = self.legs[0]
        if primary.done and self._settled_out():
            # the lone leg already failed; surface that now rather than
            # duplicating a request its caller has given up on
            self.response.fail(self._last_error)
            return
        outstanding = group.outstanding
        others = [
            index
            for index in range(len(group.listeners))
            if index != primary.index
        ]
        target = min(others, key=lambda index: (outstanding[index], index))
        group.hedges_issued += 1
        self._launch(target)

    def _cancel_pending(self):
        """Withdraw legs still queued on a pool (the hedge lost before
        it ever got a connection)."""
        group = self.group
        for leg in self.legs:
            if leg.done or leg.grant is None:
                continue
            if group.pools[leg.index].cancel(leg.grant):
                leg.grant = None
                leg.done = True
                group.outstanding[leg.index] -= 1
                group.hedges_cancelled += 1

    def _settled_out(self):
        """True when no launched leg is pending and no hedge is due."""
        if self._hedge_pending:
            return False
        return all(leg.done for leg in self.legs)

    def __repr__(self):
        state = "done" if self.response.triggered else "pending"
        return (
            f"<HedgedCall {self.group.name} legs={len(self.legs)} {state}>"
        )


class ReplicaGroup:
    """N replica listeners behind a balancer, with optional hedging.

    Each *caller* owns its group instance: the outstanding counts, the
    balancer state, and the per-replica connection pools are all local
    to that caller, exactly like a client-side balancer library.  The
    group is used through the same route surface as a single listener:
    ``group.send(fabric, payload)`` returns an exchange-like
    :class:`HedgedCall` whose ``.response`` is the winning reply.

    Parameters
    ----------
    sim:
        The simulator (the group forks ``lb/<name>`` for its RNG).
    name:
        Group label, used for RNG derivation and pool names.
    listeners:
        The replica listeners, order defining replica indices.
    balancer:
        A :data:`BALANCERS` key or a ready :class:`LoadBalancer`.
    hedging:
        ``None`` (no hedging), a :class:`HedgingSpec`, or a ready
        :class:`HedgingPolicy`.
    pool_size:
        If given, one caller-side connection pool (a
        :class:`~repro.sim.resources.Resource`) of that size per
        *replica*, so a stalled replica can only exhaust its own
        connections.
    """

    def __init__(self, sim, name, listeners, balancer="round_robin",
                 hedging=None, pool_size=None):
        listeners = list(listeners)
        if not listeners:
            raise ValueError(f"{name}: a replica group needs >= 1 listener")
        self.sim = sim
        self.name = name
        self.listeners = listeners
        if isinstance(balancer, LoadBalancer):
            self.balancer = balancer
        else:
            self.balancer = build_balancer(balancer, sim.fork_rng(f"lb/{name}"))
        if hedging is None:
            self.hedging = None
        elif isinstance(hedging, HedgingPolicy):
            self.hedging = hedging
        elif isinstance(hedging, HedgingSpec):
            self.hedging = HedgingPolicy(hedging)
        else:
            raise ValueError(
                f"{name}: hedging must be a HedgingSpec, HedgingPolicy or "
                f"None, got {hedging!r}"
            )
        if self.hedging is not None and len(listeners) < 2:
            raise ValueError(f"{name}: hedging needs >= 2 replicas")
        if pool_size is not None:
            self.pools = [
                Resource(sim, pool_size, name=f"{name}->{listener.name}.pool")
                for listener in listeners
            ]
        else:
            self.pools = None
        #: caller-local in-flight (or pool-queued) calls per replica
        self.outstanding = [0] * len(listeners)
        #: total legs launched per replica
        self.sent = [0] * len(listeners)
        self.hedges_issued = 0
        self.hedge_wins = 0
        self.hedge_losses = 0
        self.hedges_cancelled = 0

    def send(self, fabric, payload):
        """Dispatch one request; returns the composite in-flight call."""
        call = HedgedCall(self, fabric, payload)
        call._launch(self.balancer.pick(self))
        if self.hedging is not None:
            call._hedge_pending = True
            self.sim.call_in(self.hedging.delay(), call._maybe_hedge)
        return call

    def __len__(self):
        return len(self.listeners)

    def stats(self):
        """Cumulative per-group counters for reports and monitors."""
        return {
            "sent": list(self.sent),
            "outstanding": list(self.outstanding),
            "hedges_issued": self.hedges_issued,
            "hedge_wins": self.hedge_wins,
            "hedge_losses": self.hedge_losses,
            "hedges_cancelled": self.hedges_cancelled,
        }

    def __repr__(self):
        names = [listener.name for listener in self.listeners]
        return (
            f"<ReplicaGroup {self.name} {names} "
            f"balancer={self.balancer.kind}"
            f"{' hedged' if self.hedging else ''}>"
        )
