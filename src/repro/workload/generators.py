"""Client workload generators.

- :class:`ClosedLoopPopulation` — the RUBBoS client model: N emulated
  browsers, each thinking for an exponential time (mean ~7 s) and then
  issuing one interaction; WL 7000 therefore produces the paper's
  ~990 req/s (Fig 1b).
- :class:`OpenLoopPoisson` — open arrivals at a fixed rate, for
  controlled utilization sweeps.
- :class:`ScriptedBurst` — the paper's modified SysBursty (§V-B):
  "a batch of 400 ViewStory requests arriving every 15 seconds",
  giving reproducible millibottleneck timing.

Every generator records outcomes into a shared
:class:`~repro.metrics.trace.RequestLog`, including requests whose
packets were dropped beyond the retransmission limit.
"""

from __future__ import annotations

from ..apps.servlet import Request
from ..metrics.trace import log_request
from ..net.tcp import ConnectionTimeout

__all__ = ["ClosedLoopPopulation", "MmppOpenLoop", "OpenLoopPoisson",
           "ScriptedBurst"]


class _GeneratorBase:
    """Send-one-request machinery shared by all generators.

    ``entry`` is where requests go: the front tier's
    :class:`~repro.net.tcp.Listener` or a
    :class:`~repro.servers.replica.ReplicaGroup` over its replicas.

    ``sampler`` decides which requests keep their per-request event
    trace (for :mod:`repro.metrics.spans`).  ``None`` (the default)
    keeps a trace exactly when the request failed or took longer than
    :data:`~repro.metrics.trace.VLRT_THRESHOLD` — the ones worth a
    micro-level post-mortem.  A
    :class:`~repro.workload.sampling.TraceSampler` applies budgeted
    head sampling plus always-keep anomalies instead (the
    streaming-scale policy).
    """

    def __init__(self, sim, fabric, entry, app, log, sampler=None):
        self.sim = sim
        self.fabric = fabric
        self.entry = entry
        self.app = app
        self.log = log
        self.sampler = sampler
        self.issued = 0

    def _perform(self, spec):
        """Generator: issue one interaction, wait, record the outcome."""
        request = Request(spec.name, spec.name, self.sim.now)
        self.issued += 1
        exchange = self.entry.send(self.fabric, request)
        failed = False
        error = None
        try:
            response = yield exchange.response
            if not response.ok:
                failed = True
                error = response.error
        except ConnectionTimeout as exc:
            failed = True
            error = str(exc)
        log_request(self.log, request, spec.name, self.sim.now,
                    exchange.attempts, failed, error, self.sampler)


class ClosedLoopPopulation(_GeneratorBase):
    """N closed-loop clients with think times (the RUBBoS workload).

    Parameters
    ----------
    clients:
        Population size (the paper's "WL 7000" = 7000 clients).
    think_mean:
        Mean exponential think time in seconds (≈7 s reproduces the
        paper's workload-to-throughput mapping).
    """

    def __init__(self, sim, fabric, entry, app, log, clients,
                 think_mean=7.0, rng_label="clients",
                 sampler=None):
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if think_mean <= 0:
            raise ValueError(f"think_mean must be positive, got {think_mean}")
        super().__init__(sim, fabric, entry, app, log, sampler=sampler)
        self.clients = clients
        self.think_mean = think_mean
        self.rng = sim.fork_rng(rng_label)
        self._started = False

    def start(self):
        if self._started:
            return self
        self._started = True
        for _ in range(self.clients):
            self.sim.process(self._client())
        return self

    def _client(self):
        rng = self.rng
        # Every client begins mid-think.  Because think times are
        # exponential (memoryless), an exponential initial delay puts the
        # population directly into its stationary state: the arrival rate
        # is ~N/(Z+R) from t=0 with no ramp-up overshoot.  (A uniform
        # stagger looks natural but double-counts with returning clients
        # and transiently drives the arrival rate ~50 % too high.)
        yield rng.expovariate(1.0 / self.think_mean)
        while True:
            spec = self.app.sample(rng)
            yield from self._perform(spec)
            yield rng.expovariate(1.0 / self.think_mean)


class OpenLoopPoisson(_GeneratorBase):
    """Open-loop Poisson arrivals at ``rate`` requests/second."""

    def __init__(self, sim, fabric, entry, app, log, rate,
                 rng_label="open-loop", sampler=None):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        super().__init__(sim, fabric, entry, app, log, sampler=sampler)
        self.rate = rate
        self.rng = sim.fork_rng(rng_label)
        self._started = False

    def start(self):
        if self._started:
            return self
        self._started = True
        self.sim.process(self._arrivals())
        return self

    def _arrivals(self):
        while True:
            yield self.rng.expovariate(self.rate)
            spec = self.app.sample(self.rng)
            self.sim.process(self._perform(spec))


class MmppOpenLoop(_GeneratorBase):
    """Markov-modulated Poisson arrivals: the open-loop form of the
    burst-index workload (Mi et al., ICAC'09).

    The process alternates between a *normal* state (rate
    ``normal_rate``) and a *burst* state (rate ``burst_rate``), with
    exponential dwell times.  Unlike think-time modulation of a closed
    population — which reacts over a full think cycle — the arrival
    rate switches instantaneously, which is what lets a half-second
    burst episode saturate a server.
    """

    def __init__(self, sim, fabric, entry, app, log, normal_rate,
                 burst_rate, burst_duration=0.5, normal_duration=14.0,
                 rng_label="mmpp", sampler=None):
        if normal_rate < 0 or burst_rate <= 0:
            raise ValueError("rates must be positive (normal may be 0)")
        if burst_rate <= normal_rate:
            raise ValueError("burst_rate must exceed normal_rate")
        if burst_duration <= 0 or normal_duration <= 0:
            raise ValueError("state durations must be positive")
        super().__init__(sim, fabric, entry, app, log, sampler=sampler)
        self.normal_rate = normal_rate
        self.burst_rate = burst_rate
        self.burst_duration = burst_duration
        self.normal_duration = normal_duration
        self.rng = sim.fork_rng(rng_label)
        self.in_burst = False
        #: (time, state) transitions for analysis/tests.
        self.transitions = []
        self._state_changed = None
        self._started = False

    def start(self):
        if self._started:
            return self
        self._started = True
        self._state_changed = self.sim.event()
        self.sim.process(self._state_machine())
        self.sim.process(self._arrivals())
        return self

    def _flip(self, in_burst, label):
        self.in_burst = in_burst
        self.transitions.append((self.sim.now, label))
        changed, self._state_changed = self._state_changed, self.sim.event()
        changed.succeed(label)

    def _state_machine(self):
        while True:
            yield self.rng.expovariate(1.0 / self.normal_duration)
            self._flip(True, "burst")
            yield self.rng.expovariate(1.0 / self.burst_duration)
            self._flip(False, "normal")

    def _arrivals(self):
        while True:
            rate = self.burst_rate if self.in_burst else self.normal_rate
            if rate <= 0:
                # idle until the state flips
                yield self._state_changed
                continue
            gap = self.sim.timeout(self.rng.expovariate(rate))
            fired = yield self.sim.any_of([gap, self._state_changed])
            if gap not in fired:
                # rate changed mid-gap; memorylessness makes a redraw at
                # the new rate exactly equivalent to the remaining wait
                continue
            spec = self.app.sample(self.rng)
            self.sim.process(self._perform(spec))


class ScriptedBurst(_GeneratorBase):
    """Deterministic request batches at scripted times (§V-B).

    Sends ``batch_size`` requests of interaction ``operation``
    simultaneously at each time in ``times`` — the paper's controlled
    replacement for SysBursty ("a batch of 400 ViewStory requests
    arriving every 15 seconds").
    """

    def __init__(self, sim, fabric, entry, app, log, times, batch_size,
                 operation="ViewStory", sampler=None):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        super().__init__(sim, fabric, entry, app, log, sampler=sampler)
        self.times = sorted(times)
        self.batch_size = batch_size
        self.operation = operation
        self._started = False

    @classmethod
    def periodic(cls, sim, fabric, entry, app, log, period, until,
                 batch_size, operation="ViewStory", offset=None,
                 sampler=None):
        """Bursts every ``period`` seconds until ``until``."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        first = offset if offset is not None else period
        times = []
        t = first
        while t < until:
            times.append(t)
            t += period
        return cls(sim, fabric, entry, app, log, times, batch_size,
                   operation=operation, sampler=sampler)

    def start(self):
        if self._started:
            return self
        self._started = True
        spec = self.app.by_name[self.operation]
        for when in self.times:
            self.sim.call_at(when, self._fire_batch, spec)
        return self

    def _fire_batch(self, spec):
        for _ in range(self.batch_size):
            self.sim.process(self._perform(spec))
