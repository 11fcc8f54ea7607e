"""Array-backed open-loop arrival generation for million-request runs.

:class:`~repro.workload.generators.OpenLoopPoisson` draws one
inter-arrival gap per request from a Python ``random.Random`` — fine at
10^4 requests, dominant overhead at 10^6+.  This module generates
arrival *times* as NumPy arrays in batches and feeds them to a single
scheduling process, which is what the ROADMAP's million-client runs use
together with ``RequestLog(streaming=True)``.

Determinism contract
--------------------
``arrival_times(...)`` is a pure function of
``(distribution, rate, seed, n, distribution params)`` — the
``batch_size`` is an implementation detail that does **not** change a
single byte of the output:

- gaps are drawn from one ``numpy.random.Generator`` (PCG64) whose
  bit-stream is consumed sequentially, so chunked draws equal one big
  draw;
- arrival times are the running sum of gaps, computed per batch as
  ``np.cumsum(np.concatenate(([carry], gaps)))[1:]`` — every partial
  sum is the same left-to-right fold regardless of where batch
  boundaries fall, so float rounding is batch-invariant too.

Distributions (all normalized to mean gap ``1/rate``)
-----------------------------------------------------
``poisson``
    exponential gaps — the classic open-loop M/·/· arrival stream;
``pareto``
    Lomax(shape) gaps scaled by ``(shape-1)/rate`` (mean of Lomax(a) is
    ``1/(a-1)``); heavy-tailed with tail index ``shape`` — the bursty
    arrival model of the tail-at-scale literature;
``lognormal``
    ``mu = ln(1/rate) - sigma^2/2`` so the mean is exactly ``1/rate``;
    moderate burstiness with log-scale dispersion ``sigma``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .generators import _GeneratorBase

__all__ = ["ArrayOpenLoop", "DISTRIBUTIONS", "arrival_times",
           "numpy_seed_for"]

#: supported inter-arrival distributions
DISTRIBUTIONS = ("poisson", "pareto", "lognormal")

#: default gap-array batch size (requests per RNG draw)
BATCH_SIZE = 8192


def numpy_seed_for(seed, label):
    """Stable NumPy seed derived from a simulator seed and a stream
    label — the array-generator counterpart of ``Simulator.fork_rng``
    (which seeds ``random.Random`` with ``f"{seed}/{label}"``).
    Hash-based, so it is reproducible across processes and Python
    versions (unlike ``hash()``)."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _validate(distribution, rate, shape, sigma):
    if distribution not in DISTRIBUTIONS:
        known = ", ".join(DISTRIBUTIONS)
        raise ValueError(
            f"unknown distribution {distribution!r}; known: {known}"
        )
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if distribution == "pareto" and shape <= 1.0:
        raise ValueError(
            f"pareto shape must exceed 1 (finite mean), got {shape}"
        )
    if distribution == "lognormal" and sigma <= 0:
        raise ValueError(f"lognormal sigma must be positive, got {sigma}")


def _draw_gaps(rng, distribution, rate, n, shape, sigma):
    if distribution == "poisson":
        return rng.exponential(1.0 / rate, n)
    if distribution == "pareto":
        return rng.pareto(shape, n) * ((shape - 1.0) / rate)
    # lognormal: mean exp(mu + sigma^2/2) == 1/rate
    mu = np.log(1.0 / rate) - 0.5 * sigma * sigma
    return rng.lognormal(mu, sigma, n)


def arrival_times(distribution, rate, n, seed, batch_size=BATCH_SIZE,
                  shape=2.5, sigma=1.0):
    """The first ``n`` arrival times (seconds) of the given stream.

    Pure and batch-invariant: same ``(distribution, rate, n, seed,
    shape, sigma)`` gives byte-identical arrays for every
    ``batch_size`` (see the module docstring for why).
    """
    _validate(distribution, rate, shape, sigma)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=float)
    carry = 0.0
    done = 0
    while done < n:
        take = min(batch_size, n - done)
        gaps = _draw_gaps(rng, distribution, rate, take, shape, sigma)
        times = np.cumsum(np.concatenate(([carry], gaps)))[1:]
        out[done:done + take] = times
        carry = float(times[-1])
        done += take
    return out


class ArrayOpenLoop(_GeneratorBase):
    """Open-loop arrivals from batched gap arrays.

    One scheduling process walks the arrival-time stream and spawns a
    request process per arrival — versus one *permanent* process per
    client for :class:`ClosedLoopPopulation`, or one Python-RNG draw
    per request for :class:`OpenLoopPoisson`.

    Parameters
    ----------
    rate:
        Mean arrival rate, requests/second.
    distribution, shape, sigma:
        Inter-arrival law (module docstring); ``shape`` is the Pareto
        tail index, ``sigma`` the lognormal log-scale dispersion.
    max_requests:
        Stop after issuing exactly this many requests (``None`` = no
        count limit) — million-request benches use this for an exact
        request budget.
    horizon:
        Stop at this simulation time (``None`` = run until the
        simulator's own deadline).
    batch_size:
        Gap-array chunk size; affects memory/speed only, never the
        arrival stream itself.
    """

    def __init__(self, sim, fabric, entry, app, log, rate,
                 distribution="poisson", shape=2.5, sigma=1.0,
                 max_requests=None, horizon=None, batch_size=BATCH_SIZE,
                 rng_label="open-loop-array", sampler=None):
        _validate(distribution, rate, shape, sigma)
        if max_requests is not None and max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {max_requests}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        super().__init__(sim, fabric, entry, app, log, sampler=sampler)
        self.rate = rate
        self.distribution = distribution
        self.shape = shape
        self.sigma = sigma
        self.max_requests = max_requests
        self.horizon = horizon
        self.batch_size = batch_size
        self.rng = np.random.default_rng(
            numpy_seed_for(sim.seed, rng_label)
        )
        #: interaction-mix sampling stays on the simulator's forked
        #: Python RNG, like every other generator
        self.spec_rng = sim.fork_rng(f"{rng_label}-specs")
        self._started = False

    def start(self):
        if self._started:
            return self
        self._started = True
        self._carry = 0.0
        self._scheduled = 0  # arrivals placed on the kernel so far
        self._schedule_batch()
        return self

    def _schedule_batch(self):
        """Place the next gap-array batch directly onto the kernel.

        Arrival entries go in bulk through ``Simulator.call_at_batch``
        (O(1) calendar appends) instead of being replayed one timer at a
        time by a scheduling process.  The RNG draw order, the
        per-arrival spec sampling order (at fire time, in arrival order)
        and the batch-invariance contract are all unchanged; the last
        entry of each batch chains the next ``_schedule_batch`` at the
        same instant, *after* that batch's final arrival.
        """
        take = self.batch_size
        if self.max_requests is not None:
            take = min(take, self.max_requests - self._scheduled)
            if take <= 0:
                return
        gaps = _draw_gaps(self.rng, self.distribution, self.rate,
                          take, self.shape, self.sigma)
        times = np.cumsum(np.concatenate(([self._carry], gaps)))[1:]
        self._carry = float(times[-1])
        times = times.tolist()  # plain floats for the kernel
        horizon = self.horizon
        if horizon is not None and times[-1] >= horizon:
            # truncate at the horizon and stop refilling (times are
            # non-decreasing, so everything past the cut is >= horizon)
            times = [when for when in times if when < horizon]
            if times:
                self.sim.call_at_batch(times, self._fire)
                self._scheduled += len(times)
            return
        self.sim.call_at_batch(times, self._fire)
        self._scheduled += len(times)
        self.sim.call_at(self._carry, self._schedule_batch)

    def _fire(self):
        spec = self.app.sample(self.spec_rng)
        self.sim.process(self._perform(spec))
