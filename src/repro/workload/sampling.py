"""Budgeted trace sampling: representative traces at streaming scale.

Without a sampler the generators keep a trace only for a failed or
VLRT-slow request, so a streaming run has no exemplar of what a normal
request's path even looks like, and keeping every trace would be
memory-unbounded at 10^6 requests.  :class:`TraceSampler` is the
composable alternative, built from three policies:

**Head sampling** — a request's trace is kept with probability
``rate``, decided by hashing the request id (sha256, like the repo's
``derive_seed``), **not** by drawing randomness: the decision is made
before the outcome is known (head-based), is identical across runs and
across processes for the same id, and touches no RNG stream — golden
records are provably unaffected.

**Always-keep anomalies** — failed, dropped, shed, and VLRT-slow
requests keep their traces regardless of the hash, preserving the
no-sampler guarantee that every post-mortem-worthy trace survives
(until the budget forces eviction, which is accounted).

**Hard retention budget** — at most ``budget`` traces are referenced
at any moment.  Admitting one past the budget evicts the *oldest
normal* trace first (exemplars are interchangeable; anomalies are
not), then the oldest anomalous trace; every eviction clears the
evicted record's ``trace`` reference and is counted, so memory is
bounded by ``budget`` × trace size and the heartbeat can report
exactly what was lost.

Pass an instance as the generators' ``sampler`` argument.
"""

from __future__ import annotations

import hashlib
from collections import deque

from ..metrics.trace import VLRT_THRESHOLD

__all__ = ["TraceSampler"]

#: 2^64, the denominator of the hash-to-probability mapping
_HASH_SPACE = 1 << 64


class TraceSampler:
    """Head sampling + always-keep anomalies under a retention budget.

    Parameters
    ----------
    rate:
        Head-sampling probability in [0, 1] for *normal* requests
        (anomalous requests are always kept).
    budget:
        Hard cap on simultaneously retained traces (>= 1).
    seed:
        Hash salt: different seeds select statistically independent
        head samples of the same run.
    vlrt_threshold:
        Response time above which a request counts as anomalous
        (default: the paper's 3 s VLRT threshold).
    """

    def __init__(self, rate=0.01, budget=20_000, seed=0,
                 vlrt_threshold=VLRT_THRESHOLD):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.rate = float(rate)
        self.budget = int(budget)
        self.seed = seed
        self.vlrt_threshold = vlrt_threshold
        self._cutoff = int(self.rate * _HASH_SPACE)
        self._normal = deque()       # retained records, oldest first
        self._anomalous = deque()
        #: requests whose traces were offered to the sampler
        self.considered = 0
        #: normal requests admitted by the head-sampling hash
        self.sampled_normal = 0
        #: anomalous requests admitted by the always-keep policy
        self.kept_anomalous = 0
        self.evicted_normal = 0
        self.evicted_anomalous = 0
        #: trace events currently referenced (for byte estimates)
        self.retained_events = 0

    # ------------------------------------------------------------------
    def wants(self, request_id):
        """Head-sampling decision for ``request_id`` — deterministic,
        RNG-free, stable across runs and processes."""
        digest = hashlib.sha256(
            f"{self.seed}/{request_id}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") < self._cutoff

    def is_anomalous(self, record):
        """Always-keep test: failed, dropped, shed, or VLRT-slow."""
        return bool(record.failed or record.drops or record.sheds
                    or record.response_time > self.vlrt_threshold)

    # ------------------------------------------------------------------
    def observe(self, record, trace):
        """Decide ``record``'s trace retention and apply it.

        Sets ``record.trace`` to ``trace`` if kept (then enforces the
        budget) or leaves it ``None``.  Returns True when kept.
        """
        self.considered += 1
        if self.is_anomalous(record):
            self.kept_anomalous += 1
            store = self._anomalous
        elif self.wants(record.request_id):
            self.sampled_normal += 1
            store = self._normal
        else:
            return False
        record.trace = trace
        store.append(record)
        self.retained_events += len(trace)
        if len(self._normal) + len(self._anomalous) > self.budget:
            self._evict()
        return True

    def _evict(self):
        if self._normal:
            victim = self._normal.popleft()
            self.evicted_normal += 1
        else:
            victim = self._anomalous.popleft()
            self.evicted_anomalous += 1
        self.retained_events -= len(victim.trace)
        victim.trace = None

    # ------------------------------------------------------------------
    @property
    def retained(self):
        return len(self._normal) + len(self._anomalous)

    @property
    def evicted(self):
        return self.evicted_normal + self.evicted_anomalous

    def normal_traces(self):
        """Retained *normal* exemplar records, oldest first — the
        population the old ``"vlrt"`` policy never had."""
        return list(self._normal)

    def anomalous_traces(self):
        """Retained anomalous records, oldest first."""
        return list(self._anomalous)

    def counters(self):
        """Retention/eviction accounting for heartbeats and reports."""
        return {
            "considered": self.considered,
            "sampled_normal": self.sampled_normal,
            "kept_anomalous": self.kept_anomalous,
            "retained": self.retained,
            "budget": self.budget,
            "evicted_normal": self.evicted_normal,
            "evicted_anomalous": self.evicted_anomalous,
            "retained_events": self.retained_events,
        }

    def __repr__(self):
        return (f"<TraceSampler rate={self.rate} "
                f"retained={self.retained}/{self.budget} "
                f"evicted={self.evicted}>")
