"""The paper's §III conditions for millibottlenecks to drop packets.

Static conditions (properties of the deployment):

1. synchronous servers communicating through RPC-style invocations,
2. bursty workload,
3. short requests (milliseconds),
4. moderate average utilization everywhere (no persistent bottleneck).

Dynamic conditions (properties of one incident):

1. reasonable workload rate (e.g. 1000 req/s),
2. reasonable queue bounds (e.g. threads 150 + backlog 128 = 278),
3. a millibottleneck of sufficient length (e.g. 0.4 s).

The paper's arithmetic: 1000 req/s × 0.4 s = 400 arrivals against a
MaxSysQDepth of 278 → 122 requests have nowhere to queue and their
packets drop.  :func:`predicted_overflow` is exactly that model, with
an optional drain term for the capacity the stalled server retains.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "StaticConditions",
    "predicted_overflow",
    "minimum_millibottleneck_duration",
    "max_sys_q_depth",
]


def max_sys_q_depth(thread_pool_size, tcp_backlog):
    """The paper's overflow threshold for a synchronous server."""
    if thread_pool_size < 0 or tcp_backlog < 0:
        raise ValueError("sizes must be non-negative")
    return thread_pool_size + tcp_backlog


def predicted_overflow(arrival_rate, duration, queue_bound, drain_rate=0.0):
    """Expected packets beyond queue capacity during a millibottleneck.

    Parameters
    ----------
    arrival_rate:
        Requests per second reaching the stalled server.
    duration:
        Length of the millibottleneck in seconds.
    queue_bound:
        MaxSysQDepth of the server that fills up.
    drain_rate:
        Requests per second the server still completes during the stall
        (0 for a full freeze; the paper's back-of-envelope uses 0).

    Returns the number of packets that find every queue full — 0 when
    the millibottleneck is too short to overflow anything.
    """
    if arrival_rate < 0 or duration < 0 or queue_bound < 0 or drain_rate < 0:
        raise ValueError("all model inputs must be non-negative")
    arrivals = arrival_rate * duration
    absorbed = queue_bound + drain_rate * duration
    return max(0.0, arrivals - absorbed)


def minimum_millibottleneck_duration(arrival_rate, queue_bound, drain_rate=0.0):
    """Shortest stall that produces any drop (the dynamic condition 3).

    Inverts :func:`predicted_overflow`: with the paper's example numbers
    (1000 req/s, bound 278) this returns 0.278 s — consistent with
    "millibottleneck of sufficient length (e.g., 0.4 sec)".
    Returns ``inf`` if the drain keeps up with arrivals.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    net = arrival_rate - drain_rate
    if net <= 0:
        return float("inf")
    return queue_bound / net


@dataclass
class StaticConditions:
    """Checklist of the paper's static conditions for a deployment.

    Build one from observations and ask :meth:`all_met`; experiments use
    it to explain *why* a configuration did or did not exhibit CTQO.
    """

    synchronous_rpc: bool
    bursty_workload: bool
    short_requests: bool
    moderate_utilization: bool

    #: thresholds used by :meth:`from_observations`
    SHORT_REQUEST_MS = 50.0
    MODERATE_UTIL_RANGE = (0.05, 0.90)

    @classmethod
    def from_observations(cls, any_sync_server, burst_intensity,
                          median_service_ms, peak_avg_utilization):
        """Evaluate the checklist from measured quantities.

        ``burst_intensity`` is the workload's burst factor (1 = steady);
        ``peak_avg_utilization`` is the highest tier's *run-average*
        utilization (millibottlenecks don't count — they are the
        phenomenon, not a persistent bottleneck).
        """
        low, high = cls.MODERATE_UTIL_RANGE
        return cls(
            synchronous_rpc=bool(any_sync_server),
            bursty_workload=burst_intensity > 1.0,
            short_requests=median_service_ms <= cls.SHORT_REQUEST_MS,
            moderate_utilization=low <= peak_avg_utilization <= high,
        )

    def all_met(self):
        return (
            self.synchronous_rpc
            and self.bursty_workload
            and self.short_requests
            and self.moderate_utilization
        )

    def unmet(self):
        """Names of the conditions that do not hold."""
        return [
            name
            for name in (
                "synchronous_rpc",
                "bursty_workload",
                "short_requests",
                "moderate_utilization",
            )
            if not getattr(self, name)
        ]
