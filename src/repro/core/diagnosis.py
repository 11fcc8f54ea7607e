"""Automated diagnosis: the paper's analysis as a one-call post-mortem.

Given a finished :class:`~repro.core.evaluation.RunResult`, the
diagnosis walks the paper's §III/§IV reasoning:

1. Is there a long tail at all (VLRT requests, multi-modal clusters)?
2. Is steady-state queueing a sufficient explanation?  (Checked against
   the analytic model — at moderate utilization it never is.)
3. Were there millibottlenecks, and on which resource?
4. Did queue overflow cross tiers (CTQO), in which direction, and which
   server actually dropped packets (or shed them with a 503)?
5. What does the paper's playbook recommend — which server to replace
   with an asynchronous version, or which knob to turn?

The output is a :class:`Diagnosis` with structured findings plus a
rendered text report, so operators and tests can consume the same
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics.detector import describe_millibottleneck
from .queueing import SteadyStateModel
from .tail import multimodal_clusters, tail_heaviness

__all__ = ["Diagnosis", "diagnose"]


@dataclass
class Diagnosis:
    """Structured outcome of a run post-mortem."""

    has_long_tail: bool
    vlrt_count: int
    mode_clusters: dict
    tail_heaviness: float
    steady_state_sufficient: bool
    predicted_response_ms: float
    millibottlenecks: list
    ctqo_events: list
    dropping_servers: list
    #: servers whose load-shedding admission 503'd requests
    shedding_servers: list = field(default_factory=list)
    recommendations: list = field(default_factory=list)

    @property
    def is_ctqo(self):
        """True when the long tail is explained by cross-tier overflow
        (dropped or shed packets)."""
        return self.has_long_tail and bool(self.ctqo_events)

    def render(self):
        lines = ["=== diagnosis ==="]
        if not self.has_long_tail:
            lines.append(
                f"No long tail: {self.vlrt_count} VLRT requests, "
                f"p99.9/p50 = {self.tail_heaviness:.1f}."
            )
            if self.millibottlenecks:
                lines.append(
                    f"({len(self.millibottlenecks)} millibottleneck(s) "
                    "occurred but every queue absorbed them.)"
                )
            return "\n".join(lines)
        lines.append(
            f"Long tail present: {self.vlrt_count} VLRT requests, "
            f"modes {self.mode_clusters}, p99.9/p50 = "
            f"{self.tail_heaviness:.0f}."
        )
        lines.append(
            "Steady-state queueing predicts "
            f"~{self.predicted_response_ms:.1f} ms responses — "
            + ("sufficient to explain the tail."
               if self.steady_state_sufficient
               else "NOT a sufficient explanation; looking for transients.")
        )
        if self.millibottlenecks:
            lines.append(f"{len(self.millibottlenecks)} millibottleneck(s):")
            for episode in self.millibottlenecks[:6]:
                lines.append(f"  - {describe_millibottleneck(episode)}")
        for event in self.ctqo_events:
            if event.drops:
                lines.append(f"  -> {event}")
        for recommendation in self.recommendations:
            lines.append(f"RECOMMEND: {recommendation}")
        return "\n".join(lines)


def _graph_recommendations(result, dropping_servers, directions):
    """The playbook generalized to a service graph: no per-tier config
    to consult, so recommend against the server kinds directly."""
    out = []
    sync_servers = {
        name for name, server in result.system.server_items()
        if getattr(getattr(server, "concurrency", None),
                   "kind", None) == "threads"
    }
    for server in dropping_servers:
        if server in sync_servers:
            out.append(
                f"replace {server} with an asynchronous server — it is "
                "the one dropping packets (§V: CTQO is avoided by "
                "replacing the server that drops)"
            )
    if "lateral" in directions:
        out.append(
            "drops on a parallel branch of a fan-out: lower the gather "
            "quorum (first-K-of-N) or hedge the stalled leg so the "
            "fan-in barrier stops holding sibling legs' work"
        )
    if not out and dropping_servers:
        out.append(
            "all dropping servers are already asynchronous: raise their "
            "LiteQDepth (the wait queue is undersized for the burst)"
        )
    return out


def _recommendations(result, dropping_servers, directions):
    """The paper's playbook, §V/§VI, for the servers that dropped."""
    config = result.config
    names = result.names
    if config is None or not isinstance(names, dict):
        # a service-graph run: no 3-tier config to consult
        return _graph_recommendations(result, dropping_servers, directions)
    out = []
    async_name = {
        names["web"]: "Nginx", names["app"]: "XTomcat",
        names["db"]: "XMySQL (InnoDB lightweight queue)",
    }
    sync_tiers = {
        names[tier]
        for tier, is_async in (
            ("web", config.web_is_async),
            ("app", config.app_is_async),
            ("db", config.db_is_async),
        )
        if not is_async
    }
    for server in dropping_servers:
        if server in sync_tiers:
            out.append(
                f"replace {server} with an asynchronous server "
                f"({async_name.get(server, 'event-driven equivalent')}) — "
                "it is the one dropping packets (§V: CTQO is avoided by "
                "replacing the server that drops)"
            )
    if "downstream" in directions and names["app"] not in sync_tiers:
        out.append(
            f"alternatively pace {names['app']}'s downstream query rate "
            "(xtomcat_pace_rate) to bound the post-stall batch flood"
        )
    if not out and dropping_servers:
        out.append(
            "all dropping tiers are already asynchronous: raise their "
            "LiteQDepth (the wait queue is undersized for the burst)"
        )
    return out


def diagnose(result, vlrt_threshold=3.0, min_cluster=3,
             mb_min_duration=0.15):
    """Post-mortem a RunResult; returns a :class:`Diagnosis`.

    ``mb_min_duration`` filters sub-150 ms saturation blips (a loaded
    tier briefly pegging its CPU is normal operation, not a
    millibottleneck worth reporting).
    """
    log = result.log
    rts = log.response_times(include_failures=True)
    vlrt = log.vlrt(vlrt_threshold)
    clusters = {
        k: v for k, v in multimodal_clusters(rts).items() if v and k > 0
    }
    has_tail = len(vlrt) >= min_cluster

    app = getattr(result.system, "app", None)
    if app is not None and result.scenario is not None:
        model = SteadyStateModel(
            app,
            think_mean=result.scenario.think_mean,
            app_cores=result.config.app_vcpus,
        )
        solution = model.solve(max(1, result.scenario.clients))
        predicted_ms = solution["response_time_s"] * 1000.0
        steady_sufficient = solution["response_time_s"] >= vlrt_threshold
    else:
        # a service-graph run has no closed-loop scenario behind it;
        # steady state never explains a 3 s tail at sub-second service
        # times, so report the model as inapplicable rather than guess
        predicted_ms = 0.0
        steady_sufficient = False

    millibottlenecks = result.millibottlenecks(
        min_duration=mb_min_duration
    )
    events = [
        e for e in result.ctqo_events(min_duration=mb_min_duration)
        if e.drops > 0
    ]
    dropping = sorted({e.dropping_server for e in events
                       if e.cause == "drop"})
    shedding = sorted({e.dropping_server for e in events
                       if e.cause == "shed"})
    directions = {e.direction for e in events}

    diagnosis = Diagnosis(
        has_long_tail=has_tail,
        vlrt_count=len(vlrt),
        mode_clusters=clusters,
        tail_heaviness=tail_heaviness(rts),
        steady_state_sufficient=steady_sufficient,
        predicted_response_ms=predicted_ms,
        millibottlenecks=millibottlenecks,
        ctqo_events=events,
        dropping_servers=dropping,
        shedding_servers=shedding,
    )
    if has_tail or dropping or shedding:
        recommendations = _recommendations(result, dropping, directions)
        # a shedding server already fails fast instead of dropping: its
        # admission queue is what the millibottleneck's burst overflowed
        recommendations.extend(
            f"{server} sheds requests (503) while a millibottleneck "
            "holds its queue: raise its admission depth to absorb the "
            "burst (the 503s are CTQO surfacing as fast failures "
            "instead of retransmissions)"
            for server in shedding
        )
        diagnosis.recommendations = recommendations or [
            "no packets dropped; no action required"
        ]
    return diagnosis
