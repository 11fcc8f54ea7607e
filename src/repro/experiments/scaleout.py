"""Replicated-tier scale-out — balancing and hedging at WL 7000.

The paper studies 1/1/1 stacks, where a single stalled tier is the
whole tier.  Scaling *out* (N replicas behind a load balancer) changes
the failure geometry: a millibottleneck now stalls one replica out of
N, so only the requests routed to that replica are exposed — and the
balancer decides who those are.  This experiment runs the same 3/3/3
topology and the same single-replica stall schedule (consolidation
bursts on the first app replica) under five routing regimes:

``rpc_round_robin``
    blind rotation keeps feeding the stalled replica 1/N of the
    traffic; its accept queue overflows, packets drop, and the 3/6/9 s
    retransmission modes reappear — confined to roughly the 1/N of
    requests unlucky enough to be routed there;
``rpc_least_outstanding``
    callers route by their own outstanding-call counts, so the stalled
    replica (whose outstanding count balloons) is avoided within a few
    requests of the stall starting — the VLRT modes shrink;
``rpc_power_of_two``
    two random candidates, pick the less loaded: probabilistic
    avoidance with O(1) state — between round-robin and full
    least-outstanding;
``rpc_hedged``
    round-robin *plus* request hedging: a request still waiting after
    the route's p95 is duplicated to the least-loaded other replica
    and the first response wins.  Requests stuck behind the stalled
    replica (or behind a silent packet drop) are rescued in
    milliseconds instead of 3-second RTOs, at a bounded duplicate-load
    cost;
``async_round_robin``
    the fully asynchronous stack (NX = 3) under the same stall: deep
    lightweight queues absorb the burst, nothing drops, and no routing
    cleverness is needed — the paper's asynchronous advantage survives
    scale-out unchanged.

The stall schedule is *triples* of consolidation bursts spaced one TCP
RTO (3 s) apart, so a packet dropped in the first burst retransmits
into the second and again into the third — populating the 3 s, 6 s
and 9 s modes exactly the way sustained saturation does in the 1/1/1
fig01 runs.  Attribution (the automated Fig 4 walk) must resolve every
drop to the *stalled replica's* own queue overflow — per-replica
granularity, not per-tier.
"""

from __future__ import annotations

from ..core.evaluation import Scenario
from ..servers.replica import HedgingSpec
from ..topology.configs import SystemConfig
from .report import format_table
from .runner import check_variants, variant_single_run

__all__ = [
    "VARIANTS",
    "attribution_coverage",
    "build_scenario",
    "single_run",
    "check_claims",
    "record",
    "report",
    "run",
    "run_one",
    "runs",
    "scaleout_outcomes",
]

#: replicas per tier — every tier scales out identically
REPLICAS = 3

#: the tier whose first replica the consolidation antagonist stalls
STALLED_TIER = "app"

#: bursts come in triples spaced one TCP RTO apart (see module
#: docstring); triples repeat every TRIPLE_PERIOD seconds
BURST_SPACING = 3.0
TRIPLE_PERIOD = 11.0

#: one burst starves the victim for ~2.3 s — long enough to overflow a
#: replica's MaxSysQDepth at 1/N of WL 7000, short enough to stay a
#: *milli*bottleneck (the detectors cap episodes at 2.5 s)
BURST_CPU = 2.2

#: duplicate-load budget for the hedged variant: extra (hedge) sends
#: per client request, summed over all three hops.  p95-deferred
#: hedging fires on ~5 % of calls per hop in steady state plus the
#: stall windows, so 3 hops stay well under one duplicate per request.
HEDGE_BUDGET = 0.75

#: the five routing regimes under the identical stall schedule
VARIANTS = {
    "rpc_round_robin": dict(nx=0, balancer="round_robin", hedged=False),
    "rpc_least_outstanding": dict(nx=0, balancer="least_outstanding",
                                  hedged=False),
    "rpc_power_of_two": dict(nx=0, balancer="power_of_two", hedged=False),
    "rpc_hedged": dict(nx=0, balancer="round_robin", hedged=True),
    "async_round_robin": dict(nx=3, balancer="round_robin", hedged=False),
}

#: variants whose tail is packet-drop driven — the per-replica
#: attribution-coverage acceptance bar (>= 90 %) applies to these
ATTRIBUTED_VARIANTS = ("rpc_round_robin", "rpc_power_of_two", "rpc_hedged")

#: the cell ``repro diagnose`` and ``repro profile`` run by default
CELL = "rpc_round_robin"
#: every cell's workload and simulated seconds, unless overridden
CLIENTS = 7000
DURATION = 40.0


def stall_times(duration, warmup):
    """The burst schedule: RTO-spaced triples, repeated until the end.

    Every triple base ``t`` yields bursts at ``t``, ``t + 3`` and
    ``t + 6`` so first and second retransmissions of an early drop land
    inside later bursts (the 6/9 s modes).
    """
    times = []
    base = warmup + 3.0
    while base + 2 * BURST_SPACING + BURST_CPU < duration:
        times.extend((base, base + BURST_SPACING, base + 2 * BURST_SPACING))
        base += TRIPLE_PERIOD
    return times


def build_scenario(variant, clients=CLIENTS, duration=DURATION, warmup=5.0,
                   seed=42, bus=None, streaming=False):
    """The Scenario for one routing regime (same stall schedule)."""
    spec = VARIANTS[variant]
    config = SystemConfig(
        nx=spec["nx"], seed=seed,
        web_replicas=REPLICAS, app_replicas=REPLICAS, db_replicas=REPLICAS,
        balancer=spec["balancer"],
        hedging=HedgingSpec() if spec["hedged"] else None,
        streaming=streaming,
    )
    return Scenario(
        config, clients=clients, duration=duration, warmup=warmup, bus=bus,
    ).with_consolidation(
        STALLED_TIER, times=stall_times(duration, warmup),
        burst_cpu=BURST_CPU, name=f"sysbursty-{STALLED_TIER}",
    )


def run_one(variant, clients=CLIENTS, duration=DURATION, warmup=5.0,
            seed=42, bus=None, streaming=False):
    """Run one regime; returns a dict with the cell's observables."""
    check_variants([variant], VARIANTS)
    result = build_scenario(
        variant, clients=clients, duration=duration, warmup=warmup,
        seed=seed, bus=bus, streaming=streaming,
    ).run()
    system = result.system
    stalled = system.names[STALLED_TIER]  # first replica = the victim
    report = result.attribution()
    return {
        "variant": variant,
        "summary": result.summary(),
        "modes": result.log.cluster_counts(),
        "queue_max": result.queue_max(),
        "stalled_replica": stalled,
        "drops_by_replica": result.drops,
        "group_stats": system.group_stats(),
        "hedges": system.hedge_totals(),
        "attribution": {
            "tail": len(report.chains),
            "coverage": report.coverage,
            "directions": dict(report.directions()),
            "drop_sites": dict(report.drop_sites()),
        },
        "result": result,
    }


def run(duration=DURATION, warmup=5.0, seed=42, clients=CLIENTS,
        variants=None, streaming=False):
    """All requested regimes; returns ``{variant: cell_dict}``."""
    names = tuple(variants) if variants is not None else tuple(VARIANTS)
    check_variants(names, VARIANTS)
    return {
        name: run_one(name, clients=clients, duration=duration,
                      warmup=warmup, seed=seed, streaming=streaming)
        for name in names
    }


def runs(cells):
    """Each cell's RunResult, labelled by its variant."""
    return {name: cell["result"] for name, cell in cells.items()}


def single_run(variant=CELL, clients=CLIENTS, duration=DURATION):
    """The cell ``repro diagnose`` and ``repro profile`` run:
    ``(heading, simulate)`` (see :mod:`repro.experiments.runner`)."""
    return variant_single_run(run_one, VARIANTS, variant, clients,
                              duration)


# ----------------------------------------------------------------------
# the four scale-out claims the experiment is accepted on
# ----------------------------------------------------------------------
def _vlrt(cell):
    return cell["summary"]["vlrt"]


def _retrans_modes(cell):
    """Requests sitting on a retransmission mode (3/6/9 s)."""
    return sum(count for mode, count in cell["modes"].items() if mode >= 1)


def _stalled_drop_share(cell):
    """Fraction of all dropped packets that dropped at the stalled
    replica's own listener (per-replica accounting, not per-tier)."""
    drops = cell["drops_by_replica"]
    total = sum(drops.values())
    if total == 0:
        return None
    return drops.get(cell["stalled_replica"], 0) / total


def _hedge_fraction(cell):
    """Hedge sends per client request, summed over every route."""
    requests = cell["summary"]["requests"]
    if requests == 0:
        return 0.0
    return cell["hedges"]["hedges_issued"] / requests


def scaleout_outcomes(cells):
    """Evidence for the four scale-out claims.

    Returns ``{claim: {"holds": bool, ...evidence...}}``; a claim whose
    variants were not run is reported with ``"holds": None``.
    """
    out = {}
    rr = cells.get("rpc_round_robin")

    # (a) blind round-robin keeps feeding the stalled replica: the
    # 3/6/9 s modes reappear, confined to <= ~1/N of requests, and the
    # drops land at the stalled replica itself
    if rr is None:
        out["round_robin_reproduces_modes"] = {"holds": None}
    else:
        share = _stalled_drop_share(rr)
        vlrt_fraction = rr["summary"]["vlrt_fraction"]
        out["round_robin_reproduces_modes"] = {
            "holds": bool(
                rr["modes"].get(1, 0) > 0
                and rr["modes"].get(2, 0) > 0
                and share is not None and share >= 0.9
                and vlrt_fraction <= 1.0 / REPLICAS
            ),
            "mode_3s": rr["modes"].get(1, 0),
            "mode_6s": rr["modes"].get(2, 0),
            "mode_9s": rr["modes"].get(3, 0),
            "stalled_drop_share": share,
            "vlrt_fraction": vlrt_fraction,
        }

    # (b) load-aware balancing shrinks the exposed population: both
    # least-outstanding and power-of-two-choices beat round-robin
    lo = cells.get("rpc_least_outstanding")
    po2 = cells.get("rpc_power_of_two")
    if rr is None or lo is None or po2 is None:
        out["load_aware_shrinks_modes"] = {"holds": None}
    else:
        out["load_aware_shrinks_modes"] = {
            "holds": bool(
                _vlrt(lo) < _vlrt(rr) and _vlrt(po2) < _vlrt(rr)
            ),
            "vlrt_round_robin": _vlrt(rr),
            "vlrt_least_outstanding": _vlrt(lo),
            "vlrt_power_of_two": _vlrt(po2),
        }

    # (c) hedging removes the VLRT modes outright — the duplicate
    # rescues every request parked behind the stalled replica — at a
    # bounded duplicate-load cost
    hedged = cells.get("rpc_hedged")
    if hedged is None:
        out["hedging_removes_modes"] = {"holds": None}
    else:
        fraction = _hedge_fraction(hedged)
        out["hedging_removes_modes"] = {
            "holds": bool(
                _vlrt(hedged) == 0
                and 0.0 < fraction <= HEDGE_BUDGET
            ),
            "vlrt": _vlrt(hedged),
            "hedges_per_request": fraction,
            "hedge_wins": hedged["hedges"]["hedge_wins"],
        }

    # (d) the fully asynchronous stack still dominates: no drops, no
    # VLRT, no routing cleverness required
    asyn = cells.get("async_round_robin")
    if asyn is None:
        out["async_dominates"] = {"holds": None}
    else:
        out["async_dominates"] = {
            "holds": bool(
                _vlrt(asyn) == 0
                and asyn["summary"]["dropped_packets"] == 0
            ),
            "vlrt": _vlrt(asyn),
            "dropped_packets": asyn["summary"]["dropped_packets"],
        }
    return out


def attribution_coverage(cells):
    """Pooled per-replica coverage over the drop-driven variants."""
    tail = complete = 0
    for name in ATTRIBUTED_VARIANTS:
        cell = cells.get(name)
        if cell is None:
            continue
        tail += cell["attribution"]["tail"]
        complete += round(
            cell["attribution"]["coverage"] * cell["attribution"]["tail"]
        )
    return (complete / tail) if tail else 1.0


def record(cells):
    """The registry record of :func:`run`'s cells: each cell without
    its RunResult, plus the outcomes and the pooled coverage."""
    return {
        "cells": {
            name: {
                key: value
                for key, value in cell.items()
                if key not in ("result", "variant")
            }
            for name, cell in cells.items()
        },
        "outcomes": scaleout_outcomes(cells),
        "attribution_coverage": attribution_coverage(cells),
    }


def report(cells):
    lines = [f"=== scale-out: {REPLICAS} replicas/tier, one stalled "
             f"{STALLED_TIER} replica, WL 7000 ==="]
    rows = []
    for name, cell in cells.items():
        summary = cell["summary"]
        rows.append([
            name,
            f"{summary['throughput_rps']:.0f} req/s",
            summary["vlrt"],
            summary["dropped_packets"],
            _retrans_modes(cell),
            cell["hedges"]["hedges_issued"],
            cell["hedges"]["hedge_wins"],
        ])
    lines.append(
        format_table(
            ["variant", "throughput", "VLRT", "drops", "mode reqs",
             "hedges", "wins"],
            rows,
        )
    )
    lines.append("\n--- scale-out outcomes ---")
    for name, evidence in scaleout_outcomes(cells).items():
        holds = evidence.get("holds")
        mark = "??" if holds is None else ("ok" if holds else "FAIL")
        detail = ", ".join(
            f"{key}={value:.3f}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in evidence.items() if key != "holds"
        )
        lines.append(f"[{mark}] {name}" + (f": {detail}" if detail else ""))
    coverage = attribution_coverage(cells)
    lines.append(
        f"\nper-replica attribution coverage (drop variants): "
        f"{coverage * 100:.1f} %"
    )
    return "\n".join(lines)


def check_claims(cells):
    """Empty list when the acceptance bar holds; else failure notes."""
    problems = []
    for name, evidence in scaleout_outcomes(cells).items():
        if evidence.get("holds") is False:
            problems.append(f"scale-out outcome {name} does not hold")
    if attribution_coverage(cells) < 0.90:
        problems.append("per-replica attribution coverage below 90 % on "
                        "the drop variants")
    return problems
