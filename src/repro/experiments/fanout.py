"""1×N fan-out/fan-in — tail-at-scale and lateral CTQO at WL 7000.

The paper's chains place tiers in series, so a millibottleneck has only
two directions to propagate: upstream (blocked RPC threads) or
downstream (async flood).  A fan-out topology — one root calling N leaf
services in parallel and joining at a gather barrier — adds the third
geometry: *lateral* coupling, where N−1 healthy branches are held
hostage by one stalled sibling purely through the barrier.

Two phenomena are measured on the same 1×N graph:

**Tail at scale** (stall-free).  The parent's latency is the *max* of N
leg latencies, so its p99 is governed by each leaf's
``1 − 0.01/N`` quantile — at N = 100 the parent p99 tracks the leaf
p99.99.  The scaling cells sweep N ∈ {4, 16, 64, 100} under a sync
all-of gather and compare the parent p99 against the pooled leaf
latency distribution at the matched extreme quantile.

**CTQO across the barrier** (one leaf stalled).  A collectl-style
0.4 s I/O freeze on a single leaf, under four fan-in regimes:

``sync``
    blocking all-of gather: every root thread whose leaf-1 leg is
    caught by the freeze is parked at the barrier for a full 3 s TCP
    RTO; the root's thread pool and accept queue fill, packets drop at
    the *root* — upstream CTQO amplified through the barrier, because
    one leaf out of a hundred froze for 400 ms;
``async``
    event-loop root, same all-of barrier: continuations park instead
    of threads, the root absorbs the stall, and the drops move to the
    stalled leaf itself — the paper's drop-site migration, reproduced
    on a DAG;
``quorum``
    first-(N−1)-of-N gather: the barrier stops waiting for the frozen
    leg, threads release immediately, the straggler's eventual reply
    is counted as wasted work — no root drops, no VLRT modes;
``hedged``
    every leaf is a 2-replica group with p95-deferred hedging: the leg
    stuck behind the frozen replica (or behind its packet drop) is
    duplicated to the healthy twin and rescued in milliseconds.

Attribution (the automated Fig 4 walk, DAG edition) must link ≥ 90 %
of the sync cell's tail requests through drop site → overflow episode →
the leaf's millibottleneck, with the root's drops classified
*upstream* — the fan-in barrier is an invocation edge like any other.
"""

from __future__ import annotations

from ..core.evaluation import GraphRunResult
from ..core.tail import percentiles
from ..injectors.logflush import LogFlushInjector
from ..servers.policies import TierPolicy
from ..servers.replica import HedgingSpec
from ..sim.kernel import Simulator
from ..topology.graph import NodeSpec, build_graph, fan_out
from ..units import ms
from .report import format_table

__all__ = [
    "FANOUTS",
    "VARIANTS",
    "build_fanout",
    "check_claims",
    "fanout_outcomes",
    "main",
    "report",
    "run",
    "run_experiment",
    "run_one",
]

#: fan-out widths of the scaling sweep (the paper's WL axis becomes N)
FANOUTS = (4, 16, 64, 100)

#: WL → open-loop arrival rate: a closed population of ``clients`` with
#: the 3-tier think time (7 s) offers ``clients / 7`` req/s, so WL 7000
#: drives the graph at ~1000 req/s
THINK_MEAN = 7.0

#: the four fan-in regimes under the identical one-leaf stall
VARIANTS = {
    "sync": dict(sync_root=True, quorum=False, hedged=False),
    "async": dict(sync_root=False, quorum=False, hedged=False),
    "quorum": dict(sync_root=True, quorum=True, hedged=False),
    "hedged": dict(sync_root=True, quorum=False, hedged=True),
}

#: collectl-style I/O freeze on the first leaf's VM: 0.4 s is long
#: enough to overflow the root at WL 7000 (§III arithmetic) and short
#: enough that merely-delayed requests stay under the 3 s VLRT line —
#: only drop + RTO makes a request very long
STALL_PERIOD = 5.0
STALL_DURATION = 0.4
STALL_OFFSET = 4.0

#: root work: parse + merge, exponential draws
ROOT_PRE = ms(0.1)
ROOT_POST = ms(0.4)
#: leaf service demand (exponential), ~50 % utilization at WL 7000
LEAF_WORK = ms(0.5)
LEAF_THREADS = 16

#: root/leaf queue capacity as a fraction of the arrival rate: threads
#: plus accept backlog hold 0.30 s of arrivals, so a 0.4 s all-of stall
#: overflows at any WL (the §III static condition, kept rate-relative)
ROOT_THREAD_FACTOR = 0.22
ROOT_BACKLOG_FACTOR = 0.08
LEAF_BACKLOG_FACTOR = 0.05

#: parent p99 over pooled-leaf quantile(1 − 0.01/N): the tail-at-scale
#: prediction is ratio ≈ 1 plus constant per-hop overhead; 2× headroom
#: covers root queueing and the max-of-N correlation left out of the
#: independence argument
RATIO_BAND = (0.5, 2.0)

#: one TCP RTO past the freeze: drops keep landing while legs caught by
#: the stall sit out their retransmission, so the attribution window
#: must reach the RTO, not just the millibottleneck's own tail
ATTRIBUTION_WINDOW = 3.5


def _sizes(rate):
    """Rate-relative queue capacities (see the factor comments above)."""
    return {
        "root_threads": max(8, int(rate * ROOT_THREAD_FACTOR)),
        "root_backlog": max(8, int(rate * ROOT_BACKLOG_FACTOR)),
        "leaf_backlog": max(8, int(rate * LEAF_BACKLOG_FACTOR)),
    }


def build_fanout(variant, n, rate, seed=42, bus=None, streaming=False):
    """Build one 1×N system; returns the live :class:`GraphSystem`."""
    spec = VARIANTS[variant]
    sizes = _sizes(rate)
    root = NodeSpec(
        "root",
        policy=(TierPolicy.sync(threads=sizes["root_threads"])
                if spec["sync_root"] else TierPolicy.asynchronous(workers=2)),
        backlog=sizes["root_backlog"],
        pre_work=ROOT_PRE,
        post_work=ROOT_POST,
        quorum=(n - 1) if spec["quorum"] else None,
    )
    leaves = [
        NodeSpec(
            f"leaf{i + 1}",
            policy=TierPolicy.sync(threads=LEAF_THREADS),
            backlog=sizes["leaf_backlog"],
            pre_work=LEAF_WORK,
            replicas=2 if spec["hedged"] else 1,
            hedging=HedgingSpec() if spec["hedged"] else None,
        )
        for i in range(n)
    ]
    sim = Simulator(seed=seed, bus=bus)
    return build_graph(fan_out(root, leaves), sim=sim, seed=seed,
                       streaming=streaming)


def stalled_leaf(variant):
    """Display name of the frozen server (first replica of leaf 1)."""
    return "leaf11" if VARIANTS[variant]["hedged"] else "leaf1"


def run_one(variant, clients=7000, n=16, duration=12.0, warmup=2.0,
            seed=42, stall=True, bus=None, streaming=False):
    """Run one cell; returns a dict with the cell's observables."""
    if variant not in VARIANTS:
        known = ", ".join(VARIANTS)
        raise ValueError(f"unknown variant {variant!r}; known: {known}")
    rate = clients / THINK_MEAN
    system = build_fanout(variant, n, rate, seed=seed, bus=bus,
                          streaming=streaming)
    sim = system.sim
    if streaming and warmup:
        system.log.set_warmup(warmup)
    monitor = system.attach_monitor()

    # pooled per-leg latency samples: every leaf reply's tier sojourn
    # (accept queueing and retransmissions included), post-warmup
    leaf_samples = []
    for name, server in system.server_items():
        if name == "root":
            continue

        def observe(sojourn, _sim=sim):
            if _sim.now >= warmup:
                leaf_samples.append(sojourn)

        server.latency_observer = observe

    system.open_loop(rate)
    injectors = []
    if stall:
        victim = stalled_leaf(variant)
        injectors.append(
            LogFlushInjector(
                sim, system.vm(victim), period=STALL_PERIOD,
                duration=STALL_DURATION, offset=STALL_OFFSET,
            ).start()
        )
    sim.run(until=duration)

    log = system.log.after(warmup) if warmup else system.log
    result = GraphRunResult(system, log, monitor, duration, warmup,
                            injectors=injectors)
    # the tail-at-scale comparison: parent p99 vs the pooled leaf
    # distribution at quantile 1 − 0.01/N (nearest rank: an actual
    # sample, never interpolation between modes)
    quantile = 100.0 * (1.0 - 0.01 / n)
    leaf_q = percentiles(leaf_samples, (quantile,),
                         method="nearest_rank")[quantile]
    parent_p99 = log.percentile(99.0)
    report = result.attribution(window=ATTRIBUTION_WINDOW)
    return {
        "variant": variant,
        "n": n,
        "stall": stall,
        "rate": rate,
        "summary": result.summary(),
        "modes": log.cluster_counts(),
        "queue_max": result.queue_max(),
        "stalled_leaf": stalled_leaf(variant) if stall else None,
        "gathers": system.gather_totals(),
        "hedges": system.hedge_totals(),
        "leaf_samples": len(leaf_samples),
        "quantile": quantile,
        "leaf_q_ms": leaf_q * 1000.0,
        "parent_p99_ms": parent_p99 * 1000.0,
        "tail_ratio": (parent_p99 / leaf_q) if leaf_q > 0 else 0.0,
        "attribution": {
            "tail": len(report.chains),
            "coverage": report.coverage,
            "directions": dict(report.directions()),
            "drop_sites": dict(report.drop_sites()),
        },
        "result": result,
    }


def run(duration=12.0, warmup=2.0, seed=42, clients=7000, fanouts=FANOUTS,
        variants=None, streaming=False):
    """The full experiment: a stall-free scaling sweep over ``fanouts``
    (sync all-of — the max-of-N geometry is variant-independent), then
    one stalled cell per requested variant at the widest fan-out.

    Returns ``{"scaling": {n: cell}, "stall": {variant: cell}}``.
    """
    fanouts = tuple(fanouts)
    if not fanouts or min(fanouts) < 2:
        raise ValueError(f"fanouts must all be >= 2, got {fanouts!r}")
    names = tuple(variants) if variants is not None else tuple(VARIANTS)
    for name in names:
        if name not in VARIANTS:
            known = ", ".join(VARIANTS)
            raise ValueError(f"unknown variant {name!r}; known: {known}")
    scaling = {
        n: run_one("sync", clients=clients, n=n, duration=duration,
                   warmup=warmup, seed=seed, stall=False,
                   streaming=streaming)
        for n in sorted(fanouts)
    }
    stall_n = max(fanouts)
    stall = {
        name: run_one(name, clients=clients, n=stall_n, duration=duration,
                      warmup=warmup, seed=seed, stall=True,
                      streaming=streaming)
        for name in names
    }
    return {"scaling": scaling, "stall": stall}


# ----------------------------------------------------------------------
# the claims the experiment is accepted on
# ----------------------------------------------------------------------
def _vlrt(cell):
    return cell["summary"]["vlrt"]


def _root_drops(cell):
    return cell["summary"]["drops_by_server"].get("root", 0)


def _stalled_drops(cell):
    return cell["summary"]["drops_by_server"].get(cell["stalled_leaf"], 0)


def fanout_outcomes(cells):
    """Evidence for the fan-out claims.

    Returns ``{claim: {"holds": bool, ...evidence...}}``; a claim whose
    cells were not run is reported with ``"holds": None``.
    """
    out = {}
    scaling = cells.get("scaling") or {}
    stall = cells.get("stall") or {}
    ns = sorted(scaling)

    # (a) the parent's p99 grows with the fan-out width: max of N legs
    if len(ns) < 2:
        out["tail_grows_with_fanout"] = {"holds": None}
    else:
        p99s = {n: scaling[n]["parent_p99_ms"] for n in ns}
        out["tail_grows_with_fanout"] = {
            "holds": bool(p99s[ns[-1]] > p99s[ns[0]]),
            "parent_p99_ms": p99s,
        }

    # (b) at every width the parent p99 tracks the pooled leaf
    # distribution at quantile 1 − 0.01/N (p99.99 at N = 100)
    if not ns:
        out["parent_p99_tracks_leaf_extreme"] = {"holds": None}
    else:
        ratios = {n: scaling[n]["tail_ratio"] for n in ns}
        low, high = RATIO_BAND
        out["parent_p99_tracks_leaf_extreme"] = {
            "holds": all(low <= r <= high for r in ratios.values()),
            "tail_ratio": ratios,
            "quantile": {n: scaling[n]["quantile"] for n in ns},
            "leaf_q_ms": {n: scaling[n]["leaf_q_ms"] for n in ns},
        }

    # (c) sync all-of: one frozen leaf overflows the *root* through the
    # fan-in barrier — upstream CTQO, amplified N-fold
    sync = stall.get("sync")
    if sync is None:
        out["sync_stall_amplifies_upstream"] = {"holds": None}
        out["barrier_attribution_covers"] = {"holds": None}
    else:
        directions = sync["attribution"]["directions"]
        out["sync_stall_amplifies_upstream"] = {
            "holds": bool(
                _root_drops(sync) > 0
                and _vlrt(sync) > 0
                and directions.get("upstream", 0) > 0
            ),
            "root_drops": _root_drops(sync),
            "stalled_leaf_drops": _stalled_drops(sync),
            "vlrt": _vlrt(sync),
            "directions": directions,
        }
        # (d) the acceptance bar: ≥ 90 % of the sync cell's tail
        # requests resolve to a complete causal chain across the barrier
        out["barrier_attribution_covers"] = {
            "holds": sync["attribution"]["coverage"] >= 0.90,
            "coverage": sync["attribution"]["coverage"],
            "tail": sync["attribution"]["tail"],
        }

    # (e) a first-(N−1)-of-N barrier sheds the stalled leg: threads
    # release at the quorum, the straggler's reply is wasted work
    quorum = stall.get("quorum")
    if quorum is None or sync is None:
        out["quorum_sheds_stalled_leg"] = {"holds": None}
    else:
        budget = max(2, round(0.02 * _vlrt(sync)))
        out["quorum_sheds_stalled_leg"] = {
            "holds": bool(
                _root_drops(quorum) == 0
                and _vlrt(quorum) <= budget
                and quorum["gathers"]["legs_wasted"] > 0
            ),
            "vlrt": _vlrt(quorum),
            "vlrt_budget": budget,
            "root_drops": _root_drops(quorum),
            "legs_wasted": quorum["gathers"]["legs_wasted"],
        }

    # (f) the asynchronous root absorbs the barrier: drops migrate from
    # the root to the stalled leaf itself (downstream CTQO)
    asyn = stall.get("async")
    if asyn is None:
        out["async_moves_drops_downstream"] = {"holds": None}
    else:
        directions = asyn["attribution"]["directions"]
        out["async_moves_drops_downstream"] = {
            "holds": bool(
                _root_drops(asyn) == 0
                and _stalled_drops(asyn) > 0
                and directions.get("upstream", 0) == 0
                and directions.get("downstream", 0) > 0
            ),
            "root_drops": _root_drops(asyn),
            "stalled_leaf_drops": _stalled_drops(asyn),
            "directions": directions,
        }

    # (g) hedging rescues the stalled leg replica-by-replica: the
    # duplicate to the healthy twin wins, no VLRT modes
    hedged = stall.get("hedged")
    if hedged is None or sync is None:
        out["hedging_rescues_legs"] = {"holds": None}
    else:
        budget = max(2, round(0.02 * _vlrt(sync)))
        out["hedging_rescues_legs"] = {
            "holds": bool(
                _vlrt(hedged) <= budget
                and hedged["hedges"]["hedge_wins"] > 0
            ),
            "vlrt": _vlrt(hedged),
            "vlrt_budget": budget,
            "hedges_issued": hedged["hedges"]["hedges_issued"],
            "hedge_wins": hedged["hedges"]["hedge_wins"],
        }
    return out


def run_experiment(config):
    """Uniform registry entry point (see repro.experiments.runner)."""
    params = config.params
    fanouts = params.get("fanouts") or FANOUTS
    cells = run(
        duration=config.duration or 12.0,
        seed=config.seed,
        clients=int(params.get("clients", 7000)),
        fanouts=[int(n) for n in fanouts],
        variants=params.get("variants"),
        streaming=bool(params.get("streaming", False)),
    )
    strip = ("result", "variant")
    return {
        "scaling": {
            n: {k: v for k, v in cell.items() if k not in strip}
            for n, cell in cells["scaling"].items()
        },
        "stall": {
            name: {k: v for k, v in cell.items() if k not in strip}
            for name, cell in cells["stall"].items()
        },
        "outcomes": fanout_outcomes(cells),
    }


def report(cells):
    scaling = cells.get("scaling") or {}
    stall = cells.get("stall") or {}
    lines = ["=== fan-out/fan-in: 1×N service graph at WL 7000 ==="]
    if scaling:
        rows = [
            [
                n,
                f"{cell['summary']['throughput_rps']:.0f} req/s",
                f"{cell['parent_p99_ms']:.1f} ms",
                f"{cell['quantile']:.2f}",
                f"{cell['leaf_q_ms']:.1f} ms",
                f"{cell['tail_ratio']:.2f}",
            ]
            for n, cell in sorted(scaling.items())
        ]
        lines.append("\n--- tail at scale (no stall, sync all-of) ---")
        lines.append(
            format_table(
                ["N", "throughput", "parent p99", "leaf q",
                 "leaf@q", "ratio"],
                rows,
            )
        )
    if stall:
        rows = [
            [
                name,
                _vlrt(cell),
                _root_drops(cell),
                _stalled_drops(cell),
                cell["gathers"]["legs_wasted"],
                cell["hedges"]["hedge_wins"],
                f"{cell['attribution']['coverage'] * 100:.0f} %",
            ]
            for name, cell in stall.items()
        ]
        n = next(iter(stall.values()))["n"]
        lines.append(f"\n--- one leaf of {n} frozen "
                     f"{STALL_DURATION * 1000:.0f} ms ---")
        lines.append(
            format_table(
                ["variant", "VLRT", "root drops", "leaf drops",
                 "wasted legs", "hedge wins", "coverage"],
                rows,
            )
        )
    lines.append("\n--- fan-out outcomes ---")
    for name, evidence in fanout_outcomes(cells).items():
        holds = evidence.get("holds")
        mark = "??" if holds is None else ("ok" if holds else "FAIL")
        detail = ", ".join(
            f"{key}={value:.3f}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in evidence.items() if key != "holds"
        )
        lines.append(f"[{mark}] {name}" + (f": {detail}" if detail else ""))
    return "\n".join(lines)


def check_claims(cells):
    """Empty list when the acceptance bar holds; else failure notes."""
    return [
        f"fan-out outcome {name} does not hold"
        for name, evidence in fanout_outcomes(cells).items()
        if evidence.get("holds") is False
    ]


def main():
    cells = run()
    print(report(cells))
    return cells


if __name__ == "__main__":
    main()
