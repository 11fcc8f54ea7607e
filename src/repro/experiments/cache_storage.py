"""Cache and storage tiers — miss storms and write-buffer bufferbloat.

The paper's millibottlenecks are *infrastructure* transients (CPU
starvation, I/O freezes, GC).  Memcached-style caches and write-back
storage add two *application-level* transients with the same
sub-second anatomy, reproduced and remediated here on the service-graph
substrate:

**Cache-miss storm (thundering herd).**  A front tier reads through an
in-process LRU cache in front of a slow backing tier.  At steady state
the cache absorbs ~98 % of the load and the backing tier idles.  A bulk
invalidation (deploy, config push, TTL avalanche) empties the cache:
the full arrival rate — several times the backing tier's capacity —
lands on it at once, *plus* duplicate fetches for every key whose first
fetch is still queued.  The backing queue overflows within a few
hundred milliseconds, packets drop, and the 3 s TCP RTO mints VLRT
requests — a millibottleneck whose root cause is a *cache event*, made
machine-attributable by feeding the detector's ``cache-miss burst``
episodes (segmented from the monitor's cumulative miss counter) into
the CTQO walk.  Two independent remediations are measured at the same
offered load:

``storm_singleflight``
    miss coalescing (``coalesce=True``): one leader fetches per key,
    the herd parks on the in-flight entry.  Outstanding backing work is
    bounded by the keyspace, which is sized under the backing queue —
    no overflow, no RTO, VLRT back to zero;
``storm_codel``
    CoDel-style AQM at the backing tier (``TierPolicy.codel``)
    plus caller-side retries at the cache tier: instead of silently
    dropping into a 3 s RTO, the overloaded tier sheds 503s the moment
    queueing delay persists above target; the cache retries the shed
    fetch after the herd has passed.  Tail restored by failing fast.

**Write-buffer bufferbloat.**  A storage tier acks writes when they
enter its write-back buffer and serves reads from the same FIFO device
queue.  A background log flush dumps a burst of writes: with an
unbounded buffer every write is acked instantly (throughput looks
perfect) while reads land *behind* hundreds of buffered writes — p99
inflates by two orders of magnitude with zero drops, zero failures and
full throughput, the classic bufferbloat signature, observable in the
monitor's ``write_buffer`` depth gauge.  ``bufferbloat_bounded`` caps
the buffer (the device-level AQM): the flusher's acks stall —
backpressure lands on the background writer, who can wait — and the
read tail collapses while client throughput holds.
"""

from __future__ import annotations

from ..core.evaluation import GraphRunResult
from ..metrics.detector import cache_miss_episodes
from ..servers.policies import RemediationSpec, TierPolicy
from ..sim.kernel import Simulator
from ..topology.graph import EdgeSpec, NodeSpec, ServiceGraph, build_graph
from ..units import ms
from .report import format_table

__all__ = [
    "VARIANTS",
    "build_cache_storage",
    "cache_storage_outcomes",
    "check_claims",
    "main",
    "report",
    "run",
    "run_experiment",
    "run_one",
]

#: WL → open-loop arrival rate, same convention as the other graph
#: experiments: a closed population of ``clients`` with the 3-tier
#: think time (7 s) offers ``clients / 7`` req/s
THINK_MEAN = 7.0

#: the six cells; ``family`` selects the topology
VARIANTS = {
    "baseline": dict(family="cache", storm=False, coalesce=False,
                     codel=False),
    "storm": dict(family="cache", storm=True, coalesce=False, codel=False),
    "storm_singleflight": dict(family="cache", storm=True, coalesce=True,
                               codel=False),
    "storm_codel": dict(family="cache", storm=True, coalesce=False,
                        codel=True),
    "bufferbloat": dict(family="storage", bounded=False),
    "bufferbloat_bounded": dict(family="storage", bounded=True),
}

# -- cache family ------------------------------------------------------
#: hot keyspace; sized *under* the backing queue so coalesced misses
#: (≤ one in flight per key) can never overflow it, while duplicate
#: fetches of the uncoalesced herd can
KEYSPACE = 60
CACHE_CAPACITY = 2048
#: backing-tier service demand: 5 ms → ~200 req/s capacity, one third
#: of the default offered load — only sustainable behind a warm cache
DB_WORK = ms(5)
DB_THREADS = 16
DB_BACKLOG = 60
#: bulk invalidations (seconds); each mints one miss storm
STORM_TIMES = (5.0, 9.0)
#: CoDel control law at the backing tier: shed once queueing delay has
#: sat above 50 ms for 100 ms (the tier's healthy sojourn is ~5 ms)
CODEL_DEPTH = 60
CODEL_TARGET = 0.05
CODEL_INTERVAL = 0.1
#: cache-tier retry policy paired with the shedding backing tier: the
#: backoff deliberately spreads attempts past the sub-second herd
RETRY_SPEC = dict(timeout=1.0, retries=3, backoff=0.25,
                  breaker_threshold=None)
#: miss-rate threshold (misses/s) segmenting ``cache-miss burst``
#: episodes — steady-state misses are ≈ 0 against a warm cache
BURST_MISS_RATE = 50.0
#: one TCP RTO past the burst, like the fan-out experiment: drops keep
#: biting while retransmissions sit out their timer
ATTRIBUTION_WINDOW = 3.5

# -- storage family ----------------------------------------------------
STORE_SERVICE = ms(1.2)
STORE_THREADS = 64
WRITE_FRACTION = 0.85
#: background log flush: a burst of this many writes every period
FLUSH_DEPTH = 256
FLUSH_EVERY = 4.0
#: the bounded cell's write-back buffer capacity (device-level AQM)
BOUNDED_BUFFER = 64

#: restored cells may keep a sliver of the broken cell's VLRT count
VLRT_BUDGET_FRACTION = 0.02
#: acceptance bar on the storm cell's causal-chain coverage
COVERAGE_BAR = 0.90
#: bufferbloat is "restored" when the read tail at least halves (with
#: margin) at unchanged throughput
RESTORE_RATIO = 0.6
#: "throughput holds" = completions within 5 % of the offered load
THROUGHPUT_BAR = 0.95
#: bloat must inflate p99 at least this far over the median
INFLATION_FACTOR = 10.0


def build_cache_storage(variant, seed=42, bus=None, streaming=False):
    """Build one cell's system; returns the live ``GraphSystem``."""
    spec = VARIANTS[variant]
    front = NodeSpec("front", pre_work=ms(0.1),
                     policy=TierPolicy.asynchronous(workers=2))
    if spec["family"] == "cache":
        cache = NodeSpec(
            "cache", kind="cache", cache_capacity=CACHE_CAPACITY,
            keyspace=KEYSPACE, coalesce=spec["coalesce"],
            policy=TierPolicy.asynchronous(
                workers=2,
                remediation=RemediationSpec("retry", **RETRY_SPEC)
                if spec["codel"] else None,
            ),
        )
        db = NodeSpec(
            "db", pre_work=DB_WORK, backlog=DB_BACKLOG,
            policy=TierPolicy.codel(
                depth=CODEL_DEPTH, threads=DB_THREADS, target=CODEL_TARGET,
                interval=CODEL_INTERVAL,
            ) if spec["codel"] else TierPolicy.sync(threads=DB_THREADS),
        )
        graph = ServiceGraph(
            [front, cache, db],
            [EdgeSpec("front", "cache"), EdgeSpec("cache", "db")],
        )
    else:
        store = NodeSpec(
            "store", kind="storage", storage_service_time=STORE_SERVICE,
            write_fraction=WRITE_FRACTION,
            write_buffer=BOUNDED_BUFFER if spec["bounded"] else None,
            policy=TierPolicy.sync(threads=STORE_THREADS),
        )
        graph = ServiceGraph([front, store], [EdgeSpec("front", "store")])
    sim = Simulator(seed=seed, bus=bus)
    return build_graph(graph, sim=sim, seed=seed, streaming=streaming)


def _prewarm(cache):
    """Fill every hot key so the run starts with a warm cache — the
    scripted invalidation is the only herd (a cold start is the same
    phenomenon, but it would land inside the warm-up window where the
    log discards its evidence)."""
    for key in range(KEYSPACE):
        cache.put(key, {"tier": "db", "key": key})


def run_one(variant, clients=4200, duration=16.0, warmup=2.0, seed=42,
            bus=None, streaming=False):
    """Run one cell; returns a dict with the cell's observables."""
    if variant not in VARIANTS:
        known = ", ".join(VARIANTS)
        raise ValueError(f"unknown variant {variant!r}; known: {known}")
    spec = VARIANTS[variant]
    rate = clients / THINK_MEAN
    system = build_cache_storage(variant, seed=seed, bus=bus,
                                 streaming=streaming)
    sim = system.sim
    if streaming and warmup:
        system.log.set_warmup(warmup)
    monitor = system.attach_monitor()

    if spec["family"] == "cache":
        cache = system.caches["cache"]
        _prewarm(cache)
        if spec["storm"]:
            def storms():
                last = 0.0
                for when in STORM_TIMES:
                    if when >= duration:
                        break
                    yield when - last
                    cache.invalidate_all()
                    last = when
            sim.process(storms())
    else:
        store = system.storages["store"]

        def flusher():
            # closed loop on the ack: an unbounded buffer acks
            # instantly (the flush is one atomic blast), a bounded one
            # stalls the ack and paces the flusher at drain rate —
            # backpressure lands here, not on client requests
            while True:
                yield FLUSH_EVERY
                for _ in range(FLUSH_DEPTH):
                    yield store.write(1.0)

        sim.process(flusher())

    system.open_loop(rate)
    sim.run(until=duration)

    log = system.log.after(warmup) if warmup else system.log
    result = GraphRunResult(system, log, monitor, duration, warmup)
    summary = result.summary()
    cell = {
        "variant": variant,
        "family": spec["family"],
        "rate": rate,
        "summary": summary,
        "queue_max": result.queue_max(),
        "result": result,
    }
    if spec["family"] == "cache":
        bursts = [
            episode for episode in cache_miss_episodes(
                monitor.cache_misses["cache"], BURST_MISS_RATE,
                name="cache",
            )
            if episode.end > warmup
        ]
        report = result.attribution(window=ATTRIBUTION_WINDOW,
                                    extra_episodes=bursts)
        kinds = {}
        for chain in report.complete:
            kind = chain.millibottleneck.kind
            kinds[kind] = kinds.get(kind, 0) + 1
        cell["cache"] = cache.stats.snapshot()
        cell["bursts"] = [
            {"start": episode.start, "end": episode.end,
             "peak": episode.peak}
            for episode in bursts
        ]
        cell["attribution"] = {
            "tail": len(report.chains),
            "coverage": report.coverage,
            "kinds": kinds,
            "directions": dict(report.directions()),
            "drop_sites": dict(report.drop_sites()),
            "shed_sites": dict(report.shed_sites()),
        }
    else:
        cell["storage"] = {
            "reads": store.stats.reads,
            "writes": store.stats.writes,
            "write_stalls": store.stats.write_stalls,
            "write_buffer_max": int(monitor.write_buffer["store"].max()),
            "depth_max": int(monitor.storage_depth["store"].max()),
        }
    return cell


def run(clients=4200, duration=16.0, warmup=2.0, seed=42, variants=None,
        streaming=False):
    """All requested cells at the same offered load.

    Returns ``{variant: cell}`` in :data:`VARIANTS` order.
    """
    names = tuple(variants) if variants is not None else tuple(VARIANTS)
    for name in names:
        if name not in VARIANTS:
            known = ", ".join(VARIANTS)
            raise ValueError(f"unknown variant {name!r}; known: {known}")
    return {
        name: run_one(name, clients=clients, duration=duration,
                      warmup=warmup, seed=seed, streaming=streaming)
        for name in VARIANTS if name in names
    }


# ----------------------------------------------------------------------
# the claims the experiment is accepted on
# ----------------------------------------------------------------------
def _vlrt(cell):
    return cell["summary"]["vlrt"]


def _db_drops(cell):
    return cell["summary"]["drops_by_server"].get("db", 0)


def _db_sheds(cell):
    return cell["summary"].get("sheds_by_server", {}).get("db", 0)


def _vlrt_budget(storm_cell):
    return max(2, round(VLRT_BUDGET_FRACTION * _vlrt(storm_cell)))


def cache_storage_outcomes(cells):
    """Evidence for the cache/storage claims.

    Returns ``{claim: {"holds": bool, ...evidence...}}``; a claim whose
    cells were not run is reported with ``"holds": None``.
    """
    out = {}
    baseline = cells.get("baseline")
    storm = cells.get("storm")
    singleflight = cells.get("storm_singleflight")
    codel = cells.get("storm_codel")
    bloat = cells.get("bufferbloat")
    bounded = cells.get("bufferbloat_bounded")

    # (a) a warm cache hides the undersized backing tier completely
    if baseline is None:
        out["warm_cache_hides_backing_tier"] = {"holds": None}
    else:
        out["warm_cache_hides_backing_tier"] = {
            "holds": bool(
                _vlrt(baseline) == 0
                and baseline["summary"]["failed"] == 0
                and baseline["cache"]["hit_ratio"] >= 0.95
            ),
            "vlrt": _vlrt(baseline),
            "failed": baseline["summary"]["failed"],
            "hit_ratio": baseline["cache"]["hit_ratio"],
        }

    # (b) bulk invalidation → miss storm → backing-queue overflow →
    # drops → RTO-minted VLRT: an application event with the full
    # millibottleneck anatomy
    if storm is None:
        out["invalidation_storm_mints_vlrt"] = {"holds": None}
        out["storm_attribution_covers"] = {"holds": None}
    else:
        out["invalidation_storm_mints_vlrt"] = {
            "holds": bool(
                _vlrt(storm) > 0
                and _db_drops(storm) > 0
                and len(storm["bursts"]) >= 1
            ),
            "vlrt": _vlrt(storm),
            "db_drops": _db_drops(storm),
            "bursts": len(storm["bursts"]),
        }
        # (c) the acceptance bar: ≥ 90 % of the storm's tail requests
        # resolve a complete chain, owned by a cache-miss burst episode
        attribution = storm["attribution"]
        out["storm_attribution_covers"] = {
            "holds": bool(
                attribution["coverage"] >= COVERAGE_BAR
                and attribution["kinds"].get("cache-miss burst", 0) > 0
            ),
            "coverage": attribution["coverage"],
            "tail": attribution["tail"],
            "kinds": attribution["kinds"],
        }

    # (d) single-flight coalescing bounds the herd under the backing
    # queue: same storms, same load, VLRT back to zero
    if singleflight is None or storm is None:
        out["singleflight_restores_tail"] = {"holds": None}
    else:
        budget = _vlrt_budget(storm)
        out["singleflight_restores_tail"] = {
            "holds": bool(
                _vlrt(singleflight) <= budget
                and _db_drops(singleflight) == 0
                and singleflight["cache"]["coalesced"] > 0
            ),
            "vlrt": _vlrt(singleflight),
            "vlrt_budget": budget,
            "db_drops": _db_drops(singleflight),
            "coalesced": singleflight["cache"]["coalesced"],
        }

    # (e) CoDel at the backing tier + retries at the cache: shed fast
    # instead of dropping into the RTO, retry past the herd
    if codel is None or storm is None:
        out["codel_restores_tail"] = {"holds": None}
    else:
        budget = _vlrt_budget(storm)
        out["codel_restores_tail"] = {
            "holds": bool(
                _vlrt(codel) <= budget
                and _db_drops(codel) == 0
                and _db_sheds(codel) > 0
            ),
            "vlrt": _vlrt(codel),
            "vlrt_budget": budget,
            "db_drops": _db_drops(codel),
            "db_sheds": _db_sheds(codel),
        }

    # (f) unbounded write-back buffer: the flush inflates read p99 by
    # an order of magnitude while throughput holds — bufferbloat, not a
    # capacity problem
    if bloat is None:
        out["write_buffer_bloats_tail"] = {"holds": None}
    else:
        summary = bloat["summary"]
        out["write_buffer_bloats_tail"] = {
            "holds": bool(
                summary["p99_ms"] >= INFLATION_FACTOR * summary["p50_ms"]
                and summary["throughput_rps"]
                >= THROUGHPUT_BAR * bloat["rate"]
                and bloat["storage"]["write_buffer_max"]
                >= 2 * BOUNDED_BUFFER
            ),
            "p50_ms": summary["p50_ms"],
            "p99_ms": summary["p99_ms"],
            "throughput_rps": summary["throughput_rps"],
            "offered_rps": bloat["rate"],
            "write_buffer_max": bloat["storage"]["write_buffer_max"],
        }

    # (g) bounding the buffer stalls the flusher, not the clients: the
    # read tail collapses at unchanged throughput
    if bounded is None or bloat is None:
        out["bounded_buffer_restores_tail"] = {"holds": None}
    else:
        summary = bounded["summary"]
        bar = RESTORE_RATIO * bloat["summary"]["p99_ms"]
        out["bounded_buffer_restores_tail"] = {
            "holds": bool(
                summary["p99_ms"] <= bar
                and summary["throughput_rps"]
                >= THROUGHPUT_BAR * bounded["rate"]
                and bounded["storage"]["write_stalls"] > 0
                and bounded["storage"]["write_buffer_max"]
                <= BOUNDED_BUFFER
            ),
            "p99_ms": summary["p99_ms"],
            "p99_bar_ms": bar,
            "throughput_rps": summary["throughput_rps"],
            "write_stalls": bounded["storage"]["write_stalls"],
            "write_buffer_max": bounded["storage"]["write_buffer_max"],
        }
    return out


def run_experiment(config):
    """Uniform registry entry point (see repro.experiments.runner)."""
    params = config.params
    cells = run(
        clients=int(params.get("clients", 4200)),
        duration=config.duration or 16.0,
        seed=config.seed,
        variants=params.get("variants"),
        streaming=bool(params.get("streaming", False)),
    )
    strip = ("result", "variant")
    return {
        "cells": {
            name: {k: v for k, v in cell.items() if k not in strip}
            for name, cell in cells.items()
        },
        "outcomes": cache_storage_outcomes(cells),
    }


def report(cells):
    lines = ["=== cache/storage tiers: miss storms and bufferbloat ==="]
    cache_rows = []
    storage_rows = []
    for name, cell in cells.items():
        summary = cell["summary"]
        if cell["family"] == "cache":
            cache_rows.append([
                name,
                _vlrt(cell),
                _db_drops(cell),
                _db_sheds(cell),
                f"{cell['cache']['hit_ratio'] * 100:.1f} %",
                cell["cache"]["coalesced"],
                f"{cell['attribution']['coverage'] * 100:.0f} %",
            ])
        else:
            storage_rows.append([
                name,
                f"{summary['throughput_rps']:.0f} req/s",
                f"{summary['p50_ms']:.2f} ms",
                f"{summary['p99_ms']:.1f} ms",
                cell["storage"]["write_buffer_max"],
                cell["storage"]["write_stalls"],
            ])
    if cache_rows:
        lines.append("\n--- cache-miss storms (bulk invalidation) ---")
        lines.append(
            format_table(
                ["variant", "VLRT", "db drops", "db sheds", "hit ratio",
                 "coalesced", "coverage"],
                cache_rows,
            )
        )
    if storage_rows:
        lines.append("\n--- write-back bufferbloat (log flush) ---")
        lines.append(
            format_table(
                ["variant", "throughput", "p50", "p99", "buffer max",
                 "write stalls"],
                storage_rows,
            )
        )
    lines.append("\n--- cache/storage outcomes ---")
    for name, evidence in cache_storage_outcomes(cells).items():
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
        f"cache/storage outcome {name} does not hold"
        for name, evidence in cache_storage_outcomes(cells).items()
        if evidence.get("holds") is False
    ]


def main():
    cells = run()
    print(report(cells))
    return cells


if __name__ == "__main__":
    main()
