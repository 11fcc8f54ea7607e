"""Substrate benchmark harness with a machine-readable trajectory.

The ROADMAP's north star ("as fast as the hardware allows") needs a
*recorded* performance trajectory, not anecdotes: every substrate
optimization should land together with before/after numbers that later
PRs can compare against.  This module provides

- the **workload functions** — small, deterministic exercises of the
  kernel/process/resource hot paths (numeric-yield process switching,
  acquire/release churn at depth 2000, cancellation under load, store
  hand-off, and a quick ``fig01``-style end-to-end run), shared between
  the pytest-benchmark suite (``benchmarks/test_bench_substrate.py``)
  and the JSON trajectory writer, and
- the **trajectory writer** — appends one entry (git revision, label,
  per-benchmark ops/s and wall-clock) to ``BENCH_substrate.json`` so the
  repository accumulates a comparable history of substrate performance.

Run via ``python -m repro bench``.
``--smoke`` shrinks the iteration counts 4x for CI-sized smoke checks;
the equivalent environment knob is ``REPRO_BENCH_SCALE=0.25``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from .sim import Resource, Simulator, Store

__all__ = [
    "BENCHMARKS",
    "add_arguments",
    "bench_acquire_release_churn",
    "bench_cancel_under_load",
    "bench_fanout_quick",
    "bench_fig01_instrumented",
    "bench_fig01_live",
    "bench_fig01_quick",
    "bench_fig01_streaming_1m",
    "bench_far_timer_churn",
    "bench_kernel_callbacks",
    "bench_numeric_yield",
    "bench_scaleout_quick",
    "bench_server_policy_step",
    "bench_sketch_fold",
    "bench_store_handoff",
    "bench_wheel_schedule",
    "compare_results",
    "default_scale",
    "main",
    "run_benchmarks",
    "run_cli",
    "write_trajectory",
]

#: default depth for the queue-heavy workloads — the CTQO regime the
#: paper studies is exactly "thousands of waiters per server queue".
QUEUE_DEPTH = 2000


def default_scale():
    """Iteration-count multiplier from ``REPRO_BENCH_SCALE`` (default 1)."""
    try:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0
    return scale if scale > 0 else 1.0


def _scaled(count, scale, minimum=100):
    return max(minimum, int(count * scale))


# ----------------------------------------------------------------------
# workloads — each returns the number of "operations" it performed
# ----------------------------------------------------------------------
def bench_kernel_callbacks(scale=1.0):
    """Bare schedule-and-dispatch throughput of kernel callbacks."""
    count = _scaled(200_000, scale)
    sim = Simulator(seed=1)

    def tick():
        pass

    for i in range(count):
        sim.call_at(i * 1e-6, tick)
    sim.run()
    return sim.executed_events


def bench_numeric_yield(scale=1.0):
    """Process-switch rate for the dominant wait: ``yield <float>``."""
    hops = _scaled(20_000, scale)
    sim = Simulator(seed=1)

    def proc():
        for _ in range(hops):
            yield 1e-6

    for _ in range(5):
        sim.process(proc())
    sim.run()
    return sim.executed_events


def bench_acquire_release_churn(scale=1.0, depth=QUEUE_DEPTH):
    """Admission churn with ``depth`` queued waiters (CTQO regime).

    One release + one re-acquire per operation, with the wait queue held
    at ``depth`` throughout — the per-grant cost at exactly the queue
    depths where the paper's servers live during a millibottleneck.
    """
    ops = _scaled(50_000, scale)
    sim = Simulator(seed=1)
    res = Resource(sim, capacity=100)
    for _ in range(100 + depth):
        res.acquire()
    for _ in range(ops):
        res.release()
        res.acquire()
    return ops


def bench_cancel_under_load(scale=1.0, depth=QUEUE_DEPTH):
    """Acquire-with-timeout races: cancel ``depth`` queued waiters.

    Waiters are cancelled newest-first, the worst case for a scan-based
    ``deque.remove`` (O(n) per cancel, quadratic per round) and the
    common shape of timeout storms, where the most recently queued
    requests are the ones whose deadlines fire while the queue is long.
    """
    rounds = max(1, int(25 * scale))
    sim = Simulator(seed=1)
    res = Resource(sim, capacity=1)
    res.acquire()  # exhaust capacity so every acquire below queues
    cancelled = 0
    for _ in range(rounds):
        grants = [res.acquire() for _ in range(depth)]
        for grant in reversed(grants):
            if not res.cancel(grant):
                raise AssertionError("cancel of a queued grant failed")
            cancelled += 1
        if res.queue_length != 0:
            raise AssertionError("queue_length wrong after cancellations")
    return cancelled


def bench_store_handoff(scale=1.0):
    """Store get/put rendezvous — the async servers' event-queue path."""
    ops = _scaled(100_000, scale)
    sim = Simulator(seed=1)
    store = Store(sim)
    for i in range(ops):
        grant = store.get()
        store.put(i)
        if grant.value != i:
            raise AssertionError("store hand-off broke FIFO")
    return ops


def bench_server_policy_step(scale=1.0):
    """Per-request cost of the composed policy runtime.

    One :class:`~repro.servers.runtime.PolicyServer` in its default
    composition (kernel-backlog admission, thread-pool concurrency, no
    remediation) served by a serial closed-loop client: every
    operation crosses accept -> admission -> worker -> the shared
    servlet-driver step loop -> reply.  This is the request fast path
    the policy refactor re-routed, so this number is what guards it
    against regression.
    """
    from .apps.servlet import Compute, Request
    from .cpu import Host
    from .net import NetworkFabric
    from .servers import PolicyServer

    requests = _scaled(8_000, scale)
    sim = Simulator(seed=1)
    fabric = NetworkFabric(sim, latency=0.0, rto=3.0, max_retransmits=3)
    vm = Host(sim, cores=1, name="bench-host").add_vm("bench-vm")

    def handler(ctx, request):
        yield Compute(1e-6)
        return request.operation

    server = PolicyServer(sim, fabric, "bench", vm, handler)

    def client():
        for i in range(requests):
            exchange = fabric.send(server.listener, Request("K", i, sim.now))
            yield exchange.response

    sim.process(client())
    sim.run()
    if server.stats.completed != requests:
        raise AssertionError("policy server dropped benchmark requests")
    return requests


def bench_fig01_quick(scale=1.0):
    """A quick ``fig01``-style end-to-end run (WL 7000, consolidation).

    This is the acceptance workload for substrate speedups: the full
    stack (workload generator, sync servers, TCP fabric, CPU model,
    monitors) driven for a few simulated seconds.
    """
    from .experiments.fig01_histograms import run_one

    duration = max(2.0, 6.0 * scale)
    panel = run_one(7000, duration=duration, warmup=1.0, seed=42)
    return len(panel["result"].log)


def bench_fig01_instrumented(scale=1.0):
    """The ``fig01_quick`` workload with the instrumentation bus live.

    The overhead budget for the observability pipeline: the same
    end-to-end run as ``fig01_quick`` but with an
    :class:`~repro.sim.instrument.EventBus` bound and an
    :class:`~repro.sim.instrument.EventRecorder` subscribed, so every
    queue/network/CPU hook actually publishes.  Compare against
    ``fig01_quick`` in the same trajectory entry to read the cost of
    turning instrumentation on.
    """
    from .experiments.fig01_histograms import run_one
    from .sim.instrument import EventBus, EventRecorder

    bus = EventBus()
    recorder = EventRecorder(bus)
    duration = max(2.0, 6.0 * scale)
    panel = run_one(7000, duration=duration, warmup=1.0, seed=42, bus=bus)
    if recorder.recorded == 0:
        raise AssertionError("instrumented run published no events")
    return len(panel["result"].log)


def bench_fig01_live(scale=1.0):
    """The ``fig01_quick`` workload with live telemetry on.

    The overhead budget for the *online* observability layer
    (``--live``): the same end-to-end run as ``fig01_quick`` but with
    heartbeats every simulated second, windowed latency sketches fed
    from every tier's reply path and the request log, the incremental
    episode detector on the monitor hook, and budgeted trace sampling
    (1 % head rate).  Compare against ``fig01_quick`` in the same
    trajectory entry to read the cost of flying with telemetry on —
    and ``fig01_quick`` itself must stay inside the bench band, which
    pins the telemetry hooks to zero cost when off.
    """
    from .experiments.fig01_histograms import run_one
    from .metrics import live

    duration = max(2.0, 6.0 * scale)
    live.configure(interval=1.0, sample_rate=0.01, trace_budget=5000)
    try:
        panel = run_one(7000, duration=duration, warmup=1.0, seed=42)
    finally:
        live.reset()
    telemetry = panel["result"].telemetry
    if not telemetry.heartbeats:
        raise AssertionError("live run emitted no heartbeats")
    if telemetry.sampler.considered == 0:
        raise AssertionError("live run sampled no traces")
    return len(panel["result"].log)


def bench_fig01_streaming_1m(scale=1.0):
    """One million requests through the fig01 stack, streaming metrics.

    The scale acceptance workload (docs/SCALE.md): an array-backed
    Poisson open loop at 1000 req/s drives the synchronous stack under
    the fig01 consolidation schedule until exactly
    ``1_000_000 * scale`` requests have been issued, with the request
    log in streaming mode.  Every request is counted and folded into
    the latency sketch; only VLRT/dropped/shed requests keep exact
    records, so metric memory stays O(1) in the request count (the CI
    memory smoke, ``scripts/memory_smoke.py``, asserts the byte
    budget).  ``--smoke`` (scale 0.25) runs the same workload at 250k
    requests.
    """
    from .core.evaluation import Scenario
    from .topology.configs import SystemConfig

    requests = max(20_000, int(1_000_000 * scale))
    rate = 1000.0
    # arrivals stop at the request target; leave a drain window longer
    # than the worst TCP retransmission ladder (3 RTOs = 9 s) so every
    # issued request resolves before the horizon
    duration = requests / rate + 20.0
    scenario = Scenario(
        SystemConfig(nx=0, seed=42, streaming=True),
        duration=duration, warmup=0.0,
    ).with_consolidation("app", period=7.0)
    scenario.with_open_loop(rate, max_requests=requests)
    result = scenario.run()
    log = result.log
    if len(log) != requests:
        raise AssertionError(
            f"streaming run issued {len(log)} of {requests} requests"
        )
    retained = len(log.records)
    if retained > max(20_000, requests // 5):
        raise AssertionError(
            f"streaming log retained {retained} exact records for "
            f"{requests} requests — tail-only retention is broken"
        )
    return requests


def bench_wheel_schedule(scale=1.0):
    """Scattered timer inserts across the calendar window.

    ``kernel_callbacks`` schedules in nearly sorted order, which is the
    calendar queue's append fast path; this workload permutes the
    insert order with a multiplicative hash so successive timers land
    in far-apart buckets — the insert pattern of a server full of
    heterogeneous timeouts — and the dispatch sweep has to walk the
    whole wheel.
    """
    count = _scaled(200_000, scale)
    sim = Simulator(seed=1)

    def tick():
        pass

    # times cover ~4 s (inside the default 8 s window), visited in
    # hash-scrambled order
    step = 4.0 / count
    for i in range(count):
        sim.call_at(((i * 2654435761) % count) * step, tick)
    sim.run()
    return sim.executed_events


def bench_far_timer_churn(scale=1.0):
    """Long-range timers crossing the wheel horizon (overflow path).

    Pairs every near callback with a timer landing several windows in
    the future — the shape of RTO and hedge timers under load — so the
    calendar queue's overflow heap, rollover redistribution and
    idle-jump machinery all run.  A binary heap treats near and far
    timers identically, so comparing this against ``wheel_schedule``
    reads the calendar's overflow overhead in isolation.
    """
    count = _scaled(60_000, scale)
    sim = Simulator(seed=1)

    def tick():
        pass

    for i in range(count):
        when = i * 1e-4
        sim.call_at(when, tick)
        # several wheel windows ahead: lands in the overflow heap and
        # is redistributed into buckets by a later rollover
        sim.call_at(when + 30.0, tick)
    sim.run()
    return sim.executed_events


def bench_sketch_fold(scale=1.0):
    """Streaming-metrics fold throughput, isolated from the simulator.

    Folds pre-built :class:`~repro.metrics.trace.RequestRecord`\\ s —
    mostly successes with a sprinkle of failures, drops and retries,
    like a real run's mix — into one
    :class:`~repro.metrics.sketch.StreamingStats`.  This is the
    per-request metrics cost of million-request streaming runs.
    """
    from .metrics.sketch import StreamingStats
    from .metrics.trace import RequestRecord

    ops = _scaled(300_000, scale)
    records = []
    for i in range(1000):
        rt = 1e-3 * (1.0 + (i * 37 % 997) / 100.0)
        records.append(RequestRecord(
            i, "K", 0.0, rt,
            attempts=1 + (i % 151 == 0),
            drops=((0.0, "app"),) if i % 193 == 0 else (),
            sheds=((0.0, "web"),) if i % 389 == 0 else (),
            failed=i % 97 == 0,
        ))
    stats = StreamingStats()
    fold = stats.fold
    n = len(records)
    for i in range(ops):
        fold(records[i % n])
    if stats.requests != ops:
        raise AssertionError("sketch fold lost records")
    return ops


def bench_scaleout_quick(scale=1.0):
    """A quick replicated-tier run: 3 replicas/tier, hedged routing.

    The replication layer triples the server count and routes every
    hop through a :class:`~repro.servers.replica.ReplicaGroup`
    (balancer pick, per-replica pools, hedge timers), so this guards
    the scale-out request path the same way ``fig01_quick`` guards the
    1/1/1 stack.  Uses the hedged variant — the most machinery per
    request — under the experiment's stall schedule.
    """
    from .experiments.scaleout import run_one

    duration = max(9.0, 17.0 * scale)
    cell = run_one("rpc_hedged", clients=2000, duration=duration,
                   warmup=1.0, seed=42)
    return cell["summary"]["requests"]


def bench_fanout_quick(scale=1.0):
    """A quick 1×16 fan-out run: gather barrier under a leaf stall.

    The service-graph request path — one root scattering a
    :class:`~repro.servers.gather.GatherCall` over 16 leaves and
    joining at the fan-in barrier, with the experiment's 400 ms leaf
    freeze included — so the per-leg transmit/settle/cancel machinery
    is guarded the way ``scaleout_quick`` guards replica routing.
    """
    from .experiments.fanout import run_one

    duration = max(6.0, 8.0 * scale)
    cell = run_one("sync", clients=2000, n=16, duration=duration,
                   warmup=1.0, seed=42)
    return cell["summary"]["requests"]


def bench_cache_quick(scale=1.0):
    """A quick cache-tier storm run: misses, coalescing, invalidation.

    The cache-aside request path — front tier, in-process LRU lookups
    with single-flight miss coalescing, and two bulk invalidations
    that each send a miss herd through the undersized backing tier —
    so the servlet cache instructions and the storm recovery path are
    timed under load the way ``fanout_quick`` times the gather legs.
    """
    from .experiments.cache_storage import run_one

    duration = max(8.0, 12.0 * scale)
    cell = run_one("storm_singleflight", clients=3000, duration=duration,
                   warmup=1.0, seed=42)
    return cell["summary"]["requests"]


#: name -> (workload, wall-clock repeats); best-of-repeats is recorded.
BENCHMARKS = (
    ("kernel_callbacks", bench_kernel_callbacks, 3),
    ("numeric_yield", bench_numeric_yield, 3),
    ("acquire_release_churn_2000", bench_acquire_release_churn, 3),
    ("cancel_under_load_2000", bench_cancel_under_load, 3),
    ("store_handoff", bench_store_handoff, 3),
    ("server_policy_step", bench_server_policy_step, 3),
    ("wheel_schedule", bench_wheel_schedule, 3),
    ("far_timer_churn", bench_far_timer_churn, 3),
    ("sketch_fold", bench_sketch_fold, 3),
    ("fig01_quick", bench_fig01_quick, 3),
    ("fig01_instrumented", bench_fig01_instrumented, 3),
    ("fig01_live", bench_fig01_live, 3),
    ("scaleout_quick", bench_scaleout_quick, 3),
    ("fanout_quick", bench_fanout_quick, 3),
    ("cache_quick", bench_cache_quick, 3),
    ("fig01_streaming_1m", bench_fig01_streaming_1m, 1),
)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def run_benchmarks(scale=None, names=None, progress=None):
    """Run the registry; returns a list of result dicts."""
    if scale is None:
        scale = default_scale()
    results = []
    for name, workload, repeats in BENCHMARKS:
        if names is not None and name not in names:
            continue
        best = None
        ops = 0
        for _ in range(repeats):
            start = time.perf_counter()
            ops = workload(scale)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        result = {
            "name": name,
            "ops": ops,
            "seconds": round(best, 6),
            "ops_per_sec": round(ops / best, 1) if best > 0 else None,
        }
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def git_rev():
    """Short git revision of the working tree, or ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def write_trajectory(path, results, label, scale):
    """Append one entry to the benchmark trajectory JSON at ``path``."""
    trajectory = {"description": "substrate benchmark trajectory; append "
                                 "entries with `python -m repro bench`",
                  "entries": []}
    if os.path.exists(path):
        with open(path) as fh:
            trajectory = json.load(fh)
    entry = {
        "label": label,
        "git_rev": git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": sys.version.split()[0],
        "scale": scale,
        "results": results,
    }
    trajectory.setdefault("entries", []).append(entry)
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    return entry


def compare_results(results, baseline_entry, threshold=10.0):
    """Compare a fresh run against a recorded trajectory entry.

    Matches workloads by name and compares **ops/s** (robust across
    ``--scale`` settings, unlike wall-clock seconds); the *delta* is the
    throughput loss in percent, positive = slower than the baseline.
    Returns ``(lines, regressions)`` where ``lines`` is a printable
    table and ``regressions`` lists the workloads whose loss exceeds
    ``threshold`` percent.  Workloads absent from the baseline (newly
    added ones) are reported but never count as regressions.
    """
    baseline = {r["name"]: r for r in baseline_entry.get("results", ())
                if r.get("ops_per_sec")}
    lines = [f"comparing against '{baseline_entry.get('label', '?')}' "
             f"(rev {baseline_entry.get('git_rev', '?')}, "
             f"{baseline_entry.get('timestamp', '?')})",
             f"{'benchmark':<28} {'base ops/s':>14} {'now ops/s':>14} "
             f"{'delta':>8}"]
    regressions = []
    for result in results:
        name = result["name"]
        now = result.get("ops_per_sec")
        base = baseline.get(name)
        if base is None or not now:
            lines.append(f"{name:<28} {'-':>14} "
                         f"{now or 0:>14,.0f} {'new':>8}")
            continue
        loss = 100.0 * (1.0 - now / base["ops_per_sec"])
        flag = ""
        if loss > threshold:
            regressions.append(name)
            flag = "  << regression"
        lines.append(f"{name:<28} {base['ops_per_sec']:>14,.0f} "
                     f"{now:>14,.0f} {loss:>+7.1f}%{flag}")
    return lines, regressions


def format_results(results):
    lines = [f"{'benchmark':<28} {'ops':>10} {'seconds':>10} {'ops/s':>14}"]
    for r in results:
        ops_s = f"{r['ops_per_sec']:,.0f}" if r["ops_per_sec"] else "-"
        lines.append(f"{r['name']:<28} {r['ops']:>10,} "
                     f"{r['seconds']:>10.4f} {ops_s:>14}")
    return "\n".join(lines)


def add_arguments(parser):
    """Install the bench options on ``parser`` (shared with ``repro bench``)."""
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized smoke run (scale 0.25, no JSON "
                             "write unless --out is given)")
    parser.add_argument("--scale", type=float, default=None,
                        help="iteration-count multiplier "
                             "(default: REPRO_BENCH_SCALE or 1.0)")
    parser.add_argument("--label", default=None,
                        help="label stored with the trajectory entry")
    parser.add_argument("--only", default=None,
                        help="comma-separated subset of benchmark names")
    parser.add_argument("--out", default=None,
                        help="trajectory JSON path "
                             "(default: BENCH_substrate.json in the repo "
                             "root; 'none' skips writing)")
    parser.add_argument("--compare", action="store_true",
                        help="compare this run against the last "
                             "trajectory entry instead of appending one; "
                             "exit 1 on any regression beyond --threshold")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="ops/s loss (percent) counted as a "
                             "regression by --compare (default: 10)")
    return parser


def _default_trajectory_path():
    # repo root = two levels above this file's package directory
    root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    return os.path.join(root, "BENCH_substrate.json")


def run_cli(args):
    """Execute a parsed bench invocation; returns a process exit code."""
    scale = args.scale
    if scale is None:
        scale = 0.25 if args.smoke else default_scale()
    names = None
    if args.only:
        names = {n.strip() for n in args.only.split(",") if n.strip()}
        unknown = names - {name for name, _f, _r in BENCHMARKS}
        if unknown:
            print(f"unknown benchmark(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    def progress(result):
        print(format_results([result]).splitlines()[-1])

    print(f"{'benchmark':<28} {'ops':>10} {'seconds':>10} {'ops/s':>14}")
    results = run_benchmarks(scale=scale, names=names, progress=progress)

    if args.compare:
        path = args.out if args.out not in (None, "none") \
            else _default_trajectory_path()
        if not os.path.exists(path):
            print(f"no trajectory at {path} to compare against",
                  file=sys.stderr)
            return 2
        with open(path) as fh:
            entries = json.load(fh).get("entries", [])
        if not entries:
            print(f"trajectory at {path} has no entries", file=sys.stderr)
            return 2
        lines, regressions = compare_results(results, entries[-1],
                                             threshold=args.threshold)
        print()
        print("\n".join(lines))
        if regressions:
            print(f"\nREGRESSION: {', '.join(regressions)} slower than "
                  f"baseline by more than {args.threshold:g}%",
                  file=sys.stderr)
            return 1
        print(f"\n[no regression beyond {args.threshold:g}%]")
        return 0

    out = args.out
    if out is None and args.smoke:
        out = "none"
    if out is None:
        out = _default_trajectory_path()
    if out != "none":
        label = args.label or ("smoke" if args.smoke else "bench run")
        entry = write_trajectory(out, results, label, scale)
        print(f"\n[trajectory entry '{entry['label']}' "
              f"(rev {entry['git_rev']}) appended to {out}]")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="run the substrate benchmarks and append the results "
                    "to the BENCH_substrate.json trajectory",
    )
    add_arguments(parser)
    return run_cli(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
