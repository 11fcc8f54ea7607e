"""The repository benchmark: how fast the simulator runs its workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rpc_3tier --seed 1 --seconds 30 --trace 0

Every simulator run happens in a fresh child process (``child.py``), so
set-up time and peak memory are those of one run.  With ``--trace 0``
the benchmark starts child runs one after another until ``--seconds``
is used up (at least three) and reports the medians of the end-to-end
metrics.  With ``--trace 1`` it makes one plain run and one run under
cProfile, and reports the per-layer table, the exact work counters and
the tracing overhead; the raw profile and the table are written to
``perfbench/out/``.  Every run's output checks must pass and every run
of one seed must produce the same simulated digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
in this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
from layers import ALL_LAYERS, mapping_problems  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fewest child runs a measuring run takes its medians over
MIN_RUNS = 3
#: no child run starts later than this many seconds into a measuring
#: run, so the whole benchmark ends well inside three minutes
LAST_START = 120.0
CHILD_TIMEOUT = 150.0

END_TO_END = (
    ("sim_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

COUNTERS = (
    ("sim.kernel.events_per_req", "events/req"),
    ("sim.process.resumes_per_req", "resumes/req"),
    ("cpu.reallocs_per_req", "reallocs/req"),
    ("net.packets_per_req", "packets/req"),
    ("net.drops", "count"),
    ("servers.steps_per_req", "steps/req"),
    ("metrics.trace.retained", "count"),
    ("metrics.trace.p50_ms", "ms"),
    ("metrics.trace.p99_ms", "ms"),
    ("metrics.trace.vlrt", "count"),
)


def per_layer_metrics():
    """Every ``--trace 1`` metric as ``(name, unit)``, in report order."""
    metrics = []
    for layer in ALL_LAYERS:
        metrics += [(f"{layer}.self_s", "s"), (f"{layer}.share", "fraction"),
                    (f"{layer}.calls", "count")]
    return metrics + list(COUNTERS) + [("trace.overhead", "fraction")]


def _child_env():
    # the program gets its inputs from the command line only: no
    # inherited REPRO_* switches, no foreign import path
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, profile=None):
    """Run one child process; its report, with ``setup_s`` and
    ``wall_s`` added, or ``None`` when it crashed."""
    command = [sys.executable, CHILD, "--workload", workload,
               "--seed", str(seed), "--src", SRC]
    if profile is not None:
        command += ["--profile", profile]
    start = time.monotonic()
    try:
        proc = subprocess.run(command, env=_child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"[{workload} seed {seed}: timed out]", file=sys.stderr)
        return None
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"[{workload} seed {seed}: exit {proc.returncode}]",
              file=sys.stderr)
        return None
    report = json.loads(lines[-1])
    report["setup_s"] = report["first_run_at"] - start
    report["wall_s"] = wall
    return report


def failed_runs(reports):
    """Runs whose checks failed; every run fails when the simulated
    digests of one seed disagree."""
    for report in reports:
        for failure in report["failures"]:
            print(f"  check failed: {failure}")
    if len({report["digest"] for report in reports}) > 1:
        print("  check failed: runs of one seed differ in simulated output")
        return len(reports)
    return sum(1 for report in reports if report["failures"])


def measure(workload, seed, seconds):
    """Untraced child runs for ``seconds``; end-to-end metric medians."""
    reports = []
    start = time.monotonic()
    while True:
        report = spawn(workload, seed)
        if report is None:
            return None
        reports.append(report)
        print(f"  run {len(reports)}: {report['requests']} requests, "
              f"sim.run {report['run_s']:.3f} s, "
              f"setup {report['setup_s']:.3f} s, "
              f"wall {report['wall_s']:.3f} s, "
              f"digest {report['digest']}", flush=True)
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in reports)
        if elapsed + typical > (seconds if len(reports) >= MIN_RUNS
                                else LAST_START):
            break
    metrics = {
        "sim_req_per_s": statistics.median(
            r["requests"] / r["run_s"] for r in reports),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    return reports, metrics


def trace(workload, seed):
    """One plain and one profiled child run; the per-layer metrics."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}")
    plain = spawn(workload, seed)
    traced = plain and spawn(workload, seed, profile=stem + ".prof")
    if traced is None:
        return None
    total = sum(entry["self_s"] for entry in traced["layers"].values())
    metrics = {}
    rows = [f"{'layer':<18} {'self_s':>10} {'share':>8} {'calls':>12}"]
    for layer in ALL_LAYERS:
        entry = traced["layers"][layer]
        share = entry["self_s"] / total
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.share"] = share
        metrics[f"{layer}.calls"] = entry["calls"]
        rows.append(f"{layer:<18} {entry['self_s']:>10.4f} {share:>8.1%} "
                    f"{entry['calls']:>12,}")
    metrics.update(traced["counters"])
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"] - 1.0
    rows += [f"{name:<30} {metrics[name]:>14.4f} {unit}"
             for name, unit in COUNTERS + (("trace.overhead", "fraction"),)]
    table = "\n".join(rows) + "\n"
    with open(stem + "-layers.txt", "w") as fh:
        fh.write(table)
    print(table, end="")
    print(f"[raw profile: {os.path.relpath(stem + '.prof', ROOT)}]")
    return [plain, traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="simulator benchmark; prints one JSON result line")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no simulator source under {SRC}", file=sys.stderr)
        return 2
    problems = mapping_problems(SRC)
    if problems:
        print("module-to-layer map is out of date:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 2
    # the build step: byte-compile the program once, outside every timing
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)

    print(f"{args.workload} seed {args.seed}, "
          f"{'traced' if args.trace else f'{args.seconds:g} s'}",
          flush=True)
    if args.trace:
        done = trace(args.workload, args.seed)
        declared = per_layer_metrics()
    else:
        done = measure(args.workload, args.seed, args.seconds)
        declared = END_TO_END
    if done is None:
        print("a child run crashed; no result", file=sys.stderr)
        return 1
    reports, values = done
    failed = failed_runs(reports)
    print(f"checks_failed {failed / len(reports):.3f} "
          f"({failed} of {len(reports)} runs)")
    metrics = {}
    for name, unit in declared:
        metrics[name] = {"value": values[name], "unit": unit}
        if not args.trace:
            print(f"{name:<16} {values[name]:>12.4f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reports),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
