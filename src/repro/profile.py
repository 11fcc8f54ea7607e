"""Profiling harness: ``python -m repro profile <target>``.

Runs one experiment or substrate benchmark under :mod:`cProfile` and
prints the :mod:`pstats` hot-function table — the workflow every
perf PR in this repo starts from (docs/PERF.md).  ``--out`` writes the
raw profile in the binary pstats format, loadable by ``snakeviz``,
``tuna`` or ``pstats.Stats(path)`` for interactive drill-down.

Targets
-------
- every experiment ``repro run`` knows (the registry,
  :data:`repro.experiments.runner.REGISTRY`): one with single runs is
  profiled through its representative cell (the one ``repro diagnose``
  examines), any other through its whole ``run``; ``--quick`` runs
  either at the registry's quick scale (``repro run-all --quick``);
- every benchmark workload from :mod:`repro.bench`
  (``kernel_callbacks``, ``fig01_streaming_1m``, ...) — profiled at
  scale 1.0, or 0.25 with ``--quick``.

The profiled function call is the *workload only*: parser setup,
registry imports and report rendering stay outside the capture, so the
table reads as "where does the simulation itself spend time".

Under the table one line reports the cyclic garbage collector's
collections per generation and the seconds spent in them during the
target, measured through :data:`gc.callbacks`.  cProfile cannot show
that time: a collection runs inside whichever call happened to
allocate, and its cost is charged to that frame.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import sys
import time

__all__ = ["add_arguments", "list_targets", "main", "run_cli"]

#: default number of rows in the printed hot-function table
DEFAULT_TOP = 25


class _CollectorWatch:
    """A :data:`gc.callbacks` hook counting collections per generation
    and the seconds spent in them."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections[info["generation"]] += 1
            self.seconds += time.perf_counter() - self._started

    def summary(self):
        counts = "/".join(map(str, self.collections))
        return (f"cyclic garbage collector: {counts} collections "
                f"(generation 0/1/2), {self.seconds:.3f} s")


def _bench_targets():
    from . import bench

    return {name: workload for name, workload, _repeats in bench.BENCHMARKS}


def _experiment_target(name, quick):
    """A zero-argument thunk running registry experiment ``name``: its
    representative single run, or else its whole ``run``, at the
    registry's quick scale with ``quick``."""
    from .experiments import runner

    experiment = runner.experiment(name)
    params = runner.REGISTRY[name].quick if quick else {}
    if hasattr(experiment, "single_run"):
        scale = {"duration": params["duration"]} if quick else {}
        _heading, simulate = experiment.single_run(**scale)
        return simulate
    return lambda: experiment.run(**params)


def list_targets():
    """Every name ``repro profile`` accepts."""
    from .experiments import runner

    return runner.names_with("report") + sorted(_bench_targets())


def add_arguments(parser):
    """Install the profile options on ``parser``."""
    parser.add_argument("target",
                        help="experiment (see 'repro list') or benchmark "
                             "workload (see 'repro bench') to profile; "
                             "'list' prints every accepted name")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run: the registry's quick "
                             "experiment scale (as 'run-all --quick'), "
                             "benchmark scale 0.25")
    parser.add_argument("--top", type=int, default=DEFAULT_TOP,
                        help=f"rows in the hot-function table "
                             f"(default {DEFAULT_TOP})")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default: cumulative)")
    parser.add_argument("--out", default=None,
                        help="write the raw profile here (binary pstats "
                             "format: snakeviz/tuna/pstats.Stats loadable)")
    return parser


def run_cli(args):
    """Execute a parsed profile invocation; returns an exit code."""
    if args.target == "list":
        print("\n".join(list_targets()))
        return 0
    benches = _bench_targets()
    if args.target in benches:
        workload = benches[args.target]
        scale = 0.25 if args.quick else 1.0
        target = lambda: workload(scale)  # noqa: E731
        described = f"benchmark {args.target} (scale {scale:g})"
    elif args.target in list_targets():
        target = _experiment_target(args.target, args.quick)
        described = (f"experiment {args.target}"
                     f"{' (quick)' if args.quick else ''}")
    else:
        print(f"unknown profile target {args.target!r}; "
              "'repro profile list' prints the accepted names",
              file=sys.stderr)
        return 2

    print(f"profiling {described} ...", flush=True)
    profiler = cProfile.Profile()
    collector = _CollectorWatch()
    gc.callbacks.append(collector)
    profiler.enable()
    try:
        target()
    finally:
        profiler.disable()
        gc.callbacks.remove(collector)

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    print()
    stats.print_stats(args.top)
    print(collector.summary())
    if args.out:
        profiler.dump_stats(args.out)
        print(f"[raw profile written to {args.out}; open with "
              f"'snakeviz {args.out}' or pstats.Stats({args.out!r})]")
    return 0


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="profile one experiment or benchmark workload with "
                    "cProfile and print the pstats hot-function table",
    )
    add_arguments(parser)
    return run_cli(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
