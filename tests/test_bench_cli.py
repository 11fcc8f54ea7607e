"""The bench/profile command-line surface: --compare gate, new
calendar-queue workloads, and the cProfile wrapper.

These run real (tiny-scale) workloads through the same entry points CI
uses, so the regression gate's exit codes and the profiler's artifacts
are pinned by tests rather than by the workflow file alone.
"""

import json
import pstats

import pytest

from repro import bench, profile
from repro.cli import main
from repro.experiments import runner

from reference_kernel import use_heap_kernel


def test_new_workloads_report_their_ops():
    assert bench.bench_wheel_schedule(0.01) == 2000
    assert bench.bench_far_timer_churn(0.01) == 1200
    assert bench.bench_sketch_fold(0.01) == 3000


def test_far_timer_churn_matches_heap_kernel(monkeypatch):
    """The churn workload executes the same event count under both
    schedulers (it exists to compare them)."""
    wheel = bench.bench_far_timer_churn(0.01)
    use_heap_kernel(monkeypatch)
    assert bench.bench_far_timer_churn(0.01) == wheel


# ----------------------------------------------------------------------
# compare_results
# ----------------------------------------------------------------------
def _entry(**ops_per_sec):
    return {
        "label": "baseline", "git_rev": "abc1234",
        "timestamp": "2026-08-08T00:00:00",
        "results": [{"name": name, "ops": 1000, "seconds": 1.0,
                     "ops_per_sec": value}
                    for name, value in ops_per_sec.items()],
    }


def test_compare_results_passes_within_threshold():
    results = [{"name": "a", "ops": 1000, "seconds": 1.0,
                "ops_per_sec": 950.0}]
    lines, regressions = bench.compare_results(
        results, _entry(a=1000.0), threshold=10.0)
    assert regressions == []
    assert lines[0].startswith("comparing against 'baseline'")
    assert any("+5.0%" in line for line in lines)  # the printed loss


def test_compare_results_flags_regression():
    results = [{"name": "a", "ops": 1000, "seconds": 1.0,
                "ops_per_sec": 500.0}]
    _lines, regressions = bench.compare_results(
        results, _entry(a=1000.0), threshold=10.0)
    assert regressions == ["a"]


def test_compare_results_ignores_new_workloads():
    results = [{"name": "brand_new", "ops": 10, "seconds": 1.0,
                "ops_per_sec": 10.0}]
    lines, regressions = bench.compare_results(
        results, _entry(a=1000.0), threshold=10.0)
    assert regressions == []
    assert any("new" in line for line in lines)


# ----------------------------------------------------------------------
# the CLI gate
# ----------------------------------------------------------------------
def _write_trajectory(path, entry):
    path.write_text(json.dumps({"description": "test", "entries": [entry]}))


def test_bench_compare_cli_passes_and_fails(tmp_path, capsys):
    trajectory = tmp_path / "traj.json"
    args = ["bench", "--scale", "0.01", "--only", "sketch_fold",
            "--compare", "--out", str(trajectory)]

    # generous baseline -> pass
    _write_trajectory(trajectory, _entry(sketch_fold=1.0))
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "no regression" in out

    # impossible baseline -> regression, exit 1
    _write_trajectory(trajectory, _entry(sketch_fold=1e15))
    assert main(args + ["--threshold", "50"]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.err
    assert "sketch_fold" in captured.err
    # compare mode never appends to the trajectory
    assert len(json.loads(trajectory.read_text())["entries"]) == 1


def test_bench_compare_cli_requires_a_trajectory(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["bench", "--scale", "0.01", "--only", "sketch_fold",
                 "--compare", "--out", str(missing)]) == 2
    assert "no trajectory" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro profile
# ----------------------------------------------------------------------
def test_profile_list_names_experiments_and_benchmarks(capsys):
    assert main(["profile", "list"]) == 0
    out = capsys.readouterr().out
    assert "fig01" in out
    assert "kernel_callbacks" in out
    assert "fig01_streaming_1m" in out


def test_every_listed_experiment_resolves_to_a_profile_target():
    """Every experiment name ``repro profile list`` prints builds a
    target (built here, not run), and the list holds every experiment
    ``repro run`` knows."""
    benches = {name for name, _workload, _repeats in bench.BENCHMARKS}
    experiments = [name for name in profile.list_targets()
                   if name not in benches]
    assert experiments == runner.names_with("report")
    for name in experiments:
        for quick in (True, False):
            assert callable(profile._experiment_target(name, quick)), name


def test_registry_quick_params_are_keywords_of_run():
    """``profile --quick`` and ``run-all`` pass an experiment's registry
    quick params and variant params to its ``run`` (``run-all`` adds the
    seed; ``profile`` passes the quick duration to a single run)."""
    import inspect

    for name, spec in runner.REGISTRY.items():
        parameters = inspect.signature(runner.experiment(name).run).parameters
        keys = set(spec.quick) | {"seed"}
        for variant in spec.variants:
            keys |= set(variant)
        assert keys <= set(parameters), name


def test_profile_rejects_unknown_target(capsys):
    assert main(["profile", "no_such_thing"]) == 2
    assert "unknown profile target" in capsys.readouterr().err


def test_profile_benchmark_writes_loadable_pstats(tmp_path, capsys):
    dump = tmp_path / "kernel.prof"
    assert main(["profile", "kernel_callbacks", "--quick", "--top", "5",
                 "--out", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "kernel_callbacks" in out
    assert "function calls" in out  # the pstats table rendered
    # collector time never shows in the table, so it gets its own line
    assert "cyclic garbage collector: " in out
    assert "collections (generation 0/1/2)" in out
    stats = pstats.Stats(str(dump))  # snakeviz-loadable binary dump
    assert stats.total_calls > 0
    run_frames = [key for key in stats.stats if key[2] == "run"]
    assert run_frames, "kernel run loop missing from the profile"


@pytest.mark.parametrize("flag", ["tottime", "cumulative"])
def test_profile_sort_orders_accepted(flag, capsys):
    assert main(["profile", "sketch_fold", "--quick", "--top", "3",
                 "--sort", flag]) == 0
    assert "sketch_fold" in capsys.readouterr().out
