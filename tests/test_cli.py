"""Tests for the command-line interface (repro.cli)."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.experiments import runner


def test_list_prints_every_experiment(capsys):
    """``repro list`` is the registry: exactly its names, in order, each
    with the registry's one description."""
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(runner.REGISTRY)
    for line, spec in zip(lines, runner.REGISTRY.values()):
        assert spec.description in line


@pytest.fixture
def no_simulation(monkeypatch):
    """Replace the run, report and claim check of every registry
    experiment that prints a figure with stubs, so a command can be
    driven end to end without simulating anything; returns the names
    ``run`` was called for."""
    called = []
    for name in runner.names_with("report"):
        experiment = runner.experiment(name)

        def run(_name=name, **options):
            called.append((_name, options))
            return _name

        monkeypatch.setattr(experiment, "run", run)
        monkeypatch.setattr(experiment, "report",
                            lambda result: f"report of {result}")
        if hasattr(experiment, "check_claims"):
            monkeypatch.setattr(experiment, "check_claims",
                                lambda result: [])
    return called


def test_run_resolves_every_registry_name(no_simulation, capsys):
    """Every registry name is a ``repro run`` choice: it calls that
    experiment's own ``run`` (passing nothing it was not given) and
    prints its report; the one without a figure exits 2 naming
    ``run-all``."""
    for name in runner.REGISTRY:
        status = main(["run", name])
        captured = capsys.readouterr()
        if name in runner.names_with("report"):
            assert status == 0, name
            assert no_simulation[-1] == (name, {})
            assert f"report of {name}" in captured.out
        else:
            assert status == 2, name
            assert f"run-all --jobs {name}" in captured.err
    assert main(["run", "fig03", "--duration", "7", "--streaming"]) == 0
    assert no_simulation[-1] == ("fig03", {"duration": 7.0,
                                           "streaming": True})


def test_run_exits_1_when_claims_fail(no_simulation, monkeypatch, capsys):
    experiment = runner.experiment("fanout")
    monkeypatch.setattr(experiment, "check_claims",
                        lambda result: ["a claim failed"])
    assert main(["run", "fanout"]) == 1


@pytest.mark.parametrize("name", ["headline", "all"])
@pytest.mark.parametrize("flag", [["--out", "raw"], ["--diagnose"]])
def test_run_rejects_single_run_flags_before_simulating(
        name, flag, no_simulation, capsys):
    """--out and --diagnose act on single runs: an experiment without
    any (``all`` includes some) fails with one line before anything
    runs."""
    assert main(["run", name, "--duration", "12", *flag]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "headline" in err
    assert no_simulation == []


def _parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


def test_diagnose_and_profile_accept_only_registry_names(capsys):
    """The experiment names ``repro diagnose`` and ``repro profile
    list`` accept come from the registry: diagnose takes exactly those
    with single runs, profile every one ``repro run`` prints a figure
    for (every registry name has ``run``; ``nx_sweep`` has no
    ``report``)."""
    from repro import bench

    accepted = [name for name in runner.REGISTRY
                if _parses(["diagnose", name])]
    assert accepted == runner.names_with("single_run")
    assert accepted[:2] == ["fig01", "fig03"]
    assert not _parses(["diagnose", "fig99"])
    capsys.readouterr()
    assert main(["profile", "list"]) == 0
    benches = {name for name, _workload, _repeats in bench.BENCHMARKS}
    listed = [name for name in capsys.readouterr().out.split()
              if name not in benches]
    assert listed == runner.names_with("report")
    assert set(listed) == set(runner.REGISTRY) - {"nx_sweep"}


def test_conditions_paper_example(capsys):
    assert main(["conditions"]) == 0
    out = capsys.readouterr().out
    assert "122 dropped packets" in out
    assert "278 ms" in out


def test_conditions_drain_keeps_up(capsys):
    assert main(["conditions", "--rate", "100", "--drain", "100"]) == 0
    out = capsys.readouterr().out
    assert "never overflows" in out


def test_run_all_list_prints_registry(capsys):
    from repro.experiments.runner import REGISTRY

    assert main(["run-all", "--list"]) == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out


def test_run_all_rejects_unknown_job(capsys):
    assert main(["run-all", "--jobs", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_all_rejects_empty_jobs(capsys):
    # "--jobs ''" must not silently fall through to the full registry
    assert main(["run-all", "--jobs", ""]) == 2
    assert "no experiments" in capsys.readouterr().err


def test_run_all_rejects_vacuous_seed_count(capsys):
    assert main(["run-all", "--jobs", "validation", "--seeds", "0"]) == 2
    assert "nothing to run" in capsys.readouterr().err


def test_run_all_executes_subset_and_writes_records(tmp_path, capsys):
    from repro.experiments.record import load_records

    out_file = str(tmp_path / "records.json")
    status = main(["run-all", "--jobs", "validation", "--quick",
                   "--workers", "2", "--out", out_file])
    assert status == 0
    printed = capsys.readouterr().out
    assert "1 ok, 0 failed" in printed
    records = load_records(out_file)
    assert list(records) == ["validation[workloads=[2000, 7000]]@s42"]


def test_run_streaming_rejects_export(capsys):
    """--out exports per-request records, which --streaming folds away:
    the combination must fail fast with a one-line error."""
    assert main(["run", "fig03", "--streaming", "--out", "raw"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "--streaming" in err


def test_run_all_streaming_rejects_exact_record_experiments(capsys):
    assert main(["run-all", "--jobs", "fig02,validation",
                 "--streaming", "--quick"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "fig02" in err
    assert "--jobs" in err  # tells the user how to exclude it


@pytest.mark.integration
@pytest.mark.slow
def test_run_all_streaming_executes(tmp_path, capsys):
    from repro.experiments.record import load_records

    out_file = str(tmp_path / "records.json")
    status = main(["run-all", "--jobs", "validation", "--quick",
                   "--streaming", "--out", out_file])
    assert status == 0
    records = load_records(out_file)
    (record,) = records.values()
    assert record["params"]["streaming"] is True


@pytest.mark.integration
@pytest.mark.slow
def test_diagnose_warns_on_event_recorder_eviction(tmp_path, capsys):
    """A too-small --events capacity must be called out loudly: the
    exported event log silently misses the run's beginning otherwise."""
    out_dir = str(tmp_path / "raw")
    status = main(["diagnose", "fig01", "--workload", "1000",
                   "--duration", "8", "--out", out_dir,
                   "--events", "500"])
    assert status == 0
    captured = capsys.readouterr()
    assert "WARNING" in captured.err
    assert "evicted" in captured.err
    assert "--events" in captured.err            # the remediation hint
    assert "oldest events beyond capacity" in captured.out
    assert os.path.exists(os.path.join(out_dir, "fig01_trace.json"))


@pytest.mark.integration
@pytest.mark.slow
def test_diagnose_no_warning_when_capacity_suffices(tmp_path, capsys):
    out_dir = str(tmp_path / "raw")
    status = main(["diagnose", "fig01", "--workload", "1000",
                   "--duration", "8", "--out", out_dir])
    assert status == 0
    assert "WARNING" not in capsys.readouterr().err


def test_diagnose_rejects_bogus_variant(capsys):
    """An unknown variant must fail fast with a one-line error that
    lists the valid choices — before any simulation runs."""
    assert main(["diagnose", "scaleout", "--variant", "bogus"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "bogus" in err
    from repro.experiments import scaleout

    for variant in scaleout.VARIANTS:
        assert variant in err


def test_diagnose_rejects_bogus_fanout_variant(capsys):
    assert main(["diagnose", "fanout", "--variant", "allof"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "allof" in err
    from repro.experiments import fanout

    for variant in fanout.VARIANTS:
        assert variant in err


def test_diagnose_rejects_bogus_policy_matrix_variant(capsys):
    assert main(["diagnose", "policy_matrix", "--variant", "nope"]) == 2
    err = capsys.readouterr().err
    assert "nope" in err
    assert "shed_web" in err


def test_diagnose_rejects_bogus_cache_storage_variant(capsys):
    assert main(["diagnose", "cache_storage", "--variant", "warm"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "warm" in err
    from repro.experiments import cache_storage

    for variant in cache_storage.VARIANTS:
        assert variant in err


def _beat(sim_time):
    """The smallest heartbeat dict render_heartbeats accepts."""
    return {"sim_time": sim_time, "requests": 100, "throughput_rps": 50.0,
            "drops": 0, "completed": 95, "failed": 0, "retries": 0,
            "sheds": 0, "hedges": 0}


def test_watch_renders_heartbeat_file(tmp_path, capsys):
    path = tmp_path / "beats.jsonl"
    path.write_text(json.dumps(_beat(1.0)) + "\n"
                    + json.dumps(_beat(2.0)) + "\n")
    assert main(["watch", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1.0" in out
    assert "2.0" in out


def test_watch_tolerates_half_written_trailing_line(tmp_path, capsys):
    """A live writer may be mid-heartbeat when watch reads the file:
    the complete prefix must render instead of crashing on the tail."""
    path = tmp_path / "beats.jsonl"
    path.write_text(json.dumps(_beat(1.0)) + "\n"
                    + json.dumps(_beat(2.0)) + "\n"
                    + '{"sim_time": 3.0, "requ')  # torn mid-write
    assert main(["watch", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "1.0" in captured.out
    assert "2.0" in captured.out


def test_watch_only_a_torn_line_is_not_an_error(tmp_path, capsys):
    """Racing the writer to the very first heartbeat: nothing complete
    yet is a retry-later situation, not a parse failure."""
    path = tmp_path / "beats.jsonl"
    path.write_text('{"sim_ti')
    assert main(["watch", str(path)]) == 0
    assert "no heartbeats" in capsys.readouterr().out


def test_watch_empty_file_is_not_an_error(tmp_path, capsys):
    path = tmp_path / "beats.jsonl"
    path.write_text("")
    assert main(["watch", str(path)]) == 0
    assert "no heartbeats" in capsys.readouterr().out


def test_watch_still_rejects_mid_file_corruption(tmp_path, capsys):
    """Only the *trailing* line may be torn; garbage earlier in the
    file means it is not heartbeat JSONL at all."""
    path = tmp_path / "beats.jsonl"
    path.write_text("definitely not json\n" + json.dumps(_beat(1.0)) + "\n")
    assert main(["watch", str(path)]) == 2
    assert "not heartbeat JSONL" in capsys.readouterr().err


def test_watch_missing_file_is_an_error(tmp_path, capsys):
    assert main(["watch", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "fig99"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.integration
@pytest.mark.slow
def test_run_timeline_with_export(tmp_path, capsys):
    out_dir = str(tmp_path / "raw")
    status = main(["run", "fig03", "--duration", "30", "--out", out_dir])
    assert status == 0
    printed = capsys.readouterr().out
    assert "Fig 3" in printed
    assert "CLAIM CHECK: ok" in printed
    for suffix in ("cpu.csv", "queues.csv", "requests.csv", "summary.json"):
        assert os.path.exists(os.path.join(out_dir, f"fig03_{suffix}"))
    payload = json.loads(
        open(os.path.join(out_dir, "fig03_summary.json")).read()
    )
    assert payload["summary"]["dropped_packets"] > 0
