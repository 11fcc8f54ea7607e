"""Tests for the parallel experiment-execution engine
(repro.experiments.runner): registry integrity, job expansion, the
parallel-vs-serial determinism contract, and the worker crash/timeout
recovery paths."""

import pytest

from repro.experiments import record
from repro.experiments.report import run_report_table
from repro.experiments.runner import (
    REGISTRY,
    JobConfig,
    canonical,
    derive_seed,
    execute_job,
    expand_jobs,
    job_id,
    run_jobs,
)

SELFTEST = "repro.experiments._selftest:run_experiment"

#: two representative experiments (one timeline figure, one analytic
#: validation) at test scale — small enough for the fast loop, real
#: enough to exercise full simulator runs in the workers
EQUIVALENCE_JOBS = [
    JobConfig(name="fig03", seed=42, duration=12.0,
              params={"clients": 3000}),
    JobConfig(name="validation", seed=7, duration=10.0,
              params={"workloads": [2000]}),
]


# ----------------------------------------------------------------------
# registry and job expansion
# ----------------------------------------------------------------------
def test_registry_covers_every_experiment_module():
    expected = {"fig01", "fig02", "fig03", "fig05", "fig07", "fig08",
                "fig09", "fig10", "fig11", "fig12", "headline",
                "deep_chain", "replication", "validation", "cause_variety",
                "nx_sweep", "policy_matrix", "scaleout", "fanout",
                "cache_storage"}
    assert set(REGISTRY) == expected


def test_registry_entries_resolve_to_callables():
    """Every registry name resolves to an experiment that ``execute_job``
    can drive: its ``run``, then its ``record``."""
    from repro.experiments.runner import experiment

    for name in REGISTRY:
        runnable = experiment(name)
        assert callable(runnable.run), name
        assert callable(runnable.record), name


def test_execute_job_runs_then_records(monkeypatch):
    """A registry job is its experiment's ``run`` with the job's seed,
    params and (only when it has one) duration, then ``record`` of the
    result."""
    from repro.experiments.runner import experiment

    calls = []
    row = experiment("fig07")
    monkeypatch.setattr(row, "run", lambda **options: options)
    monkeypatch.setattr(row, "record",
                        lambda result: calls.append(result) or {"ok": 1})
    rec = execute_job(JobConfig(name="fig07", seed=9,
                                params={"variant": "mysql"}))
    assert calls == [{"variant": "mysql", "seed": 9}]
    assert rec["payload"] == {"ok": 1}
    execute_job(JobConfig(name="fig07", seed=9, duration=3.0))
    assert calls[-1] == {"seed": 9, "duration": 3.0}


#: the experiments with named variants, and how each is asked for one
_VARIANT_CALLS = {
    "run_one": lambda module: module.run_one("bogus"),
    "run": lambda module: module.run(variants=["bogus"]),
    "single_run": lambda module: module.single_run(variant="bogus"),
}


@pytest.mark.parametrize("call", sorted(_VARIANT_CALLS))
@pytest.mark.parametrize("name", ["cache_storage", "fanout",
                                  "policy_matrix", "scaleout"])
def test_unknown_variant_fails_one_way_before_building(name, call,
                                                       monkeypatch):
    """An unknown variant name raises the one ``check_variants``
    message, listing the valid names, before any system is built."""
    from repro.experiments import runner
    from repro.sim.kernel import Simulator

    module = runner.experiment(name)

    def no_build(*_args, **_kwargs):
        raise AssertionError("built a system for an unknown variant")

    # every system is built on a fresh simulator
    monkeypatch.setattr(Simulator, "__init__", no_build)
    with pytest.raises(ValueError) as info:
        _VARIANT_CALLS[call](module)
    valid = ", ".join(module.VARIANTS)
    assert str(info.value) == f"unknown variant 'bogus'; valid variants: {valid}"


def test_expand_jobs_variants_and_seeds():
    jobs = expand_jobs(names=["fig07", "nx_sweep"], seeds=2, base_seed=42)
    # fig07 has 2 variants, nx_sweep has 4; each gets 2 seeds
    assert len(jobs) == (2 + 4) * 2
    ids = [job_id(j) for j in jobs]
    assert len(set(ids)) == len(ids)
    # seed index 0 keeps the base seed; index 1 derives a new stream
    by_name = [j for j in jobs if j.name == "fig07" and not j.params]
    assert by_name[0].seed == 42
    assert by_name[1].seed == derive_seed(42, "fig07/[]", 1)


def test_expand_jobs_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown experiment"):
        expand_jobs(names=["fig99"])


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(42, "a", 0) == derive_seed(42, "a", 0)
    assert derive_seed(42, "a", 0) != derive_seed(42, "a", 1)
    assert derive_seed(42, "a", 0) != derive_seed(42, "b", 0)
    assert derive_seed(42, "a", 0) != derive_seed(43, "a", 0)


def test_canonical_normalizes_keys_tuples_and_numpy():
    import numpy as np

    record_in = {
        4000: (1, 2.5),
        "n": np.int64(3),
        "x": np.float64(0.5),
        "nested": {True: None},
    }
    out = canonical(record_in)
    assert out == {"4000": [1, 2.5], "n": 3, "x": 0.5,
                   "nested": {"True": None}}
    assert type(out["n"]) is int
    assert type(out["x"]) is float


def test_job_id_sorts_params():
    job = JobConfig(name="x", seed=5, params={"b": 2, "a": 1})
    assert job_id(job) == "x[a=1,b=2]@s5"


# ----------------------------------------------------------------------
# the determinism contract: parallel == serial, byte for byte
# ----------------------------------------------------------------------
def test_parallel_records_byte_identical_to_serial():
    serial = run_jobs(EQUIVALENCE_JOBS, workers=1)
    parallel = run_jobs(EQUIVALENCE_JOBS, workers=4)
    assert serial.ok and parallel.ok
    assert serial.records == parallel.records
    assert (record.records_to_json(serial.records)
            == record.records_to_json(parallel.records))


def test_records_sorted_regardless_of_completion_order():
    report = run_jobs(list(reversed(EQUIVALENCE_JOBS)), workers=2)
    assert list(report.records) == sorted(report.records)


# ----------------------------------------------------------------------
# failure paths: crash retry, exhaustion, timeout
# ----------------------------------------------------------------------
def test_worker_crash_is_retried_and_recovers():
    flaky = JobConfig(name="selftest", entry=SELFTEST,
                      params={"mode": "flaky-crash"})
    report = run_jobs([flaky], workers=2, retries=2)
    assert report.ok
    jid = job_id(flaky)
    assert report.attempts[jid] == 2
    assert report.records[jid]["payload"]["recovered_on_attempt"] == 1


def test_persistent_crash_exhausts_retries():
    crash = JobConfig(name="selftest", entry=SELFTEST,
                      params={"mode": "crash"})
    report = run_jobs([crash], workers=2, retries=1)
    assert not report.ok
    jid = job_id(crash)
    assert report.attempts[jid] == 2
    assert "crashed" in report.failures[jid]


def test_worker_exception_is_reported():
    bad = JobConfig(name="selftest", entry=SELFTEST,
                    params={"mode": "fail"})
    report = run_jobs([bad], workers=2, retries=0)
    assert not report.ok
    assert "deliberate failure" in report.failures[job_id(bad)]


def test_serial_mode_reports_failures_too():
    bad = JobConfig(name="selftest", entry=SELFTEST,
                    params={"mode": "fail"})
    report = run_jobs([bad], workers=1, retries=1)
    assert not report.ok
    assert report.attempts[job_id(bad)] == 2


def test_hanging_worker_is_timed_out():
    hang = JobConfig(name="selftest", entry=SELFTEST,
                     params={"mode": "hang"})
    report = run_jobs([hang], workers=2, timeout=0.5, retries=0)
    assert not report.ok
    assert "timed out" in report.failures[job_id(hang)]


def test_healthy_jobs_survive_a_crashing_neighbour():
    jobs = [
        JobConfig(name="selftest", entry=SELFTEST, params={"mode": "ok"}),
        JobConfig(name="selftest", seed=43, entry=SELFTEST,
                  params={"mode": "crash"}),
    ]
    report = run_jobs(jobs, workers=2, retries=0)
    assert len(report.records) == 1
    assert len(report.failures) == 1


def test_unknown_experiment_fails_cleanly():
    report = run_jobs([JobConfig(name="fig99")], workers=1, retries=0)
    assert "unknown experiment" in report.failures["fig99@s42"]


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def test_run_report_table_lists_every_job():
    ok = JobConfig(name="selftest", entry=SELFTEST, params={"mode": "ok"})
    bad = JobConfig(name="selftest", seed=43, entry=SELFTEST,
                    params={"mode": "fail"})
    report = run_jobs([ok, bad], workers=1, retries=0)
    table = run_report_table(report)
    assert job_id(ok) in table
    assert job_id(bad) in table
    assert "FAILED" in table
    assert "1 ok, 1 failed" in table


def test_execute_job_embeds_job_metadata():
    job = JobConfig(name="selftest", seed=9, entry=SELFTEST,
                    params={"mode": "ok"})
    rec = execute_job(job)
    assert rec["experiment"] == "selftest"
    assert rec["seed"] == 9
    assert rec["job"] == job_id(job)
    assert rec["payload"] == {"value": 9}
