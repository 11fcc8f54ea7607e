"""Preset servers replay byte-identically against pre-refactor records.

``SyncServer`` and ``AsyncServer`` are now thin presets over the
composed :class:`~repro.servers.runtime.PolicyServer`;
``tests/data/golden_registry_quick.json`` holds the quick-scale
registry records generated *before* that refactor.  Re-running the
same jobs must reproduce those records exactly — same event order,
same RNG streams, same summaries — or the policy decomposition has
changed simulation behaviour.

The fast test replays two representative full-system jobs; the slow
one replays the entire golden set through the parallel engine (the
same command that generated the file).
"""

import json
import os

import pytest

from repro.experiments.record import records_to_json
from repro.experiments.runner import (
    JobConfig,
    execute_job,
    expand_jobs,
    job_id,
    run_jobs,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_registry_quick.json"
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


#: quick registry jobs replayed in the fast loop: one full 3-tier
#: consolidation run, and the replicated 3-tier system behind a
#: round-robin ReplicaGroup
FAST_REPLAYS = {
    "fig03": JobConfig(name="fig03", seed=42, duration=18.0),
    "replication": JobConfig(name="replication", seed=42, duration=18.0,
                             params={"replicas": [2]}),
}


@pytest.mark.parametrize("name", sorted(FAST_REPLAYS))
def test_quick_record_matches_golden(golden, name):
    """One quick registry job, byte-compared to its golden record."""
    job = FAST_REPLAYS[name]
    record = execute_job(job)
    assert record == golden[job_id(job)]


@pytest.mark.slow
def test_quick_registry_replays_golden_records_byte_identically(golden):
    """The whole quick registry (every preset composition the figures
    use), regenerated through the parallel engine and compared as the
    canonical JSON bytes the golden file is stored in."""
    names = sorted({record["experiment"] for record in golden.values()})
    jobs = expand_jobs(names=names, quick=True)
    assert {job_id(job) for job in jobs} == set(golden)
    report = run_jobs(jobs, workers=os.cpu_count() or 1,
                      timeout=600, retries=1)
    assert report.ok, report.failures
    with open(GOLDEN_PATH) as handle:
        assert records_to_json(report.records) == handle.read()
