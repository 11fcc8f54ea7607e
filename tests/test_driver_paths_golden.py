"""Servlet-driver paths pinned against records from a fixed revision.

``tests/data/golden_registry_quick.json`` pins the figure experiments,
whose servers only ever run Compute and plain Call steps.  The other
driver paths — caller-side timeout/retry and the circuit breaker on
both drivers, hedged replica calls, Gather barriers (all-of and
quorum) and the cache/storage instructions — were otherwise only
checked against themselves (run-to-run determinism).  The records in
``tests/data/golden_driver_paths.json`` were written by an earlier
revision, so a refactor of the drivers must reproduce them exactly.

The fast test replays the cells that exercise those paths at the
``TINY`` scales of ``tests/test_determinism.py``; the slow test replays
every variant of the same four experiments.  Regenerate the file (only
when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_driver_paths_golden.py
"""

import json
import os

import pytest

from repro.experiments import cache_storage, fanout, policy_matrix, scaleout
from repro.experiments.record import write_records
from repro.experiments.runner import JobConfig, execute_job, job_id

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_driver_paths.json"
)

#: experiment -> (duration, params other than ``variants``), as in TINY
SCALES = {
    "policy_matrix": (12.0, {"clients": 3000}),
    "cache_storage": (12.0, {"clients": 2100}),
    "scaleout": (17.0, {"clients": 2000}),
    "fanout": (8.0, {"clients": 2000, "fanouts": [4, 8]}),
}

#: the cells that reach the retry/breaker, codel+retry, hedging and
#: gather (all-of and quorum) driver paths
FAST_VARIANTS = {
    "policy_matrix": ["retry_amplification", "breaker_protected"],
    "cache_storage": ["storm_codel"],
    "scaleout": ["rpc_hedged"],
    "fanout": ["sync", "quorum"],
}

ALL_VARIANTS = {
    "policy_matrix": list(policy_matrix.VARIANTS),
    "cache_storage": list(cache_storage.VARIANTS),
    "scaleout": list(scaleout.VARIANTS),
    "fanout": list(fanout.VARIANTS),
}


def _jobs(variants):
    jobs = []
    for name, (duration, params) in SCALES.items():
        jobs.append(JobConfig(
            name=name, seed=42, duration=duration,
            params=dict(params, variants=list(variants[name])),
        ))
    return jobs


FAST_JOBS = _jobs(FAST_VARIANTS)
ALL_JOBS = _jobs(ALL_VARIANTS)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_file_holds_exactly_the_pinned_jobs(golden):
    assert set(golden) == {job_id(job) for job in FAST_JOBS + ALL_JOBS}


@pytest.mark.parametrize("job", FAST_JOBS, ids=lambda job: job.name)
def test_driver_path_cells_match_golden(golden, job):
    assert execute_job(job) == golden[job_id(job)]


@pytest.mark.slow
@pytest.mark.parametrize("job", ALL_JOBS, ids=lambda job: job.name)
def test_every_variant_matches_golden(golden, job):
    assert execute_job(job) == golden[job_id(job)]


if __name__ == "__main__":
    write_records(GOLDEN_PATH, {
        job_id(job): execute_job(job) for job in FAST_JOBS + ALL_JOBS
    })
