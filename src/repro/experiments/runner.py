"""Parallel experiment-execution engine and the canonical job registry.

:data:`REGISTRY` is the one declaration of every experiment: a new
experiment is its module plus one entry here, and a new timeline figure
is one row of :data:`~repro.experiments.timeline.TIMELINES`.
:func:`expand_jobs` turns registry names into concrete
:class:`JobConfig` jobs (variants × seeds); :func:`execute_job` runs one
job through its experiment's ``run`` and ``record``, which turns the
result into a plain-data *record* (nested dicts / lists / scalars —
nothing simulation-bound); :func:`run_jobs` executes a job list either
serially in-process or fanned across a pool of worker processes with
per-job timeout and crash retry.

Experiment interface
--------------------
``repro run-all``, ``repro run``, ``repro diagnose`` and ``repro
profile`` drive the object :func:`experiment` returns for a registry
name — the experiment's module, or a timeline figure's table row —
through:

``run(seed=..., duration=..., streaming=..., **params)``
    the whole experiment, at its own scale unless told otherwise; a
    job's params (the registry's ``quick`` params and its variant) are
    keywords of it.
``record(result)``
    the plain-data record of a ``run`` result (``repro run-all``).
``report(result)``, ``check_claims(result)`` (optional)
    the printed figure and its failed claims (non-empty: exit 1).  An
    entry without ``report`` (``nx_sweep``) runs only under ``repro
    run-all``.
``runs(result)``, ``single_run(variant=..., clients=..., duration=...)``
    only an experiment whose cells keep a
    :class:`~repro.core.evaluation.RunResult` (its *single runs*) has
    these: ``runs`` maps each cell label to its RunResult (``--out``,
    ``--diagnose``); ``single_run`` returns ``(heading, simulate)`` for
    the one representative cell, where ``simulate(bus=None)`` runs it
    and returns its RunResult (``repro diagnose``, ``repro profile``).
    An unknown variant raises ``ValueError`` (:func:`check_variants`)
    before anything runs.

Determinism contract
--------------------
A record is a pure function of its :class:`JobConfig`: every job builds
a fresh :class:`~repro.sim.kernel.Simulator` from ``config.seed`` and
draws randomness only from simulator-owned streams.  Records are passed
through :func:`canonical` before they leave the worker, so a parallel
run's merged output is byte-identical to a serial run with the same
seeds — ``tests/test_experiments_runner.py`` locks this in.

Seed derivation
---------------
Multi-seed sweeps derive per-job seeds with :func:`derive_seed`
(SHA-256 of ``base/label/index``), so adding an experiment or changing
worker count never perturbs the seed any other job sees.
"""

from __future__ import annotations

import hashlib
import importlib
import numbers
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing import connection, get_context

from .timeline import TIMELINES

__all__ = [
    "DEFAULT_SEED",
    "ExperimentSpec",
    "JobConfig",
    "REGISTRY",
    "RunReport",
    "STREAMING_UNSUPPORTED",
    "canonical",
    "check_variants",
    "derive_seed",
    "execute_job",
    "expand_jobs",
    "experiment",
    "job_id",
    "names_with",
    "run_jobs",
    "variant_single_run",
]

DEFAULT_SEED = 42

#: registry names that require the exact per-request log and therefore
#: reject ``params["streaming"] = True``.  fig02 builds a bespoke pair
#: of coupled systems whose emergent-consolidation analysis reads both
#: systems' full record lists; everything else goes through the shared
#: builders and runs with the O(1)-memory streaming log (docs/SCALE.md).
STREAMING_UNSUPPORTED = frozenset({"fig02"})

#: (nx levels) for the asynchrony parameter sweep entry
NX_LEVELS = (0, 1, 2, 3)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry: where to find the experiment and how to scale it.

    ``module`` names the experiment's module in this package (a timeline
    figure's is ``"timeline"``; :func:`experiment` resolves both).
    ``quick`` holds parameter overrides for fast runs; a ``"duration"``
    key there becomes :attr:`JobConfig.duration`, the rest merge into
    :attr:`JobConfig.params`.  ``variants`` expands one registry name
    into several jobs (e.g. fig07's MySQL variant, the NX sweep).
    ``description`` is the one line ``repro list`` prints.
    """

    name: str
    module: str
    description: str
    quick: dict = field(default_factory=dict)
    variants: tuple = ({},)


@dataclass
class JobConfig:
    """One executable job: experiment name + seed + scale + parameters.

    ``attempt`` is set by the engine on retries (0 on the first try) so
    deliberately flaky self-test jobs can change behaviour per attempt;
    it is excluded from :func:`job_id` and from the record.  ``entry``,
    a ``"module:function"`` path called with the job, replaces the
    registry experiment (the engine's own tests reach
    :mod:`repro.experiments._selftest` through it).
    """

    name: str
    seed: int = DEFAULT_SEED
    duration: float = None
    params: dict = field(default_factory=dict)
    attempt: int = 0
    entry: str = None


def job_id(config):
    """Stable identifier: ``name[k=v,...]@s<seed>`` (params sorted).

    The observation-only ``live`` param is excluded: a job watched via
    ``--live`` is the *same* job, and must keep the same id.
    """
    params = ",".join(
        f"{key}={config.params[key]}" for key in sorted(config.params)
        if key != "live"
    )
    core = f"{config.name}[{params}]" if params else config.name
    return f"{core}@s{config.seed}"


def derive_seed(base_seed, label, index=0):
    """A deterministic, platform-independent per-job seed stream.

    SHA-256 rather than ``hash()`` (randomized per interpreter) so the
    same sweep yields the same seeds in every process of every run.
    """
    digest = hashlib.sha256(f"{base_seed}/{label}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def canonical(obj):
    """Normalize a record to plain JSON-stable data.

    Dict keys become strings (sorted), tuples become lists, numpy
    scalars collapse to Python ints/floats.  Both the serial and the
    parallel paths emit records through this function, which is what
    makes their merged outputs byte-comparable.
    """
    if isinstance(obj, dict):
        return {
            str(key): canonical(value)
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [canonical(value) for value in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    return str(obj)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
#: every reproducible experiment, in the paper's presentation order
REGISTRY = {
    spec.name: spec
    for spec in (
        ExperimentSpec("fig01", "fig01_histograms",
                       "multi-modal response-time histograms",
                       quick={"duration": 18.0, "workloads": [4000, 7000]}),
        ExperimentSpec("fig02", "fig02_full_sysbursty",
                       "emergent two-system consolidation (full fidelity)",
                       quick={"duration": 16.0}),
        *(
            ExperimentSpec(name, "timeline", row.title,
                           quick={"duration": 18.0},
                           variants=({},) + tuple({"variant": variant}
                                                  for variant in row.variants))
            for name, row in TIMELINES.items()
        ),
        ExperimentSpec("fig12", "fig12_throughput",
                       "2000-thread sync vs async throughput",
                       quick={"duration": 9.0, "levels": [100, 1600]}),
        ExperimentSpec("headline", "headline_utilization",
                       "the abstract's 43% vs 83% utilization claim",
                       quick={"duration": 14.0, "workloads": [7000]}),
        ExperimentSpec("deep_chain", "deep_chain",
                       "multi-hop CTQO in 4/5-tier chains",
                       quick={"duration": 16.0, "depths": [3, 5]}),
        ExperimentSpec("replication", "replication",
                       "replicas dilute but keep CTQO",
                       quick={"duration": 18.0, "replicas": [2]}),
        ExperimentSpec("scaleout", "scaleout",
                       "balancing and hedging across replicated tiers at "
                       "WL 7000",
                       quick={"duration": 20.0}),
        ExperimentSpec("validation", "validation",
                       "simulator vs closed-form queueing theory",
                       quick={"duration": 12.0, "workloads": [2000, 7000]}),
        ExperimentSpec("policy_matrix", "policy_matrix",
                       "admission x concurrency x remediation hybrids at "
                       "WL 7000",
                       quick={"duration": 16.0}),
        ExperimentSpec("cause_variety", "cause_variety",
                       "CPU/disk/GC/network causes, same CTQO",
                       quick={"duration": 12.0, "causes": ["cpu", "io"]}),
        ExperimentSpec("fanout", "fanout",
                       "1xN fan-out DAG: tail at scale + lateral CTQO",
                       quick={"duration": 8.0, "clients": 3000,
                              "fanouts": [4, 16]}),
        ExperimentSpec("cache_storage", "cache_storage",
                       "cache-miss storms and write-back bufferbloat",
                       # the storm schedule needs the full window; quick
                       # mode trims the variant grid instead of the
                       # duration
                       quick={"duration": 16.0,
                              "variants": ["baseline", "storm",
                                           "bufferbloat"]}),
        ExperimentSpec("nx_sweep", "nx_sweep",
                       "one consolidation scenario per asynchrony level",
                       quick={"duration": 14.0},
                       variants=tuple({"nx": nx} for nx in NX_LEVELS)),
    )
}


def _lookup(name):
    spec = REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown experiment {name!r}; known: {known}")
    return spec


def experiment(name):
    """The object behind registry entry ``name`` (see *Experiment
    interface* above): a timeline figure's row of
    :data:`~repro.experiments.timeline.TIMELINES`, else the
    experiment's module."""
    spec = _lookup(name)
    if name in TIMELINES:
        return TIMELINES[name]
    return importlib.import_module(f"{__package__}.{spec.module}")


def names_with(attribute):
    """Registry names, in order, whose experiment has ``attribute``:
    ``"report"`` for ``repro run``/``repro profile``, ``"single_run"``
    for the experiments with single runs (``--out``, ``--diagnose``,
    ``repro diagnose``)."""
    return [name for name in REGISTRY
            if hasattr(experiment(name), attribute)]


def check_variants(names, variants):
    """The one check of variant names: raise ``ValueError`` for the
    first of ``names`` that is not a key of ``variants``, naming the
    valid ones.  Every experiment with named variants calls it before
    it builds anything."""
    for name in names:
        if name not in variants:
            raise ValueError(f"unknown variant {name!r}; valid variants: "
                             + ", ".join(variants))


def variant_single_run(run_one, variants, variant, clients, duration):
    """``single_run()`` of an experiment with named ``variants`` whose
    ``run_one(variant, clients=, duration=, bus=)`` returns a dict cell
    keeping its RunResult under ``"result"``."""
    check_variants([variant], variants)

    def simulate(bus=None):
        return run_one(variant, clients=clients, duration=duration,
                       bus=bus)["result"]

    return f"/{variant} @ WL {clients}, {duration:.0f}s", simulate


def expand_jobs(names=None, seeds=1, base_seed=DEFAULT_SEED, quick=False):
    """Registry names -> concrete jobs (variants × ``seeds`` seed indices).

    Seed index 0 keeps ``base_seed`` itself (so a default run matches
    the modules' own defaults); further indices use :func:`derive_seed`.
    """
    names = list(REGISTRY) if names is None else list(names)
    jobs = []
    for name in names:
        spec = _lookup(name)
        for variant in spec.variants or ({},):
            params = dict(spec.quick) if quick else {}
            duration = params.pop("duration", None)
            params.update(variant)
            label = f"{name}/{sorted(variant.items())}"
            for index in range(seeds):
                seed = (base_seed if index == 0
                        else derive_seed(base_seed, label, index))
                jobs.append(JobConfig(name=name, seed=seed,
                                      duration=duration, params=dict(params)))
    return jobs


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _resolve_entry(path):
    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def execute_job(config):
    """Run one job in the current process; return its canonical record.

    The payload is the experiment's ``record`` of its ``run`` with the
    job's seed, params and, when the job has one, duration.
    ``params["live"]`` — a dict of :func:`repro.metrics.live.configure`
    keywords plus an optional ``"out"`` JSONL path — turns on live
    telemetry *around* the job and is stripped before anything reaches
    the experiment or the record: job ids, params, and payloads stay
    byte-identical to a run without ``--live``.
    """
    live_spec = config.params.get("live") if config.params else None
    if live_spec is not None:
        params = dict(config.params)
        params.pop("live")
        config = replace(config, params=params)
    owned_sink = None
    if live_spec is not None:
        from ..metrics import live as live_mode

        spec = dict(live_spec)
        out = spec.pop("out", None)
        if out is not None:
            # append: parallel workers share one heartbeat file, one
            # line per write, disambiguated by the label field
            sink = owned_sink = open(out, "a", buffering=1)
        else:
            import sys

            sink = sys.stderr
        live_mode.configure(sink=sink, label=job_id(config), **spec)
    try:
        if config.entry is None:
            runnable = experiment(config.name)
            options = dict(config.params, seed=config.seed)
            if config.duration is not None:
                options["duration"] = config.duration
            payload = runnable.record(runnable.run(**options))
        else:
            payload = _resolve_entry(config.entry)(config)
    finally:
        if live_spec is not None:
            live_mode.reset()
            if owned_sink is not None:
                owned_sink.close()
    return canonical({
        "experiment": config.name,
        "job": job_id(config),
        "seed": config.seed,
        "duration": config.duration,
        "params": config.params,
        "payload": payload,
    })


def _worker_main(config, conn):
    """Worker-process entry: execute one job, ship (status, payload)."""
    try:
        record = execute_job(config)
        conn.send(("ok", record))
    except BaseException as exc:  # report, never crash the pipe silently
        conn.send(("error", f"{type(exc).__name__}: {exc}\n"
                            f"{traceback.format_exc()}"))
    finally:
        conn.close()


@dataclass
class RunReport:
    """Aggregated outcome of a :func:`run_jobs` call.

    ``records`` maps job id -> record for every success, sorted by job
    id (so iteration order never depends on completion order);
    ``failures`` maps job id -> last error text; ``attempts`` counts
    tries per job (1 = first try succeeded).
    """

    records: dict
    failures: dict
    attempts: dict
    elapsed: float
    workers: int

    @property
    def ok(self):
        return not self.failures


class _Progress:
    """Normalizes the optional progress callback to a no-op."""

    def __init__(self, callback):
        self._callback = callback

    def __call__(self, event, job, detail=""):
        if self._callback is not None:
            self._callback(event, job, detail)


def run_jobs(jobs, workers=1, timeout=None, retries=1, progress=None):
    """Execute ``jobs``; return a :class:`RunReport`.

    ``workers <= 1`` runs everything serially in-process — the
    determinism reference.  ``workers > 1`` fans jobs across worker
    processes (at most ``workers`` alive at once), terminating any job
    that exceeds ``timeout`` wall seconds and retrying crashed, failed
    or timed-out jobs up to ``retries`` extra times.
    """
    jobs = list(jobs)
    notify = _Progress(progress)
    started = time.time()
    records, failures, attempts = {}, {}, {}

    if workers <= 1:
        for job in jobs:
            jid = job_id(job)
            for attempt in range(retries + 1):
                attempts[jid] = attempt + 1
                notify("start", job)
                try:
                    records[jid] = execute_job(replace(job, attempt=attempt))
                    failures.pop(jid, None)
                    notify("done", job)
                    break
                except Exception as exc:
                    failures[jid] = (f"{type(exc).__name__}: {exc}\n"
                                     f"{traceback.format_exc()}")
                    notify("retry" if attempt < retries else "fail",
                           job, f"{type(exc).__name__}: {exc}")
    else:
        _run_pool(jobs, workers, timeout, retries, notify,
                  records, failures, attempts)

    return RunReport(
        records=dict(sorted(records.items())),
        failures=dict(sorted(failures.items())),
        attempts=dict(sorted(attempts.items())),
        elapsed=time.time() - started,
        workers=workers,
    )


def _run_pool(jobs, workers, timeout, retries, notify,
              records, failures, attempts):
    ctx = get_context()
    pending = deque(jobs)
    active = {}  # conn -> (process, job, deadline)

    def launch(job):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_worker_main, args=(job, child_conn))
        process.start()
        child_conn.close()
        deadline = None if timeout is None else time.time() + timeout
        active[parent_conn] = (process, job, deadline)
        attempts[job_id(job)] = job.attempt + 1
        notify("start", job)

    def settle(conn, status, detail):
        """Retire one worker; requeue its job if attempts remain."""
        process, job, _deadline = active.pop(conn)
        jid = job_id(job)
        if status == "ok":
            records[jid] = detail
            failures.pop(jid, None)
            notify("done", job)
        else:
            failures[jid] = detail
            if job.attempt < retries:
                pending.append(replace(job, attempt=job.attempt + 1))
                notify("retry", job, detail.splitlines()[0] if detail else "")
            else:
                notify("fail", job, detail.splitlines()[0] if detail else "")
        conn.close()
        process.join()

    while pending or active:
        while pending and len(active) < workers:
            launch(pending.popleft())
        ready = connection.wait(list(active), timeout=0.05)
        for conn in ready:
            try:
                status, detail = conn.recv()
            except (EOFError, OSError):
                process = active[conn][0]
                process.join()
                settle(conn, "error", f"worker crashed (exit code "
                                      f"{process.exitcode}) before reporting")
            else:
                settle(conn, status, detail)
        now = time.time()
        for conn in [c for c, (_p, _j, d) in active.items()
                     if d is not None and now > d]:
            process, job, _deadline = active[conn]
            process.terminate()
            process.join(1.0)
            if process.is_alive():  # pragma: no cover - stubborn worker
                process.kill()
                process.join()
            settle(conn, "error", f"timed out after {timeout:.1f}s wall "
                                  f"(attempt {job.attempt + 1})")
