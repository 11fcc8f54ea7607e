"""Determinism regression tests.

Every registered experiment must produce the same record from the same
seed across two fresh runs — the classic way parallelism silently breaks
DES reproducibility is a component drawing from the process-global
``random`` module (or any other hidden shared state), which these tests
catch.  Also pins the independence of :meth:`Simulator.fork_rng` streams
and the builders' seed-propagation validation.
"""

import random

import pytest

from repro.experiments.runner import REGISTRY, JobConfig, execute_job
from repro.sim import Simulator

#: per-experiment tiny scales: large enough to exceed each experiment's
#: warmup and reach its first injected millibottleneck, small enough for
#: a test suite (the full-scale sweep is `repro run-all`)
TINY = {
    "fig01": dict(duration=12.0, params={"workloads": [4000]}),
    "fig02": dict(duration=12.0, params={}),
    "fig03": dict(duration=12.0, params={"clients": 3000}),
    "fig05": dict(duration=12.0, params={"clients": 3000}),
    "fig07": dict(duration=12.0, params={"clients": 3000}),
    "fig08": dict(duration=12.0, params={"clients": 3000}),
    "fig09": dict(duration=12.0, params={"clients": 3000}),
    "fig10": dict(duration=12.0, params={"clients": 3000}),
    "fig11": dict(duration=12.0, params={"clients": 3000}),
    "fig12": dict(duration=7.0, params={"levels": [100]}),
    "headline": dict(duration=12.0, params={"workloads": [4000]}),
    "deep_chain": dict(duration=14.0, params={"depths": [3]}),
    "replication": dict(duration=12.0, params={"replicas": [1]}),
    "validation": dict(duration=10.0, params={"workloads": [2000]}),
    "cause_variety": dict(duration=12.0, params={"causes": ["cpu"]}),
    "nx_sweep": dict(duration=10.0, params={"nx": 1, "clients": 3000}),
    "policy_matrix": dict(
        duration=12.0, params={"variants": ["shed_web"], "clients": 3000},
    ),
    # 17 s fits one full burst triple (bases 8/11/14 + 2.2 s stall), so
    # the hedging and balancing paths actually fire under the stall
    "scaleout": dict(
        duration=17.0, params={"variants": ["rpc_hedged"], "clients": 2000},
    ),
    # 8 s reaches the 4 s leaf stall; sync + quorum cover both gather
    # drivers (thread barrier and first-K-of-N shedding)
    "fanout": dict(
        duration=8.0,
        params={"clients": 2000, "fanouts": [4, 8],
                "variants": ["sync", "quorum"]},
    ),
    # 12 s reaches both bulk invalidations (t=5, t=9) and three flush
    # bursts; storm + bufferbloat cover both families (cache herd with
    # invalidation RNG, storage write-back coin flips)
    "cache_storage": dict(
        duration=12.0,
        params={"clients": 2100, "variants": ["storm", "bufferbloat"]},
    ),
}


def _tiny_job(name, seed=42):
    scale = TINY[name]
    return JobConfig(name=name, seed=seed, duration=scale["duration"],
                     params=dict(scale["params"]))


def test_tiny_scales_cover_the_whole_registry():
    assert set(TINY) == set(REGISTRY)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_experiment_record_is_reproducible_from_seed(name):
    """Two fresh Simulator instances, same seed -> identical record."""
    first = execute_job(_tiny_job(name))
    # perturb the process-global RNG between runs: a hidden dependence
    # on it would now change the second record
    random.random()
    second = execute_job(_tiny_job(name))
    assert first == second, f"{name} is not reproducible from its seed"


@pytest.mark.slow
def test_different_seeds_change_the_record():
    """The seed must actually reach the simulation (no frozen streams)."""
    a = execute_job(_tiny_job("validation", seed=1))
    b = execute_job(_tiny_job("validation", seed=2))
    assert a["payload"] != b["payload"]


# ----------------------------------------------------------------------
# fork_rng stream independence (the substrate the contract rests on)
# ----------------------------------------------------------------------
def test_fork_rng_streams_are_independent_of_each_other():
    sim = Simulator(seed=42)
    stream = sim.fork_rng("workload")
    baseline = [stream.random() for _ in range(5)]

    sim2 = Simulator(seed=42)
    sim2.fork_rng("gc")          # an extra consumer...
    sim2.rng.random()            # ...and draws from the simulator's own rng
    fork = sim2.fork_rng("workload")
    assert [fork.random() for _ in range(5)] == baseline


def test_fork_rng_streams_differ_by_label_and_seed():
    sim = Simulator(seed=42)
    assert (sim.fork_rng("a").random() != sim.fork_rng("b").random())
    other = Simulator(seed=43)
    assert (sim.fork_rng("a").random() != other.fork_rng("a").random())


def test_fork_rng_is_unaffected_by_global_random_state():
    sim = Simulator(seed=42)
    expected = sim.fork_rng("workload").random()
    random.seed(999)
    sim2 = Simulator(seed=42)
    assert sim2.fork_rng("workload").random() == expected


# ----------------------------------------------------------------------
# builder seed-propagation validation
# ----------------------------------------------------------------------
def test_build_replicated_rejects_mismatched_sim_seed():
    from repro.topology import SystemConfig, build_system

    with pytest.raises(ValueError, match="seed"):
        build_system(SystemConfig(nx=0, seed=1, app_replicas=2),
                     sim=Simulator(seed=2))


def test_build_system_rejects_mismatched_sim_seed():
    from repro.topology import SystemConfig, build_system

    with pytest.raises(ValueError, match="seed"):
        build_system(SystemConfig(seed=1), sim=Simulator(seed=2))


def test_build_chain_rejects_mismatched_sim_seed():
    from repro.topology.chain import build_chain, uniform_chain

    with pytest.raises(ValueError, match="seed"):
        build_chain(uniform_chain(3), sim=Simulator(seed=2), seed=1)


def test_build_consolidated_pair_rejects_mismatched_sim_seed():
    from repro.topology import SystemConfig, build_consolidated_pair

    with pytest.raises(ValueError, match="seed"):
        build_consolidated_pair(SystemConfig(seed=1), sim=Simulator(seed=2))


def test_build_replicated_accepts_matching_sim_seed():
    from repro.topology import SystemConfig, build_system

    system = build_system(SystemConfig(nx=0, seed=5, app_replicas=2),
                          sim=Simulator(seed=5))
    assert system.sim.seed == 5
