"""Tests for arbitrary-depth chains (repro.topology.chain)."""

import pytest

from repro.servers import TierPolicy
from repro.topology import NodeSpec, build_chain, uniform_chain
from repro.units import ms

#: the tiny chain's tier shapes: 4 threads, or 2 loop workers
SYNC = TierPolicy.sync(threads=4)
ASYNC = TierPolicy.asynchronous(lite_q_depth=64, workers=2)


def tiny_specs(depth=3, sync=True, **overrides):
    defaults = dict(
        policy=SYNC if sync else ASYNC, backlog=2,
        pre_work=ms(0.05), mid_work=ms(0.05), post_work=ms(0.1),
        stochastic=False,
    )
    defaults.update(overrides)
    return uniform_chain(depth, **defaults)


# ----------------------------------------------------------------------
# spec and builder validation
# ----------------------------------------------------------------------
def test_uniform_chain_names_and_depth():
    specs = uniform_chain(4)
    assert [s.name for s in specs] == ["tier1", "tier2", "tier3", "tier4"]


def test_uniform_chain_minimum_depth():
    with pytest.raises(ValueError):
        uniform_chain(1)


def test_chain_tier_validation():
    with pytest.raises(ValueError, match="threads must be >= 1"):
        uniform_chain(3, policy=TierPolicy.sync(threads=0))
    with pytest.raises(ValueError, match="workers must be >= 1"):
        NodeSpec("x", policy=TierPolicy.asynchronous(workers=0))
    with pytest.raises(ValueError, match="calls_to_next must be >= 1"):
        NodeSpec("x", calls_to_next=0)


def test_build_chain_rejects_bad_pools():
    # the last tier calls nobody, and "tier9" is no tier
    for pools in ({"tier3": 2}, {"tier9": 2}):
        with pytest.raises(ValueError, match="no tier with a next tier"):
            build_chain(tiny_specs(3), pools=pools)
    with pytest.raises(ValueError, match="pool must be >= 1"):
        build_chain(tiny_specs(3), pools={"tier1": 0})


def test_chain_tier_max_sys_q_depth():
    tiers = [
        NodeSpec("sync", policy=TierPolicy.sync(threads=100), backlog=28),
        NodeSpec("async", policy=TierPolicy.asynchronous(lite_q_depth=1000),
                 backlog=28),
    ]
    system = build_chain(tiers)
    assert [server.max_sys_q_depth for server in system.servers] == [
        128, 1028]


def test_build_chain_rejects_duplicates():
    specs = tiny_specs(3)
    specs[2].name = specs[0].name
    with pytest.raises(ValueError):
        build_chain(specs)


def test_build_chain_server_kinds():
    specs = tiny_specs(4)
    specs[1].policy = ASYNC
    system = build_chain(specs)
    kinds = [(server.admission.kind, server.concurrency.kind)
             for server in system.servers]
    sync, asyn = ("backlog", "threads"), ("eager", "eventloop")
    assert kinds == [sync, asyn, sync, sync]
    assert repr(system) == "<ChainSystem depth=4 [SASS]>"


def test_chain_wiring_is_linear():
    system = build_chain(tiny_specs(4))
    for index in range(3):
        downstream = system.servers[index].downstream
        assert list(downstream) == [f"tier{index + 2}"]
    assert system.servers[3].downstream == {}


def test_chain_pool_to_next():
    system = build_chain(tiny_specs(3), pools={"tier2": 2})
    assert system.servers[1].pools["tier3"].capacity == 2
    assert "tier2" not in system.servers[0].pools


# ----------------------------------------------------------------------
# end-to-end behaviour
# ----------------------------------------------------------------------
def test_requests_traverse_whole_chain():
    system = build_chain(tiny_specs(4), seed=5)
    system.open_loop(rate=50.0)
    system.sim.run(until=10.0)
    assert len(system.log) > 300
    assert system.log.summary(10.0)["failed"] == 0
    # every tier actually served requests
    for server in system.servers:
        assert server.stats.completed > 300


def test_multi_query_tier_fans_out():
    specs = tiny_specs(3)
    specs[1].calls_to_next = 3
    system = build_chain(specs, seed=5)
    system.open_loop(rate=20.0)
    system.sim.run(until=10.0)
    served_mid = system.servers[1].stats.completed
    served_leaf = system.servers[2].stats.completed
    assert served_leaf == pytest.approx(3 * served_mid, abs=6)


def test_deep_sync_chain_cascades_to_front():
    """Multi-hop upstream CTQO: freeze the leaf, drop at the front."""
    system = build_chain(tiny_specs(5), seed=7)
    system.open_loop(rate=200.0)
    system.sim.call_at(3.0, system.vms[-1].freeze, 2.0)
    system.sim.run(until=8.0)
    drops = system.drop_counts()
    assert drops["tier1"] > 0
    # every intermediate tier filled to its MaxSysQDepth
    if system.monitor is None:
        system.attach_monitor()


def test_deep_sync_chain_queue_fill_order():
    system = build_chain(tiny_specs(5), seed=7)
    monitor = system.attach_monitor(interval=0.05)
    system.open_loop(rate=200.0)
    system.sim.call_at(3.0, system.vms[-1].freeze, 2.0)
    system.sim.run(until=8.0)
    # every tier's thread pool saturated during the cascade (an
    # intermediate tier's inflow concurrency is capped by the upstream
    # pool, so only the front tier also fills its TCP backlog)
    for server, name in zip(system.servers, system.names):
        assert monitor.queues[name].max() >= server.thread_capacity, name
    front, front_name = system.servers[0], system.names[0]
    assert monitor.queues[front_name].max() == front.max_sys_q_depth


def test_async_chain_absorbs_leaf_freeze():
    system = build_chain(
        tiny_specs(5, policy=TierPolicy.asynchronous(lite_q_depth=4096,
                                                     workers=2)),
        seed=7,
    )
    system.open_loop(rate=200.0)
    system.sim.call_at(3.0, system.vms[-1].freeze, 2.0)
    system.sim.run(until=10.0)
    assert system.total_drops() == 0
    assert system.log.summary(10.0)["failed"] == 0


def test_chain_determinism():
    def run_once():
        system = build_chain(tiny_specs(4), seed=11)
        system.open_loop(rate=100.0)
        system.sim.call_at(2.0, system.vms[-1].freeze, 1.0)
        system.sim.run(until=6.0)
        return (system.drop_counts(),
                sorted(system.log.response_times()))

    assert run_once() == run_once()
