"""Regression tests for the gather-leg cancel/release race.

``GatherCall._cancel_pending`` withdraws legs still queued on a
connection pool when the quorum barrier settles.  ``Resource.release``
hands a freed unit *directly* to the oldest waiter, so a leg's grant
can trigger in the very instant the quorum settles — its ``_granted``
callback is then already in flight.  Cancelling such a leg must be a
no-op: ``Resource.cancel`` returns False for triggered grants, and the
leg's own settled-race branch in ``_transmit`` hands the connection
back and counts the cancellation.  The buggy variant (marking the leg
done on a False cancel) stranded the granted pool unit forever and
double-counted ``legs_cancelled``; these tests pin the occupancy
invariant — pool outstanding returns to zero once every gather has
settled and drained — white-box and end-to-end, on both servlet
drivers and both request-log modes.
"""

import pytest

from repro.apps.rubbos import InteractionSpec, RubbosApplication
from repro.servers.gather import GatherCall, _GatherLeg
from repro.servers.policies import TierPolicy
from repro.sim import Resource, Simulator
from repro.topology.graph import NodeSpec, build_graph, fan_out
from repro.workload.generators import ScriptedBurst


def make_gather(legs):
    """A GatherCall shell with just the state _cancel_pending reads."""
    gather = object.__new__(GatherCall)
    gather.legs = legs
    gather._stats = {"legs_cancelled": 0}
    return gather


# ----------------------------------------------------------------------
# white-box: the exact race, deterministically
# ----------------------------------------------------------------------
def test_cancel_pending_withdraws_a_still_queued_leg():
    sim = Simulator(seed=1)
    pool = Resource(sim, 1, name="edge.pool")
    pool.acquire()                      # some other gather holds the unit
    leg = _GatherLeg(0, (None, pool, "leaf"))
    leg.grant = pool.acquire()          # this leg queues behind it
    assert not leg.grant.triggered
    gather = make_gather([leg])

    gather._cancel_pending()
    assert leg.done is True
    assert leg.grant is None
    assert gather._stats["legs_cancelled"] == 1
    # the holder finishes; the tombstoned grant must not absorb the unit
    pool.release()
    assert pool.in_use == 0
    assert pool.queue_length == 0


def test_cancel_pending_leaves_a_same_instant_granted_leg_alone():
    """release() racing the cancel: the grant triggered in the same
    instant the quorum settled, so the leg's _granted callback is
    already in flight and owns the unit.  _cancel_pending must not
    touch it — the settled-race branch in _transmit releases it."""
    sim = Simulator(seed=1)
    pool = Resource(sim, 1, name="edge.pool")
    pool.acquire()
    leg = _GatherLeg(0, (None, pool, "leaf"))
    leg.grant = pool.acquire()
    gather = make_gather([leg])

    pool.release()                      # unit moves directly to the leg
    assert leg.grant.triggered
    gather._cancel_pending()
    assert leg.done is False            # untouched: not counted cancelled
    assert leg.grant is not None
    assert gather._stats["legs_cancelled"] == 0
    assert pool.in_use == 1             # the unit belongs to the leg now
    # ...until its own settled-race branch hands it back
    pool.release()
    assert pool.in_use == 0
    assert pool.queue_length == 0


def test_cancel_pending_skips_done_and_unqueued_legs():
    sim = Simulator(seed=1)
    pool = Resource(sim, 2, name="edge.pool")
    done_leg = _GatherLeg(0, (None, pool, "leaf"))
    done_leg.done = True
    transmitted = _GatherLeg(1, (None, pool, "leaf"))  # grant is None
    gather = make_gather([done_leg, transmitted])
    gather._cancel_pending()
    assert gather._stats["legs_cancelled"] == 0


# ----------------------------------------------------------------------
# end-to-end: quorum gathers over pooled edges drain to zero occupancy
# ----------------------------------------------------------------------
def _run_pooled_quorum(sync_root, streaming, requests=60, spacing=0.02):
    root = NodeSpec("root", quorum=2,
                    policy=(TierPolicy.sync(threads=64) if sync_root
                            else TierPolicy.asynchronous(workers=2)))
    # leaf3 is 10x slower than the arrival spacing: its pool=1 edge
    # backs up, so quorums met by leaf1+leaf2 cancel queued leaf3 legs
    leaf = TierPolicy.sync(threads=2)
    leaves = [
        NodeSpec("leaf1", policy=leaf, pre_work=0.002),
        NodeSpec("leaf2", policy=leaf, pre_work=0.002),
        NodeSpec("leaf3", policy=leaf, pre_work=0.2),
    ]
    system = build_graph(fan_out(root, leaves, edge_pool=1), seed=42,
                         streaming=streaming)
    # one request every ``spacing`` seconds, through the client path of
    # every workload generator
    kind = system.request_kind
    ScriptedBurst(
        system.sim, system.fabric, system.entry,
        RubbosApplication([InteractionSpec(kind, 1.0, web_work=0.0)]),
        system.log, [i * spacing for i in range(requests)], batch_size=1,
        operation=kind,
    ).start()
    # far past the last arrival: every gather settles and drains
    system.sim.run(until=60.0)
    return system


@pytest.mark.parametrize("sync_root", [True, False])
@pytest.mark.parametrize("streaming", [False, True])
def test_pool_occupancy_returns_to_zero_after_quorum_cancels(
        sync_root, streaming):
    system = _run_pooled_quorum(sync_root, streaming)
    totals = system.gather_totals()
    assert totals["gathers"] > 0
    # edge_pool=1 makes later gathers queue: the barrier actually
    # exercises the cancel path this module regression-tests
    assert totals["legs_cancelled"] > 0
    assert len(system.log) > 0
    pooled_routes = 0
    for name, server in system.server_items():
        for target, pool in getattr(server, "pools", {}).items():
            pooled_routes += 1
            assert pool.in_use == 0, (
                f"{name}->{target}: {pool.in_use} stranded units"
            )
            assert pool.queue_length == 0, (
                f"{name}->{target}: {pool.queue_length} stranded waiters"
            )
    assert pooled_routes == 3           # one pooled edge per leaf


@pytest.mark.parametrize("sync_root", [True, False])
def test_every_leg_is_accounted_exactly_once(sync_root):
    """successes + cancelled + wasted + failures == legs launched:
    double-counting a raced cancel breaks this conservation law."""
    system = _run_pooled_quorum(sync_root, streaming=False)
    totals = system.gather_totals()
    settled = totals["legs_cancelled"] + totals["legs_wasted"]
    # every settled gather met quorum=2 of 3, losing exactly one leg
    assert settled == totals["gathers"]
    assert totals["legs"] == 3 * totals["gathers"]
    assert totals["leg_failures"] == 0
