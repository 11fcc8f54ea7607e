"""Unit tests for the composable invocation-policy runtime.

Covers the policy specs and their kind -> class tables
(repro.servers.policies), the composed :class:`PolicyServer` built from
a :class:`TierPolicy` (repro.servers.runtime), load-shedding
admission, the circuit breaker, caller-side timeout+retry on both
driver paths, and ConnectionTimeout -> ServletError propagation
through multi-tier chains under a retry remediation.
"""

import dataclasses

import pytest

from repro.apps.servlet import Call, Compute, Request
from repro.cpu import Host
from repro.net import NetworkFabric
from repro.servers import (
    ADMISSIONS,
    CONCURRENCIES,
    REMEDIATIONS,
    AdmissionSpec,
    CircuitBreaker,
    CoDelAdmission,
    ConcurrencySpec,
    EagerAdmission,
    EventLoopConcurrency,
    KernelBacklogAdmission,
    NoRemediation,
    PolicyServer,
    RemediationSpec,
    SheddingAdmission,
    SyncServer,
    ThreadPoolConcurrency,
    TierPolicy,
    TimeoutRetry,
)
from repro.sim import Simulator
from repro.topology import SystemConfig, build_chain, uniform_chain
from repro.units import ms


@pytest.fixture
def sim():
    return Simulator(seed=17)


@pytest.fixture
def fabric(sim):
    return NetworkFabric(sim, latency=0.0, rto=3.0, max_retransmits=3)


def make_vm(sim, name="vm", cores=1):
    return Host(sim, cores=cores, name=f"{name}-host").add_vm(name)


def compute_handler(work):
    def handler(ctx, request):
        yield Compute(work)
        return {"served": request.operation}

    return handler


def calling_handler(target, work=0.001):
    def handler(ctx, request):
        yield Compute(work)
        reply = yield Call(target, request.operation)
        return {"via": reply}

    return handler


def send(sim, fabric, listener, operation="op", requests=None):
    outcomes = []

    def client():
        request = Request("K", operation, sim.now)
        if requests is not None:
            requests.append(request)
        exchange = fabric.send(listener, request)
        try:
            response = yield exchange.response
            outcomes.append(response)
        except Exception as exc:  # ConnectionTimeout
            outcomes.append(exc)

    sim.process(client())
    return outcomes


# ----------------------------------------------------------------------
# specs, tables, presets
# ----------------------------------------------------------------------
def test_admission_spec_validation():
    with pytest.raises(ValueError):
        AdmissionSpec("bogus")
    with pytest.raises(ValueError):
        AdmissionSpec("eager")  # needs a depth
    with pytest.raises(ValueError):
        AdmissionSpec("shed", depth=0)
    assert AdmissionSpec("shed", depth=4).depth == 4


def test_concurrency_and_remediation_spec_validation():
    with pytest.raises(ValueError):
        ConcurrencySpec("bogus")
    with pytest.raises(ValueError):
        RemediationSpec("bogus")


@pytest.mark.parametrize("kind", ["threads", "eventloop"])
@pytest.mark.parametrize("bad, match", [
    (dict(threads=0), "threads must be >= 1"),
    (dict(workers=0), "workers must be >= 1"),
    (dict(pace_rate=0.0), "pace_rate must be positive"),
    (dict(pace_rate=-5.0), "pace_rate must be positive"),
])
def test_concurrency_spec_rejects_bad_values_at_construction(kind, bad,
                                                             match):
    with pytest.raises(ValueError, match=match):
        ConcurrencySpec(kind, **bad)


@pytest.mark.parametrize("bad, match", [
    (dict(timeout=0), "timeout must be > 0"),
    (dict(timeout=-1.0), "timeout must be > 0"),
    (dict(retries=-1), "retries must be >= 0"),
    (dict(backoff=-0.1), "backoff must be >= 0"),
])
def test_remediation_spec_rejects_bad_values_at_construction(bad, match):
    with pytest.raises(ValueError, match=match):
        RemediationSpec("retry", **bad)


@pytest.mark.parametrize("bad, match", [
    (dict(max_processes=0), "max_processes must be >= 1"),
    (dict(max_processes=-1), "max_processes must be >= 1"),
    (dict(spawn_after=-1.0), "spawn_after must be >= 0"),
])
def test_concurrency_spec_rejects_bad_spawn_settings(bad, match):
    """A second process that could never spawn, or a negative wait
    before spawning it, fails where it is written."""
    with pytest.raises(ValueError, match=match):
        ConcurrencySpec(spawn_extra_process=True, **bad)
    with pytest.raises(ValueError, match=match):
        TierPolicy.sync(spawn_extra_process=True, **bad)
    assert ConcurrencySpec(spawn_extra_process=True, max_processes=1,
                           spawn_after=0.0).max_processes == 1


def test_bad_spawn_settings_fail_before_any_build(sim, fabric):
    with pytest.raises(ValueError, match="max_processes must be >= 1"):
        SyncServer(sim, fabric, "srv", make_vm(sim), compute_handler(0.1),
                   spawn_extra_process=True, max_processes=0)
    with pytest.raises(ValueError, match="spawn_after must be >= 0"):
        SystemConfig(nx=0, web_spawn_after=-1.0)


def test_tier_policy_rejects_non_spec_members():
    with pytest.raises(ValueError, match="concurrency must be an instance"):
        TierPolicy(concurrency="threads")
    with pytest.raises(ValueError, match="remediation must be an instance"):
        TierPolicy(remediation=AdmissionSpec())


def test_bad_policy_fails_before_any_build():
    with pytest.raises(ValueError, match="threads must be >= 1"):
        SystemConfig(app_policy=TierPolicy.sync(threads=0))
    # the nx-selected preset values are validated by the config itself
    with pytest.raises(ValueError, match="workers must be >= 1"):
        SystemConfig(nx=3, xmysql_slots=0)
    with pytest.raises(ValueError, match="pace_rate must be positive"):
        SystemConfig(nx=2, xtomcat_pace_rate=0.0)
    # an unused preset value is not the config's concern
    assert SystemConfig(nx=0, xmysql_slots=0).xmysql_slots == 0


def test_bad_breaker_fails_before_any_build():
    """A breaker that could never close (threshold 0) or never re-open
    for a trial (reset 0) is rejected by its spec, so the config that
    carries it fails at construction, not inside ``Simulator.run``."""
    with pytest.raises(ValueError, match="breaker_threshold must be >= 1"):
        SystemConfig(nx=0, seed=1, app_policy=TierPolicy.sync(
            remediation=RemediationSpec("retry", breaker_threshold=0)))
    with pytest.raises(ValueError, match="breaker_reset must be > 0"):
        SystemConfig(nx=0, seed=1, app_policy=TierPolicy.sync(
            remediation=RemediationSpec("retry", breaker_reset=0.0)))


#: (table, one valid spec of every kind the table holds)
TABLES = [
    (ADMISSIONS,
     [AdmissionSpec(), AdmissionSpec("eager", depth=9),
      AdmissionSpec("shed", depth=9), AdmissionSpec("codel", depth=9)]),
    (CONCURRENCIES, [ConcurrencySpec(), ConcurrencySpec("eventloop")]),
    (REMEDIATIONS, [RemediationSpec(), RemediationSpec("retry")]),
]


@pytest.mark.parametrize("table, specs", TABLES,
                         ids=["admission", "concurrency", "remediation"])
def test_policy_tables_match_class_kinds_and_spec_kinds(table, specs):
    """Each table's keys are its classes' ``kind`` attributes and are
    exactly the kinds its spec accepts: every key builds a spec, any
    other kind is rejected."""
    assert all(cls.kind == kind for kind, cls in table.items())
    assert [spec.kind for spec in specs] == list(table)
    for bogus in ("bogus", None, ""):
        with pytest.raises(ValueError, match="kind must be one of"):
            dataclasses.replace(specs[0], kind=bogus)


def test_build_factories_map_kinds_to_classes(sim, fabric):
    """``PolicyServer`` builds each policy from its spec through the
    axis's table, and the policy keeps the spec's values."""
    def build(name, policy):
        return PolicyServer(sim, fabric, name, make_vm(sim, name),
                            compute_handler(0.01), policy)

    default = build("default", TierPolicy())
    assert isinstance(default.admission, KernelBacklogAdmission)
    assert isinstance(default.concurrency, ThreadPoolConcurrency)
    assert default.concurrency.threads == 150
    assert isinstance(default.remediation, NoRemediation)
    eager = build("eager", TierPolicy.asynchronous(lite_q_depth=9, workers=3))
    assert isinstance(eager.admission, EagerAdmission)
    assert eager.admission.depth == 9
    assert isinstance(eager.concurrency, EventLoopConcurrency)
    assert eager.concurrency.workers == 3
    shed = build("shed", TierPolicy.shedding(depth=9, threads=2))
    assert isinstance(shed.admission, SheddingAdmission)
    assert shed.admission.depth == 9
    retry = build("retry", TierPolicy.sync(remediation=RemediationSpec(
        "retry", timeout=0.2, retries=4)))
    assert isinstance(retry.remediation, TimeoutRetry)
    assert retry.remediation.timeout == 0.2
    assert retry.remediation.retries == 4


def test_tier_policy_presets():
    sync = TierPolicy.sync(threads=7)
    assert (sync.admission.kind, sync.concurrency.kind,
            sync.remediation.kind) == ("backlog", "threads", "none")
    assert sync.concurrency.threads == 7
    asyn = TierPolicy.asynchronous(lite_q_depth=99, workers=2)
    assert (asyn.admission.kind, asyn.concurrency.kind) == (
        "eager", "eventloop")
    assert asyn.admission.depth == 99
    shed = TierPolicy.shedding(depth=11, threads=3)
    assert (shed.admission.kind, shed.concurrency.kind) == ("shed", "threads")
    assert shed.admission.depth == 11


def test_policy_server_default_composition_serves(sim, fabric):
    server = PolicyServer(sim, fabric, "srv", make_vm(sim),
                          compute_handler(0.01))
    outcomes = send(sim, fabric, server.listener, "hello")
    sim.run()
    assert outcomes[0].ok
    assert outcomes[0].value == {"served": "hello"}
    assert "backlog+threads+none" in repr(server)


def test_policy_server_factory_from_tier_policy(sim, fabric):
    server = PolicyServer(sim, fabric, "srv", make_vm(sim),
                          compute_handler(0.01),
                          TierPolicy.shedding(depth=5, threads=2),
                          backlog=4)
    assert isinstance(server.admission, SheddingAdmission)
    assert isinstance(server.concurrency, ThreadPoolConcurrency)
    assert server.max_sys_q_depth == 5 + 4


# ----------------------------------------------------------------------
# one server-visit lifecycle on both drivers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", [
    TierPolicy.sync(threads=1),
    TierPolicy.asynchronous(),
    TierPolicy.shedding(depth=4, threads=1),
], ids=["threads", "eventloop", "eager_threads"])
def test_every_visit_traces_start_and_error_reason(sim, fabric, policy):
    """A visit records ``start`` when a thread takes the request or the
    eager admission hands it to the event loop, then one ``error``
    that says why; it counts one failure and reports one sojourn, and
    ``server_spans`` builds its span."""
    from repro.metrics.spans import server_spans

    front = PolicyServer(sim, fabric, "front", make_vm(sim),
                         calling_handler("ghost"), policy)
    sojourns = []
    front.latency_observer = sojourns.append
    requests = []
    outcomes = send(sim, fabric, front.listener, requests=requests)
    sim.run()
    (request,) = requests
    reason = "front has no route to tier 'ghost'"
    assert request.trace == [
        (0.0, "start", "front"),
        (pytest.approx(0.001), "error", f"front: {reason}"),
    ]
    (span,) = server_spans(request.trace)
    assert (span.server, span.outcome) == ("front", "error")
    assert span.duration == pytest.approx(0.001)
    assert outcomes[0].error == reason
    assert sojourns == [pytest.approx(0.001)]
    assert (front.stats.completed, front.stats.failed) == (0, 1)


# ----------------------------------------------------------------------
# load-shedding admission (bounded LiteQ + 503)
# ----------------------------------------------------------------------
def shedding_server(sim, fabric, depth=2, threads=1, work=1.0):
    return PolicyServer(
        sim, fabric, "srv", make_vm(sim), compute_handler(work),
        TierPolicy.shedding(depth=depth, threads=threads), backlog=8,
    )


def test_shedding_admission_503s_over_depth(sim, fabric):
    server = shedding_server(sim, fabric, depth=2, threads=1, work=1.0)
    all_outcomes = [send(sim, fabric, server.listener, f"r{i}")
                    for i in range(5)]
    sim.run(until=0.5)
    # 2 admitted (1 running + 1 in the intake queue), 3 answered 503 --
    # immediately, long before the admitted work completes
    shed = [o[0] for o in all_outcomes if o and not o[0].ok]
    assert len(shed) == 3
    assert all("503" in response.error for response in shed)
    assert server.stats.shed == 3
    assert server.listener.sheds == 3
    assert server.listener.drops == 0
    sim.run()
    served = [o[0] for o in all_outcomes if o and o[0].ok]
    assert len(served) == 2
    assert server.stats.completed == 2


def test_shedding_admission_drains_after_completion(sim, fabric):
    """Room freed by a finished request re-opens the bounded queue."""
    server = shedding_server(sim, fabric, depth=2, threads=2, work=0.1)
    first = [send(sim, fabric, server.listener, f"a{i}") for i in range(2)]
    sim.run(until=0.5)
    late = send(sim, fabric, server.listener, "late")
    sim.run()
    assert all(o[0].ok for o in first)
    assert late[0].ok
    assert server.stats.shed == 0


def test_eager_thread_hybrid_counts_arrivals_at_admission(sim, fabric):
    """The LiteQ-fronted thread pool admits eagerly, then serves all."""
    server = shedding_server(sim, fabric, depth=50, threads=2, work=0.05)
    all_outcomes = [send(sim, fabric, server.listener, f"r{i}")
                    for i in range(8)]
    sim.run(until=0.01)
    assert server.stats.arrivals == 8       # admitted, not yet served
    assert server.listener.backlog_length == 0  # nothing parked in kernel
    sim.run()
    assert all(o[0].ok for o in all_outcomes)
    assert server.stats.completed == 8


# ----------------------------------------------------------------------
# CoDel (delay-based) admission
# ----------------------------------------------------------------------
def test_codel_spec_validation():
    with pytest.raises(ValueError, match="needs a depth"):
        AdmissionSpec("codel")
    with pytest.raises(ValueError, match="positive target and interval"):
        AdmissionSpec("codel", depth=4, target=0.0)
    with pytest.raises(ValueError, match="positive target and interval"):
        AdmissionSpec("codel", depth=4, interval=-1.0)
    spec = AdmissionSpec("codel", depth=4, target=0.02, interval=0.2)
    assert (spec.target, spec.interval) == (0.02, 0.2)


def test_codel_factory_and_preset():
    built = ADMISSIONS["codel"](AdmissionSpec("codel", depth=9, target=0.02,
                                              interval=0.2))
    assert isinstance(built, CoDelAdmission)
    assert isinstance(built, SheddingAdmission)  # strictly tightens shed
    assert (built.depth, built.target, built.interval) == (9, 0.02, 0.2)
    policy = TierPolicy.codel(depth=9, threads=3, target=0.02, interval=0.2)
    assert policy.admission.kind == "codel"
    assert policy.concurrency.threads == 3


def send_at(sim, fabric, listener, at, operation="op"):
    outcomes = []

    def client():
        if at:
            yield at
        exchange = fabric.send(listener, Request("K", operation, sim.now))
        try:
            outcomes.append((yield exchange.response))
        except Exception as exc:  # ConnectionTimeout
            outcomes.append(exc)

    sim.process(client())
    return outcomes


def codel_server(sim, fabric, work, depth=50, threads=1,
                 target=0.05, interval=0.1):
    return PolicyServer(
        sim, fabric, "srv", make_vm(sim), compute_handler(work),
        TierPolicy.codel(depth=depth, threads=threads, target=target,
                         interval=interval),
        backlog=64,
    )


def test_codel_sheds_on_standing_delay_long_before_depth(sim, fabric):
    """Five requests against depth=50: pure depth shedding never fires,
    but the standing queue's sojourn crosses target for a full interval
    and the control law sheds — the bufferbloat case CoDel exists for."""
    server = codel_server(sim, fabric, work=10.0)
    send_at(sim, fabric, server.listener, 0.0, "r0")     # runs forever
    send_at(sim, fabric, server.listener, 0.06, "r1")    # above target
    shed1 = send_at(sim, fabric, server.listener, 0.2, "r2")
    admitted = send_at(sim, fabric, server.listener, 0.25, "r3")
    shed2 = send_at(sim, fabric, server.listener, 0.35, "r4")
    sim.run(until=1.0)
    # r2: sojourn 0.2 s above target since 0.06 -> dropping state entered
    assert shed1 and not shed1[0].ok
    assert "codel shed" in shed1[0].error
    # r3 arrives inside the drop interval: admitted, not shed
    assert not admitted
    # r4 lands past drop_next: the ramping control law sheds again
    assert shed2 and not shed2[0].ok
    assert server.stats.shed == 2
    assert server.listener.sheds == 2
    assert server.listener.drops == 0            # fast 503s, no backlog


def test_codel_below_target_never_sheds(sim, fabric):
    server = codel_server(sim, fabric, work=0.01, threads=2)
    all_outcomes = [send_at(sim, fabric, server.listener, 0.05 * i, f"r{i}")
                    for i in range(10)]
    sim.run()
    assert all(o[0].ok for o in all_outcomes)
    assert server.stats.shed == 0


def test_codel_exits_dropping_once_the_queue_dissolves(sim, fabric):
    """One observation below target leaves the dropping state: after the
    burst drains, a late request is admitted and served normally."""
    server = codel_server(sim, fabric, work=0.04, target=0.05,
                          interval=0.1)
    # arrivals at twice the service rate: the standing queue's sojourn
    # climbs 20 ms per admitted pair until the control law trips
    burst = [send_at(sim, fabric, server.listener, 0.02 * i, f"b{i}")
             for i in range(16)]
    sim.run(until=3.0)
    assert server.stats.shed > 0                 # the burst tripped codel
    late = send_at(sim, fabric, server.listener, None, "late")
    sim.run()
    assert late[0].ok
    served = sum(1 for o in burst if o and o[0].ok)
    assert served + server.stats.shed == 16


def test_codel_hard_depth_bound_still_applies(sim, fabric):
    """depth stays the hard cap: a same-instant flood overruns the
    bound before any sojourn exists, and the parent's queue-full 503
    answers the overflow."""
    server = codel_server(sim, fabric, work=10.0, depth=2)
    all_outcomes = [send_at(sim, fabric, server.listener, 0.0, f"r{i}")
                    for i in range(5)]
    sim.run(until=0.5)
    shed = [o[0] for o in all_outcomes if o and not o[0].ok]
    assert len(shed) == 3
    assert all("queue full" in response.error for response in shed)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
def test_circuit_breaker_validation():
    """The breaker's settings are checked once, by the remediation spec
    that carries them."""
    with pytest.raises(ValueError, match="breaker_threshold must be >= 1"):
        RemediationSpec("retry", breaker_threshold=0)
    with pytest.raises(ValueError, match="breaker_reset must be > 0"):
        RemediationSpec("retry", breaker_reset=0.0)
    with pytest.raises(ValueError, match="breaker_reset must be > 0"):
        RemediationSpec("retry", breaker_reset=-1.0)
    # None disables the breaker
    assert RemediationSpec("retry",
                           breaker_threshold=None).breaker_threshold is None


def test_circuit_breaker_state_machine(sim):
    breaker = CircuitBreaker(sim, threshold=2, reset_after=1.0)
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state == "closed"  # one failure below threshold
    breaker.record_failure()
    assert breaker.state == "open" and breaker.opens == 1
    assert not breaker.allow()
    sim.run(until=1.5)  # past the reset window
    assert breaker.allow()            # the single half-open trial
    assert breaker.state == "half_open"
    assert not breaker.allow()        # second caller still blocked
    breaker.record_success()
    assert breaker.state == "closed" and breaker.allow()


def test_circuit_breaker_reopens_on_half_open_failure(sim):
    breaker = CircuitBreaker(sim, threshold=1, reset_after=1.0)
    breaker.record_failure()
    assert breaker.state == "open"
    sim.run(until=1.0)
    assert breaker.allow()
    breaker.record_failure()          # trial call failed
    assert breaker.state == "open" and breaker.opens == 2


# ----------------------------------------------------------------------
# timeout + retry remediation (both driver paths)
# ----------------------------------------------------------------------
def front_and_back(sim, fabric, remediation, front_async=False,
                   back_work=5.0):
    back = PolicyServer(sim, fabric, "back", make_vm(sim, "bvm"),
                        compute_handler(back_work), TierPolicy.sync(threads=4))
    if front_async:
        policy = TierPolicy.asynchronous(workers=1, remediation=remediation)
    else:
        policy = TierPolicy.sync(threads=4, remediation=remediation)
    front = PolicyServer(sim, fabric, "front", make_vm(sim, "fvm"),
                         calling_handler("back"), policy)
    front.connect("back", back.listener)
    return front, back


@pytest.mark.parametrize("front_async", [False, True])
def test_timeout_retry_exhaustion_fails_the_request(sim, fabric,
                                                    front_async):
    spec = RemediationSpec("retry", timeout=0.2, retries=2, backoff=0.05,
                           breaker_threshold=None)
    front, back = front_and_back(sim, fabric, spec, front_async=front_async)
    outcomes = send(sim, fabric, front.listener, "slow")
    sim.run(until=3.0)
    assert outcomes and not outcomes[0].ok
    assert "no response within" in outcomes[0].error
    assert front.stats.retries == 2
    assert front.stats.downstream_failures == 3  # original + 2 retries
    assert front.stats.breaker_fast_fails == 0
    assert back.stats.arrivals == 3              # the retry storm, downstream


@pytest.mark.parametrize("front_async", [False, True])
def test_retry_succeeds_when_downstream_recovers(sim, fabric, front_async):
    spec = RemediationSpec("retry", timeout=0.3, retries=3, backoff=0.0,
                           breaker_threshold=None)
    # back is frozen for the first 0.4 s: the first attempt times out,
    # a retried attempt lands on the recovered server and succeeds
    front, back = front_and_back(sim, fabric, spec, front_async=front_async,
                                 back_work=0.01)
    sim.call_at(0.0, back.vm.freeze, 0.4)
    outcomes = send(sim, fabric, front.listener, "slow-start")
    sim.run(until=5.0)
    assert outcomes and outcomes[0].ok
    assert front.stats.retries >= 1
    assert front.stats.completed == 1


@pytest.mark.parametrize("front_async", [False, True])
def test_open_breaker_fails_fast_without_downstream_send(sim, fabric,
                                                         front_async):
    spec = RemediationSpec("retry", timeout=0.2, retries=0, backoff=0.0,
                           breaker_threshold=1, breaker_reset=30.0)
    front, back = front_and_back(sim, fabric, spec, front_async=front_async)
    first = send(sim, fabric, front.listener, "opens-the-breaker")
    sim.run(until=1.0)
    assert not first[0].ok
    sends_before = back.stats.arrivals
    second = send(sim, fabric, front.listener, "fast-failed")
    sim.run(until=2.0)
    assert not second[0].ok
    assert "circuit open" in second[0].error
    assert front.stats.breaker_fast_fails == 1
    assert back.stats.arrivals == sends_before  # nothing new sent


def test_retry_records_trace_events(sim, fabric):
    spec = RemediationSpec("retry", timeout=0.2, retries=1, backoff=0.0,
                           breaker_threshold=1, breaker_reset=30.0)
    front, _back = front_and_back(sim, fabric, spec)
    requests = []
    send(sim, fabric, front.listener, "r1", requests=requests)
    sim.run(until=1.0)
    send(sim, fabric, front.listener, "r2", requests=requests)
    sim.run(until=2.0)
    events = [event for _t, event, _d in requests[0].root.trace]
    assert "retry" in events
    later = [event for _t, event, _d in requests[1].root.trace]
    assert "breaker_open" in later


# ----------------------------------------------------------------------
# chains: ConnectionTimeout -> ServletError propagation under retry
# ----------------------------------------------------------------------
def retry_chain(depth=3, **retry_kwargs):
    spec_kwargs = dict(timeout=0.1, retries=1, backoff=0.0,
                       breaker_threshold=None)
    spec_kwargs.update(retry_kwargs)
    tiers = uniform_chain(depth, policy=TierPolicy.sync(threads=4),
                          backlog=4, pre_work=ms(0.05), post_work=ms(0.1),
                          stochastic=False)
    tiers[-2].policy = TierPolicy.sync(
        threads=4, remediation=RemediationSpec("retry", **spec_kwargs)
    )
    return build_chain(tiers, seed=7)


def test_chain_timeout_propagates_as_servlet_error():
    """A frozen leaf turns remediation timeouts into explicit 500s at
    the client instead of silent multi-second retransmission stalls."""
    system = retry_chain(3)
    system.sim.call_at(1.0, system.vms[-1].freeze, 2.0)
    system.open_loop(rate=100.0)
    system.sim.run(until=4.0)
    summary = system.log.summary(4.0)
    assert summary["failed"] > 0
    mid = system.servers[-2]
    assert mid.stats.retries > 0
    assert mid.stats.downstream_failures > 0
    failures = [r for r in system.log.records if r.failed]
    assert any("no response within" in (r.error or "") for r in failures)
    # failures surface fast: well under the 3 s TCP retransmission tail
    assert all(r.response_time < 1.0 for r in failures)


def test_chain_breaker_open_fast_fails_midtier():
    system = retry_chain(4, breaker_threshold=2, breaker_reset=60.0)
    system.sim.call_at(1.0, system.vms[-1].freeze, 2.5)
    system.open_loop(rate=150.0)
    system.sim.run(until=4.0)
    mid = system.servers[-2]
    assert mid.stats.breaker_fast_fails > 0
    failures = [r for r in system.log.records if r.failed]
    assert any("circuit open" in (r.error or "") for r in failures)


def test_chain_recovers_after_breaker_reset():
    system = retry_chain(3, breaker_threshold=2, breaker_reset=0.5)
    system.sim.call_at(1.0, system.vms[-1].freeze, 1.0)
    system.open_loop(rate=100.0)
    system.sim.run(until=5.0)
    # the freeze window produced failures, but service resumed: late
    # requests complete again once the breaker's trial call succeeds
    late = [r for r in system.log.records if r.start > 3.0]
    assert late and any(not r.failed for r in late)


# ----------------------------------------------------------------------
# fixed routing (duplicate connect refusal)
# ----------------------------------------------------------------------
def test_connect_rejects_duplicate_target(sim, fabric):
    a = PolicyServer(sim, fabric, "a", make_vm(sim, "avm"),
                     compute_handler(0.01))
    b = PolicyServer(sim, fabric, "b", make_vm(sim, "bvm"),
                     compute_handler(0.01))
    a.connect("down", b.listener)
    with pytest.raises(ValueError, match="already connected"):
        a.connect("down", b.listener)
