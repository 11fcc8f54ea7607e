"""Differential tests of the servlet drivers on random programs.

The server thread and the event-loop worker
(:class:`repro.servers.base.ServletDriver` subclasses in
``repro.servers.policies``) share one continuation loop and one
instruction table, and differ only in how they wait.  Run one request
at a time, a servlet must therefore behave identically under both: the
same reply (payload or error text), the same call and failure counters,
the same cache and storage effects, and every thread, admission slot
and pool connection handed back afterwards.

The callback drivers replaced generator processes, kept in
``tests/reference_drivers.py``; a reference build swaps them into the
``CONCURRENCIES`` table while its servers are built.  Run concurrently
— 2 to 6 requests against fewer threads or loop workers than requests
— each driver must match its generator-process original exactly:
replies and reply times, root traces, server counters,
gather/cache/storage counters and the number of kernel events
executed, with every slot back to zero.

Programs are straight-line sequences over all eight instructions,
including the failure cases: an unrouted Call, a downstream that
replies with an error, a server without a cache or storage attached,
and steps wrapped in ``try/except ServletError``.  The fronts are the
``TierPolicy.sync`` and ``TierPolicy.asynchronous`` presets (the
SyncServer and AsyncServer compositions) plus eager admission feeding a
thread pool, optionally with a timeout/retry/breaker remediation, which
then runs on both drivers.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.servlet import (
    CacheAbort,
    CacheGet,
    CachePut,
    Call,
    Compute,
    Gather,
    Request,
    ServletError,
    StorageRead,
    StorageWrite,
)
from repro.cpu import Host
from repro.net import NetworkFabric
from repro.servers import (
    CONCURRENCIES,
    AdmissionSpec,
    ConcurrencySpec,
    PolicyServer,
    RemediationSpec,
    SyncServer,
    TierPolicy,
)
from repro.servers.cache import LruCache
from repro.servers.gather import gather_stats
from repro.servers.storage import WriteBackStore
from repro.sim import Simulator

from reference_drivers import ReferenceEventLoop, ReferenceThreadPool

#: "db" answers, "bad" replies with an error, "ghost" is not wired
TARGETS = st.sampled_from(["db", "bad", "ghost"])
KEYS = st.sampled_from(["a", "b"])


def _gathers():
    return st.lists(TARGETS, min_size=1, max_size=3).flatmap(
        lambda legs: st.tuples(
            st.just("gather"),
            st.tuples(st.just(tuple(legs)),
                      st.none() | st.integers(1, len(legs))),
        )
    )


OPERATIONS = st.one_of(
    st.tuples(st.just("compute"), st.sampled_from([0.0, 0.001, 0.004])),
    st.tuples(st.just("call"), TARGETS),
    _gathers(),
    st.tuples(st.just("cache_get"), st.tuples(KEYS, st.booleans())),
    st.tuples(st.just("cache_put"), st.tuples(KEYS, st.integers(0, 9))),
    st.tuples(st.just("cache_abort"), KEYS),
    st.tuples(st.just("read"), st.sampled_from([1.0, 2.0])),
    st.tuples(st.just("write"), st.sampled_from([1.0, 2.0])),
)

#: (operation, guarded by try/except ServletError)
PROGRAMS = st.lists(st.tuples(OPERATIONS, st.booleans()),
                    min_size=1, max_size=6)


def _operation(kind, arg):
    """The instructions of one program operation; returns its result."""
    if kind == "compute":
        yield Compute(arg)
        return None
    if kind == "call":
        return (yield Call(arg, "query"))
    if kind == "gather":
        legs, quorum = arg
        calls = [Call(target, f"leg{i}") for i, target in enumerate(legs)]
        return (yield Gather(calls, quorum=quorum))
    if kind == "cache_get":
        key, coalesce = arg
        hit, value = yield CacheGet(key, coalesce=coalesce)
        if coalesce and not hit:
            # a single-flight leader must settle its key
            yield CachePut(key, f"filled-{key}")
        return [hit, value]
    if kind == "cache_put":
        key, value = arg
        return (yield CachePut(key, value))
    if kind == "cache_abort":
        return (yield CacheAbort(arg))
    if kind == "read":
        return (yield StorageRead(arg))
    return (yield StorageWrite(arg))


def _program_servlet(program):
    def servlet(ctx, request):
        results = []
        for (kind, arg), guarded in program:
            try:
                results.append((yield from _operation(kind, arg)))
            except ServletError as exc:
                if not guarded:
                    raise
                results.append(["caught", str(exc)])
        return results

    return servlet


def _answer(ctx, request):
    yield Compute(0.0005)
    return {"op": request.operation}


def _refuse(ctx, request):
    yield Compute(0.0005)
    raise ServletError("bad tier refused")


def _vm(sim, name):
    return Host(sim, cores=1, name=f"{name}-host").add_vm(name)


#: retry once after a short backoff; three straight failures open the
#: breaker for half a second, so fast-fails are reachable too
RETRY = RemediationSpec("retry", timeout=1.0, retries=1, backoff=0.01,
                        breaker_threshold=3, breaker_reset=0.5)


def _run(driver, program, cache_on, storage_on, retry, requests=3):
    """Run ``requests`` requests one at a time through a front of the
    given driver; returns everything the two drivers must agree on."""
    sim = Simulator(seed=5)
    fabric = NetworkFabric(sim, latency=0.0001, rto=3.0)
    servlet = _program_servlet(program)
    remediation = RETRY if retry else None
    if driver == "thread":
        policy = TierPolicy.sync(threads=4, remediation=remediation)
    else:
        policy = TierPolicy.asynchronous(workers=1, remediation=remediation)
    front = PolicyServer(sim, fabric, "front", _vm(sim, "front"), servlet,
                         policy)
    db = SyncServer(sim, fabric, "db", _vm(sim, "db"), _answer, threads=4)
    bad = SyncServer(sim, fabric, "bad", _vm(sim, "bad"), _refuse,
                     threads=4)
    # a 2-connection pool queues the third leg of a gather, so quorum
    # cancellation of a pool-queued leg is reachable
    front.connect("db", db.listener, pool_size=2)
    front.connect("bad", bad.listener, pool_size=1)
    if cache_on:
        front.cache = LruCache(sim, capacity=4)
    if storage_on:
        # one buffered write at a time: a second write parks the servlet
        front.storage = WriteBackStore(sim, service_time=0.001,
                                       buffer_capacity=1)

    outcomes = []
    for i in range(requests):
        replies = []

        def client(operation=f"r{i}"):
            exchange = fabric.send(front.listener,
                                   Request("K", operation, sim.now))
            replies.append((yield exchange.response))

        sim.process(client())
        sim.run()
        assert len(replies) == 1
        reply = replies[0]
        outcomes.append((True, reply.value) if reply.ok
                        else (False, reply.error))
        # everything handed back between requests
        if driver == "thread":
            assert front.busy_threads == 0
        assert front.inflight == 0
        for pool in front.pools.values():
            assert pool.in_use == 0
            assert pool.queue_length == 0

    return {
        "outcomes": outcomes,
        "stats": front.stats.snapshot(),
        "gather": dict(gather_stats(front)),
        "cache": front.cache.stats.snapshot() if cache_on else None,
        "storage": front.storage.stats.snapshot() if storage_on else None,
    }


@settings(max_examples=100, deadline=None)
@given(program=PROGRAMS, cache_on=st.booleans(), storage_on=st.booleans(),
       retry=st.booleans())
def test_thread_and_event_loop_drivers_agree(program, cache_on, storage_on,
                                             retry):
    thread = _run("thread", program, cache_on, storage_on, retry)
    loop = _run("eventloop", program, cache_on, storage_on, retry)
    assert thread == loop


# ----------------------------------------------------------------------
# the callback drivers against the generator-process drivers
# ----------------------------------------------------------------------
#: eager admission feeding a thread pool takes from the intake store
FRONTS = st.sampled_from(["threads", "eager-threads", "eventloop"])
#: client send times: simultaneous and staggered arrivals
STARTS = st.lists(st.sampled_from([0.0, 0.0002, 0.001, 0.003]),
                  min_size=2, max_size=6)


#: the generator-process drivers, swapped into ``CONCURRENCIES`` for a
#: reference build
REFERENCE = {"threads": ReferenceThreadPool, "eventloop": ReferenceEventLoop}


def _front_policy(front, size, retry):
    remediation = RETRY if retry else RemediationSpec()
    if front == "eventloop":
        return TierPolicy.asynchronous(lite_q_depth=64, workers=size,
                                       remediation=remediation)
    admission = (AdmissionSpec("eager", depth=64) if front == "eager-threads"
                 else AdmissionSpec("backlog"))
    return TierPolicy(admission, ConcurrencySpec("threads", threads=size),
                      remediation)


def _run_concurrently(reference, front, size, program, cache_on,
                      storage_on, retry, starts):
    """Send one request at each of ``starts`` through a front of
    ``size`` threads or workers; the downstream tiers are thread pools
    of the same implementation.  Returns everything the two
    implementations must agree on."""
    sim = Simulator(seed=5)
    fabric = NetworkFabric(sim, latency=0.0001, rto=3.0)
    with mock.patch.dict(CONCURRENCIES, REFERENCE if reference else {}):
        server = PolicyServer(sim, fabric, "front", _vm(sim, "front"),
                              _program_servlet(program),
                              _front_policy(front, size, retry))
        db = PolicyServer(sim, fabric, "db", _vm(sim, "db"), _answer,
                          TierPolicy.sync(threads=2))
        bad = PolicyServer(sim, fabric, "bad", _vm(sim, "bad"), _refuse,
                           TierPolicy.sync(threads=1))
    assert all(isinstance(tier.concurrency, tuple(REFERENCE.values()))
               == reference for tier in (server, db, bad))
    server.connect("db", db.listener, pool_size=2)
    server.connect("bad", bad.listener, pool_size=1)
    if cache_on:
        server.cache = LruCache(sim, capacity=4)
    if storage_on:
        server.storage = WriteBackStore(sim, service_time=0.001,
                                        buffer_capacity=1)

    roots = []
    replies = []

    def client(index, start):
        yield start
        request = Request("K", f"r{index}", sim.now)
        roots.append((index, request))
        response = yield fabric.send(server.listener, request).response
        replies.append((index, sim.now, response.ok,
                        response.value if response.ok else response.error))

    for index, start in enumerate(starts):
        sim.process(client(index, start))
    sim.run()

    assert len(replies) == len(starts)
    # every slot handed back
    for tier in (server, db, bad):
        if tier.concurrency.kind == "threads":
            assert tier.busy_threads == 0
        assert tier.inflight == 0
        assert len(tier.listener.accept_queue) == 0
    if front == "eventloop":
        assert len(server._ready) == 0
    for pool in server.pools.values():
        assert pool.in_use == 0
        assert pool.queue_length == 0

    return {
        "replies": sorted(replies),
        "traces": [request.trace for _index, request in sorted(roots)],
        "stats": [tier.stats.snapshot() for tier in (server, db, bad)],
        "gather": dict(gather_stats(server)),
        "cache": server.cache.stats.snapshot() if cache_on else None,
        "storage": server.storage.stats.snapshot() if storage_on else None,
        "events": sim.executed_events,
    }


@settings(max_examples=100, deadline=None)
@given(program=PROGRAMS, front=FRONTS, starts=STARTS,
       size=st.integers(1, 5), cache_on=st.booleans(),
       storage_on=st.booleans(), retry=st.booleans())
def test_callback_drivers_match_the_generator_drivers(
        program, front, starts, size, cache_on, storage_on, retry):
    size = min(size, len(starts) - 1)  # fewer slots than requests
    args = (front, size, program, cache_on, storage_on, retry, starts)
    assert _run_concurrently(False, *args) == _run_concurrently(True, *args)
