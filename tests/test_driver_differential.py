"""Differential test of the two servlet drivers on random programs.

The thread driver (``BaseServer._drive``) and the event-loop driver
(``EventLoopConcurrency._worker``) interpret the same instruction table
and differ only in how they wait.  Run one request at a time, a servlet
must therefore behave identically under both: the same reply (payload
or error text), the same call and failure counters, the same cache and
storage effects, and every thread, admission slot and pool connection
handed back afterwards.

Programs are straight-line sequences over all eight instructions,
including the failure cases: an unrouted Call, a downstream that
replies with an error, a server without a cache or storage attached,
and steps wrapped in ``try/except ServletError``.  The fronts are the
``TierPolicy.sync`` and ``TierPolicy.asynchronous`` presets (the
SyncServer and AsyncServer compositions), optionally with a
timeout/retry/breaker remediation, which then runs on both drivers.
"""

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
    RemediationSpec,
    SyncServer,
    TierPolicy,
    policy_server,
)
from repro.servers.cache import LruCache
from repro.servers.gather import gather_stats
from repro.servers.storage import WriteBackStore
from repro.sim import Simulator

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
    front = policy_server(sim, fabric, "front", _vm(sim, "front"), servlet,
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
