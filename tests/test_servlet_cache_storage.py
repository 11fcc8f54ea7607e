"""Unit tests for the cache/storage servlet instructions, both drivers.

CacheGet/CachePut/CacheAbort and StorageRead/StorageWrite are handled
by a server thread and an event-loop worker alike (the two
:class:`~repro.servers.base.ServletDriver` kinds of
``repro.servers.policies``); these tests run the same servlets through
a :class:`SyncServer` and an :class:`AsyncServer` to pin that
equivalence, plus the not-attached error contract and the
single-flight coalescing path end to end.
"""

import pytest

from repro.apps.servlet import (
    CacheAbort,
    CacheGet,
    CachePut,
    Compute,
    Request,
    StorageRead,
    StorageWrite,
)
from repro.cpu import Host
from repro.net import NetworkFabric
from repro.servers import AsyncServer, SyncServer
from repro.servers.cache import LruCache
from repro.servers.storage import WriteBackStore
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=17)


@pytest.fixture
def fabric(sim):
    return NetworkFabric(sim, latency=0.0, rto=3.0, max_retransmits=3)


def make_vm(sim, name="vm"):
    return Host(sim, cores=1, name=f"{name}-host").add_vm(name)


def make_server(sim, fabric, handler, sync=True, **kwargs):
    if sync:
        kwargs.setdefault("threads", 4)
        return SyncServer(sim, fabric, "srv", make_vm(sim), handler, **kwargs)
    kwargs.setdefault("workers", 2)
    return AsyncServer(sim, fabric, "srv", make_vm(sim), handler, **kwargs)


def send(sim, fabric, listener, operation="op"):
    outcomes = []

    def client():
        exchange = fabric.send(listener, Request("K", operation, sim.now))
        try:
            outcomes.append((yield exchange.response))
        except Exception as exc:  # ConnectionTimeout
            outcomes.append(exc)

    sim.process(client())
    return outcomes


# ----------------------------------------------------------------------
# instruction validation and repr
# ----------------------------------------------------------------------
def test_cache_put_rejects_nonpositive_ttl():
    with pytest.raises(ValueError, match="ttl must be positive"):
        CachePut("k", 1, ttl=0.0)


def test_storage_commands_reject_nonpositive_sizes():
    with pytest.raises(ValueError, match="size must be positive"):
        StorageRead(0)
    with pytest.raises(ValueError, match="size must be positive"):
        StorageWrite(-2.0)


def test_instruction_reprs():
    assert repr(CacheGet("k")) == "CacheGet('k')"
    assert "single-flight" in repr(CacheGet("k", coalesce=True))
    assert repr(CachePut("k", 1)) == "CachePut('k')"
    assert repr(CacheAbort("k")) == "CacheAbort('k')"
    assert repr(StorageRead(2.0)) == "StorageRead(2)"
    assert repr(StorageWrite()) == "StorageWrite(1)"


# ----------------------------------------------------------------------
# cache-aside through both drivers
# ----------------------------------------------------------------------
def cache_aside_handler(ctx, request):
    hit, value = yield CacheGet("key")
    if hit:
        return {"from": "cache", "value": value}
    yield Compute(0.01)                     # the backing fetch
    yield CachePut("key", "fetched")
    return {"from": "backing", "value": "fetched"}


@pytest.mark.parametrize("sync", [True, False])
def test_cache_aside_miss_then_hit(sim, fabric, sync):
    server = make_server(sim, fabric, cache_aside_handler, sync=sync)
    server.cache = LruCache(sim, 8, name="srv-cache")
    first = send(sim, fabric, server.listener, "r1")
    sim.run(until=0.05)
    second = send(sim, fabric, server.listener, "r2")
    sim.run()
    assert first[0].value == {"from": "backing", "value": "fetched"}
    assert second[0].value == {"from": "cache", "value": "fetched"}
    assert server.cache.stats.hits == 1
    assert server.cache.stats.misses == 1
    # the route label defaults to the request's operation name
    assert server.cache.stats.route_misses == {"r1": 1}
    assert server.cache.stats.route_hits == {"r2": 1}


@pytest.mark.parametrize("sync", [True, False])
def test_cache_get_without_attached_cache_fails_the_request(sim, fabric,
                                                            sync):
    server = make_server(sim, fabric, cache_aside_handler, sync=sync)
    outcomes = send(sim, fabric, server.listener)
    sim.run()
    assert not outcomes[0].ok
    assert "no cache attached" in outcomes[0].error
    assert server.stats.failed == 1


def coalescing_handler(ctx, request):
    hit, value = yield CacheGet("key", coalesce=True)
    if hit:
        return {"leader": False, "value": value}
    yield Compute(0.05)                     # slow fetch: followers park
    yield CachePut("key", "published")
    return {"leader": True, "value": "published"}


@pytest.mark.parametrize("sync", [True, False])
def test_single_flight_collapses_the_herd(sim, fabric, sync):
    server = make_server(sim, fabric, coalescing_handler, sync=sync)
    server.cache = LruCache(sim, 8, name="srv-cache")
    herd = [send(sim, fabric, server.listener, f"r{i}") for i in range(4)]
    sim.run()
    payloads = [o[0].value for o in herd]
    assert sum(1 for p in payloads if p["leader"]) == 1
    assert all(p["value"] == "published" for p in payloads)
    assert server.cache.stats.coalesced == 3
    assert server.cache.inflight_keys() == 0


def aborting_handler(ctx, request):
    hit, value = yield CacheGet("key", coalesce=True)
    if hit:
        return {"value": value}
    yield Compute(0.05)
    yield CacheAbort("key")                 # the backing fetch "failed"
    return {"value": None}


@pytest.mark.parametrize("sync", [True, False])
def test_abort_resumes_followers_with_a_miss(sim, fabric, sync):
    server = make_server(sim, fabric, aborting_handler, sync=sync)
    server.cache = LruCache(sim, 8, name="srv-cache")
    herd = [send(sim, fabric, server.listener, f"r{i}") for i in range(3)]
    sim.run()
    assert all(o[0].ok and o[0].value == {"value": None} for o in herd)
    # the two followers resumed with (False, None); nobody is wedged
    assert server.cache.stats.coalesced == 2
    assert server.cache.inflight_keys() == 0
    assert "key" not in server.cache


# ----------------------------------------------------------------------
# storage commands through both drivers
# ----------------------------------------------------------------------
def storage_handler(ctx, request):
    if request.operation == "write":
        yield StorageWrite(1.0)
        return {"did": "write"}
    yield StorageRead(1.0)
    return {"did": "read"}


@pytest.mark.parametrize("sync", [True, False])
def test_write_acks_fast_read_waits_behind_the_buffer(sim, fabric, sync):
    server = make_server(sim, fabric, storage_handler, sync=sync)
    server.storage = WriteBackStore(sim, service_time=0.05,
                                    name="srv-store")
    writes = [send(sim, fabric, server.listener, "write")
              for _ in range(4)]
    read = send(sim, fabric, server.listener, "read")
    sim.run(until=0.01)
    # every write acked at admission, long before the device served any
    assert all(o and o[0].ok for o in writes)
    assert not read                         # queued behind 4 x 50 ms
    sim.run(until=0.3)
    assert read[0].ok and read[0].value == {"did": "read"}
    assert server.storage.stats.served_writes == 4
    assert server.storage.stats.served_reads == 1


@pytest.mark.parametrize("sync", [True, False])
def test_storage_without_attached_store_fails_the_request(sim, fabric,
                                                          sync):
    server = make_server(sim, fabric, storage_handler, sync=sync)
    outcomes = send(sim, fabric, server.listener, "read")
    sim.run()
    assert not outcomes[0].ok
    assert "no storage attached" in outcomes[0].error


@pytest.mark.parametrize("sync", [True, False])
def test_bounded_buffer_backpressures_the_servlet(sim, fabric, sync):
    server = make_server(sim, fabric, storage_handler, sync=sync)
    server.storage = WriteBackStore(sim, service_time=0.05,
                                    buffer_capacity=1, name="srv-store")
    writes = [send(sim, fabric, server.listener, "write")
              for _ in range(3)]
    sim.run(until=0.01)
    # one admitted instantly; the rest stall on the full buffer
    finished = sum(1 for o in writes if o)
    assert finished == 1
    assert server.storage.stats.write_stalls == 2
    sim.run()
    assert all(o[0].ok for o in writes)
    assert server.storage.write_buffer_depth() == 0
