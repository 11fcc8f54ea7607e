"""Fine-grained resource monitoring (the paper's collectl at 50 ms).

The paper's micro-level event analysis rests on sampling CPU
utilization and queue depths at sub-second granularity — coarser
monitoring averages millibottlenecks away entirely.  The
:class:`SystemMonitor` samples every ``interval`` seconds (default
50 ms, matching the paper) and records:

- per-VM CPU utilization, in two views:

  - ``cpu`` — the *guest's* perspective: demand counts as busy even
    when the hypervisor starves the VM, which is how collectl inside a
    consolidated VM reads 100 % during a millibottleneck (Fig 3a);
  - ``host_cpu`` — the hypervisor's perspective: physical core-time
    actually granted.  Use this for steady-state operating points
    (the paper's "highest average CPU util" annotations);

- per-VM I/O wait fraction (freeze time in the window),
- per-server queue depth (busy threads/admitted requests + backlog),
- per-server fine-grained gauges where the server exposes them
  (an ``occupancy()`` method and a ``listener``): pool/lightweight-queue
  occupancy, TCP backlog depth, and MaxSysQDepth headroom.  The backlog
  gauge is what the CTQO attribution engine segments into overflow
  episodes — the accept queue is the resource that actually drops
  packets, and its capacity is fixed even when ``MaxSysQDepth`` grows
  (Apache's second process);
- per-server *policy-event* counters where the server's stats expose
  them (cumulative, sampled like collectl's counters): requests shed
  with a 503 by a bounded admission, downstream retries issued by a
  remediation policy, and breaker fast-fails — the observables the
  policy-matrix experiments are built on;
- cumulative client-side request counts per watched
  :class:`~repro.metrics.trace.RequestLog` (``request_counts``) —
  O(1) per sample in both exact and streaming logs, so million-request
  runs get an arrival/completion timeline without per-request storage.
"""

from __future__ import annotations

from .timeseries import TimeSeries

__all__ = ["SystemMonitor"]


class SystemMonitor:
    """Windowed sampler over VMs and servers.

    Usage::

        monitor = SystemMonitor(sim, interval=0.05)
        monitor.watch_vm("tomcat", tomcat_vm)
        monitor.watch_server("apache", apache_server)
        monitor.start()
        sim.run(until=60)
        saturation_episodes(monitor.cpu["tomcat"], 0.95)
    """

    def __init__(self, sim, interval=0.05):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.cpu = {}
        self.host_cpu = {}
        self.iowait = {}
        self.queues = {}
        self.occupancy = {}
        self.backlog = {}
        self.headroom = {}
        self.sheds = {}
        self.retries = {}
        self.breaker_fast_fails = {}
        self.outstanding = {}
        self.hedges = {}
        self.request_counts = {}
        self.cache_hits = {}
        self.cache_misses = {}
        self.storage_depth = {}
        self.write_buffer = {}
        self._vms = {}
        self._servers = {}
        self._groups = {}
        self._caches = {}
        self._storages = {}
        self._logs = {}
        # servers with the full gauge interface (occupancy + listener);
        # minimal test doubles are monitored for queue depth only
        self._gauged = {}
        # servers with policy-event counters (a ServerStats `stats`)
        self._counted = {}
        self._last_runnable = {}
        self._last_consumed = {}
        self._last_iowait = {}
        self._hosts = set()
        self._process = None
        #: called as ``fn(now)`` after every sample — the hook live
        #: telemetry rides on instead of scheduling kernel events of
        #: its own (empty by default: no per-sample overhead when off)
        self.listeners = []

    # ------------------------------------------------------------------
    def watch_vm(self, name, vm):
        """Record CPU utilization and iowait for ``vm`` as ``name``."""
        self._vms[name] = vm
        self._hosts.add(vm.host)
        self.cpu[name] = TimeSeries(f"cpu:{name}")
        self.host_cpu[name] = TimeSeries(f"host_cpu:{name}")
        self.iowait[name] = TimeSeries(f"iowait:{name}")
        self._last_runnable[name] = vm.runnable
        self._last_consumed[name] = vm.consumed
        self._last_iowait[name] = vm.iowait
        return self

    def watch_server(self, name, server):
        """Record queue depth — and, where the server exposes them,
        occupancy/backlog/headroom gauges — for ``server`` as ``name``."""
        self._servers[name] = server
        self.queues[name] = TimeSeries(f"queue:{name}")
        if hasattr(server, "occupancy") and hasattr(server, "listener"):
            self._gauged[name] = server
            self.occupancy[name] = TimeSeries(f"occupancy:{name}")
            self.backlog[name] = TimeSeries(f"backlog:{name}")
            self.headroom[name] = TimeSeries(f"headroom:{name}")
        stats = getattr(server, "stats", None)
        if stats is not None and hasattr(stats, "shed"):
            self._counted[name] = stats
            self.sheds[name] = TimeSeries(f"sheds:{name}")
            self.retries[name] = TimeSeries(f"retries:{name}")
            self.breaker_fast_fails[name] = TimeSeries(f"breaker:{name}")
        return self

    def watch_group(self, name, group):
        """Record a :class:`~repro.servers.replica.ReplicaGroup`'s
        per-replica outstanding calls (``<name>[i]`` series) and its
        cumulative hedges-issued counter as ``name``."""
        self._groups[name] = group
        for index in range(len(group.listeners)):
            self.outstanding[f"{name}[{index}]"] = TimeSeries(
                f"outstanding:{name}[{index}]"
            )
        self.hedges[name] = TimeSeries(f"hedges:{name}")
        return self

    def watch_cache(self, name, cache):
        """Record a cache's cumulative hit/miss counters as ``name``.

        Sampled like collectl's counters: the cache-miss-burst detector
        differentiates the cumulative ``cache_misses`` series into a
        windowed miss rate, the same way shed/retry counters are read.
        """
        self._caches[name] = cache
        self.cache_hits[name] = TimeSeries(f"cache_hits:{name}")
        self.cache_misses[name] = TimeSeries(f"cache_misses:{name}")
        return self

    def watch_storage(self, name, store):
        """Record a write-back store's device-queue depth and
        write-buffer depth gauges as ``name`` — the bufferbloat
        observables (a deep ``write_buffer`` with healthy throughput is
        the signature the storage experiments detect)."""
        self._storages[name] = store
        self.storage_depth[name] = TimeSeries(f"storage_depth:{name}")
        self.write_buffer[name] = TimeSeries(f"write_buffer:{name}")
        return self

    def watch_log(self, name, log):
        """Sample a :class:`~repro.metrics.trace.RequestLog`'s
        cumulative request count (``len(log)``) as ``name`` — the
        client-side arrival timeline.  Costs O(1) per sample whether
        the log is exact or streaming."""
        self._logs[name] = log
        self.request_counts[name] = TimeSeries(f"requests:{name}")
        return self

    def start(self):
        """Begin sampling; call before ``sim.run``."""
        if self._process is None:
            self._process = self.sim.process(self._sample_loop(), name="monitor")
        return self

    # ------------------------------------------------------------------
    def _sample_loop(self):
        while True:
            yield self.interval
            self.sample()

    def sample(self):
        """Take one sample now (also usable manually in tests)."""
        now = self.sim.now
        for host in self._hosts:
            host.settle()
        for name, vm in self._vms.items():
            runnable = vm.runnable  # guest view: starved demand is "busy"
            util = (runnable - self._last_runnable[name]) / self.interval / vm.vcpus
            self._last_runnable[name] = runnable
            self.cpu[name].append(now, min(1.0, util))
            consumed = vm.consumed  # hypervisor view: granted core-time
            granted = (consumed - self._last_consumed[name]) / self.interval / vm.vcpus
            self._last_consumed[name] = consumed
            self.host_cpu[name].append(now, min(1.0, granted))
            waited = vm.iowait
            frac = (waited - self._last_iowait[name]) / self.interval
            self._last_iowait[name] = waited
            self.iowait[name].append(now, min(1.0, frac))
        for name, server in self._servers.items():
            depth = server.queue_depth()
            server._note_queue_depth()
            self.queues[name].append(now, depth)
        for name, server in self._gauged.items():
            self.occupancy[name].append(now, server.occupancy())
            self.backlog[name].append(now, server.listener.backlog_length)
            self.headroom[name].append(
                now, server.max_sys_q_depth - server.queue_depth()
            )
        for name, stats in self._counted.items():
            self.sheds[name].append(now, stats.shed)
            self.retries[name].append(now, stats.retries)
            self.breaker_fast_fails[name].append(
                now, stats.breaker_fast_fails
            )
        for name, group in self._groups.items():
            for index, count in enumerate(group.outstanding):
                self.outstanding[f"{name}[{index}]"].append(now, count)
            self.hedges[name].append(now, group.hedges_issued)
        for name, cache in self._caches.items():
            self.cache_hits[name].append(now, cache.stats.hits)
            self.cache_misses[name].append(now, cache.stats.misses)
        for name, store in self._storages.items():
            self.storage_depth[name].append(now, store.depth())
            self.write_buffer[name].append(now, store.write_buffer_depth())
        for name, log in self._logs.items():
            self.request_counts[name].append(now, len(log))
        for listener in self.listeners:
            listener(now)

    def __repr__(self):
        return (
            f"<SystemMonitor interval={self.interval} vms={list(self._vms)} "
            f"servers={list(self._servers)}>"
        )
