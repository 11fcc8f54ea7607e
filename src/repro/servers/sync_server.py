"""The synchronous, RPC-style server (Apache / Tomcat / MySQL).

A bounded pool of threads each runs the accept → servlet → reply loop.
A thread is held for the request's entire lifetime, *including while it
waits for downstream tiers* — the blocking RPC semantics that create
the paper's cross-tier dependency chain.  When every thread is busy,
arriving packets pile into the TCP accept queue; when that overflows
too, packets drop.  The overflow threshold is the paper's

    ``MaxSysQDepth = thread_pool_size + tcp_backlog``

(278 = 150 + 128 for their Apache).

Apache's prefork/worker behaviour of spawning a *second process* with a
fresh thread pool under sustained saturation — the second queue-depth
plateau at ~428 in Fig 3(b) — is modelled by ``spawn_extra_process``.

Since the policy refactor this class is a thin **preset** over
:class:`~repro.servers.runtime.PolicyServer`:

    kernel-backlog admission × thread-pool concurrency × no remediation

kept as a named preset for code that constructs a server directly.
Built topologies make the same composition from
``TierPolicy.sync(...)`` through
:func:`~repro.servers.runtime.policy_server`, with the same attributes
(``busy_threads``, ``thread_capacity``, ...).
"""

from __future__ import annotations

from .policies import (
    KernelBacklogAdmission,
    NoRemediation,
    ThreadPoolConcurrency,
)
from .runtime import PolicyServer

__all__ = ["SyncServer"]


class SyncServer(PolicyServer):
    """Thread-pool server with blocking downstream calls.

    Parameters
    ----------
    threads:
        Thread-pool size per process (150 for the paper's Apache,
        165/150 for Tomcat, 100 for MySQL).
    backlog:
        TCP accept-queue size (128 on the paper's kernel).
    spawn_extra_process:
        Enable the Apache-style second process: when every thread has
        been busy for ``spawn_after`` seconds continuously, add another
        ``threads`` workers (at most ``max_processes`` processes total).
    """

    def __init__(self, sim, fabric, name, vm, handler, threads=150,
                 backlog=128, spawn_extra_process=False, spawn_after=0.5,
                 max_processes=2):
        super().__init__(
            sim, fabric, name, vm, handler,
            admission=KernelBacklogAdmission(),
            concurrency=ThreadPoolConcurrency(
                threads=threads,
                spawn_extra_process=spawn_extra_process,
                spawn_after=spawn_after,
                max_processes=max_processes,
            ),
            remediation=NoRemediation(),
            backlog=backlog,
        )
