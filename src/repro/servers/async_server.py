"""The asynchronous, event-driven server (Nginx / XTomcat / XMySQL).

Arriving packets are admitted *immediately* — the listener's eager
acceptor moves them into a huge **lightweight queue** (``LiteQDepth``,
e.g. all 65535 port numbers for Nginx, 2000 for the InnoDB wait queue)
instead of letting them pile up in the 128-entry kernel backlog.

Processing is a real event loop: a small set of ``workers`` (one per
core for Nginx/XTomcat, the 8 InnoDB threads for XMySQL) pull *ready
continuations* from a FIFO event queue and execute one CPU stage at a
time.  A downstream :class:`~repro.apps.servlet.Call` does **not** hold
a worker — the continuation is parked and re-enqueued by the response
callback (the paper's Fig 14(b) event handlers).

Three consequences, all observed in the paper:

- **no upstream CTQO** — a millibottleneck downstream cannot exhaust
  this server's queues, because waiting requests cost a queue slot, not
  a thread, and LiteQDepth is effectively unbounded (Fig 7/8);
- **downstream CTQO** — during a millibottleneck in *this* server the
  event queue accumulates admitted-but-unstarted requests; when the
  millibottleneck ends the loop races through their (cheap) pre-query
  stages and floods the next tier with queries in a batch (Fig 9);
- **no thread-count overhead** — the runnable set stays tiny no matter
  how many requests are parked, so throughput does not collapse at high
  concurrency (Fig 12).

This class is :class:`~repro.servers.runtime.PolicyServer` built from
the :meth:`~repro.servers.policies.TierPolicy.asynchronous` preset:

    eager LiteQ admission × event-loop concurrency × no remediation

kept under the paper's name and parameters for code that constructs a
server directly.  Built topologies give a ``NodeSpec`` the same
``TierPolicy.asynchronous(...)`` and get the same server, with the same
attributes (``inflight``, ``lite_q_depth``, ``ready_events``, ...).
"""

from __future__ import annotations

from .policies import DEFAULT_LITE_Q_DEPTH, TierPolicy
from .runtime import PolicyServer

__all__ = ["AsyncServer"]


class AsyncServer(PolicyServer):
    """Event-driven server with a lightweight queue and loop workers.

    Parameters
    ----------
    lite_q_depth:
        Maximum admitted-but-unanswered requests (LiteQDepth).
    workers:
        Event-loop worker count: 1 per core for Nginx/XTomcat;
        XMySQL uses 8 (``innodb_thread_concurrency``).
    backlog:
        Kernel accept queue, still present but nearly always empty
        because admission is immediate.
    pace_rate:
        Downstream-call pacing (requests/second).  An *extension*
        beyond the paper: it bounds the batch-flood rate an async
        tier emits right after its own millibottleneck (Fig 9's
        downstream CTQO), trading added queueing delay inside this
        tier for the downstream's bounded queues.  None = unpaced,
        the paper's behaviour.
    """

    def __init__(self, sim, fabric, name, vm, handler,
                 lite_q_depth=DEFAULT_LITE_Q_DEPTH, workers=1, backlog=128,
                 pace_rate=None):
        super().__init__(
            sim, fabric, name, vm, handler,
            TierPolicy.asynchronous(lite_q_depth=lite_q_depth,
                                    workers=workers, pace_rate=pace_rate),
            backlog=backlog,
        )
