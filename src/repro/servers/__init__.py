"""Server models, composed from pluggable invocation policies.

Every server is one :class:`PolicyServer` built from one
:class:`TierPolicy` — admission × concurrency × remediation, each a
spec whose ``kind`` names a class in that axis's table.  The classic
pair — :class:`SyncServer` (RPC) and :class:`AsyncServer`
(event-driven) — keep the paper's names and parameters and build
through the ``TierPolicy.sync`` and ``TierPolicy.asynchronous``
presets; see ``docs/ARCHITECTURE.md``.
"""

from .async_server import AsyncServer
from .base import ServerStats
from .cache import CacheStats, LruCache
from .policies import (
    ADMISSIONS,
    CONCURRENCIES,
    DEFAULT_LITE_Q_DEPTH,
    REMEDIATIONS,
    AdmissionSpec,
    CircuitBreaker,
    CoDelAdmission,
    ConcurrencySpec,
    EagerAdmission,
    EventLoopConcurrency,
    KernelBacklogAdmission,
    NoRemediation,
    RemediationSpec,
    SheddingAdmission,
    ThreadPoolConcurrency,
    TierPolicy,
    TimeoutRetry,
)
from .runtime import PolicyServer
from .storage import StorageStats, WriteBackStore
from .sync_server import SyncServer

__all__ = [
    "ADMISSIONS",
    "AdmissionSpec",
    "AsyncServer",
    "CONCURRENCIES",
    "CacheStats",
    "CircuitBreaker",
    "CoDelAdmission",
    "ConcurrencySpec",
    "DEFAULT_LITE_Q_DEPTH",
    "EagerAdmission",
    "EventLoopConcurrency",
    "KernelBacklogAdmission",
    "LruCache",
    "NoRemediation",
    "PolicyServer",
    "REMEDIATIONS",
    "RemediationSpec",
    "ServerStats",
    "SheddingAdmission",
    "StorageStats",
    "SyncServer",
    "WriteBackStore",
    "ThreadPoolConcurrency",
    "TierPolicy",
    "TimeoutRetry",
]
