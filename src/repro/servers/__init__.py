"""Server models, composed from pluggable invocation policies.

The classic pair — :class:`SyncServer` (RPC) and :class:`AsyncServer`
(event-driven) — are presets over :class:`PolicyServer`, which accepts
any admission × concurrency × remediation combination; see
``docs/ARCHITECTURE.md``.
"""

from .async_server import DEFAULT_LITE_Q_DEPTH, AsyncServer
from .base import BaseServer, ServerStats
from .cache import CacheStats, LruCache
from .policies import (
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
    build_admission,
    build_concurrency,
    build_remediation,
)
from .runtime import PolicyServer, policy_server
from .storage import StorageStats, WriteBackStore
from .sync_server import SyncServer

__all__ = [
    "AdmissionSpec",
    "AsyncServer",
    "BaseServer",
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
    "RemediationSpec",
    "ServerStats",
    "SheddingAdmission",
    "StorageStats",
    "SyncServer",
    "WriteBackStore",
    "ThreadPoolConcurrency",
    "TierPolicy",
    "TimeoutRetry",
    "build_admission",
    "build_concurrency",
    "build_remediation",
    "policy_server",
]
