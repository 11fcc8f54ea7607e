"""Configuration objects encoding the paper's experimental setups.

All defaults come from the paper's text and Fig 13:

==============================  =======================================
Parameter                       Source
==============================  =======================================
web threads 150, backlog 128    §III/§IV: MaxSysQDepth(Apache)=278
second Apache process (+150)    Fig 3(b): second plateau at ~428
app threads 165, backlog 128    §V-B: MaxSysQDepth(Tomcat)=293=165+128
db threads 100, backlog 128     §V-C: MaxSysQDepth(MySQL)=228=100+128
app→db connection pool 50       §V-B: "Tomcat DB connection pool size"
LiteQDepth 65535                §V-B: "all available TCP port numbers"
XMySQL 8 slots + queue 2000     §V-D: InnoDB thread concurrency setup
TCP RTO 3 s                     §IV-A: RHEL kernel 2.6.32 retransmit
think time 7 s                  WL 7000 ⇒ ~990 req/s (Fig 1b)
monitor interval 50 ms          §IV: fine-grained measurement
==============================  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..servers.policies import DEFAULT_LITE_Q_DEPTH, TierPolicy
from ..servers.replica import BALANCERS, HedgingSpec

__all__ = ["SystemConfig", "server_names"]


@dataclass
class SystemConfig:
    """Parameters for one n-tier system build.

    ``nx`` is the paper's asynchrony level: how many tiers, front to
    back, are replaced with their asynchronous counterparts —
    0 = Apache-Tomcat-MySQL, 1 = Nginx-Tomcat-MySQL,
    2 = Nginx-XTomcat-MySQL, 3 = Nginx-XTomcat-XMySQL.
    """

    nx: int = 0
    seed: int = 42

    # --- web tier (Apache / Nginx) ---
    web_threads: int = 150
    web_backlog: int = 128
    web_spawn_extra_process: bool = True
    web_spawn_after: float = 0.5
    web_max_processes: int = 2

    # --- app tier (Tomcat / XTomcat) ---
    app_threads: int = 165
    app_backlog: int = 128
    app_vcpus: int = 1

    # --- db tier (MySQL / XMySQL) ---
    db_threads: int = 100
    db_backlog: int = 128
    db_pool_size: int = 50

    # --- asynchronous counterparts ---
    lite_q_depth: int = DEFAULT_LITE_Q_DEPTH
    nginx_workers: int = 1
    xtomcat_workers: int = 165
    xmysql_slots: int = 8
    xmysql_queue: int = 2000
    # extension beyond the paper: pace XTomcat's downstream query rate
    # (requests/second) to defuse the Fig 9 post-stall batch flood;
    # None reproduces the paper's unpaced behaviour
    xtomcat_pace_rate: float = None

    # --- network ---
    net_latency: float = 0.0002
    tcp_rto: float = 3.0
    max_retransmits: int = 3

    # --- optional thread-overhead model (Fig 12) ---
    thread_overhead: bool = False
    switch_cost: float = 6e-4
    gc_cost: float = 6e-7
    free_threads: int = 64

    # --- workload defaults ---
    think_mean: float = 7.0
    monitor_interval: float = 0.05

    # --- metrics mode ------------------------------------------------
    # True builds the system's RequestLog in streaming mode: O(1)
    # aggregate sketches plus exact records of slow/dropped/shed
    # requests only — the million-request configuration (docs/SCALE.md).
    streaming: bool = False

    # --- application mix override (None = calibrated default mix) ---
    interaction_specs: list = field(default=None, repr=False)

    # --- scale-out: per-tier replica groups --------------------------
    # 1 everywhere keeps the paper's 1/1/1 topology; a tier with N > 1
    # replicas builds servers ``tomcat1..N`` (each on its own host), and
    # every route into it becomes a ReplicaGroup behind ``balancer``
    # with per-replica pools (build_system returns the tier-keyed
    # ReplicatedNTierSystem view of the same service graph).
    web_replicas: int = 1
    app_replicas: int = 1
    db_replicas: int = 1
    #: replica-selection policy for every replicated route — one of
    #: :data:`repro.servers.replica.BALANCERS`
    balancer: str = "round_robin"
    #: optional :class:`repro.servers.replica.HedgingSpec` applied to
    #: every route whose downstream tier has >= 2 replicas
    hedging: HedgingSpec = field(default=None, repr=False)

    # --- per-tier invocation-policy overrides ------------------------
    # None keeps the nx-derived preset for that tier (see tier_policy);
    # a :class:`repro.servers.policies.TierPolicy` replaces it with any
    # admission x concurrency x remediation composition — bounded
    # load-shedding queues, LiteQ-fronted thread pools, caller-side
    # retries with circuit breakers (see experiments/policy_matrix.py).
    web_policy: TierPolicy = field(default=None, repr=False)
    app_policy: TierPolicy = field(default=None, repr=False)
    db_policy: TierPolicy = field(default=None, repr=False)

    def __post_init__(self):
        if not 0 <= self.nx <= 3:
            raise ValueError(f"nx must be in 0..3, got {self.nx}")
        for name in ("web_threads", "app_threads", "db_threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.db_pool_size < 1:
            raise ValueError("db_pool_size must be >= 1")
        for name in ("web_policy", "app_policy", "db_policy"):
            policy = getattr(self, name)
            if policy is not None and not isinstance(policy, TierPolicy):
                raise ValueError(
                    f"{name} must be a TierPolicy or None, got {policy!r}"
                )
        for tier_attr in ("web", "app", "db"):
            # the preset specs validate the nx-selected server values
            self.tier_policy(tier_attr)
        for name in ("web_replicas", "app_replicas", "db_replicas"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.balancer not in BALANCERS:
            raise ValueError(
                f"balancer must be one of {sorted(BALANCERS)}, "
                f"got {self.balancer!r}"
            )
        if self.hedging is not None:
            if not isinstance(self.hedging, HedgingSpec):
                raise ValueError(
                    f"hedging must be a HedgingSpec or None, "
                    f"got {self.hedging!r}"
                )
            if not self.is_replicated:
                raise ValueError(
                    "hedging needs at least one tier with >= 2 replicas"
                )

    def tier_policy(self, tier_attr):
        """The server shape of ``"web"``/``"app"``/``"db"``: its policy
        override if set, else the nx preset of the paper's stack."""
        override = getattr(self, f"{tier_attr}_policy")
        if override is not None:
            return override
        if tier_attr == "web":
            if self.web_is_async:  # Nginx
                return TierPolicy.asynchronous(
                    lite_q_depth=self.lite_q_depth,
                    workers=self.nginx_workers,
                )
            return TierPolicy.sync(  # Apache, with its second process
                threads=self.web_threads,
                spawn_extra_process=self.web_spawn_extra_process,
                spawn_after=self.web_spawn_after,
                max_processes=self.web_max_processes,
            )
        if tier_attr == "app":
            if self.app_is_async:
                # XTomcat: NIO connector (huge lightweight queue) feeding
                # the regular servlet executor pool, which never blocks
                # on the asynchronous database connector
                return TierPolicy.asynchronous(
                    lite_q_depth=self.lite_q_depth,
                    workers=self.xtomcat_workers,
                    pace_rate=self.xtomcat_pace_rate,
                )
            return TierPolicy.sync(threads=self.app_threads)  # Tomcat
        if self.db_is_async:  # XMySQL: InnoDB slots + wait queue
            return TierPolicy.asynchronous(
                lite_q_depth=self.xmysql_queue, workers=self.xmysql_slots,
            )
        return TierPolicy.sync(threads=self.db_threads)  # MySQL

    def tier_replicas(self, tier_attr):
        """Replica count for ``"web"``/``"app"``/``"db"``."""
        return getattr(self, f"{tier_attr}_replicas")

    @property
    def is_replicated(self):
        """True when any tier has more than one replica."""
        return max(self.web_replicas, self.app_replicas,
                   self.db_replicas) > 1

    # convenient predicates --------------------------------------------
    @property
    def web_is_async(self):
        return self.nx >= 1

    @property
    def app_is_async(self):
        return self.nx >= 2

    @property
    def db_is_async(self):
        return self.nx >= 3


def server_names(config):
    """Tier → server display name, matching the paper's stacks."""
    return {
        "web": "nginx" if config.web_is_async else "apache",
        "app": "xtomcat" if config.app_is_async else "tomcat",
        "db": "xmysql" if config.db_is_async else "mysql",
    }
