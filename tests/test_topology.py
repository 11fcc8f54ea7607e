"""Unit tests for topology building (repro.topology)."""

import pytest

from repro.servers.policies import (
    AdmissionSpec,
    ConcurrencySpec,
    RemediationSpec,
    TierPolicy,
)
from repro.topology import (
    SystemConfig,
    build_system,
    server_names,
    three_tier_graph,
)

from conftest import build_tiny_system


# ----------------------------------------------------------------------
# SystemConfig
# ----------------------------------------------------------------------
def test_default_config_matches_paper_numbers():
    config = SystemConfig()
    servers = build_system(config).servers
    assert servers["web"].max_sys_q_depth == 278
    assert servers["app"].max_sys_q_depth == 293
    assert servers["db"].max_sys_q_depth == 228
    assert config.db_pool_size == 50
    assert config.lite_q_depth == 65535
    assert config.xmysql_slots == 8
    assert config.xmysql_queue == 2000
    assert config.tcp_rto == 3.0


def test_nx_bounds():
    with pytest.raises(ValueError):
        SystemConfig(nx=4)
    with pytest.raises(ValueError):
        SystemConfig(nx=-1)


def test_thread_validation():
    with pytest.raises(ValueError):
        SystemConfig(web_threads=0)
    with pytest.raises(ValueError):
        SystemConfig(db_pool_size=0)


def test_async_predicates_progression():
    flags = [
        (SystemConfig(nx=n).web_is_async,
         SystemConfig(nx=n).app_is_async,
         SystemConfig(nx=n).db_is_async)
        for n in range(4)
    ]
    assert flags == [
        (False, False, False),
        (True, False, False),
        (True, True, False),
        (True, True, True),
    ]


def test_server_names_follow_nx():
    assert server_names(SystemConfig(nx=0)) == {
        "web": "apache", "app": "tomcat", "db": "mysql"
    }
    assert server_names(SystemConfig(nx=2)) == {
        "web": "nginx", "app": "xtomcat", "db": "mysql"
    }
    assert server_names(SystemConfig(nx=3)) == {
        "web": "nginx", "app": "xtomcat", "db": "xmysql"
    }


# ----------------------------------------------------------------------
# build_system
# ----------------------------------------------------------------------
# SyncServer is exactly backlog admission + a thread pool, AsyncServer
# eager admission + an event loop (both with no remediation)
SYNC = ("backlog", "threads", "none")
ASYNC = ("eager", "eventloop", "none")


def _shape(server):
    return (server.admission.kind, server.concurrency.kind,
            server.remediation.kind)


def test_build_sync_stack_types():
    system = build_tiny_system(nx=0)
    assert _shape(system.servers["web"]) == SYNC
    assert _shape(system.servers["app"]) == SYNC
    assert _shape(system.servers["db"]) == SYNC


def test_build_async_stack_types():
    system = build_tiny_system(nx=3)
    assert all(
        _shape(system.servers[tier]) == ASYNC
        for tier in ("web", "app", "db")
    )


def test_nx2_mixed_stack():
    system = build_tiny_system(nx=2)
    assert _shape(system.servers["web"]) == ASYNC
    assert _shape(system.servers["app"]) == ASYNC
    assert _shape(system.servers["db"]) == SYNC


def test_each_tier_gets_dedicated_host():
    system = build_tiny_system()
    hosts = {system.hosts[tier] for tier in ("web", "app", "db")}
    assert len(hosts) == 3
    for tier in ("web", "app", "db"):
        assert system.vms[tier].host is system.hosts[tier]


def test_sync_app_gets_db_connection_pool():
    system = build_tiny_system(nx=0)
    assert "db" in system.servers["app"].pools
    assert system.servers["app"].pools["db"].capacity == 4


def test_async_app_has_no_db_pool():
    system = build_tiny_system(nx=2)
    assert "db" not in system.servers["app"].pools


def test_xmysql_is_executor_mode():
    system = build_tiny_system(nx=3)
    xmysql = system.servers["db"]
    assert xmysql.workers == 2
    assert xmysql.lite_q_depth == 32


def test_entry_is_web_listener():
    system = build_tiny_system()
    assert system.entry is system.servers["web"].listener


def test_thread_overhead_applied_to_sync_tiers_only():
    sync_system = build_tiny_system(nx=0, thread_overhead=True)
    async_system = build_tiny_system(nx=3, thread_overhead=True)
    assert sync_system.vms["app"].efficiency is not None
    assert async_system.vms["app"].efficiency is None


def test_app_vcpus_respected():
    system = build_tiny_system(app_vcpus=4)
    assert system.vms["app"].vcpus == 4
    assert system.hosts["app"].cores == 4


def test_drop_counts_and_total():
    system = build_tiny_system()
    counts = system.drop_counts()
    assert set(counts) == {"apache", "tomcat", "mysql"}
    assert system.total_drops() == 0


def test_attach_monitor_idempotent():
    system = build_tiny_system()
    first = system.attach_monitor()
    second = system.attach_monitor()
    assert first is second
    assert set(first.cpu) == {"apache", "tomcat", "mysql"}


# ----------------------------------------------------------------------
# the 3-tier system as a service-graph preset
# ----------------------------------------------------------------------
def _policy_of(server):
    """The TierPolicy spec that a built server's live policies realise."""
    admission, concurrency = server.admission, server.concurrency
    remediation = server.remediation
    if concurrency.kind == "threads":
        concurrency_spec = ConcurrencySpec(
            "threads", threads=concurrency.threads,
            spawn_extra_process=concurrency.spawn_extra_process,
            spawn_after=concurrency.spawn_after,
            max_processes=concurrency.max_processes,
        )
    else:
        concurrency_spec = ConcurrencySpec(
            "eventloop", workers=concurrency.workers,
            pace_rate=concurrency.pace_rate,
        )
    if remediation.kind == "retry":
        remediation_spec = RemediationSpec(
            "retry", timeout=remediation.timeout,
            retries=remediation.retries, backoff=remediation.backoff,
            breaker_threshold=remediation.breaker_threshold,
            breaker_reset=remediation.breaker_reset,
        )
    else:
        remediation_spec = RemediationSpec()
    return TierPolicy(
        admission=AdmissionSpec(
            admission.kind, depth=getattr(admission, "depth", None),
            target=getattr(admission, "target", 0.05),
            interval=getattr(admission, "interval", 0.1),
        ),
        concurrency=concurrency_spec,
        remediation=remediation_spec,
    )


PRESET_CASES = {
    "nx0": dict(nx=0),
    "nx1": dict(nx=1),
    "nx2": dict(nx=2, xtomcat_pace_rate=500.0),
    "nx3": dict(nx=3),
    "shedding": dict(nx=0, app_policy=TierPolicy.shedding(depth=16,
                                                         threads=3)),
    "codel": dict(nx=1, db_policy=TierPolicy.codel(depth=8, threads=2,
                                                   target=0.02)),
    "retry": dict(nx=2, web_policy=TierPolicy.asynchronous(
        workers=2, remediation=RemediationSpec("retry", timeout=0.4,
                                               retries=1),
    )),
}


@pytest.mark.parametrize("case", PRESET_CASES)
def test_built_servers_realise_the_tier_policy(case):
    system = build_tiny_system(**PRESET_CASES[case])
    for tier in ("web", "app", "db"):
        assert _policy_of(system.servers[tier]) == (
            system.config.tier_policy(tier)
        )


def test_nx_presets_carry_the_paper_stack_values():
    apache = build_tiny_system(nx=0, web_spawn_extra_process=True)
    assert apache.servers["web"].max_processes == 2
    assert apache.servers["app"].max_processes == 1
    paced = build_tiny_system(nx=2, xtomcat_pace_rate=500.0)
    assert paced.servers["app"].pace_rate == 500.0
    assert paced.servers["app"].workers == 8      # xtomcat_workers
    assert build_tiny_system(nx=2).servers["app"].pace_rate is None


@pytest.mark.parametrize("overrides, pooled", [
    (dict(nx=0), True),
    (dict(nx=1), True),
    (dict(nx=2), False),
    (dict(nx=3), False),
    # a shedding front still blocks a thread per downstream query
    (dict(nx=2, app_policy=TierPolicy.shedding(depth=16, threads=3)), True),
    (dict(nx=0, app_policy=TierPolicy.asynchronous(workers=2)), False),
])
def test_app_to_db_pool_only_when_app_blocks(overrides, pooled):
    system = build_tiny_system(**overrides)
    assert ("db" in system.servers["app"].pools) == pooled


def test_three_tier_graph_is_web_app_db():
    graph = three_tier_graph(SystemConfig(nx=1), name_prefix="b-")
    assert graph.topo_order() == ["web", "app", "db"]
    assert [node.label for node in graph.nodes] == [
        "b-nginx", "b-tomcat", "b-mysql",
    ]
    assert [(e.source, e.target, e.pool) for e in graph.edges] == [
        ("web", "app", None), ("app", "db", 50),
    ]


def _replicated(**overrides):
    from repro.servers.replica import HedgingSpec

    defaults = dict(web_replicas=2, app_replicas=3, db_replicas=2,
                    hedging=HedgingSpec())
    defaults.update(overrides)
    return build_tiny_system(**defaults)


def test_replicated_names_and_tier_views():
    system = _replicated()
    assert system.replica_names == {
        "web": ["apache1", "apache2"],
        "app": ["tomcat1", "tomcat2", "tomcat3"],
        "db": ["mysql1", "mysql2"],
    }
    assert system.names == {"web": "apache1", "app": "tomcat1",
                            "db": "mysql1"}
    for tier, names in system.replica_names.items():
        assert [server.name for server in system.servers[tier]] == names
        assert [vm.name for vm in system.vms[tier]] == [
            f"{name}-vm" for name in names
        ]
        assert len({id(host) for host in system.hosts[tier]}) == len(names)
    assert system.host_of("app", 2) is system.hosts["app"][2]
    assert system.tier_groups() == list(system.replica_names.values())
    assert system.tier_edges() == [(0, 1), (1, 2)]


def test_replicated_route_groups_and_pools():
    system = _replicated()
    assert list(system.groups) == [
        "clients->web",
        "apache1->app", "apache2->app",
        "tomcat1->db", "tomcat2->db", "tomcat3->db",
    ]
    assert system.entry is system.groups["clients->web"]
    for index, web in enumerate(system.servers["web"]):
        assert web.downstream["app"] is system.groups[f"apache{index + 1}->app"]
    db_listeners = [server.listener for server in system.servers["db"]]
    for label, group in system.groups.items():
        if label.endswith("->db"):
            # the JDBC pool is per replica inside the caller's group
            assert [(pool.name, pool.capacity) for pool in group.pools] == [
                (f"{label}->{listener.name}.pool", 4)
                for listener in db_listeners
            ]
        else:
            assert group.pools is None
        assert group.hedging is not None
    assert all(app.pools == {} for app in system.servers["app"])


def test_replicated_hedging_only_on_replicated_routes():
    system = _replicated(db_replicas=1)
    assert system.replica_names["db"] == ["mysql"]
    assert list(system.groups) == [
        "clients->web", "apache1->app", "apache2->app",
    ]
    assert all(group.hedging is not None for group in system.groups.values())
    db_listener = system.servers["db"][0].listener
    for app in system.servers["app"]:
        # plain route into the single MySQL: pooled, not hedged
        assert app.downstream["db"] is db_listener
        assert app.pools["db"].capacity == 4


def test_replicated_monitor_registration_order():
    system = _replicated()
    calls = []

    class Recorder:
        def watch_vm(self, name, vm):
            calls.append(("vm", name))

        def watch_server(self, name, server):
            calls.append(("server", name))

        def watch_group(self, name, group):
            calls.append(("group", name))

    system._watch(Recorder())
    replicas = [name for names in system.replica_names.values()
                for name in names]
    assert calls == (
        [("vm", name) for name in replicas]
        + [("server", name) for name in replicas]
        + [("group", label) for label in system.groups]
    )


def test_host_overrides_with_replicas_still_raise():
    steady = build_tiny_system()
    with pytest.raises(ValueError, match="not supported with replicated"):
        build_system(
            SystemConfig(seed=7, app_replicas=2), sim=steady.sim,
            host_overrides={"db": steady.hosts["app"]}, name_prefix="b-",
        )


def test_unknown_host_override_tier_is_rejected():
    steady = build_tiny_system()
    with pytest.raises(ValueError, match="'database'"):
        build_system(
            SystemConfig(seed=7), sim=steady.sim,
            host_overrides={"database": steady.hosts["app"]},
            name_prefix="b-",
        )
