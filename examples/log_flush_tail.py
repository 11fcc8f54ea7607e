"""Your monitoring is your millibottleneck: the collectl log-flush case.

Run:  python examples/log_flush_tail.py

The paper's §IV-B makes a deliciously ironic point: the fine-grained
monitoring tool used to *study* millibottlenecks causes them.  Every
30 seconds collectl flushes its measurement log to disk, driving the
MySQL node to 100 % I/O wait for a few hundred milliseconds.  In a
synchronous stack the stall cascades two hops upstream — MySQL's queue
caps at the Tomcat connection pool, Tomcat fills to MaxSysQDepth, then
Apache fills and drops packets.

This example runs that experiment and then shows the knob that matters:
the same I/O freezes against the fully asynchronous stack produce
buffering in every tier's lightweight queue and zero drops (Fig 11).
"""

from repro.core import Scenario
from repro.experiments.report import ascii_timeline
from repro.metrics import describe_millibottleneck
from repro.topology import SystemConfig


def run(nx):
    scenario = (
        Scenario(SystemConfig(nx=nx, app_vcpus=4), clients=7000,
                 duration=80.0, warmup=5.0)
        .with_log_flush("db", period=30.0, duration=0.5, offset=10.0)
    )
    return scenario.run()


def main():
    print("=== synchronous stack: log flush -> two-hop upstream CTQO ===\n")
    sync_result = run(nx=0)
    names = sync_result.names

    print(ascii_timeline(sync_result.iowait_series("db"),
                         label=f"{names['db']}-iowait", vmax=1.0))
    for tier in ("db", "app", "web"):
        print(ascii_timeline(sync_result.queue_series(tier),
                             label=f"{names[tier]}-queue"))
    print(ascii_timeline(sync_result.vlrt_series(), label="VLRT/50ms"))

    flushes = sync_result.injectors[0].flush_times
    print(f"\nflushes at {[f'{t:.0f}s' for t in flushes]}; "
          f"drops: {sync_result.drops}")
    print("millibottlenecks detected from the monitoring data:")
    for episode in sync_result.millibottlenecks():
        if episode.kind == "io":
            print(f"  {describe_millibottleneck(episode)}")

    print("\n=== asynchronous stack: same freezes, no CTQO ===\n")
    async_result = run(nx=3)
    names = async_result.names
    for tier in ("db", "app", "web"):
        print(ascii_timeline(async_result.queue_series(tier),
                             label=f"{names[tier]}-queue"))
    print(f"\ndrops: {async_result.drops}")
    print(f"VLRT:  {async_result.summary()['vlrt']}")
    print("\nAll three lightweight queues breathe in sync during each "
          "freeze — buffering without amplification.")


if __name__ == "__main__":
    main()
