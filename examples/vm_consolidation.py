"""VM consolidation deep-dive: watching upstream CTQO develop hop by hop.

Run:  python examples/vm_consolidation.py

Reproduces the paper's §IV-A micro-level event analysis.  We consolidate
a bursty VM (SysBursty-MySQL) onto the Tomcat host of a synchronous
3-tier deployment and narrate one millibottleneck at 50 ms resolution:

  t0     burst hits; the shared core saturates
  t0+    Tomcat's thread pool and accept queue fill — queue plateaus at
         MaxSysQDepth(Tomcat)
  t0++   Apache's threads (blocked on Tomcat) and backlog fill — queue
         plateaus at MaxSysQDepth(Apache)=278, then Apache spawns its
         second process and the plateau moves to 428
  t0+++  packets drop at Apache; TCP retransmits them 3 s later; the
         clients see multi-second responses for millisecond requests
"""

from repro.core import Scenario, predicted_overflow
from repro.experiments.report import ascii_timeline, format_table
from repro.topology import SystemConfig, build_system

BURST_AT = 15.0


def main():
    config = SystemConfig(nx=0)
    scenario = (
        Scenario(config, clients=7000, duration=30.0, warmup=5.0)
        .with_consolidation("app", times=[BURST_AT])
    )
    result = scenario.run()
    names = result.names

    print("=== one millibottleneck, hop by hop ===\n")

    # (a) the millibottleneck itself
    print("CPU utilization (guest view; the victim reads 100% while starved):")
    for tier in ("app",):
        print(ascii_timeline(result.cpu_series(tier), label=names[tier],
                             vmax=1.0))
    print(ascii_timeline(result.monitor.cpu["sysbursty-mysql"],
                         label="sysbursty", vmax=1.0))
    print()

    # (b) queue growth in both tiers around the burst
    window = (BURST_AT - 1.0, BURST_AT + 4.0)
    print(f"queue depths around the burst (window {window[0]:.0f}-{window[1]:.0f}s):")
    rows = []
    for tier in ("web", "app"):
        series = result.queue_series(tier).slice(*window)
        server = result.system.servers[tier]
        rows.append([
            names[tier],
            int(series.max()),
            server.max_sys_q_depth,
            "yes" if series.max() >= server.max_sys_q_depth else "no",
        ])
    print(format_table(
        ["server", "peak queue", "MaxSysQDepth", "overflowed"], rows))
    print()

    apache = result.system.servers["web"]
    print(f"Apache spawned {apache.processes} processes "
          f"(thread capacity {apache.thread_capacity}); the paper's second "
          f"plateau at ~428 = 150+150+128.\n")

    # (c) the paper's arithmetic vs what we measured, against the
    # one-process Apache of a freshly built system
    depth = build_system(config).servers["web"].max_sys_q_depth
    arrival_rate = result.summary()["throughput_rps"]
    duration = 1.0
    predicted = predicted_overflow(arrival_rate, duration, depth,
                                   drain_rate=0.35 * arrival_rate)
    print("the paper's dynamic-condition arithmetic:")
    print(f"  {arrival_rate:.0f} req/s x {duration:.1f}s millibottleneck vs "
          f"MaxSysQDepth(Apache)={depth} "
          f"(+ static requests still draining)")
    print(f"  predicted overflow ~{predicted:.0f} packets; "
          f"measured {result.drops[names['web']]} drops at {names['web']}\n")

    # the drops turn into the 3-second modes
    modes = result.log.modes()
    print("response-time modes (k -> requests near 3k seconds):")
    print(f"  {dict(sorted(modes.items()))}")
    print("\nclassified events:")
    for event in result.ctqo_events():
        if event.direction != "unknown-origin":
            print(f"  {event}")

    # micro-level post-mortem of one victim (the paper's Fig 4 story):
    # a request that needed a fraction of a millisecond of service and
    # took 3 seconds because its SYN was dropped
    from repro.metrics.spans import narrate

    victims = [r for r in result.log.vlrt() if r.trace]
    if victims:
        print("\none VLRT request, microsecond by microsecond:")
        print(narrate(victims[0]))


if __name__ == "__main__":
    main()
