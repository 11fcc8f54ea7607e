"""The benchmark's workloads, their simulated outputs and output checks.

Each workload turns a seed into one simulator run through the public
entry points (``Scenario``/``SystemConfig``, ``fanout.run_one``) and
hands back the finished run.  Nothing here changes what the simulator
does: :class:`Probe` only times ``Simulator.run`` and keeps a handle on
the simulator and the workload generators.

``repro`` is imported inside the functions, so a profiled child process
can start its profiler before the first simulator import.
"""

from __future__ import annotations

import hashlib
import json
import time

#: the paper's Fig 1 operating point: RUBBoS clients with a 7 s mean
#: think time, a consolidation antagonist bursting on the app host
CLIENTS = 7000
BURST_PERIOD = 7.0
THREE_TIER_DURATION = 20.0
THREE_TIER_WARMUP = 2.0

#: scaled-down fig01_streaming_1m: Poisson arrivals, streaming log
STREAM_RATE = 1000.0
STREAM_REQUESTS = 16_000
#: drain window after the last arrival, longer than the 3-RTO ladder
STREAM_DRAIN = 12.0

#: 1x16 synchronous fan-out, one leaf frozen by a periodic log flush
FANOUT_CLIENTS = 2000
FANOUT_WIDTH = 16
FANOUT_DURATION = 16.0
FANOUT_WARMUP = 1.0

#: the paper's retransmission-timeout spacing of the VLRT modes
RTO = 3.0
MODE_TOLERANCE = 0.5
#: least share of rpc_3tier's VLRT requests within MODE_TOLERANCE of a
#: mode; the rest waited in a queue for more than half a second on top
#: of their retransmission
NEAR_MODE_SHARE = 0.95


class Probe:
    """Times every ``Simulator.run`` call and collects the simulator
    and the workload generators, by wrapping their classes' methods for
    the life of one child process."""

    def __init__(self):
        from repro.sim.kernel import Simulator
        from repro.workload.generators import ClosedLoopPopulation
        from repro.workload.openloop import ArrayOpenLoop

        self.first_run_at = None  # time.monotonic() at the first run
        self.run_s = 0.0
        self.sims = []
        self.generators = []
        probe = self
        run = Simulator.run

        def timed_run(sim, *args, **kwargs):
            start = time.monotonic()
            if probe.first_run_at is None:
                probe.first_run_at = start
            if sim not in probe.sims:
                probe.sims.append(sim)
            try:
                return run(sim, *args, **kwargs)
            finally:
                probe.run_s += time.monotonic() - start

        Simulator.run = timed_run
        for cls in (ClosedLoopPopulation, ArrayOpenLoop):
            cls.start = self._collecting(cls.start)

    def _collecting(self, start):
        generators = self.generators

        def collecting_start(generator):
            generators.append(generator)
            return start(generator)

        return collecting_start


class Outcome:
    """One finished workload run: the run result plus the analyses the
    workload asked the program for."""

    def __init__(self, result, attribution=None, cell=None):
        self.result = result
        self.attribution = attribution
        self.cell = cell


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _three_tier(nx, seed):
    from repro.core.evaluation import Scenario
    from repro.topology.configs import SystemConfig

    result = Scenario(
        SystemConfig(nx=nx, seed=seed), clients=CLIENTS,
        duration=THREE_TIER_DURATION, warmup=THREE_TIER_WARMUP,
    ).with_consolidation("app", period=BURST_PERIOD).run()
    return Outcome(result, attribution=result.attribution())


def run_rpc_3tier(seed):
    return _three_tier(0, seed)


def run_async_3tier(seed):
    return _three_tier(3, seed)


def run_stream_open(seed):
    from repro.core.evaluation import Scenario
    from repro.metrics.live import LiveConfig
    from repro.topology.configs import SystemConfig

    scenario = Scenario(
        SystemConfig(nx=0, seed=seed, streaming=True),
        duration=STREAM_REQUESTS / STREAM_RATE + STREAM_DRAIN, warmup=0.0,
        live=LiveConfig(interval=1.0, sample_rate=0.01, trace_budget=5000),
    ).with_consolidation("app", period=BURST_PERIOD)
    scenario.with_open_loop(STREAM_RATE, max_requests=STREAM_REQUESTS)
    return Outcome(scenario.run())


def run_fanout_gather(seed):
    from repro.experiments import fanout

    cell = fanout.run_one("sync", clients=FANOUT_CLIENTS, n=FANOUT_WIDTH,
                          duration=FANOUT_DURATION, warmup=FANOUT_WARMUP,
                          seed=seed)
    return Outcome(cell["result"], cell=cell)


WORKLOADS = {
    "rpc_3tier": run_rpc_3tier,
    "async_3tier": run_async_3tier,
    "stream_open": run_stream_open,
    "fanout_gather": run_fanout_gather,
}


# ----------------------------------------------------------------------
# simulated outputs
# ----------------------------------------------------------------------
def outputs(outcome, probe):
    """The run's simulated statistics and exact work counters."""
    result = outcome.result
    system = result.system
    log = system.log
    out = {
        "summary": result.summary(),
        "clusters": result.log.cluster_counts(),
        "requests": len(log),
        "retained": len(log.records),
        "issued": sum(g.issued for g in probe.generators),
        "events": sum(sim.executed_events for sim in probe.sims),
        "packets_sent": system.fabric.packets_sent,
        "packets_dropped": system.fabric.packets_dropped,
    }
    if outcome.attribution is not None:
        out["attribution"] = {"chains": len(outcome.attribution),
                              "coverage": outcome.attribution.coverage}
    if outcome.cell is not None:
        out["gathers"] = outcome.cell["gathers"]
        out["attribution"] = outcome.cell["attribution"]
    return out


def _plain(value):
    return value.item() if hasattr(value, "item") else str(value)


def digest(simulated):
    """A hash of the simulated outputs; equal runs hash equal."""
    text = json.dumps(simulated, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _near_mode(rt):
    mode = round(rt / RTO)
    return mode >= 1 and abs(rt - mode * RTO) <= MODE_TOLERANCE


def check(name, outcome, simulated):
    """Failed output checks of one run, as messages (empty = passed)."""
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    summary = simulated["summary"]
    log = outcome.result.system.log
    expect(summary["completed"] + summary["failed"] == summary["requests"],
           "completed + failed differs from requests")
    ids = [record.request_id for record in log.records]
    expect(len(set(ids)) == len(ids), "a request was recorded twice")
    expect(simulated["packets_dropped"] == summary["dropped_packets"],
           "fabric and listeners disagree on dropped packets")
    in_flight = simulated["issued"] - simulated["requests"]

    if name in ("rpc_3tier", "async_3tier"):
        expect(0 <= in_flight <= CLIENTS,
               f"{in_flight} requests in flight for {CLIENTS} clients")
    if name == "rpc_3tier":
        expect(summary["dropped_packets"] > 0, "no packet dropped")
        vlrt = outcome.result.log.vlrt()
        expect(vlrt, "no VLRT request")
        near = sum(1 for r in vlrt if _near_mode(r.response_time))
        expect(near >= NEAR_MODE_SHARE * len(vlrt),
               f"{len(vlrt) - near} of {len(vlrt)} VLRT requests off the "
               "3/6/9 s modes")
        coverage = simulated["attribution"]["coverage"]
        expect(coverage >= 0.90, f"CTQO attribution coverage {coverage:.3f}")
    if name == "async_3tier":
        expect(summary["dropped_packets"] == 0,
               f"{summary['dropped_packets']} packets dropped")
        expect(summary["vlrt"] == 0, f"{summary['vlrt']} VLRT requests")
        expect(summary["failed"] == 0, f"{summary['failed']} requests failed")
    if name == "stream_open":
        expect(simulated["issued"] == STREAM_REQUESTS,
               f"{simulated['issued']} of {STREAM_REQUESTS} issued")
        expect(in_flight == 0, f"{in_flight} requests never resolved")
        expect(simulated["retained"] <= STREAM_REQUESTS // 5,
               f"{simulated['retained']} exact records retained")
        telemetry = outcome.result.telemetry
        expect(telemetry is not None and telemetry.heartbeats,
               "live telemetry emitted no heartbeat")
    if name == "fanout_gather":
        gathers = simulated["gathers"]
        expect(gathers["gathers"] > 0, "no gather ran")
        expect(gathers["legs"] == FANOUT_WIDTH * gathers["gathers"],
               f"{gathers['legs']} legs for {gathers['gathers']} gathers")
        expect(summary["dropped_packets"] > 0, "the frozen leaf dropped "
               "no packet")
    return failures
