"""Unit tests for per-request span analysis (repro.metrics.spans)."""

import pytest

from repro.metrics import RequestRecord
from repro.metrics.spans import narrate, retransmission_gaps, server_spans


def trace_for_two_query_request():
    """A synthetic trace: web -> app -> db (twice), all replying."""
    return [
        (10.000, "start", "apache"),
        (10.001, "call", "apache->app"),
        (10.002, "start", "tomcat"),
        (10.003, "call", "tomcat->db"),
        (10.004, "start", "mysql"),
        (10.005, "reply", "mysql"),
        (10.006, "call", "tomcat->db"),
        (10.007, "start", "mysql"),
        (10.009, "reply", "mysql"),
        (10.010, "reply", "tomcat"),
        (10.011, "reply", "apache"),
    ]


def test_server_spans_pairing_and_order():
    spans = server_spans(trace_for_two_query_request())
    names = [(s.server, round(s.duration * 1000, 1)) for s in spans]
    assert names == [
        ("apache", 11.0),
        ("tomcat", 8.0),
        ("mysql", 1.0),
        ("mysql", 2.0),
    ]
    assert all(s.outcome == "reply" for s in spans)


def test_server_spans_error_outcome():
    trace = [
        (1.0, "start", "tomcat"),
        (1.5, "error", "tomcat: no route to tier 'db'"),
    ]
    spans = server_spans(trace)
    assert len(spans) == 1
    assert spans[0].outcome == "error"
    assert spans[0].duration == pytest.approx(0.5)


def test_server_spans_unmatched_start_ignored():
    trace = [(1.0, "start", "tomcat")]  # never replied (still in flight)
    assert server_spans(trace) == []


def test_retransmission_gaps():
    trace = [
        (0.0, "drop", "apache"),
        (3.0, "start", "apache"),
        (3.001, "reply", "apache"),
    ]
    gaps = retransmission_gaps(trace)
    assert gaps == [(0.0, 3.0, "apache")]


def test_retransmission_gap_unresolved_drop():
    trace = [(0.0, "drop", "apache")]
    gaps = retransmission_gaps(trace)
    assert gaps == [(0.0, None, "apache")]


def test_consecutive_drops_resume_at_first_non_drop():
    trace = [
        (0.0, "drop", "apache"),
        (3.0, "drop", "apache"),
        (6.0, "start", "apache"),
    ]
    gaps = retransmission_gaps(trace)
    assert gaps[0] == (0.0, 6.0, "apache")
    assert gaps[1] == (3.0, 6.0, "apache")


def test_narrate_mentions_drop_and_dead_time():
    record = RequestRecord(
        7, "ViewStory", 10.0, 13.01,
        drops=[(10.0, "apache")],
        trace=[
            (10.0, "drop", "apache"),
            (13.0, "start", "apache"),
            (13.01, "reply", "apache"),
        ],
    )
    text = narrate(record)
    assert "PACKET DROPPED at apache" in text
    assert "3010.0 ms total" in text
    assert "dead time: 3000 ms" in text
    assert "in apache: 10.00 ms" in text


def test_narrate_without_trace():
    record = RequestRecord(9, "X", 0.0, 0.001)
    assert "no trace kept" in narrate(record)


def test_vlrt_traces_kept_by_default_in_real_run():
    import sys
    sys.path.insert(0, "tests")
    from test_core_evaluation import tiny_scenario

    result = (
        tiny_scenario()
        .with_consolidation("app", times=[4.0, 7.0], burst_cpu=2.0,
                            burst_jobs=40, shares=200.0)
        .run()
    )
    vlrt_with_trace = [r for r in result.log.vlrt() if r.trace]
    fast_with_trace = [
        r for r in result.log.records
        if not r.failed and r.response_time < 1.0 and r.trace
    ]
    assert vlrt_with_trace, "VLRT requests should keep their traces"
    assert not fast_with_trace, "fast requests should not keep traces"
    # the traces actually explain the tail: drops + retransmission gaps
    gaps = retransmission_gaps(vlrt_with_trace[0].trace)
    assert gaps and gaps[0][1] is not None
    assert gaps[0][1] - gaps[0][0] == pytest.approx(3.0, abs=0.2)


def test_retransmission_gaps_interleaved_visits():
    """Each drop resolves at the next non-drop event of its own
    listener: apache's start does not end tomcat's dead time, which
    lasts through tomcat's second drop until tomcat starts serving."""
    trace = [
        (0.0, "drop", "apache"),
        (0.5, "drop", "tomcat"),
        (3.0, "start", "apache"),
        (3.5, "drop", "tomcat"),
        (6.5, "start", "tomcat"),
    ]
    gaps = retransmission_gaps(trace)
    assert gaps == [
        (0.0, 3.0, "apache"),
        (0.5, 6.5, "tomcat"),
        (3.5, 6.5, "tomcat"),
    ]


def test_retransmission_gaps_ignore_sibling_legs():
    """On a fan-out trace the other legs start at the drop's instant;
    the dropped leg's dead time still runs until its own listener
    serves the retransmitted packet."""
    trace = [
        (0.0, "start", "root"),
        (0.001, "call", "root->leaf1"),
        (0.001, "call", "root->leaf2"),
        (0.0012, "drop", "leaf1"),
        (0.0012, "start", "leaf2"),
        (0.002, "reply", "leaf2"),
        (3.0012, "start", "leaf1"),
        (3.002, "reply", "leaf1"),
        (3.003, "reply", "root"),
    ]
    assert retransmission_gaps(trace) == [(0.0012, 3.0012, "leaf1")]
    record = RequestRecord(5, "Fan", 0.0, 3.003, drops=[(0.0012, "leaf1")],
                           trace=trace)
    assert "dead time: 3000 ms across 1 drop(s)" in narrate(record)


def test_retransmission_gaps_end_at_an_event_loop_call():
    """A real event-loop trace: a packet dropped at a full LiteQ is
    retransmitted 3 s later, and its dead time ends when the front's
    eager admission records ``start``, not at the ``call`` the front
    then makes nor at its reply."""
    from repro.apps.servlet import Call, Compute, Request
    from repro.cpu import Host
    from repro.net import NetworkFabric
    from repro.servers import PolicyServer, TierPolicy
    from repro.sim import Simulator

    sim = Simulator(seed=3)
    fabric = NetworkFabric(sim, latency=0.001, rto=3.0, max_retransmits=3)

    def front_servlet(ctx, request):
        yield Compute(0.5)
        return (yield Call("back", "q"))

    def back_servlet(ctx, request):
        yield Compute(0.01)
        return "row"

    def server(name, handler, policy):
        vm = Host(sim, cores=1, name=f"{name}-host").add_vm(f"{name}-vm")
        return PolicyServer(sim, fabric, name, vm, handler, policy,
                            backlog=0)

    front = server("front", front_servlet,
                   TierPolicy.asynchronous(lite_q_depth=1))
    back = server("back", back_servlet, TierPolicy.sync(threads=1))
    front.connect("back", back.listener)
    requests = [Request("K", "op", 0.0) for _ in range(2)]
    for request in requests:
        fabric.send(front.listener, request)
    sim.run()

    trace = requests[1].trace
    assert [event for _t, event, _d in trace] == [
        "drop", "start", "call", "start", "reply", "reply"]
    (drop, resume, listener), = retransmission_gaps(trace)
    assert listener == "front"
    assert drop == pytest.approx(0.001)
    assert resume == trace[1][0] == pytest.approx(3.001)
    assert [(s.server, s.outcome) for s in server_spans(trace)] == [
        ("front", "reply"), ("back", "reply")]


def test_retransmission_gaps_single_pass_scales():
    """A drop-storm trace (the quadratic worst case) stays fast."""
    trace = []
    for i in range(2000):
        trace.append((float(i), "drop", "apache"))
    trace.append((3000.0, "start", "apache"))
    gaps = retransmission_gaps(trace)
    assert len(gaps) == 2000
    assert all(resume == 3000.0 for _d, resume, _l in gaps)


def test_narrate_multi_visit_spans():
    """A two-query request narrates one line per server visit."""
    trace = trace_for_two_query_request()
    record = RequestRecord(11, "StoryOfTheDay", 10.0, 10.011, trace=trace)
    text = narrate(record)
    assert text.count("in mysql:") == 2
    assert "in tomcat: 8.00 ms" in text
    assert "in apache: 11.00 ms" in text


def test_narrate_failed_request():
    record = RequestRecord(
        13, "ViewStory", 0.0, 9.0, attempts=4, failed=True,
        error="ConnectionTimeout",
        drops=[(0.0, "apache"), (3.0, "apache"), (6.0, "apache"),
               (9.0, "apache")],
        trace=[
            (0.0, "drop", "apache"),
            (3.0, "drop", "apache"),
            (6.0, "drop", "apache"),
            (9.0, "drop", "apache"),
        ],
    )
    text = narrate(record)
    assert "FAILED" in text
    assert text.count("PACKET DROPPED at apache") == 4
    # every drop is unresolved: no dead-time line without a resume event
    gaps = retransmission_gaps(record.trace)
    assert all(resume is None for _d, resume, _l in gaps)


def test_narrate_attributes_drop_site():
    record = RequestRecord(
        17, "BrowseStories", 1.0, 4.2,
        drops=[(1.0, "tomcat")],
        trace=[
            (1.0, "start", "apache"),
            (1.0, "drop", "tomcat"),
            (4.0, "start", "tomcat"),
            (4.1, "reply", "tomcat"),
            (4.2, "reply", "apache"),
        ],
    )
    text = narrate(record)
    assert "PACKET DROPPED at tomcat" in text
    assert "PACKET DROPPED at apache" not in text
    assert "dead time: 3000 ms" in text
