"""Unit tests for the servlet DSL (repro.apps.servlet)."""

import gc

import pytest

from repro.apps.servlet import (
    Call,
    Compute,
    Request,
    Response,
    ServletContext,
    ServletError,
    callback_form,
)
from repro.sim import Simulator


def test_compute_rejects_negative_work():
    with pytest.raises(ValueError):
        Compute(-1.0)


@pytest.mark.parametrize("work", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_compute_rejects_non_finite_work(work):
    with pytest.raises(ValueError):
        Compute(work)


def test_request_ids_are_unique_and_increasing():
    a = Request("K", "op", 0.0)
    b = Request("K", "op", 0.0)
    assert b.id > a.id


def test_child_request_shares_root():
    root = Request("ViewStory", "ViewStory", 1.0)
    child = root.child("q0", 2.0, work_hint=0.001)
    grandchild = child.child("q0.sub", 3.0)
    assert child.root is root
    assert grandchild.root is root
    assert child.kind == "ViewStory"
    assert child.work_hint == 0.001


def test_record_lands_on_root_trace():
    root = Request("K", "op", 0.0)
    child = root.child("q", 1.0)
    child.record(1.5, "drop", "mysql")
    assert root.trace == [(1.5, "drop", "mysql")]
    assert child.trace == []  # child delegates to root


def test_request_tree_is_freed_by_reference_counting():
    """No request refers to itself, directly or through a child, so
    the collector finds nothing once the tree is dropped."""
    gc.collect()
    root = Request("K", "op", 0.0)
    root.child("q", 1.0).child("q.sub", 2.0).record(2.5, "drop", "mysql")
    assert root.trace == [(2.5, "drop", "mysql")]
    del root
    assert gc.collect() == 0


def test_response_constructors():
    ok = Response.success({"rows": 3})
    err = Response.failure("boom")
    assert ok.ok and ok.value == {"rows": 3} and ok.error is None
    assert not err.ok and err.error == "boom"


def test_servlet_context_now_tracks_sim():
    sim = Simulator()
    ctx = ServletContext("srv", sim, sim.fork_rng("x"))
    sim.call_in(2.0, lambda: None)
    sim.run()
    assert ctx.now == 2.0


# ----------------------------------------------------------------------
# callback_form: the Fig 14 transformation
# ----------------------------------------------------------------------
class _RecordingEngine:
    """Synchronous engine: runs continuations immediately, logs steps."""

    def __init__(self, responses=None, failures=None):
        self.steps = []
        self.responses = dict(responses or {})
        self.failures = dict(failures or {})

    def compute(self, work, cont):
        self.steps.append(("compute", work))
        cont()

    def invoke(self, call, request, cont, on_error):
        self.steps.append(("call", call.target, call.operation))
        if call.operation in self.failures:
            on_error(self.failures[call.operation])
        else:
            cont(self.responses.get(call.operation))


def _two_query_servlet(ctx, request):
    yield Compute(0.001)
    first = yield Call("db", "q1")
    yield Compute(0.002)
    second = yield Call("db", "q2")
    return (first, second)


def test_callback_form_equivalent_to_generator():
    """The mechanical transformation preserves control flow and result."""
    sim = Simulator()
    ctx = ServletContext("app", sim, sim.fork_rng("x"))
    engine = _RecordingEngine(responses={"q1": "r1", "q2": "r2"})
    results = []
    start = callback_form(_two_query_servlet)
    start(ctx, Request("K", "op", 0.0), engine, results.append)
    assert results == [("r1", "r2")]
    assert engine.steps == [
        ("compute", 0.001),
        ("call", "db", "q1"),
        ("compute", 0.002),
        ("call", "db", "q2"),
    ]


def test_callback_form_propagates_errors_to_handler():
    sim = Simulator()
    ctx = ServletContext("app", sim, sim.fork_rng("x"))
    engine = _RecordingEngine(failures={"q1": ServletError("dropped")})
    errors = []
    start = callback_form(_two_query_servlet)
    start(ctx, Request("K", "op", 0.0), engine, lambda r: None,
          on_error=errors.append)
    assert len(errors) == 1
    assert "dropped" in str(errors[0])
    # processing stopped at the failing call
    assert engine.steps[-1] == ("call", "db", "q1")


def test_callback_form_servlet_can_catch_call_errors():
    def forgiving(ctx, request):
        yield Compute(0.001)
        try:
            value = yield Call("db", "q1")
        except ServletError:
            value = "fallback"
        return value

    sim = Simulator()
    ctx = ServletContext("app", sim, sim.fork_rng("x"))
    engine = _RecordingEngine(failures={"q1": ServletError("nope")})
    results = []
    callback_form(forgiving)(ctx, Request("K", "op", 0.0), engine,
                             results.append)
    assert results == ["fallback"]


def test_callback_form_loop_control_flow():
    """Schneider's rules cover loops: a for-loop of calls transforms."""

    def loopy(ctx, request):
        total = []
        for i in range(3):
            value = yield Call("db", f"q{i}")
            total.append(value)
        return total

    sim = Simulator()
    ctx = ServletContext("app", sim, sim.fork_rng("x"))
    engine = _RecordingEngine(responses={"q0": 0, "q1": 1, "q2": 2})
    results = []
    callback_form(loopy)(ctx, Request("K", "op", 0.0), engine, results.append)
    assert results == [[0, 1, 2]]
