"""Per-request micro-level event analysis.

The paper's methodology timestamps every message between servers at
millisecond resolution and reconstructs what happened to individual
VLRT requests.  Servers and the network fabric record events onto each
root request's trace: every server visit, on a thread pool or an event
loop, records one ``start`` and one ``reply`` or ``error
"<server>: <reason>"``.  This module turns a trace into:

- :func:`server_spans` — the time the request (or its sub-requests)
  spent inside each server, visit by visit;
- :func:`retransmission_gaps` — the dead time between a packet drop
  at a listener and the request's next event at that listener's server
  (normally the retransmitted packet being admitted);
- :func:`narrate` — a human-readable timeline, the textual analogue of
  the paper's Fig 4 walk-through.

A workload generator keeps a request's trace only when the request
failed or was VLRT, or when its ``sampler`` admits it, so the overhead
on the millions of fast requests is one list that gets
garbage-collected.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Span", "narrate", "retransmission_gaps", "server_spans"]


@dataclass(frozen=True)
class Span:
    """One visit of the request (or a sub-request) to one server."""

    server: str
    start: float
    end: float
    outcome: str  # "reply" or "error"

    @property
    def duration(self):
        return self.end - self.start


def server_spans(trace):
    """Pair each server's ``start`` with its ``reply``/``error``.

    Every server visit records both, on either driver: a server thread
    starts a visit when it takes the request, an event loop when its
    eager admission hands the request to the loop.

    A request may visit the same server several times (a multi-query
    servlet calls the database once per query); visits are paired in
    FIFO order per server, which is exact because a single request's
    calls to one tier never overlap in either server model.
    """
    open_visits = {}
    spans = []
    for time, event, detail in sorted(trace, key=lambda e: e[0]):
        if event == "start":
            open_visits.setdefault(detail, []).append(time)
        elif event in ("reply", "error"):
            server = detail.split(":", 1)[0] if event == "error" else detail
            starts = open_visits.get(server)
            if starts:
                spans.append(Span(server, starts.pop(0), time, event))
    spans.sort(key=lambda s: s.start)
    return spans


def _server_of(event, detail):
    """The server a non-drop trace event belongs to, or None."""
    if event in ("start", "shed", "reply"):
        return detail
    if event == "error":
        return detail.split(":", 1)[0]
    return None


def retransmission_gaps(trace):
    """(drop_time, resume_time, listener) for every dropped packet.

    ``resume_time`` is the next non-drop event of the listener that
    dropped the packet — its ``start``, ``shed``, ``reply`` or
    ``error`` — normally the retransmitted packet being admitted ~RTO
    later; ``None`` if none follows.  The gap is the dead time TCP
    retransmission added to the request.  Events of other servers do
    not end it: on a fan-out trace the other legs go on while one leg
    waits for its retransmission.
    """
    gaps = []
    pending = {}  # listener -> its drops waiting for its next event
    for time, event, detail in sorted(trace, key=lambda e: e[0]):
        if event == "drop":
            pending.setdefault(detail, []).append(time)
        elif pending:
            server = _server_of(event, detail)
            drops = pending.pop(server, None)
            if drops is not None:
                gaps.extend((drop_time, time, server) for drop_time in drops)
    gaps.extend(
        (drop_time, None, listener)
        for listener, drops in pending.items()
        for drop_time in drops
    )
    return gaps


def narrate(record):
    """Render one request's life as text (requires a kept trace)."""
    if record.trace is None:
        return f"request #{record.request_id}: no trace kept"
    origin = record.start
    lines = [
        f"request #{record.request_id} {record.kind}: "
        f"{record.response_time * 1000:.1f} ms total"
        + (", FAILED" if record.failed else "")
    ]
    for time, event, detail in sorted(record.trace, key=lambda e: e[0]):
        offset = (time - origin) * 1000
        if event == "drop":
            lines.append(f"  +{offset:9.2f} ms  PACKET DROPPED at {detail}")
        else:
            lines.append(f"  +{offset:9.2f} ms  {event:6s} {detail}")
    gaps = retransmission_gaps(record.trace)
    dead = sum(
        (resume - drop) for drop, resume, _l in gaps if resume is not None
    )
    if gaps:
        lines.append(
            f"  retransmission dead time: {dead * 1000:.0f} ms across "
            f"{len(gaps)} drop(s)"
        )
    spans = server_spans(record.trace)
    for span in spans:
        lines.append(
            f"  in {span.server}: {span.duration * 1000:.2f} ms "
            f"({span.outcome})"
        )
    return "\n".join(lines)
