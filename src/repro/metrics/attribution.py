"""Per-request CTQO causal chains — the paper's Fig 4, automated.

Fig 4 walks one VLRT request backwards by hand: the request took 3 s
because its packet dropped at Apache; the packet dropped because
Apache's accept queue was overflowing; the queue overflowed because a
millibottleneck elsewhere kept threads from draining it.  The
:class:`CtqoAttributor` runs that walk for *every* VLRT/dropped request
in a log:

    request → drop (time, site) → overflow episode at the site
            → owning millibottleneck → propagation direction

A chain is **complete** when all three causal links resolve; the
:class:`AttributionReport`'s ``coverage`` is the fraction of tail
requests with a complete chain (the repository's acceptance bar on the
fig01 RPC configuration is ≥ 90 %).

Direction follows the paper's rule: a drop *upstream* of (closer to the
clients than) the millibottleneck is upstream CTQO (blocking RPC holds
the upstream threads — Fig 3, Fig 5); a drop at or downstream of it is
downstream CTQO (an async tier floods a bounded downstream — Fig 7,
Fig 9).  On a service graph the rule becomes an edge walk
(:class:`TierDag`), adding a third direction — ``lateral`` — for drops
on a parallel branch of a fan-out, coupled to the millibottleneck only
through the gather barrier.

The same engine also groups a run's raw listener losses into
:class:`CtqoEvent` incidents — one per (owning millibottleneck, server,
cause) — which is what ``RunResult.ctqo_events()`` and the diagnosis
report print.  Chains and events share the ownership and direction
rule, so the two views of one run cannot disagree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .detector import describe_millibottleneck

__all__ = [
    "AttributionReport",
    "CausalChain",
    "CtqoAttributor",
    "CtqoEvent",
    "TierDag",
]


class TierDag:
    """Position and reachability index over tier groups plus edges.

    ``tier_order`` entries are server names — or lists of replica names
    sharing one position.  ``edges`` are (i, j) index pairs into that
    order (a service graph's invocation edges); ``None`` means the
    linear path ``0→1→…→n-1``, the classic chain.
    """

    def __init__(self, tier_order, edges=None):
        self.tier_order = list(tier_order)
        self.position = {}
        for index, entry in enumerate(self.tier_order):
            # an entry may be a list of replica names sharing one tier
            # position (the replicated scale-out topology)
            if isinstance(entry, (list, tuple)):
                for name in entry:
                    self.position[name] = index
            else:
                self.position[entry] = index
        count = len(self.tier_order)
        if edges is None:
            edges = [(i, i + 1) for i in range(count - 1)]
        self.edges = [tuple(edge) for edge in edges]
        successors = {i: [] for i in range(count)}
        for source, target in self.edges:
            if not (0 <= source < count and 0 <= target < count):
                raise ValueError(
                    f"edge ({source}, {target}) outside tier order of "
                    f"length {count}"
                )
            successors[source].append(target)
        #: per position, the set of positions reachable along edges
        self._descendants = []
        for start in range(count):
            seen = set()
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for target in successors[node]:
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
            self._descendants.append(seen)

    def classify(self, origin_pos, drop_pos):
        """Direction of a drop at ``drop_pos`` caused by a
        millibottleneck at ``origin_pos``.

        ``upstream`` when the dropping node invokes (transitively) the
        millibottleneck's node — blocked callers hold its queues;
        ``downstream`` at the node itself or anywhere it invokes — the
        flood arrives from above; ``lateral`` on a parallel branch
        reachable from neither (fan-out siblings coupled only through
        a gather barrier).  On a path graph this is exactly the index
        comparison of the linear rule.
        """
        if drop_pos == origin_pos:
            return "downstream"
        if origin_pos in self._descendants[drop_pos]:
            return "upstream"
        if drop_pos in self._descendants[origin_pos]:
            return "downstream"
        return "lateral"


@dataclass
class CtqoEvent:
    """One classified cross-tier queue overflow incident: every packet
    one server lost, the same way, to one millibottleneck."""

    #: "upstream" / "downstream" / "lateral", "unknown-origin" for a
    #: millibottleneck off the graph, "unattributed" when none owns it
    direction: str
    millibottleneck: object      # the owning Episode, or None
    dropping_server: str         # where packets were lost
    drops: int                   # packets lost there
    drop_times: list = field(default_factory=list)
    #: a silent TCP "drop" or an explicit 503 "shed" (as in CausalChain)
    cause: str = "drop"

    def __str__(self):
        origin = self.millibottleneck
        if origin is not None:
            origin = describe_millibottleneck(origin)
        lost = "sheds (503)" if self.cause == "shed" else "drops"
        return (
            f"{self.direction} CTQO: {origin} -> "
            f"{self.drops} {lost} at {self.dropping_server}"
        )


@dataclass
class CausalChain:
    """One tail request's resolved (or partially resolved) cause."""

    request_id: int
    kind: str                   # interaction name, e.g. "ViewStory"
    response_time: float
    failed: bool
    drop_time: object           # float, or None for a drop-free VLRT
    drop_site: object           # listener name, or None
    overflow: object            # detector Episode, or None
    millibottleneck: object     # detector Episode, or None
    direction: object           # "upstream" / "downstream" / None
    #: how the packet left the fast path: a silent TCP "drop" (the
    #: paper's mechanism) or an explicit 503 "shed" by a load-shedding
    #: admission policy
    cause: str = "drop"

    @property
    def complete(self):
        """All three causal links resolved."""
        return (
            self.drop_site is not None
            and self.overflow is not None
            and self.millibottleneck is not None
        )

    def describe(self):
        head = (
            f"request #{self.request_id} {self.kind} "
            f"{self.response_time * 1000:.0f} ms"
            + (" FAILED" if self.failed else "")
        )
        if self.drop_site is None:
            return f"{head}: no packet drop recorded (slow, not dropped)"
        verb = "shed (503)" if self.cause == "shed" else "dropped"
        parts = [f"{verb} at {self.drop_site} t={self.drop_time:.2f}s"]
        if self.overflow is not None:
            parts.append(
                f"backlog overflow [{self.overflow.start:.2f}s, "
                f"{self.overflow.end:.2f}s]"
            )
        else:
            parts.append("no overflow episode found")
        if self.millibottleneck is not None:
            mb = self.millibottleneck
            parts.append(
                f"{mb.kind} millibottleneck on {mb.resource} "
                f"[{mb.start:.2f}s, {mb.end:.2f}s]"
            )
            if self.direction is not None:
                parts.append(f"{self.direction} CTQO")
        else:
            parts.append("no owning millibottleneck")
        return f"{head}: " + " <- ".join(parts)


class AttributionReport:
    """All causal chains of one run, with aggregate views."""

    def __init__(self, chains, tier_order):
        self.chains = chains
        self.tier_order = list(tier_order)

    def __len__(self):
        return len(self.chains)

    @property
    def complete(self):
        return [c for c in self.chains if c.complete]

    @property
    def incomplete(self):
        return [c for c in self.chains if not c.complete]

    @property
    def coverage(self):
        """Fraction of tail requests with a complete causal chain."""
        if not self.chains:
            return 1.0
        return len(self.complete) / len(self.chains)

    def directions(self):
        """Counter of propagation directions over complete chains."""
        return Counter(c.direction for c in self.complete)

    def drop_sites(self):
        """Counter of drop sites over attributed (dropped) requests."""
        return Counter(
            c.drop_site for c in self.chains
            if c.drop_site is not None and c.cause == "drop"
        )

    def shed_sites(self):
        """Counter of 503 sites over attributed (shed) requests."""
        return Counter(
            c.drop_site for c in self.chains
            if c.drop_site is not None and c.cause == "shed"
        )

    def by_millibottleneck(self):
        """(millibottleneck, [chains]) pairs, ordered by episode start."""
        groups = {}
        for chain in self.complete:
            groups.setdefault(id(chain.millibottleneck), []).append(chain)
        out = [(chains[0].millibottleneck, chains)
               for chains in groups.values()]
        out.sort(key=lambda pair: pair[0].start)
        return out

    def render(self, examples=3):
        """Human-readable attribution section for diagnosis reports."""
        lines = ["=== CTQO attribution (automated Fig 4) ==="]
        if not self.chains:
            lines.append("no VLRT or dropped requests to attribute")
            return "\n".join(lines)
        lines.append(
            f"{len(self.complete)}/{len(self.chains)} tail requests fully "
            f"attributed ({self.coverage * 100:.1f} % coverage)"
        )
        directions = self.directions()
        if directions:
            lines.append(
                "directions: "
                + ", ".join(
                    f"{direction}: {count}"
                    for direction, count in sorted(directions.items())
                )
            )
        sites = self.drop_sites()
        if sites:
            lines.append(
                "drop sites: "
                + ", ".join(f"{s}: {n}" for s, n in sorted(sites.items()))
            )
        shed = self.shed_sites()
        if shed:
            lines.append(
                "shed sites (503): "
                + ", ".join(f"{s}: {n}" for s, n in sorted(shed.items()))
            )
        for mb, chains in self.by_millibottleneck():
            direction = Counter(c.direction for c in chains).most_common(1)
            lines.append(
                f"  {mb.kind} millibottleneck on {mb.resource} "
                f"[{mb.start:.2f}s, {mb.end:.2f}s] -> "
                f"{len(chains)} tail request(s), {direction[0][0]} CTQO"
            )
        for chain in self.chains[:examples]:
            lines.append(f"  e.g. {chain.describe()}")
        if self.incomplete:
            lines.append(
                f"unattributed: {len(self.incomplete)} request(s) missing a "
                "causal link"
            )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"<AttributionReport chains={len(self.chains)} "
            f"coverage={self.coverage:.3f}>"
        )


class CtqoAttributor:
    """Builds per-request causal chains (:meth:`attribute`) and
    per-incident CTQO events (:meth:`ctqo_events`) from detector output.

    Parameters
    ----------
    tier_order:
        Server names from most-upstream to most-downstream
        (e.g. ``["apache", "tomcat", "mysql"]``).  An entry may itself
        be a list of names — the *replicas* of one tier — which then
        share that tier's position (``["apache", ["tomcat1",
        "tomcat2"], "mysql"]``): a drop at any replica classifies
        against a millibottleneck on any other server by tier distance,
        and replica-to-replica of the same tier counts as downstream
        (the flood arrives at a peer's queue, not above it).
    vm_of:
        Mapping from VM names (as millibottlenecks report them) to
        server names — a consolidation antagonist maps to its victim
        tier.  Unmapped names fall back to a ``"-vm"`` suffix strip.
    window:
        Seconds after a millibottleneck ends during which drops are
        still attributed to it (queues overflow while draining).
    tolerance:
        Slack when matching a drop instant against a sampled overflow
        episode — one monitoring interval, since the sampler can first
        see a full backlog up to one interval after the drop.
    edges:
        Invocation edges as (i, j) index pairs into ``tier_order`` (a
        service graph's ``tier_edges()``); ``None`` means the linear
        chain.  A single-node order is valid — ``repro diagnose`` on a
        one-server graph gets an empty-but-valid report, not a crash.
    """

    def __init__(self, tier_order, vm_of=None, window=1.0, tolerance=0.06,
                 edges=None):
        self._dag = TierDag(tier_order, edges=edges)
        self.tier_order = self._dag.tier_order
        self._position = self._dag.position
        self.vm_of = vm_of or {}
        self.window = window
        self.tolerance = tolerance

    # ------------------------------------------------------------------
    def server_for_vm(self, vm_name):
        server = self.vm_of.get(vm_name)
        if server is not None:
            return server
        if vm_name.endswith("-vm"):
            return vm_name[: -len("-vm")]
        return vm_name

    def classify_direction(self, millibottleneck_resource, dropping_server):
        """The paper's rule as the DAG walk, or None when either side
        is off-graph."""
        origin = self.server_for_vm(millibottleneck_resource)
        origin_pos = self._position.get(origin)
        drop_pos = self._position.get(dropping_server)
        if origin_pos is None or drop_pos is None:
            return None
        return self._dag.classify(origin_pos, drop_pos)

    # ------------------------------------------------------------------
    def attribute(self, log, overflow_by_server, millibottlenecks,
                  vlrt_threshold=3.0):
        """Chain every VLRT/dropped request; returns the report.

        ``overflow_by_server`` maps server name to its overflow
        :class:`~repro.metrics.detector.Episode` list;
        ``millibottlenecks`` is any list of episodes with ``resource`` /
        ``kind`` / ``start`` / ``end`` fields.
        """
        tail = {id(r): r for r in log.vlrt(vlrt_threshold)}
        for record in log.dropped_requests():
            tail.setdefault(id(record), record)
        for record in log.shed_requests():
            tail.setdefault(id(record), record)
        chains = []
        for record in sorted(tail.values(), key=lambda r: r.start):
            cause = "drop"
            if record.drops:
                drop_time, drop_site = record.drops[0]
            elif record.sheds:
                # no silent drop, but an explicit 503 from a bounded
                # admission — same causal walk, different fault kind
                drop_time, drop_site = record.sheds[0]
                cause = "shed"
            else:
                drop_time = drop_site = None
            overflow = None
            if drop_site is not None:
                overflow = self._covering_episode(
                    overflow_by_server.get(drop_site, ()), drop_time
                )
            millibottleneck = None
            direction = None
            if drop_time is not None:
                millibottleneck = self._owning_millibottleneck(
                    millibottlenecks, drop_time
                )
            if millibottleneck is not None:
                direction = self.classify_direction(
                    millibottleneck.resource, drop_site
                )
            chains.append(
                CausalChain(
                    request_id=record.request_id,
                    kind=record.kind,
                    response_time=record.response_time,
                    failed=record.failed,
                    drop_time=drop_time,
                    drop_site=drop_site,
                    overflow=overflow,
                    millibottleneck=millibottleneck,
                    direction=direction,
                    cause=cause,
                )
            )
        return AttributionReport(chains, self.tier_order)

    def ctqo_events(self, millibottlenecks, drops_by_server,
                    sheds_by_server=None):
        """Group raw listener losses into classified :class:`CtqoEvent`
        incidents.

        ``drops_by_server`` / ``sheds_by_server`` map server name to the
        instants its listener dropped / 503'd a packet (each listener's
        ``drop_log`` / ``shed_log``).  Every loss joins the event of its
        owning millibottleneck (the rule :meth:`attribute` uses) and
        server; an owner on a VM outside the graph gives direction
        ``"unknown-origin"``.  Losses no episode owns form one
        ``"unattributed"`` event per server.  Events are sorted by
        their first loss.
        """
        events = []
        for cause, by_server in (("drop", drops_by_server),
                                 ("shed", sheds_by_server or {})):
            index = {}
            unattributed = {}
            for server, times in by_server.items():
                for when in times:
                    owner = self._owning_millibottleneck(
                        millibottlenecks, when
                    )
                    if owner is None:
                        unattributed.setdefault(server, []).append(when)
                        continue
                    event = index.get((id(owner), server))
                    if event is None:
                        direction = self.classify_direction(
                            owner.resource, server
                        )
                        event = index[(id(owner), server)] = CtqoEvent(
                            direction or "unknown-origin", owner, server,
                            0, cause=cause,
                        )
                        events.append(event)
                    event.drops += 1
                    event.drop_times.append(when)
            for server, times in sorted(unattributed.items()):
                events.append(CtqoEvent("unattributed", None, server,
                                        len(times), times, cause=cause))
        events.sort(
            key=lambda e: e.drop_times[0] if e.drop_times else float("inf")
        )
        return events

    # ------------------------------------------------------------------
    def _covering_episode(self, episodes, when):
        """The overflow episode containing ``when`` (± tolerance)."""
        best = None
        for episode in episodes:
            if episode.covers(when, self.tolerance):
                if best is None or episode.start > best.start:
                    best = episode
        return best

    def _owning_millibottleneck(self, millibottlenecks, when):
        """The root cause of a loss at ``when``.

        Prefer an episode *active* at ``when``; among several (a
        secondary saturation nested inside its root cause), the one
        that began first — secondary saturations start later than the
        millibottleneck that caused them.  If nothing is active, fall
        back to the most recently ended episode within ``window``
        (queues keep overflowing briefly while they drain)."""
        active = None
        for episode in millibottlenecks:
            if episode.start <= when < episode.end:
                if active is None or episode.start < active.start:
                    active = episode
        if active is not None:
            return active
        recent = None
        for episode in millibottlenecks:
            if episode.end <= when < episode.end + self.window:
                if recent is None or episode.end > recent.end:
                    recent = episode
        return recent
