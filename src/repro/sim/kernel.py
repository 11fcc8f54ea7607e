"""The discrete-event simulation kernel.

The kernel is a priority queue of ``(time, key, callback, args)``
entries, where ``key`` folds the scheduling priority and a
monotonically increasing sequence number into a single integer
(``priority * 2**52 + sequence``).  Ties at the same instant therefore
break on priority first, then insertion order, and the deterministic
tie-break makes every experiment in this repository reproducible
bit-for-bit from its seed.

:class:`Simulator` is a **calendar queue**: a flat window of
``wheel_buckets`` time buckets of ``bucket_width`` seconds each.
Near-future events are appended to their bucket in O(1); only the bucket
currently being drained is heap-ordered (heapified once, when the cursor
reaches it).  Events beyond the window land in an *overflow* binary heap
and are redistributed into buckets when the window rolls forward.  Pop
order is identical to a single global heap because

- bucket index is a monotone function of time (``int((t - t0) / w)``),
  so events in bucket *i* all precede events in bucket *j > i* and all
  precede everything in overflow (which holds only times beyond the
  window), and
- within a bucket, entries pop in exact ``(time, key)`` order via the
  same tuple comparison the old global heap used.

The previous single-binary-heap scheduler survives only as the
reference kernel of the test suite (``tests/reference_kernel.py``);
the equivalence tests replay schedules and experiments under both and
diff the records.

:meth:`Simulator.run` pauses Python's cyclic garbage collector for the
whole dispatch loop.  The hot path creates no reference cycles — a
finished request tree, process or failed call is freed by reference
counting the moment it is done — so every collection inside the loop
would find nothing and only cost time (docs/PERF.md, "Memory and the
cyclic collector").

Time is a float measured in **seconds** of simulated time.  All latencies
in the paper are quoted in milliseconds; helpers in
:mod:`repro.topology.configs` convert.
"""

from __future__ import annotations

import gc
import heapq
import random

from .errors import SimulationDeadlock
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process

__all__ = ["Simulator"]

# bound once at import: the scheduling fast path runs millions of times
# per experiment, and the attribute lookups dominate its cost
_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify

# Priority occupies the high bits of the heap tie-break key; 2**52
# sequence numbers (~4.5e15 events) fit below it without collision.
_PRIORITY_STRIDE = 1 << 52

# Default calendar geometry: 4096 buckets of 2**-9 s (~2 ms) give an
# 8 s window.  Service/network events (sub-millisecond..millisecond) and
# retransmission timers (seconds) land in the window; only multi-second
# think times overflow.  ~2 ms buckets hold a handful of entries each at
# the repository's event rates, so the per-bucket heap work stays tiny
# while per-bucket bookkeeping amortizes over several events (see
# docs/PERF.md for the measured trade-off).
_BUCKET_WIDTH = 2.0 ** -9
_WHEEL_BUCKETS = 4096

_INF = float("inf")


class Simulator:
    """A deterministic discrete-event simulator (calendar-queue kernel).

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  Components
        should draw randomness via :attr:`rng` (or a stream forked with
        :meth:`fork_rng`) so a single seed reproduces an entire run.
    bus:
        Optional :class:`~repro.sim.instrument.EventBus`.  Substrate
        components capture ``sim.bus`` at construction and publish
        instrumentation events to it; ``None`` (the default) keeps every
        emit site on its one-branch disabled path.
    bucket_width, wheel_buckets:
        Calendar geometry (seconds per bucket, buckets per window).
        The defaults fit the repository's workloads; tests shrink them
        to exercise window rollover cheaply.  Scheduling semantics are
        identical for every geometry.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> hits = []
    >>> sim.call_in(2.0, hits.append, "two")
    >>> sim.call_in(1.0, hits.append, "one")
    >>> sim.run()
    >>> hits
    ['one', 'two']
    """

    def __init__(self, seed=0, bus=None, bucket_width=None,
                 wheel_buckets=None):
        self.now = 0.0
        self._sequence = 0
        self.seed = seed
        self.rng = random.Random(seed)
        self._stopped = False
        #: number of callbacks executed so far (cheap progress metric).
        self.executed_events = 0
        #: instrumentation bus (None = instrumentation off).
        self.bus = bus
        # --- calendar state -------------------------------------------
        width = float(bucket_width if bucket_width is not None
                      else _BUCKET_WIDTH)
        size = int(wheel_buckets if wheel_buckets is not None
                   else _WHEEL_BUCKETS)
        if width <= 0.0:
            raise ValueError(f"bucket_width must be > 0, got {width}")
        if size < 1:
            raise ValueError(f"wheel_buckets must be >= 1, got {size}")
        self._width = width
        self._inv_width = 1.0 / width
        self._size = size
        self._span = width * size
        #: start of the current window; bucket i covers
        #: [t0 + i*width, t0 + (i+1)*width)
        self._t0 = 0.0
        self._buckets = [[] for _ in range(size)]
        #: index of the bucket being drained.  Invariant: every bucket
        #: below the cursor is empty, and the cursor bucket is always a
        #: valid heap (future buckets are unordered append lists,
        #: heapified when the cursor reaches them).
        self._cursor = 0
        #: binary heap of entries at/after the end of the window;
        #: invariant: all overflow times are >= t0 + span.
        self._overflow = []
        if bus is not None:
            bus.bind(self)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _scheduling_error(self, what):
        """Shared constructor for scheduling errors (one message shape
        for ``call_at`` and ``call_in``)."""
        return ValueError(
            f"cannot schedule {what}: current time is {self.now}"
        )

    def call_at(self, when, callback, *args, priority=0):
        """Schedule ``callback(*args)`` at absolute simulated time ``when``.

        Scheduling in the past, at an infinite time or at NaN is an
        error; scheduling at ``now`` runs the callback later in the same
        instant, after already-queued entries.  ``priority`` breaks ties
        before the insertion sequence (lower runs first) and is used
        sparingly, e.g. so monitors sample *after* the instant's state
        changes settle.
        """
        if when < self.now:
            raise self._scheduling_error(f"at t={when} (in the past)")
        self._sequence = sequence = self._sequence + 1
        if priority:
            sequence += priority * _PRIORITY_STRIDE
        offset = when - self._t0
        if offset < self._span:
            # the window can sit ahead of ``now`` after an idle jump, so
            # clamp pre-window times into bucket 0 of the live window
            index = int(offset * self._inv_width) if offset > 0.0 else 0
            cursor = self._cursor
            if index > cursor:
                self._buckets[index].append((when, sequence, callback, args))
            elif index == cursor:
                _heappush(self._buckets[index],
                          (when, sequence, callback, args))
            else:
                # resurrect an already-swept (empty) bucket: a bare
                # append keeps it a valid single-entry heap
                self._cursor = index
                self._buckets[index].append((when, sequence, callback, args))
        elif when < _INF:
            _heappush(self._overflow, (when, sequence, callback, args))
        else:
            # NaN and +inf fail every comparison above and land here, off
            # the hot path: an entry beyond every window would make
            # ``run(until=...)`` roll the window forever
            raise self._scheduling_error(f"at t={when} (not a finite time)")

    def call_in(self, delay, callback, *args, priority=0):
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        Pushes the entry directly instead of re-wrapping the call
        through :meth:`call_at` — this is the kernel's hottest entry
        point (every timeout, service completion and network hop).
        ``delay`` must be finite and non-negative.
        """
        if delay < 0:
            raise self._scheduling_error(f"a negative delay ({delay!r})")
        self._sequence = sequence = self._sequence + 1
        if priority:
            sequence += priority * _PRIORITY_STRIDE
        when = self.now + delay
        offset = when - self._t0
        if offset < self._span:
            index = int(offset * self._inv_width) if offset > 0.0 else 0
            cursor = self._cursor
            if index > cursor:
                self._buckets[index].append((when, sequence, callback, args))
            elif index == cursor:
                _heappush(self._buckets[index],
                          (when, sequence, callback, args))
            else:
                self._cursor = index
                self._buckets[index].append((when, sequence, callback, args))
        elif when < _INF:
            _heappush(self._overflow, (when, sequence, callback, args))
        else:
            # a NaN or infinite delay (see call_at)
            raise self._scheduling_error(f"a non-finite delay ({delay!r})")

    def call_at_batch(self, times, callback):
        """Schedule ``callback()`` (no arguments) at each time in
        ``times``, in order, as if by repeated ``call_at``.

        The bulk entry point for array-generated arrival streams
        (:class:`~repro.workload.openloop.ArrayOpenLoop`): one call
        schedules a whole batch with the per-call validation and
        sequence numbering of :meth:`call_at`, minus the per-call
        overhead.  ``times`` must be an iterable of plain floats.
        """
        now = self.now
        sequence = self._sequence
        t0 = self._t0
        span = self._span
        inv_width = self._inv_width
        buckets = self._buckets
        overflow = self._overflow
        push = _heappush
        try:
            for when in times:
                if when < now:
                    raise self._scheduling_error(
                        f"at t={when} (in the past)"
                    )
                sequence += 1
                offset = when - t0
                if offset < span:
                    index = int(offset * inv_width) if offset > 0.0 else 0
                    cursor = self._cursor
                    if index > cursor:
                        buckets[index].append((when, sequence, callback, ()))
                    elif index == cursor:
                        push(buckets[index], (when, sequence, callback, ()))
                    else:
                        self._cursor = index
                        buckets[index].append((when, sequence, callback, ()))
                elif when < _INF:
                    push(overflow, (when, sequence, callback, ()))
                else:
                    raise self._scheduling_error(
                        f"at t={when} (not a finite time)"
                    )
        finally:
            self._sequence = sequence

    # ------------------------------------------------------------------
    # event / process factories
    # ------------------------------------------------------------------
    def event(self, name=None):
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None):
        """Create an event that succeeds ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def any_of(self, events):
        """Event triggering when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events):
        """Event triggering when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def process(self, generator, name=None):
        """Run ``generator`` as a simulated process.

        The generator may ``yield`` events (to wait for them), floats (as a
        shorthand for ``timeout``), or other processes (to join them).
        Returns the :class:`~repro.sim.process.Process`, which is itself an
        event that triggers with the generator's return value.
        """
        return Process(self, generator, name=name)

    def fork_rng(self, label):
        """Create an independent, deterministic random stream.

        Streams are derived from the simulator seed and a string label, so
        adding a new consumer of randomness does not perturb the draws seen
        by existing components.
        """
        return random.Random(f"{self.seed}/{label}")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _activate(self):
        """Advance the cursor to the next non-empty bucket (heapifying
        it on arrival) and return that bucket, rolling the window
        forward over the overflow heap as needed.  Returns ``None``
        when no events remain anywhere.

        Lazy-normalizing state this way keeps :meth:`call_at` branchless
        on the common path; it is called only when the active bucket has
        drained, so its cost amortizes to O(1) per event plus one bucket
        sweep per window.
        """
        buckets = self._buckets
        size = self._size
        cursor = self._cursor
        while True:
            while cursor < size:
                bucket = buckets[cursor]
                if bucket:
                    self._cursor = cursor
                    if len(bucket) > 1:
                        _heapify(bucket)
                    return bucket
                cursor += 1
            overflow = self._overflow
            if not overflow:
                # park on the last (empty) bucket so indexing stays valid
                self._cursor = size - 1
                return None
            # window rollover: slide forward one span — or, when the
            # next event is beyond even the *next* window, jump the
            # window straight to it so idle stretches cost nothing
            span = self._span
            t0 = self._t0 + span
            first = overflow[0][0]
            if first - t0 >= span:
                t0 = first
            horizon = t0 + span
            inv_width = self._inv_width
            pop = _heappop
            while overflow and overflow[0][0] < horizon:
                entry = pop(overflow)
                index = int((entry[0] - t0) * inv_width)
                if index >= size:
                    index = size - 1  # float guard at the window edge
                buckets[index].append(entry)
            self._t0 = t0
            cursor = 0

    def _next_entry(self):
        """The next ``(time, key, callback, args)`` entry to execute,
        without removing it (``None`` if the kernel is empty).  May
        lazily advance the cursor/window, which never changes order."""
        bucket = self._buckets[self._cursor] or self._activate()
        return bucket[0] if bucket else None

    def step(self):
        """Execute the single next scheduled callback. Returns its time."""
        bucket = self._buckets[self._cursor]
        if not bucket:
            bucket = self._activate()
            if bucket is None:
                raise IndexError("step from an empty kernel")
        when, _key, callback, args = _heappop(bucket)
        self.now = when
        self.executed_events += 1
        callback(*args)
        return when

    def peek(self):
        """Time of the next scheduled callback, or ``None`` if empty."""
        bucket = self._buckets[self._cursor] or self._activate()
        return bucket[0][0] if bucket else None

    def run(self, until=None, error_on_starvation=False):
        """Run until no events remain or simulated time reaches ``until``.

        When ``until`` is given, time is advanced exactly to ``until`` at
        the end of the run so samplers and tests see a well-defined final
        clock.  With ``error_on_starvation`` a premature empty kernel
        raises :class:`SimulationDeadlock` instead of silently ending.

        The cyclic garbage collector is paused while events dispatch
        (the hot path leaves no cycles for it to find; see the module
        docstring) and re-enabled afterwards only if it was enabled
        before, so nested runs and callbacks that raise leave the
        interpreter as they found it.
        """
        self._stopped = False
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        collecting = gc.isenabled()
        gc.disable()
        try:
            exhausted = self._dispatch(until)
            if until is not None and not self._stopped:
                if exhausted and error_on_starvation:
                    raise SimulationDeadlock(
                        f"event heap empty at t={self.now}, "
                        f"target was {until}"
                    )
                self.now = max(self.now, until)
        finally:
            if collecting:
                gc.enable()

    def _dispatch(self, until):
        """The event loop of :meth:`run`: execute callbacks until the
        kernel is stopped, empty or past ``until``.  Returns whether it
        ended because no events remained."""
        # the dispatch loop is inlined (rather than calling step()) so
        # each of the millions of events per run costs one bucket pop +
        # one call; an instance-level step override (e.g. KernelTracer)
        # must still observe every event, so it forces step dispatch.
        #
        # The active bucket is held in a local: callbacks can never
        # schedule below the cursor (their times are >= now, which maps
        # at or above the cursor bucket), so the local only goes stale
        # when it empties — exactly when the inner loop re-fetches.
        exhausted = False
        buckets = self._buckets
        pop = _heappop
        if "step" in self.__dict__:
            step = self.step
            while not self._stopped:
                bucket = buckets[self._cursor] or self._activate()
                if not bucket:
                    exhausted = True
                    break
                if until is not None and bucket[0][0] > until:
                    break
                step()
        elif until is None:
            while not self._stopped:
                bucket = buckets[self._cursor]
                if not bucket:
                    bucket = self._activate()
                    if bucket is None:
                        break
                while bucket:
                    when, _key, callback, args = pop(bucket)
                    self.now = when
                    self.executed_events += 1
                    callback(*args)
                    if self._stopped:
                        break
        else:
            done = False
            while not (self._stopped or done):
                bucket = buckets[self._cursor]
                if not bucket:
                    bucket = self._activate()
                    if bucket is None:
                        exhausted = True
                        break
                while bucket:
                    if bucket[0][0] > until:
                        done = True
                        break
                    when, _key, callback, args = pop(bucket)
                    self.now = when
                    self.executed_events += 1
                    callback(*args)
                    if self._stopped:
                        break
        return exhausted

    def stop(self):
        """Stop the current :meth:`run` after the executing callback."""
        self._stopped = True

    @property
    def pending(self):
        """Number of scheduled-but-unexecuted callbacks (O(buckets))."""
        return sum(map(len, self._buckets)) + len(self._overflow)

    def __repr__(self):
        return (
            f"<{type(self).__name__} t={self.now:.6f} "
            f"pending={self.pending} executed={self.executed_events}>"
        )
