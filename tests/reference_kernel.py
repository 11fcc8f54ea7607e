"""The reference kernel: one global binary heap of event entries.

This is the scheduler the calendar queue of
:class:`repro.sim.kernel.Simulator` replaced, kept only as an
equivalence oracle (as ``reference_cpu_host`` is for the CPU model).
Scheduling semantics — pop order, tie-breaks, error messages — are
identical to :class:`~repro.sim.kernel.Simulator`; only the container
differs: O(log n) push/pop on a single heap versus the calendar's O(1)
bucket appends.  ``run`` (argument checks, the collector pause, the
final clock) is the production one; only the dispatch loop is the
heap's.

:func:`use_heap_kernel` makes every ``Simulator(...)`` built while it
is in force a :class:`HeapSimulator`, so whole experiments can be
replayed on the reference kernel in-process or in forked workers.
"""

import heapq

from repro.sim.kernel import _INF, _PRIORITY_STRIDE, Simulator

_heappush = heapq.heappush
_heappop = heapq.heappop
#: the calendar constructor, bound before :func:`use_heap_kernel` can
#: replace ``Simulator.__init__``
_wheel_init = Simulator.__init__


class HeapSimulator(Simulator):
    """The single-binary-heap scheduler (see the module docstring)."""

    def __init__(self, seed=0, bus=None):
        # a 1-bucket zero-cost calendar keeps attribute shape identical;
        # the heap methods below never touch it
        _wheel_init(self, seed=seed, bus=bus, bucket_width=1.0,
                    wheel_buckets=1)
        self._heap = []

    # -- scheduling ----------------------------------------------------
    def call_at(self, when, callback, *args, priority=0):
        if when < self.now:
            raise self._scheduling_error(f"at t={when} (in the past)")
        if not when < _INF:
            raise self._scheduling_error(f"at t={when} (not a finite time)")
        self._sequence = sequence = self._sequence + 1
        if priority:
            sequence += priority * _PRIORITY_STRIDE
        _heappush(self._heap, (when, sequence, callback, args))

    def call_in(self, delay, callback, *args, priority=0):
        if delay < 0:
            raise self._scheduling_error(f"a negative delay ({delay!r})")
        if not delay < _INF:
            raise self._scheduling_error(f"a non-finite delay ({delay!r})")
        self._sequence = sequence = self._sequence + 1
        if priority:
            sequence += priority * _PRIORITY_STRIDE
        _heappush(self._heap, (self.now + delay, sequence, callback, args))

    def call_at_batch(self, times, callback):
        now = self.now
        sequence = self._sequence
        heap = self._heap
        push = _heappush
        try:
            for when in times:
                if when < now:
                    raise self._scheduling_error(
                        f"at t={when} (in the past)"
                    )
                if not when < _INF:
                    raise self._scheduling_error(
                        f"at t={when} (not a finite time)"
                    )
                sequence += 1
                push(heap, (when, sequence, callback, ()))
        finally:
            self._sequence = sequence

    # -- execution -----------------------------------------------------
    def _next_entry(self):
        heap = self._heap
        return heap[0] if heap else None

    def step(self):
        when, _key, callback, args = _heappop(self._heap)
        self.now = when
        self.executed_events += 1
        callback(*args)
        return when

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def _dispatch(self, until):
        heap = self._heap
        if "step" in self.__dict__:
            step = self.step
            while heap and not self._stopped:
                if until is not None and heap[0][0] > until:
                    break
                step()
        elif until is None:
            pop = _heappop
            while heap and not self._stopped:
                when, _key, callback, args = pop(heap)
                self.now = when
                self.executed_events += 1
                callback(*args)
        else:
            pop = _heappop
            while heap and not self._stopped:
                if heap[0][0] > until:
                    break
                when, _key, callback, args = pop(heap)
                self.now = when
                self.executed_events += 1
                callback(*args)
        return not heap

    @property
    def pending(self):
        return len(self._heap)


def _heap_init(sim, seed=0, bus=None):
    sim.__class__ = HeapSimulator
    HeapSimulator.__init__(sim, seed=seed, bus=bus)


def use_heap_kernel(monkeypatch):
    """Build a :class:`HeapSimulator` wherever code constructs a
    ``Simulator`` until ``monkeypatch`` is undone (fork-started workers
    inherit the patch)."""
    monkeypatch.setattr(Simulator, "__init__", _heap_init)
