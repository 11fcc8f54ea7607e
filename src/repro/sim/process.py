"""Generator-based simulated processes.

A process wraps a Python generator.  Each ``yield`` hands the kernel
something to wait for:

``Event``
    resume when the event triggers (with its value, or raising its
    exception inside the generator);
``int`` / ``float``
    shorthand for ``sim.timeout(delay)``;
``Process``
    join: resume when the other process terminates.

A :class:`Process` is itself an :class:`~repro.sim.events.Event` that
succeeds with the generator's return value (or fails with its uncaught
exception), so processes compose: one process can wait for another, or be
combined with ``any_of`` / ``all_of``.  An uncaught exception in a process
nothing waits on propagates out of ``Simulator.run``.
"""

from __future__ import annotations

from types import GeneratorType

from .errors import ProcessInterrupt
from .events import _FAILED, _PENDING, Event

__all__ = ["Process"]


class Process(Event):
    """A running simulated process.  Create via ``sim.process(gen)``."""

    __slots__ = ("generator", "_send", "_gthrow", "_resume_cb",
                 "_waiting_on", "_timer_token")

    def __init__(self, sim, generator, name=None):
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"sim.process() needs a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        # Event.__init__ inlined: thousands of processes are created per
        # experiment (one per closed-loop client)
        self.sim = sim
        self._name = name or generator.__name__
        self._state = _PENDING
        self._value = None
        self.callbacks = None
        self.generator = generator
        # bound once: resumes happen millions of times per experiment,
        # and each `self.generator.send` lookup builds a bound method
        self._send = generator.send
        self._gthrow = generator.throw
        self._resume_cb = self._resume  # one bound method, not one per wait
        self._waiting_on = None
        self._timer_token = 0
        # Start on a fresh kernel tick so creation order does not matter
        # within an instant.
        sim.call_in(0.0, self._resume_cb, None)

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`ProcessInterrupt` into the process.

        The process stops waiting on whatever it was waiting on (the event
        itself is unaffected and may still trigger later; its value is then
        discarded).  Interrupting a finished process is a no-op.
        """
        if self.triggered:
            return
        self.sim.call_in(0.0, self._throw, ProcessInterrupt(cause))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _release(self):
        """Drop the finished generator and the methods bound to it.

        ``_resume_cb`` is a bound method of this process stored on this
        process — a reference cycle.  Breaking it on termination lets
        reference counting free the process as soon as nothing waits on
        it.  Stale wakeups return early on the state and token checks,
        so nothing reads these fields after the end.
        """
        self.generator = self._send = self._gthrow = self._resume_cb = None

    def _crash(self, exc):
        """End the process with the uncaught exception ``exc``.

        The process fails as an event, so whoever waits on it can react.
        With nobody waiting, the exception propagates out of
        ``Simulator.run`` instead: a fault in a client, arrival loop or
        injector must stop the run, not silently lose its work.
        """
        self._release()
        if self.callbacks is None:
            self._state = _FAILED
            self._value = exc
            raise exc
        self.fail(exc)

    def _resume(self, event):
        """Advance the generator with the value of the triggered event."""
        if self._state != _PENDING:
            return  # interrupted while a stale wakeup was in flight
        if event is not None:
            if event is not self._waiting_on:
                return  # stale wakeup from an abandoned wait
            self._waiting_on = None
            if event._state == _FAILED:
                self._throw(event._value)
                return
            value = event._value
        else:
            value = None
        try:
            target = self._send(value)
        except StopIteration as stop:
            self._release()
            self.succeed(stop.value)
            return
        except Exception as exc:
            self._crash(exc)
            return
        self._wait_for(target)

    def _throw(self, exception):
        """Throw an exception into the generator at its current yield."""
        if self.triggered:
            return
        self._waiting_on = None
        try:
            target = self._gthrow(exception)
        except StopIteration as stop:
            self._release()
            self.succeed(stop.value)
            return
        except Exception as exc:
            self._crash(exc)
            return
        self._wait_for(target)

    def _resume_timer(self, token):
        """Wake from a numeric-delay wait scheduled by :meth:`_wait_for`.

        ``token`` identifies the wait: a stale wakeup (the process was
        interrupted, finished, or moved on to a newer wait) carries an
        older token and is ignored.
        """
        if token != self._waiting_on:
            return
        self._waiting_on = None
        try:
            target = self._send(None)
        except StopIteration as stop:
            self._release()
            self.succeed(stop.value)
            return
        except Exception as exc:
            self._crash(exc)
            return
        self._wait_for(target)

    def _wait_for(self, target):
        """Interpret a yielded value and arrange the next wakeup."""
        # Events are checked first: server processes wait on events
        # (grants, job completions, responses) far more often than on
        # bare delays.
        if isinstance(target, Event):
            if target is self:
                self._throw(
                    ValueError(f"process {self.name!r} waiting on itself")
                )
                return
            self._waiting_on = target
            target.add_callback(self._resume_cb)
            return
        if isinstance(target, (int, float)):
            # Fast path for ``yield <delay>``: resume directly via the
            # kernel instead of constructing a Timeout event (object +
            # label + callback list + trigger pass) per tick.  The wakeup
            # lands at the same (time, priority, sequence) slot a
            # Timeout's would, so event ordering — and with it every RNG
            # draw — is unchanged.
            if target < 0:
                raise ValueError(f"negative timeout delay {target!r}")
            self._timer_token = token = self._timer_token + 1
            self._waiting_on = token
            self.sim.call_in(target, self._resume_timer, token)
            return
        self._throw(
            TypeError(
                f"process {self.name!r} yielded {target!r}; expected an "
                "Event, a Process, or a numeric delay"
            )
        )
