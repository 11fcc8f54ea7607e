"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot future living inside a single
:class:`~repro.sim.kernel.Simulator`.  It starts *pending*, is triggered
exactly once with either a value (``succeed``) or an exception (``fail``),
and then notifies its callbacks in registration order during the same
simulated instant.

Events are the only synchronization primitive the kernel knows about,
and :class:`Event` is the one event class: timeouts, processes, resource
grants, composites, downstream calls and network responses are all
instances of it or of a subclass that adds fields.

Hot-path notes
--------------
Millions of events per experiment live and die without anyone ever
reading their label, so names are **lazy**: ``name`` may be a string, a
zero-argument factory resolved on first read, or (for :class:`Grant`)
derived from the owning resource only when ``repr`` or an error needs
it.  Callbacks skip the per-event *list* until a second subscriber
appears — the overwhelmingly common case is exactly one subscriber (the
process or continuation waiting on the grant, job or response), which
is stored directly.
"""

from __future__ import annotations

from .errors import StaleEventError

__all__ = ["AllOf", "AnyOf", "Event", "Grant", "Timeout"]

_PENDING = 0
_SUCCEEDED = 1
_FAILED = 2


class Event:
    """A one-shot future bound to a simulator.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.kernel.Simulator`.
    name:
        Optional human-readable label used in ``repr`` and error
        messages.  May be a string or a zero-argument callable resolved
        (and cached) on first read, so hot paths never pay for a label
        nobody looks at.
    """

    __slots__ = ("sim", "_name", "_state", "_value", "callbacks")

    def __init__(self, sim, name=None):
        self.sim = sim
        self._name = name
        self._state = _PENDING
        self._value = None
        #: ``fn(event)`` subscribers, run in registration order when the
        #: event triggers: ``None`` (no subscriber yet), the one callable,
        #: or a list once a second subscriber appears
        self.callbacks = None

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    @property
    def name(self):
        """The label; lazy factories are resolved and cached here."""
        name = self._name
        if name is not None and not isinstance(name, str):
            name = self._name = name()
        return name

    @name.setter
    def name(self, value):
        self._name = value

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self):
        """True once the event has succeeded or failed."""
        return self._state != _PENDING

    @property
    def ok(self):
        """True if the event succeeded (False while pending)."""
        return self._state == _SUCCEEDED

    @property
    def failed(self):
        """True if the event failed with an exception."""
        return self._state == _FAILED

    @property
    def value(self):
        """The success value or the failure exception.

        Reading the value of a pending event is a programming error.
        """
        if self._state == _PENDING:
            raise StaleEventError(f"{self!r} has no value yet")
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value=None):
        """Trigger the event successfully and run callbacks immediately."""
        # _trigger is inlined here (and in fail): one call frame per
        # trigger matters at millions of triggers per experiment
        if self._state != _PENDING:
            raise StaleEventError(f"{self!r} triggered twice")
        self._state = _SUCCEEDED
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks is not None:
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception.

        The exception is re-raised inside any process waiting on the event.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._trigger(_FAILED, exception)
        return self

    def _trigger(self, state, value):
        if self._state != _PENDING:
            raise StaleEventError(f"{self!r} triggered twice")
        self._state = state
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks is not None:
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)

    # ------------------------------------------------------------------
    # subscription
    # ------------------------------------------------------------------
    def add_callback(self, callback):
        """Run ``callback(event)`` when the event triggers.

        If the event already triggered, the callback runs synchronously.
        """
        if self._state != _PENDING:
            callback(self)
            return self
        existing = self.callbacks
        if existing is None:
            self.callbacks = callback
        elif type(existing) is list:
            existing.append(callback)
        else:
            self.callbacks = [existing, callback]
        return self

    def __repr__(self):
        state = {_PENDING: "pending", _SUCCEEDED: "ok", _FAILED: "failed"}[
            self._state
        ]
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at t={self.sim.now:.6f}>"


class Grant(Event):
    """A queued admission handed out by ``Resource.acquire`` / ``Store.get``.

    Carries its owner so the label (``"<owner>.acquire"``) is built only
    if ``repr`` or an error message ever asks for it — one f-string per
    request admission otherwise — plus the ``cancelled`` tombstone flag
    that makes withdrawal O(1) (see :meth:`Resource.cancel`).
    """

    __slots__ = ("owner", "_suffix", "cancelled")

    def __init__(self, sim, owner, suffix):
        self.sim = sim
        self._name = None
        self._state = _PENDING
        self._value = None
        self.callbacks = None
        self.owner = owner
        self._suffix = suffix
        self.cancelled = False

    @property
    def name(self):
        name = self._name
        if name is None:
            name = self._name = f"{self.owner.name}{self._suffix}"
        return name

    @name.setter
    def name(self, value):
        self._name = value


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay, value=None, name=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(sim, name=name)
        self.delay = delay
        sim.call_in(delay, self.succeed, value)

    @property
    def name(self):
        name = self._name
        if name is None:
            name = self._name = f"Timeout({self.delay})"
        return name

    @name.setter
    def name(self, value):
        self._name = value


class _Composite(Event):
    """Common machinery for AnyOf / AllOf."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim, events, name=None):
        super().__init__(sim, name=name)
        self.events = list(events)
        self._pending_count = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event):
        raise NotImplementedError


class AnyOf(_Composite):
    """Succeeds as soon as any child event triggers.

    The value is a dict mapping the triggered event to its value.  A child
    failure fails the composite with the child's exception.
    """

    __slots__ = ()

    def _on_child(self, event):
        if self.triggered:
            return
        if event.failed:
            self.fail(event.value)
        else:
            self.succeed({event: event.value})


class AllOf(_Composite):
    """Succeeds when all child events have succeeded.

    The value is a dict mapping every event to its value, in the original
    order.  The first child failure fails the composite.
    """

    __slots__ = ()

    def _on_child(self, event):
        if self.triggered:
            return
        if event.failed:
            self.fail(event.value)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed({ev: ev.value for ev in self.events})
