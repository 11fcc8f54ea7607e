"""The generator-process servlet drivers, kept as an equivalence oracle.

Before the drivers became callback objects
(:class:`repro.servers.base.ServletDriver`), a server thread and an
event-loop worker were each a simulated
:class:`~repro.sim.process.Process` running a generator: the thread
pool's ``_worker`` delegated every request to the server's ``_drive``,
and the event loop's ``_worker`` ran the parked continuations.  This
module keeps that code as it was — ``_drive``, both ``_worker``
methods, ``start``, ``_spawn_process``, the event loop's ``submit``
and its ``_Task`` — with only the imports changed (as ``reference_kernel``
keeps the heap kernel and ``reference_cpu_host`` the CPU model), except
for the event loop's server-visit lifecycle, which follows the one the
production drivers share: its ``_Task`` records the visit's ``start``
and its worker finishes through ``PolicyServer._finish``.

Plug a reference driver in by swapping it into the concurrency table
while the servers are built, e.g.
``mock.patch.dict(CONCURRENCIES, {"threads": ReferenceThreadPool})``;
``tests/test_driver_differential.py`` diffs them against the production
drivers on random programs.  ``_drive`` was a method of the server
class: ``ReferenceThreadPool.prepare`` binds it to the server.
"""

from types import MethodType

from repro.apps.servlet import Compute, Response, ServletError
from repro.servers.base import INSTRUCTION_HANDLERS, unknown_instruction
from repro.servers.policies import (
    EventLoopConcurrency,
    ThreadPoolConcurrency,
)
from repro.sim.events import Event


def _drive(self, exchange):
    """Generator running one request's servlet to completion.

    Yields the events the instructions wait on (CPU completions,
    downstream calls, barriers) while the calling thread stays held;
    see the module docstring.
    """
    # locals bound once per request: the loop below resumes for every
    # instruction of every request on every tier
    sim = self.sim
    name = self.name
    request = exchange.payload
    request.record(sim.now, "start", name)
    gen = self.handler(self.ctx, request)
    send = gen.send
    throw = gen.throw
    execute = self.vm.execute
    handlers = INSTRUCTION_HANDLERS
    to_send = None
    to_throw = None
    while True:
        try:
            if to_throw is not None:
                step = throw(to_throw)
                to_throw = None
            else:
                step = send(to_send)
        except StopIteration as stop:
            request.record(sim.now, "reply", name)
            exchange.reply(Response.success(stop.value))
            self.stats.completed += 1
            break
        except ServletError as exc:
            # the re-raised error's traceback holds this frame: drop
            # the frame's references to it (and to the failed event
            # holding it) so the frame, the error and the request
            # are freed by reference counting, not the collector
            to_throw = outcome = None
            request.record(sim.now, "error", f"{name}: {exc}")
            exchange.reply(Response.failure(str(exc)))
            self.stats.failed += 1
            break
        to_send = None
        cls = step.__class__
        if cls is Compute:
            yield execute(step.work)
            continue
        handler = handlers.get(cls)
        if handler is None:
            raise unknown_instruction(name, step)
        try:
            outcome = handler(self, step, request)
            if isinstance(outcome, Event):
                outcome = yield outcome
            to_send = outcome
        except ServletError as exc:
            to_throw = exc
    observer = self.latency_observer
    if observer is not None:
        observer(sim.now - exchange.first_sent_at)


class _Task:
    """One admitted request's continuation state (event-loop driver)."""

    __slots__ = ("exchange", "gen", "ready", "send_value", "throw_value")

    def __init__(self, server, exchange):
        self.exchange = exchange
        exchange.payload.record(server.sim.now, "start", server.name)
        self.gen = server.handler(server.ctx, exchange.payload)
        self.ready = server._ready
        self.send_value = None
        self.throw_value = None

    def resume(self, event):
        """Callback of the event the continuation is parked on: keep its
        outcome for the servlet and re-enqueue the task."""
        if event.failed:
            self.throw_value = event.value
        else:
            self.send_value = event.value
        self.ready.put(self)


class ReferenceThreadPool(ThreadPoolConcurrency):
    """:class:`~repro.servers.policies.ThreadPoolConcurrency` with one
    generator process per server thread."""

    def prepare(self, server):
        ThreadPoolConcurrency.prepare(self, server)
        server._drive = MethodType(_drive, server)

    def start(self, server):
        for _ in range(self.threads):
            server.sim.process(self._worker(server))
        if self.spawn_extra_process:
            server.sim.process(self._process_spawner(server))

    def _worker(self, server):
        """One server thread: take a request, drive the servlet, repeat."""
        eager = server.admission.eager
        source = (server._intake if eager else server.listener.accept_queue)
        take = source.get
        stats = server.stats
        note_depth = server._note_queue_depth
        drive = server._drive
        while True:
            exchange = yield take()
            if not eager:
                stats.arrivals += 1
            server.busy_threads += 1
            note_depth()
            try:
                yield from drive(exchange)
            finally:
                server.busy_threads -= 1
                if eager:
                    server._task_done()

    def _spawn_process(self, server):
        server.processes += 1
        server.thread_capacity += server.threads_per_process
        for _ in range(server.threads_per_process):
            server.sim.process(self._worker(server))


class ReferenceEventLoop(EventLoopConcurrency):
    """:class:`~repro.servers.policies.EventLoopConcurrency` with one
    generator process per loop worker."""

    def start(self, server):
        for _ in range(self.workers):
            server.sim.process(self._worker(server))

    def submit(self, server, exchange):
        server._ready.put(_Task(server, exchange))

    def _worker(self, server):
        """One loop worker: run ready continuations, one CPU stage at a
        time; never blocks on downstream calls."""
        ready = server._ready
        execute = server.vm.execute
        finish = server._finish
        handlers = INSTRUCTION_HANDLERS
        while True:
            task = yield ready.get()
            gen = task.gen
            send = gen.send
            throw = gen.throw
            request = task.exchange.payload
            while True:
                try:
                    throw_value = task.throw_value
                    if throw_value is not None:
                        task.throw_value = None
                        step = throw(throw_value)
                    else:
                        step = send(task.send_value)
                except StopIteration as stop:
                    finish(task.exchange, stop.value, None)
                    server._task_done()
                    break
                except ServletError as exc:
                    finish(task.exchange, None, exc)
                    server._task_done()
                    break
                task.send_value = None
                cls = step.__class__
                if cls is Compute:
                    # the loop worker executes the stage itself
                    yield execute(step.work)
                    continue
                handler = handlers.get(cls)
                if handler is None:
                    raise unknown_instruction(server.name, step)
                try:
                    outcome = handler(server, step, request)
                except ServletError as exc:
                    task.throw_value = exc
                    continue
                if isinstance(outcome, Event):
                    # a call that failed at once (no route, open breaker)
                    # is settled already: resume then runs at once and
                    # re-enqueues the task behind the other ready ones
                    outcome.add_callback(task.resume)
                    break  # continuation parked
                task.send_value = outcome
