"""Core event loop, events, processes and timeouts.

This module is the hottest path in the whole reproduction: every simulated
CUDA kernel, NCCL collective, checkpoint write and failure is an
:class:`Event` flowing through :meth:`Environment.run`.  The implementation
therefore trades a little readability for speed:

* every kernel class declares ``__slots__`` (no per-instance ``__dict__``),
* event names are lazy — debug aids only, never built on the hot path,
* :class:`Timeout` objects are recycled through a per-environment free list
  (a dispatched timeout with no remaining references is reused by the next
  ``env.timeout()`` call instead of being reallocated),
* the schedule/dispatch path is inlined in :meth:`Environment.run` rather
  than bouncing through ``step()`` per event.

``benchmarks/bench_simulator_perf.py`` measures this file; run
``benchmarks/run_perf_baseline.py`` to refresh ``BENCH_simulator.json``
after touching it.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Sentinel stored in ``Event._value`` while the event is untriggered.
_PENDING = object()

#: Upper bound on the per-environment ``Timeout`` free list.
_TIMEOUT_POOL_LIMIT = 4096

_getrefcount = sys.getrefcount


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupted process receives the interrupt at its current ``yield``
    statement and may catch it to run recovery logic (this is how watchdogs
    abort workers blocked on a hung collective).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Thrown into a process when it is killed (no recovery expected)."""


class Event:
    """A single occurrence that processes can wait for.

    An event starts *pending*; it becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called, which schedules it on the environment queue;
    it is *processed* once its callbacks have run.
    """

    __slots__ = ("env", "_name", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self._name = name
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def name(self) -> str:
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority=priority)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Construction is inlined (no ``Event.__init__`` / ``_schedule`` calls)
    and the name is computed lazily in :attr:`name` — timeouts are by far
    the most frequently created kernel object.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = PRIORITY_NORMAL):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        seq = env._seq + 1
        env._seq = seq
        heappush(env._queue, (env._now + delay, priority, seq, self))

    @property
    def name(self) -> str:  # pragma: no cover - debug aid
        return f"timeout({self._delay})"

    @property
    def delay(self) -> float:
        return self._delay


class Process(Event):
    """A running generator; also an event that fires when the generator exits.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, the generator is resumed with the event's value; when it fails,
    the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        self._generator = generator
        self._target: Optional[Event] = None
        #: Cached bound method: one allocation per process instead of one
        #: per wait (``callbacks.append(self._resume)`` otherwise rebinds).
        self._resume_cb = self._resume
        # Kick the process off via an already-succeeded initialisation event.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume_cb)
        env._schedule(init, priority=PRIORITY_URGENT)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (None if running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._value is not _PENDING:
            return
        self.env._schedule_interrupt(self, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled`.

        Used by the failure injector / scheduler to model killing a worker
        OS process.  A killed process's completion event *succeeds* with
        ``None`` (the death is expected, not an error of the simulation).
        """
        if self._value is not _PENDING:
            return
        self.env._schedule_interrupt(self, ProcessKilled())

    # -- internal machinery -------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        if self._value is not _PENDING:
            # The process already finished (e.g. it aborted itself and a
            # late interrupt arrives): nothing to resume.
            return
        target = self._target
        if target is not None:
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
            self._target = None
        env = self.env
        generator = self._generator
        env._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        next_target = generator.send(event._value)
                    else:
                        event._defused = True
                        next_target = generator.throw(event._value)
                except StopIteration as stop:
                    self._finish(ok=True, value=stop.value)
                    return
                except ProcessKilled:
                    generator.close()
                    self._finish(ok=True, value=None)
                    return
                except BaseException as exc:
                    self._finish(ok=False, value=exc)
                    return

                if not isinstance(next_target, Event):
                    exc = SimulationError(
                        f"process {self.name!r} yielded {next_target!r}, expected an Event")
                    generator.throw(exc)
                    raise exc
                callbacks = next_target.callbacks
                if callbacks is None:
                    # Already-processed events resume the generator in place.
                    event = next_target
                    continue
                callbacks.append(self._resume_cb)
                self._target = next_target
                return
        finally:
            env._active_process = None

    def _detach_from_target(self) -> None:
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None

    def _finish(self, ok: bool, value: Any) -> None:
        self._detach_from_target()
        if ok:
            self.succeed(value)
        else:
            self._ok = False
            self._value = value
            self.env._schedule(self)


class Environment:
    """The simulation environment: clock plus ordered event queue."""

    __slots__ = ("_now", "_queue", "_seq", "_active_process", "_timeout_pool",
                 "_processed", "_credited")

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Recycled Timeout instances (see ``timeout()`` / ``run()``).
        self._timeout_pool: list[Timeout] = []
        self._processed = 0
        #: Logical events the fast path elided (see ``credit_events``).
        self._credited = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        """Total logical events processed so far (throughput telemetry).

        This is real heap dispatches plus events *credited* by the
        macro-event fast path: when a chain of stream ops collapses into
        one timeout, or a batched rendezvous replaces per-bucket arrival
        events, the elided dispatches are credited so the counter stays
        comparable between fast-path-on and fast-path-off runs.
        """
        return self._processed + self._credited

    def credit_events(self, count: int) -> None:
        """Account for *count* logical events elided by the fast path.

        Kept separate from ``_processed`` because ``run()`` caches that
        counter in a local during its inlined dispatch loop; credits
        accumulated by callbacks would be clobbered on writeback.
        """
        self._credited += count

    # -- public factory helpers --------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay}")
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._value = value
            timeout._delay = delay
            seq = self._seq + 1
            self._seq = seq
            heappush(self._queue, (self._now + delay, PRIORITY_NORMAL, seq, timeout))
            return timeout
        return Timeout(self, delay, value=value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event firing at *absolute* sim time ``when`` (>= now).

        Used by macro-event coalescing: a chain of back-to-back ops must
        land its single wakeup on the exact float the per-op path reaches
        by accumulating ``now + d`` once per op — re-deriving it as
        ``now + (d1 + d2 + ...)`` rounds differently in the last ulp.
        """
        if when < self._now:
            raise SimulationError(
                f"timeout_at in the past: {when} < {self._now}")
        event = Event(self)
        event._value = value
        event._ok = True
        seq = self._seq + 1
        self._seq = seq
        heappush(self._queue, (when, PRIORITY_NORMAL, seq, event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.conditions import AnyOf

        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.conditions import AllOf

        return AllOf(self, list(events))

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, priority: int = PRIORITY_NORMAL,
                  delay: float = 0.0) -> None:
        seq = self._seq + 1
        self._seq = seq
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def _schedule_interrupt(self, process: Process, exc: BaseException) -> None:
        """Deliver *exc* to *process* as an urgent synthetic event."""
        carrier = Event(self)
        carrier._ok = False
        carrier._value = exc
        carrier._defused = True
        # Detach the process from whatever it currently waits on so the
        # original event no longer resumes it.
        process._detach_from_target()
        carrier.callbacks.append(process._resume_cb)
        self._schedule(carrier, priority=PRIORITY_URGENT)

    # -- execution ----------------------------------------------------------
    #
    # Timeout recycling: after a timeout's callbacks have run, if nothing
    # else references it (the dispatch loop's local plus ``getrefcount``'s
    # own argument are the only two references) it is returned to the free
    # list for ``timeout()`` to reuse.  A timeout that a condition, process
    # or user variable still holds keeps a higher refcount and is simply
    # left for the garbage collector.

    def step(self) -> None:
        """Process the next event in the queue."""
        if not self._queue:
            raise SimulationError("step() on an empty queue")
        time, _priority, _seq, event = heappop(self._queue)
        if time < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = time
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        self._processed += 1
        if event._ok:
            if (type(event) is Timeout and _getrefcount(event) == 2
                    and len(self._timeout_pool) < _TIMEOUT_POOL_LIMIT):
                event._value = None
                self._timeout_pool.append(event)
        elif not event._defused:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        Returns the value of *until* when it is an event, otherwise ``None``.
        """
        if isinstance(until, Event):
            stop_event = until
            # Same inlined dispatch body as the deadline loop below — this
            # is the path every training/campaign driver runs.
            queue = self._queue
            pool = self._timeout_pool
            processed = self._processed
            try:
                while stop_event._value is _PENDING:
                    if not queue:
                        raise SimulationError(
                            f"deadlock: queue empty but {stop_event!r} never triggered")
                    time, _priority, _seq, event = heappop(queue)
                    self._now = time
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    processed += 1
                    if event._ok:
                        if (type(event) is Timeout and _getrefcount(event) == 2
                                and len(pool) < _TIMEOUT_POOL_LIMIT):
                            event._value = None
                            pool.append(event)
                    elif not event._defused:
                        raise event._value
            finally:
                self._processed = processed
            # Drain the trigger through its callbacks so value access is safe.
            while not stop_event.processed and self._queue:
                next_time = self._queue[0][0]
                if next_time > self._now:
                    break
                self.step()
            if not stop_event._ok and not stop_event._defused:
                raise stop_event._value
            return stop_event._value
        deadline = float("inf") if until is None else float(until)
        # Inlined dispatch loop: identical semantics to step() minus the
        # impossible scheduled-in-the-past check (_schedule never rewinds).
        queue = self._queue
        pool = self._timeout_pool
        processed = self._processed
        try:
            while queue and queue[0][0] <= deadline:
                time, _priority, _seq, event = heappop(queue)
                self._now = time
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                processed += 1
                if event._ok:
                    if (type(event) is Timeout and _getrefcount(event) == 2
                            and len(pool) < _TIMEOUT_POOL_LIMIT):
                        event._value = None
                        pool.append(event)
                elif not event._defused:
                    raise event._value
        finally:
            self._processed = processed
        if until is not None:
            self._now = max(self._now, deadline)
        return None

    def peek(self) -> float:
        """Time of the next scheduled event (inf when the queue is empty)."""
        return self._queue[0][0] if self._queue else float("inf")
