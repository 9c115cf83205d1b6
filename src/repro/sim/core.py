"""A small, deterministic, generator-based discrete-event simulation kernel.

This is the substrate every other subsystem in :mod:`repro` runs on.  It is
deliberately modeled on the well-known process/event style (processes are
Python generators that ``yield`` events), but implemented from scratch so the
repository has no simulation dependencies and so we can guarantee
deterministic event ordering: events scheduled for the same instant are
processed in (priority, insertion order).

Typical usage::

    env = Environment()

    def worker(env):
        yield env.timeout(3.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 3.0 and proc.value == "done"

Design notes
------------
* :class:`Event` is the primitive.  An event is *triggered* when it has a
  value (or an exception) and has been put on the queue; it is *processed*
  once its callbacks have run.
* :class:`Process` is itself an event that succeeds with the generator's
  return value, so processes can wait on each other.
* Failures propagate: if a process yields an event that fails, the exception
  is thrown into the generator at the yield point.  An unhandled failure with
  no waiter stops the simulation (errors never pass silently).

Hot-path layout
---------------
The kernel is the simulator's inner loop (one bench cell pops tens of
thousands of events), so the representation is tuned:

* every event class carries ``__slots__`` — no per-event ``__dict__``;
* heap entries are ``(time, seq, event)`` 3-tuples where ``seq`` folds the
  scheduling priority into the high bits of the insertion counter, so
  same-instant ordering needs one integer compare instead of two;
* :meth:`Environment.deadline` ("succeed this event at ``now + delay``
  unless it triggered first") is lazy.  It reserves the ``seq`` a
  :class:`Timeout` would have taken, so ``_eid`` advances exactly as if
  the timer were scheduled and counts reserved seqs as well as queued
  events.  Deadlines wait in a side heap, and only the earliest one is
  armed on the kernel heap; a retransmit timer that loses to its reply is
  never scheduled.  When the side heap empties, the latest deadline ever
  set is armed as a no-op if it lies ahead, so a draining :meth:`run`
  ends at the same time as if every timer had been queued;
* resources and stores may hand back *synchronously processed* events
  (``callbacks is None`` before ever touching the queue) for uncontended
  grants; :meth:`Process._resume` consumes those without a scheduler round;
* a kernel callback may hand a waiter its value in the caller's frame
  with :meth:`Event.succeed_now` (a datagram landing in a socket buffer
  that an nfsd is parked on, a reply reaching its RPC caller), so that
  hop costs no wake either.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.sim.errors import Interrupt, SimError, StopSimulation

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]

#: Scheduling priority for kernel-internal wakeups (resource handoffs).
PRIORITY_URGENT = 0
#: Default scheduling priority for user events.
PRIORITY_NORMAL = 1

#: Priorities are folded into the high bits of the heap sequence number:
#: ``seq = (priority << _PRIORITY_SHIFT) + insertion_id``.  52 bits of
#: insertion ids is far beyond any run length we will ever see.
_PRIORITY_SHIFT = 52
_NORMAL_BIAS = PRIORITY_NORMAL << _PRIORITY_SHIFT

_PENDING = object()


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, which schedules it on the environment queue.  Once the
    environment pops it and runs its callbacks it is *processed*.

    Resources and stores can also hand out events that are *processed at
    birth* (granted synchronously, never queued): those have
    ``callbacks is None`` and a value already in place, and a yielding
    process continues immediately.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set by a waiter that handled this event's failure, suppressing
        #: the "unhandled failure" crash.
        self.defused = False

    def __repr__(self) -> str:
        status = "pending"
        if self.triggered:
            status = "ok" if self._ok else "failed"
        if self.processed:
            status += ",processed"
        return f"<{type(self).__name__} {status} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) on the queue."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heapq.heappush(env._queue, (env._now, _NORMAL_BIAS + env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will see the exception raised at their ``yield``.
        """
        if self._value is not _PENDING:
            raise SimError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        heapq.heappush(env._queue, (env._now, _NORMAL_BIAS + env._eid, self))
        return self

    def succeed_now(self, value: Any = None) -> "Event":
        """Trigger the event with ``value`` and run its callbacks before
        returning, in the caller's frame: a waiting process resumes now,
        without a wake through the queue, and no seq is taken.

        For kernel callbacks only (a delivery timer handing a datagram to
        a parked reader, or a reply to its RPC caller).  Never call it
        from inside a process that may be waiting on the event: that
        process has not yet attached its resume callback, so it would be
        skipped.
        """
        if self._value is not _PENDING:
            raise SimError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)
        return self

    def _finish_now(self, value: Any = None) -> "Event":
        """Mark succeeded *and processed* without ever touching the queue.

        Used by resources/stores for uncontended synchronous grants.  A
        process yielding such an event resumes inline (no scheduler round);
        nothing may append callbacks to it afterwards.
        """
        self._ok = True
        self._value = value
        self.callbacks = None
        return self


class Timeout(Event):
    """An event that fires automatically after ``delay`` units of time."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimError(f"negative timeout delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self.defused = False
        self._delay = delay
        env._eid += 1
        heapq.heappush(env._queue, (env._now + delay, _NORMAL_BIAS + env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at {id(self):#x}>"


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self._ok = True
        self._value = None
        self.defused = False
        self.callbacks = [process._resume]
        env._eid += 1
        heapq.heappush(env._queue, (env._now, env._eid, self))


class _Expiry(Event):
    """One :meth:`Environment.deadline`: succeed ``target`` with ``result``
    at its reserved place unless ``target`` has triggered by then.

    It is *triggered* once armed on the kernel heap, so ``triggered``
    tells whether it ever was.
    """

    __slots__ = ("target", "result")

    def __init__(self, env: "Environment", target: Event, result: Any) -> None:
        self.env = env
        self.callbacks = None  # set when armed
        self._ok = True
        self._value = _PENDING
        self.defused = False
        self.target = target
        self.result = result


class Process(Event):
    """A process is a running generator; it is also an event.

    The process event succeeds with the generator's return value, or fails
    with any exception the generator does not handle.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "throw"):
            raise SimError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if running
        #: or finished).  Inspected by interrupt() and by resources.
        self._target: Optional[Event] = None
        env._live[self] = None
        Initialize(env, self)

    def __repr__(self) -> str:
        return f"<Process {self.name} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on, if any."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is an error; interrupting a process
        that is about to be resumed anyway is allowed (the interrupt wins,
        and the yielded event's eventual value is discarded).  Once
        interrupted, the process waits on nothing until the interrupt
        resumes it, so a second interrupt in that window is an error too.
        If its event was already running callbacks, the process may resume
        from it first: the interrupt then lands at its next yield, or is
        dropped if it has finished.
        """
        if self.triggered:
            raise SimError(f"{self!r} has terminated and cannot be interrupted")
        if self._target is None:
            raise SimError(f"{self!r} is not waiting; cannot interrupt now")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        # Detach from the old target so its trigger no longer resumes us.
        target = self._target
        self._target = None
        if not target.processed and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        interrupt_event.callbacks = [self._interrupted]
        self.env._schedule(interrupt_event, PRIORITY_URGENT, 0.0)

    # -- kernel internals ------------------------------------------------

    def _interrupted(self, event: Event) -> None:
        """Deliver an interrupt at the process's current yield."""
        if self.triggered:
            return
        target = self._target
        if target is not None:
            target.callbacks.remove(self._resume)
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        self._target = None
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event.defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                del env._live[self]
                self._ok = True
                self._value = exc.value
                env._eid += 1
                heapq.heappush(env._queue, (env._now, _NORMAL_BIAS + env._eid, self))
                break
            except BaseException as exc:
                del env._live[self]
                self._ok = False
                self._value = exc
                env._eid += 1
                heapq.heappush(env._queue, (env._now, _NORMAL_BIAS + env._eid, self))
                break

            try:
                callbacks = next_event.callbacks
            except AttributeError:
                event = Event(env)
                event._ok = False
                event._value = SimError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                continue
            if callbacks is None:
                # Already processed (or a synchronous grant): feed its value
                # straight back in without a scheduler round.
                event = next_event
                continue
            callbacks.append(self._resume)
            self._target = next_event
            break


class Condition(Event):
    """Waits for a set of events according to ``evaluate``.

    Succeeds with a dict mapping each *triggered-so-far* event to its value
    once ``evaluate(events, done_count)`` returns True.  Fails immediately if
    any constituent event fails.
    """

    __slots__ = ("_evaluate", "_events", "_done")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[Tuple[Event, ...], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = tuple(events)
        self._done = 0
        for event in self._events:
            if event.env is not env:
                raise SimError("cannot mix events from different environments")
        if self._evaluate(self._events, self._done) and not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        return {e: e._value for e in self._events if e.processed and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                # A sibling failed after we already fired; don't crash the sim.
                event.defused = True
            return
        self._done += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._done):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Condition satisfied when *all* constituent events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        events = tuple(events)
        super().__init__(env, lambda evs, done: done == len(evs), events)


class AnyOf(Condition):
    """Condition satisfied when *any* constituent event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        events = tuple(events)
        if not events:
            raise SimError("AnyOf requires at least one event")
        super().__init__(env, lambda evs, done: done >= 1, events)


class Environment:
    """The simulation clock and event queue.

    Time is a float in *seconds* throughout :mod:`repro` (network latencies
    of milliseconds are expressed as e.g. ``0.008``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Heap of ``(time, seq, event)``; ``seq`` has the priority folded
        #: into its high bits (see ``_PRIORITY_SHIFT``).
        self._queue: List[Tuple[float, int, Event]] = []
        #: Side heap of ``(time, seq, expiry)`` for every deadline not yet
        #: known to be over; its top is always armed on ``_queue``.
        self._deadlines: List[Tuple[float, int, _Expiry]] = []
        #: The deadline entry with the latest time ever set (drain rule).
        self._last_deadline: Optional[Tuple[float, int, _Expiry]] = None
        #: Last seq handed out, reserved deadline seqs included.
        self._eid = 0
        #: Every process whose generator has not exited, in creation order.
        self._live: Dict[Process, None] = {}
        self._closed = False

    # -- introspection ----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    def deadline(self, delay: float, event: Event, value: Any = None) -> None:
        """Succeed ``event`` with ``value`` after ``delay`` seconds, unless
        it has triggered by then.

        Same outcome and order as a :class:`Timeout` whose callback does
        that, but lazy: only the earliest deadline is armed on the heap,
        so one whose event triggers first usually never gets there.
        """
        if delay < 0:
            raise SimError(f"negative deadline delay: {delay!r}")
        self._eid += 1
        entry = (self._now + delay, _NORMAL_BIAS + self._eid, _Expiry(self, event, value))
        deadlines = self._deadlines
        heapq.heappush(deadlines, entry)
        if deadlines[0] is entry:
            self._arm(entry)
        last = self._last_deadline
        if last is None or entry[0] > last[0]:
            self._last_deadline = entry

    # -- scheduling / execution --------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        self._eid += 1
        heapq.heappush(
            self._queue,
            (self._now + delay, (priority << _PRIORITY_SHIFT) + self._eid, event),
        )

    def _arm(self, entry: Tuple[float, int, _Expiry]) -> None:
        expiry = entry[2]
        expiry._value = None
        expiry.callbacks = [self._expire]
        heapq.heappush(self._queue, entry)

    def _expire(self, expiry: _Expiry) -> None:
        """An armed deadline's place: fire it if its event is still
        pending, then arm the earliest deadline that is not over."""
        target = expiry.target
        if target._value is _PENDING:
            target.succeed(expiry.result)
        deadlines = self._deadlines
        while deadlines and deadlines[0][2].target._value is not _PENDING:
            heapq.heappop(deadlines)
        if deadlines:
            entry = deadlines[0]
        else:
            # Drain rule: a drain ends at the latest deadline ever set,
            # as if every deadline had been a queued timer.
            entry = self._last_deadline
            if entry[0] <= self._now:
                return
        if entry[2]._value is _PENDING:
            self._arm(entry)

    def step(self) -> None:
        """Process the single next event.  Raises SimError on an empty queue."""
        if not self._queue:
            raise SimError("step() on an empty event queue")
        when, _seq, event = heapq.heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # Nobody handled this failure; surface it rather than continue
            # silently with a broken simulation.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue empties), a number
        (run until that time), or an :class:`Event` (run until it fires and
        return its value).  A closed environment returns None at once.
        """
        if self._closed:
            return None
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event._value
            stop_event.callbacks.append(self._stop_on)
        else:
            at = float(until)
            if at < self._now:
                raise SimError(f"run(until={at}) is in the past (now={self._now})")
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks.append(self._stop_on)
            self._schedule(stop_event, PRIORITY_URGENT, at - self._now)

        # Inlined step() loop: this is the simulator's innermost loop, so
        # avoid the per-event method call and re-resolution of globals.
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                when, _seq, event = pop(queue)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        if stop_event is not None and not stop_event.processed:
            raise SimError("run() ended before the `until` event fired")
        return None

    def close(self) -> None:
        """End the simulation for good, so its system can die by refcount.

        Every suspended process is closed (its generator gets
        ``GeneratorExit``, so ``finally`` blocks run once); a process
        started by such a block is closed too.  Then the queue and the
        deadlines are emptied and the environment's metrics registry and
        span collector are dropped.  Idempotent; a later :meth:`run`
        returns at once.
        """
        self._closed = True
        live = self._live
        while live:
            process = next(iter(live))
            del live[process]
            process._target = None
            process._generator.close()
        self._queue.clear()
        self._deadlines.clear()
        self._last_deadline = None
        self.__dict__.pop("_obs_registry", None)
        self.__dict__.pop("_obs_collector", None)

    @staticmethod
    def _stop_on(event: Event) -> None:
        if not event._ok:
            event.defused = True
            raise event._value
        raise StopSimulation(event._value)
