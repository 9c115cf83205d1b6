"""Shared-resource primitives for the simulation kernel.

Four families, mirroring what the NFS stack needs:

* :class:`Resource` — capacity-limited resources held for as long as the holder likes (a vnode lock).  ``request()``
  returns an event that fires when a slot is granted; release with
  ``release()`` or use the request as a context manager inside a process.
* :class:`HoldQueue` — one slot held for a duration known up front (a CPU
  charge, one frame on the wire), with its own busy clock.
  ``hold(seconds)`` returns a :class:`Hold` that fires when the hold
  *ends*, so a holder wakes once per hold; ``release()`` starts the next
  queued hold at that same instant.
* :class:`Store` — a FIFO queue of Python objects (a socket buffer, a work
  queue).  Optionally bounded; ``put`` on a full bounded store waits.
* :class:`Container` — a continuous level (bytes of NVRAM in use).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, List, Optional

from repro.sim.core import _NORMAL_BIAS, _PENDING, Environment, Event
from repro.sim.errors import SimError

__all__ = [
    "Resource",
    "Request",
    "Hold",
    "HoldQueue",
    "Store",
    "Container",
]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager from within a process::

        with resource.request() as req:
            yield req
            ... hold the resource ...

    A grant carries no value: succeeding with the request itself would
    make every claim a reference cycle, left for the cycle collector.
    """

    __slots__ = ("resource", "_granted")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self._granted = False

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot if granted, or withdraw from the wait queue."""
        self.resource.release(self)


class Resource:
    """A capacity-limited resource with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {len(self.users)}/{self.capacity} used, "
            f"{len(self.queue)} queued>"
        )

    @property
    def count(self) -> int:
        """Number of slots currently granted."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot.  The returned event fires when the slot is granted.

        An uncontended request (nobody queued, free capacity) is granted
        *synchronously*: the returned event is already processed and a
        yielding process resumes inline without a scheduler round.
        """
        request = Request(self)
        if not self.queue and len(self.users) < self.capacity:
            request._granted = True
            self.users.append(request)
            request._finish_now()
        else:
            self.queue.append(request)
            self._grant()
        return request

    def release(self, request: Request) -> None:
        """Return a granted slot (or withdraw an ungranted request)."""
        if request._granted:
            self.users.remove(request)
            request._granted = False
            self._grant()
        else:
            try:
                self.queue.remove(request)
            except ValueError:
                pass

    def _grant(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.popleft()
            request._granted = True
            self.users.append(request)
            request.succeed()


class Hold(Event):
    """A claim on a :class:`HoldQueue`'s slot for ``seconds``.

    The event fires when the hold ends.  ``started`` is the instant the
    slot was taken, or None while the claim is still queued.
    """

    __slots__ = ("seconds", "started")

    def __init__(self, env: Environment, seconds: float) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.seconds = seconds
        self.started: Optional[float] = None


class HoldQueue:
    """One slot, held for a duration known up front, and its busy clock.

    ``hold(seconds)`` stands for ``request()``, a grant, then a
    ``timeout(seconds)``, with one wake instead of two: a free slot starts
    the hold at once, and a queued claim starts the instant ``release()``
    frees the slot (FIFO).  Its completion takes the heap sequence number
    the grant event would have taken, so every other event keeps its
    order; only the completion itself now sorts ahead of events scheduled
    later in the instant it started.

    The queue is its own busy meter: each hold adds its length to
    ``busy_time`` when it is released, and ``utilization()`` and
    ``reset()`` read and restart it as a
    :class:`~repro.sim.monitor.UtilizationMeter` would.
    """

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        #: True while a hold has the slot.
        self.busy = False
        self.queue: Deque[Hold] = deque()
        #: Since when the current hold has counted as busy: its start, or
        #: the last :meth:`reset` if that came later.
        self._since = 0.0
        self._busy_time = 0.0
        self._start = env.now

    def hold(self, seconds: float) -> Hold:
        """Claim the slot for ``seconds``; the returned event fires when
        the hold ends.  The holder must then call :meth:`release`."""
        if seconds < 0:
            raise SimError(f"negative hold: {seconds!r}")
        env = self.env
        claim = Hold(env, seconds)
        if self.busy:
            self.queue.append(claim)
            return claim
        self.busy = True
        claim.started = self._since = now = env.now
        claim._ok = True
        claim._value = None
        env._eid += 1
        heappush(env._queue, (now + seconds, _NORMAL_BIAS + env._eid, claim))
        return claim

    def release(self) -> None:
        """End the current hold: the next queued claim starts now, or the
        slot frees."""
        env = self.env
        now = env.now
        self._busy_time += now - self._since
        queue = self.queue
        if not queue:
            self.busy = False
            return
        claim = queue.popleft()
        claim.started = self._since = now
        claim._ok = True
        claim._value = None
        env._eid += 1
        heappush(env._queue, (now + claim.seconds, _NORMAL_BIAS + env._eid, claim))

    def abandon(self, claim: Hold) -> None:
        """Give up ``claim`` (its holder was interrupted): dequeue it if it
        is still waiting, else release the slot."""
        if claim.started is None:
            self.queue.remove(claim)
        else:
            self.release()

    @property
    def busy_time(self) -> float:
        """Seconds the slot has been held since creation or last reset."""
        if self.busy:
            return self._busy_time + (self.env.now - self._since)
        return self._busy_time

    def utilization(self) -> float:
        """Busy fraction in [0, 1] since creation or last reset."""
        elapsed = self.env.now - self._start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def reset(self) -> None:
        """Restart the busy clock now; a hold in progress counts on from
        here."""
        self._busy_time = 0.0
        self._start = now = self.env.now
        if self.busy:
            self._since = now


class Store:
    """A FIFO object queue with blocking ``get`` and optional capacity.

    ``items`` is inspectable: the mbuf hunter of §6.5 scans the socket
    buffer's pending datagrams.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimError(f"store capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()

    def put(self, item: Any) -> Event:
        """Add ``item``; the returned event fires once it has been accepted.

        When the store has room the returned event is already processed
        (synchronous accept) — a yielding process continues inline.
        """
        event = Event(self.env)
        if len(self.items) < self.capacity:
            self.items.append(item)
            event._finish_now()
            self._dispatch()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Remove the oldest item; the returned event fires with the item.

        When an item is immediately available (and no earlier getter is
        queued) the returned event is already processed — a yielding
        process continues inline without a scheduler round.
        """
        if self.items and not self._getters:
            event = Event(self.env)
            event._finish_now(self.items.popleft())
            self._admit_putters()
            return event
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            event, item = self._putters.popleft()
            self.items.append(item)
            event.succeed()

    def _dispatch(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self.items.popleft())
        self._admit_putters()


class Container:
    """A continuous quantity with blocking ``get`` (and non-blocking put).

    Used for byte-counted capacities such as the NVRAM cache fill level.
    """

    def __init__(
        self, env: Environment, capacity: float = float("inf"), init: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise SimError(f"container capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise SimError(f"init level {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[tuple] = deque()
        self._putters: Deque[tuple] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; fires once it fits under ``capacity``.

        When it fits immediately (and no earlier putter is queued) the
        returned event is already processed — synchronous accept.
        """
        if amount <= 0:
            raise SimError(f"put amount must be positive, got {amount}")
        event = Event(self.env)
        if not self._putters and self._level + amount <= self.capacity:
            self._level += amount
            event._finish_now()
            self._dispatch()
            return event
        self._putters.append((event, amount))
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; fires once that much is available.

        When the level suffices immediately (and no earlier getter is
        queued) the returned event is already processed — synchronous grant.
        """
        if amount <= 0:
            raise SimError(f"get amount must be positive, got {amount}")
        event = Event(self.env)
        if not self._getters and self._level >= amount:
            self._level -= amount
            event._finish_now()
            self._dispatch()
            return event
        self._getters.append((event, amount))
        self._dispatch()
        return event

    def try_get(self, amount: float) -> bool:
        """Immediately remove ``amount`` if available; else return False."""
        if amount <= 0:
            raise SimError(f"get amount must be positive, got {amount}")
        if self._getters or self._level < amount:
            return False
        self._level -= amount
        self._dispatch()
        return True

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed()
                    progressed = True
            if self._getters:
                event, amount = self._getters[0]
                if self._level >= amount:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed()
                    progressed = True
