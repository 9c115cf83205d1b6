"""Host-speed sampling: scale measured times to a nominal host.

The benchmark runs on shared machines whose speed drifts by up to 1.5x
over minutes, longer than one run lasts, so a per-run median cannot remove
the drift.  While an iteration runs, :class:`Sampler` interrupts it every
:data:`PERIOD_S` wall seconds (``SIGALRM``) and times one *slice* of a
frozen reference kernel.  The slices see the host as the iteration sees
it, at the same moments, so the iteration's time over the mean slice time
hardly moves with host load.  Times are reported as nominal-host seconds:
the iteration's time multiplied by :data:`NOMINAL_S` over its mean slice
time.  The time spent in slices is left out of every measured interval
(:meth:`Sampler.clock`).

The kernel is pure Python of the kind the simulator runs: a heap-driven
event loop resuming generator processes, small objects, dicts and sorts.
It imports nothing from ``repro``, so a change to the program under test
never changes it.  Its code is part of the benchmark definition: edit it
and earlier measurements no longer compare.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import List

#: Wall seconds between slices.
PERIOD_S = 0.1

#: Seconds one slice takes on the nominal host, about what it takes on an
#: idle 2-vCPU x86_64 VM under CPython 3.11.
NOMINAL_S = 0.005

_EVENTS = 1500
_RECORDS = 3000


class _Message:
    __slots__ = ("src", "dst", "size", "at")

    def __init__(self, src: int, dst: int, size: int, at: float) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.at = at


class _Record:
    def __init__(self, ino: int, offset: int, nbytes: int) -> None:
        self.ino = ino
        self.offset = offset
        self.nbytes = nbytes
        self.extra = {"key": offset}


def _event_loop(events: int) -> int:
    """64 generator processes post messages to 64 mailboxes off a heap."""
    queue: list = []
    boxes: dict = {}
    delivered: dict = {}
    now = 0.0

    def process(pid: int):
        x = pid * 7919 % 1000
        while True:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            message = _Message(pid, x % 64, 512 + (x & 8191), now)
            boxes.setdefault(message.dst, []).append(message)
            if len(boxes[message.dst]) > 32:
                box = boxes.pop(message.dst)
                delivered[message.dst] = delivered.get(message.dst, 0) + sum(m.size for m in box)
            yield (x & 1023) * 1e-6

    for pid in range(64):
        heapq.heappush(queue, (0.0, pid, process(pid)))
    for seq in range(64, 64 + events):
        now, _, proc = heapq.heappop(queue)
        heapq.heappush(queue, (now + next(proc), seq, proc))
    return sum(delivered.values())


def _table(records: int) -> int:
    """Build, group and sort a table of small dict-backed objects."""
    by_ino: dict = {}
    for i in range(records):
        record = _Record(i % 97, i * 8192, (i * 31) & 4095)
        by_ino.setdefault(record.ino, []).append(record)
    total = 0
    for rows in by_ino.values():
        rows.sort(key=lambda record: -record.nbytes)
        total += sum(record.extra["key"] for record in rows[:8])
    return total


def reference_slice() -> None:
    """One slice of the reference kernel (garbage collection held off, so
    the program's heap does not weigh on it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _event_loop(_EVENTS)
        _table(_RECORDS)
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times a reference slice every :data:`PERIOD_S` while installed."""

    def __init__(self) -> None:
        #: Wall seconds of every slice so far.
        self.samples: List[float] = []
        #: Wall seconds spent in slices (and their bookkeeping) so far.
        self.stolen_s = 0.0
        self._sampling = False
        self._previous = None

    def clock(self) -> float:
        """``time.perf_counter`` without the time spent in slices."""
        return time.perf_counter() - self.stolen_s

    def sample(self) -> None:
        if self._sampling:  # an alarm that lands inside a slice is dropped
            return
        self._sampling = True
        started = time.perf_counter()
        try:
            reference_slice()
            ended = time.perf_counter()
            self.samples.append(ended - started)
        finally:
            self._sampling = False
            self.stolen_s += time.perf_counter() - started

    def scale(self, first: int) -> float:
        """Nominal-host seconds per measured second, from the slices taken
        since ``samples[first]`` (one is taken now if there are none)."""
        if len(self.samples) == first:
            self.sample()
        return NOMINAL_S / statistics.fmean(self.samples[first:])

    def install(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
