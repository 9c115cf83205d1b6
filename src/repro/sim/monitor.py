"""Measurement helpers: tallies, counters, and time-weighted values.

These are used to extract exactly the quantities the paper's tables report:
client write speed (KB/s), server CPU utilization (%), disk KB/s and
transactions/s, and NFS operation latency.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.sim.core import Environment
from repro.sim.errors import SimError

__all__ = ["Tally", "Counter", "Ratio", "UtilizationMeter"]


class Tally:
    """Streaming statistics over observed samples (latencies, sizes).

    Keeps count, a running mean, min, max and total and, optionally, the
    raw samples so percentiles can be computed (``keep_samples=True``).
    """

    def __init__(self, name: str = "", keep_samples: bool = False) -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.total = 0.0
        self._samples: Optional[List[float]] = [] if keep_samples else None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        self._mean += (value - self._mean) / self.count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._samples is not None:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        """Mean of samples seen so far (0.0 when empty)."""
        return self._mean if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Sample percentile (nearest-rank).  Requires ``keep_samples``."""
        if self._samples is None:
            raise SimError("Tally was created without keep_samples=True")
        if not self._samples:
            raise SimError("no samples recorded")
        if not 0.0 <= fraction <= 1.0:
            raise SimError(f"fraction must be in [0, 1], got {fraction}")
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
        return ordered[rank]


class Counter:
    """A monotonically increasing event/byte counter with rate helpers."""

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        self.value = 0.0
        self._start = env.now

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise SimError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def reset(self) -> None:
        """Restart the counter and its rate window at the current time."""
        self.value = 0.0
        self._start = self.env.now

    def rate(self, until: Optional[float] = None) -> float:
        """Average rate (units/second) since creation or last reset."""
        end = self.env.now if until is None else until
        elapsed = end - self._start
        return self.value / elapsed if elapsed > 0 else 0.0


class Ratio:
    """A derived quotient over two counters, read at snapshot time.

    The canonical use is *RPCs per user-level operation*: numerator is the
    transport's completed-call counter, denominator the client's syscall
    counter.  Nothing is recorded here — the value is always computed from
    the two live counters, so a Ratio can be registered before, during, or
    after the counters move.
    """

    def __init__(self, name: str, numerator: Counter, denominator: Counter) -> None:
        self.name = name
        self.numerator = numerator
        self.denominator = denominator

    @property
    def value(self) -> float:
        """numerator / denominator, or 0.0 while the denominator is zero."""
        if not self.denominator.value:
            return 0.0
        return self.numerator.value / self.denominator.value


class UtilizationMeter:
    """Tracks what fraction of wall time a device is busy.

    Busy time is either bracketed by :meth:`begin` and :meth:`end` (a
    disk arm) or added outright with :meth:`add_busy` (a Prestoserve
    copy).  Overlapping intervals count once: the meter is busy while at
    least one is open.  A :class:`~repro.sim.HoldQueue` keeps its own
    busy clock instead.
    """

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        self._active = 0
        self._busy_since = 0.0
        self._busy_time = 0.0
        self._start = env.now

    def begin(self) -> None:
        """Mark the start of a busy interval."""
        active = self._active
        if active == 0:
            self._busy_since = self.env.now
        self._active = active + 1

    def end(self) -> None:
        """Mark the end of a busy interval."""
        active = self._active
        if active <= 0:
            raise SimError(f"UtilizationMeter {self.name!r}: end() without begin()")
        self._active = active - 1
        if active == 1:
            self._busy_time += self.env.now - self._busy_since

    def add_busy(self, seconds: float) -> None:
        """Directly account ``seconds`` of busy time (non-overlapping use)."""
        if seconds < 0:
            raise SimError(f"busy seconds must be >= 0, got {seconds}")
        self._busy_time += seconds

    @property
    def busy_time(self) -> float:
        extra = self.env.now - self._busy_since if self._active else 0.0
        return self._busy_time + extra

    def utilization(self, until: Optional[float] = None) -> float:
        """Busy fraction in [0, 1] since creation or last reset."""
        end = self.env.now if until is None else until
        elapsed = end - self._start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def reset(self) -> None:
        self._busy_time = 0.0
        self._start = self.env.now
        if self._active:
            self._busy_since = self.env.now
