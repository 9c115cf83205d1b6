"""Per-device and aggregate I/O statistics.

These counters produce exactly the "server disk (KB/sec)" and "server disk
(trans/sec)" rows of the paper's tables.
"""

from __future__ import annotations

from repro.sim import Counter, Environment, UtilizationMeter

__all__ = ["IoStats"]


class IoStats:
    """Counts transactions and bytes moved by a storage device."""

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        self.transactions = Counter(env, f"{name}.transactions")
        self.bytes = Counter(env, f"{name}.bytes")
        self.reads = Counter(env, f"{name}.reads")
        self.writes = Counter(env, f"{name}.writes")
        self.busy = UtilizationMeter(env, f"{name}.busy")
        self.by_kind: dict[str, float] = {}

    def record(self, nbytes: float, is_write: bool, kind: str) -> None:
        """Account one completed transaction."""
        self.transactions.add(1)
        self.bytes.add(nbytes)
        if is_write:
            self.writes.add(1)
        else:
            self.reads.add(1)
        self.by_kind[kind] = self.by_kind.get(kind, 0.0) + 1.0

    def reset(self) -> None:
        """Zero all counters; used between experiment warmup and measurement."""
        self.transactions.reset()
        self.bytes.reset()
        self.reads.reset()
        self.writes.reset()
        self.busy.reset()
        self.by_kind.clear()
