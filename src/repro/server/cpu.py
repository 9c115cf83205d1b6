"""Server CPU accounting.

Every piece of server work — RPC decode, per-frame reassembly, UFS trips,
driver trips, reply generation — holds a core for its cost through a
:class:`~repro.sim.HoldQueue`: work queues FIFO for a free core, and the
next charge starts the instant the previous one ends.  The meter behind it
produces the "server cpu util. (%)" row of the paper's tables, and CPU
contention naturally degrades service when the server saturates.
"""

from __future__ import annotations

from typing import Generator

from repro.sim import Environment, HoldQueue, UtilizationMeter

__all__ = ["Cpu"]


class Cpu:
    """A (possibly multi-core) CPU shared by all server work; one core by
    default, as everywhere in the paper."""

    def __init__(self, env: Environment, cores: int = 1) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self.env = env
        self.cores = cores
        self.meter = UtilizationMeter(env, "cpu")
        self._slots = HoldQueue(env, cores, self.meter)

    def consume(self, seconds: float) -> Generator:
        """Hold one core for ``seconds`` of work."""
        if seconds <= 0:
            return
        slots = self._slots
        claim = slots.hold(seconds)
        try:
            yield claim
        except BaseException:
            slots.abandon(claim)
            raise
        slots.release()

    def utilization(self) -> float:
        """Busy fraction in [0, 1]; for multi-core, mean busy cores / cores."""
        if self.cores == 1:
            return self.meter.utilization()
        return min(1.0, self.meter.mean_concurrency() / self.cores)

    def reset(self) -> None:
        self.meter.reset()
