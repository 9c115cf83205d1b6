"""Server CPU accounting.

Every piece of server work — RPC decode, per-frame reassembly, UFS trips,
driver trips, reply generation — holds the one CPU for its cost through a
:class:`~repro.sim.HoldQueue`: work queues FIFO for the CPU, and the next
charge starts the instant the previous one ends.  The queue's busy clock
produces the "server cpu util. (%)" row of the paper's tables, and CPU
contention naturally degrades service when the server saturates.
"""

from __future__ import annotations

from typing import Generator

from repro.sim import Environment, HoldQueue

__all__ = ["Cpu"]


class Cpu:
    """The one CPU shared by all server work, as everywhere in the paper."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: The CPU's hold queue, which is also its busy meter.
        self.meter = HoldQueue(env, "cpu")

    def consume(self, seconds: float) -> Generator:
        """Hold the CPU for ``seconds`` of work."""
        if seconds <= 0:
            return
        core = self.meter
        claim = core.hold(seconds)
        try:
            yield claim
        except BaseException:
            core.abandon(claim)
            raise
        core.release()

    def utilization(self) -> float:
        """Busy fraction in [0, 1]."""
        return self.meter.utilization()

    def reset(self) -> None:
        self.meter.reset()
