"""The paper's testbed: one server stack and the clients that mount it.

One :class:`TestbedConfig` describes a whole hardware configuration from
the paper's Results section (network technology, spindle count, Presto
on/off, nfsd count, write path).  A :class:`Testbed` is the one-shard,
one-rack, K=0 fleet that :class:`~repro.cluster.fleet.Fleet` builds from
it, named as the paper names it: host ``server``, spindles ``RZ26-k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.fleet import Fleet
from repro.server.config import ServerConfig
from repro.stack import StackConfig

__all__ = ["TestbedConfig", "Testbed"]


@dataclass
class TestbedConfig(StackConfig):
    """A full experiment configuration."""

    #: Server UDP socket buffer (bytes); None = the ServerConfig default
    #: (the paper's .25M DEC OSF/1 maximum).  The overload experiment
    #: shrinks this to model period-realistic receive buffers.
    sockbuf_bytes: Optional[int] = None
    #: Server admission control (repro.overload): cap on queued requests.
    #: None = no admission queue (shed only by silent byte overflow).
    admission_max_requests: Optional[int] = None
    #: Shed policy when the admission cap is hit: "drop-newest",
    #: "drop-oldest", or "early-reply".
    shed_policy: str = "drop-newest"

    def server_config(self, **extra) -> ServerConfig:
        return super().server_config(
            socket_buffer_bytes=self.sockbuf_bytes,
            admission_max_requests=self.admission_max_requests,
            shed_policy=self.shed_policy,
            **extra,
        )


class Testbed(Fleet):
    """A wired-up simulation: environment, network, server, clients."""

    def __init__(self, config: TestbedConfig) -> None:
        self._build(config)
        stack = self.stacks[0][0]
        self.segment = stack.segment
        self.server = stack.server
        #: The spindles, in stripe order.
        self.disks = stack.disks
        self.storage = stack.storage

    # -- measured quantities ------------------------------------------------------

    def disk_stats_totals(self) -> tuple:
        """(bytes, transactions) across all spindles."""
        total_bytes = sum(d.stats.bytes.value for d in self.disks)
        total_transactions = sum(d.stats.transactions.value for d in self.disks)
        return total_bytes, total_transactions
