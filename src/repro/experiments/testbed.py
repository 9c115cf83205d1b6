"""Testbed assembly: wire a network, disks, NVRAM, server, and clients.

One :class:`TestbedConfig` describes a whole hardware configuration from
the paper's Results section (network technology, spindle count, Presto
on/off, nfsd count, write path) and :func:`build_testbed` stands it up
inside a fresh simulation environment.  The server stack itself comes from
:func:`repro.stack.build_stack`, the same builder every cluster shard uses.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional

from repro.net.segment import Segment
from repro.nfs.client import NfsClient
from repro.obs import RecordingCollector, install
from repro.rpc.client import RpcClient
from repro.sim import Environment
from repro.stack import StackConfig, build_stack, close_system, make_client

__all__ = ["TestbedConfig", "Testbed", "build_testbed"]


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


class Testbed:
    """A wired-up simulation: environment, network, server, clients."""

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self.env = Environment()
        #: Span collector; a shared no-op unless ``config.tracing``.  Must be
        #: installed before any component is built — they cache it.
        self.collector = RecordingCollector() if config.tracing else None
        if self.collector is not None:
            install(self.env, self.collector)
        self.segment = Segment(
            self.env,
            config.netspec,
            loss_rate=config.loss_rate,
            seed=config.seed if config.net_seed is None else config.net_seed,
        )
        stack = build_stack(
            self.env,
            self.segment,
            "server",
            config.disk_spec,
            config.stripes,
            config.presto_bytes,
            config.server_config(
                socket_buffer_bytes=config.sockbuf_bytes,
                admission_max_requests=config.admission_max_requests,
                shed_policy=config.shed_policy,
            ),
        )
        self.server = stack.server
        self.disks = stack.disks
        self.storage = stack.storage
        self.clients: List[NfsClient] = []
        # Dropping the testbed ends the system (see close_system); a
        # testbed still alive at interpreter exit is left alone.
        weakref.finalize(
            self, close_system, self.env, [self.segment], [self.server], self.clients
        ).atexit = False

    def add_client(
        self,
        nbiods: Optional[int] = None,
        host: Optional[str] = None,
        policy=None,
        write_window=None,
    ) -> NfsClient:
        """Attach one more client host.

        Host names are auto-generated (``client-0``, ``client-1``, ...)
        skipping any name already attached to the segment, so repeated
        calls — and calls mixed with explicit ``host=`` names — never
        collide.  ``policy`` overrides the RPC retransmission policy (e.g.
        an overload :class:`~repro.overload.rto.AdaptiveRetryPolicy`);
        ``write_window`` installs an AIMD
        :class:`~repro.overload.window.WriteWindow` on the biod pool.
        """
        endpoint = self.segment.attach(host or self.segment.unique_host("client"))
        rpc = RpcClient(self.env, endpoint, self.server.host, policy=policy)
        client = make_client(
            self.env, rpc, self.config, nbiods=nbiods, write_window=write_window
        )
        self.clients.append(client)
        return client

    # -- measured quantities ------------------------------------------------------

    def disk_stats_totals(self) -> tuple:
        """(bytes, transactions) across all spindles."""
        total_bytes = sum(d.stats.bytes.value for d in self.disks)
        total_transactions = sum(d.stats.transactions.value for d in self.disks)
        return total_bytes, total_transactions


def build_testbed(config: TestbedConfig, clients: int = 1) -> Testbed:
    """Stand up a testbed with ``clients`` attached client hosts."""
    testbed = Testbed(config)
    for _ in range(clients):
        testbed.add_client()
    return testbed
