"""One server stack, and the clients that mount it.

The paper's testbed is one DEC server stack — RZ26 spindles, optional
striping, an optional Prestoserve NVRAM board, an nfsd pool — and a fleet
is N copies of it.  :class:`~repro.cluster.fleet.Fleet`, the one system
builder, assembles both from the parts here:

* :class:`StackConfig` holds the fields every stack and its clients share;
  :class:`~repro.experiments.testbed.TestbedConfig` and
  :class:`~repro.cluster.fleet.ClusterConfig` extend it.
* :func:`build_stack` builds spindles → :class:`StripeSet` →
  :class:`PrestoCache` → :class:`NfsServer` and returns the
  :class:`ServerStack` (the testbed's one server, or one cluster member).
* :func:`make_client` builds the :class:`NfsClient` a config asks for, over
  whatever RPC transport the caller attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.core.policy import GatherPolicy
from repro.disk.device import DiskDevice, Storage
from repro.disk.model import RZ26, DiskSpec
from repro.disk.stripe import StripeSet
from repro.net.segment import Segment
from repro.net.spec import ETHERNET, NetSpec
from repro.nfs.client import NfsClient
from repro.nvram.presto import PrestoCache
from repro.server.base import NfsServer
from repro.server.config import ServerConfig, WritePath
from repro.sim import Environment

__all__ = ["StackConfig", "ServerStack", "build_stack", "make_client"]


@dataclass
class StackConfig:
    """The hardware, server and client fields shared by every stack."""

    netspec: NetSpec = ETHERNET
    write_path: WritePath = WritePath.STANDARD
    nbiods: int = 4
    #: NVRAM accelerator: None = off, else capacity in bytes.
    presto_bytes: Optional[int] = None
    #: Spindles per server.
    stripes: int = 1
    disk_spec: DiskSpec = RZ26
    nfsds: int = 8
    cpu_scale: float = 1.0
    verify_stable: bool = True
    gather_policy: GatherPolicy = field(default_factory=GatherPolicy)
    client_write_cpu: float = 0.0003
    seed: int = 0
    #: Per-frame network loss probability (0 = lossless wire).
    loss_rate: float = 0.0
    #: Seed for the segment's RNG (loss/duplication/reorder draws); None
    #: falls back to ``seed`` so existing configs are unchanged.
    net_seed: Optional[int] = None
    #: When True, a :class:`~repro.obs.RecordingCollector` is installed so
    #: every layer emits lifecycle spans (off by default: zero cost).
    tracing: bool = False
    #: Lease TTL in seconds (repro.lease): every server runs a lease layer
    #: (cluster backups too, so a promoted backup can keep granting) and
    #: every client gets a :class:`~repro.nfs.cache.CacheStack`.
    #: None = no leases, no client caching — the pre-lease behaviour.
    lease_ttl: Optional[float] = None
    #: Memory-pressure ceiling for the async_commit path (repro.commit);
    #: None = the ServerConfig default (512 KB).
    unstable_limit_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        self.write_path = WritePath.coerce(self.write_path)
        if self.nbiods < 0:
            raise ValueError(f"nbiods must be >= 0, got {self.nbiods}")
        if self.stripes < 1:
            raise ValueError(f"need at least one stripe, got {self.stripes}")
        if self.nfsds < 1:
            raise ValueError(f"need at least one nfsd, got {self.nfsds}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {self.loss_rate}")

    def variant(self, **changes):
        """A copy with some fields replaced (sweeps build on this)."""
        return replace(self, **changes)

    def server_config(self, **extra) -> ServerConfig:
        """The :class:`ServerConfig` for one server of this stack.

        ``extra`` adds the fields only some stacks set.  A None value,
        shared or extra, leaves the ServerConfig default in place.
        """
        fields = dict(
            nfsds=self.nfsds,
            write_path=self.write_path,
            gather_policy=self.gather_policy,
            verify_stable=self.verify_stable,
            cpu_scale=self.cpu_scale,
            lease_ttl=self.lease_ttl,
            unstable_limit_bytes=self.unstable_limit_bytes,
            **extra,
        )
        return ServerConfig(**{k: v for k, v in fields.items() if v is not None})


@dataclass
class ServerStack:
    """One built server and the storage under it."""

    env: Environment
    segment: Segment
    server: NfsServer
    #: The spindles, in stripe order.
    disks: List[DiskDevice]
    #: What the server writes to: the Presto board, the stripe set, or the
    #: one spindle.
    storage: Storage


def build_stack(
    env: Environment,
    segment: Segment,
    host: str,
    disk_spec: DiskSpec,
    stripes: int,
    presto_bytes: Optional[int],
    server_config: ServerConfig,
    disk_tag: str = "",
) -> ServerStack:
    """Build spindles → stripe set → Presto → nfsd pool on ``segment``.

    Spindles are named ``{disk_spec.name}{disk_tag}-{k}``.  A single
    spindle is not wrapped in a stripe set; Presto is present iff
    ``presto_bytes`` is set.
    """
    disks = [
        DiskDevice(env, disk_spec, name=f"{disk_spec.name}{disk_tag}-{spindle}")
        for spindle in range(stripes)
    ]
    storage: Storage = StripeSet(env, disks) if stripes > 1 else disks[0]
    if presto_bytes:
        storage = PrestoCache(env, storage, capacity=presto_bytes)
    server = NfsServer(env, segment, storage, host=host, config=server_config)
    return ServerStack(env, segment, server, disks, storage)


def make_client(
    env: Environment,
    rpc,
    config: StackConfig,
    nbiods: Optional[int] = None,
    write_window=None,
) -> NfsClient:
    """One client host's NFS layer over ``rpc``, as ``config`` asks.

    The async-commit path needs NFSv3 clients (unstable WRITE + COMMIT)
    with a write window for COMMIT pressure; unless one is given, the
    window starts at the biod depth so a clean wire keeps full
    write-behind.
    """
    nbiods = config.nbiods if nbiods is None else nbiods
    is_async = config.write_path == WritePath.ASYNC_COMMIT
    if is_async and write_window is None:
        from repro.overload.window import WriteWindow

        write_window = WriteWindow(initial=max(1, nbiods))
    client = NfsClient(
        env,
        rpc,
        nbiods=nbiods,
        write_cpu=config.client_write_cpu,
        nfs_version=3 if is_async else 2,
        write_window=write_window,
    )
    if config.lease_ttl is not None:
        # A leased server recalls conflicting holders and waits up to one
        # TTL for each; a client with no callback handler would stall every
        # conflicting writer that long.  CacheStack registers the CB_RECALL
        # handler (on every rack transport of a routed client) and the
        # reroute hook that re-registers leases after a promotion, so it is
        # not optional.
        from repro.nfs.cache import CacheStack

        CacheStack(env, client)
    return client
