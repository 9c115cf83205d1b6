"""System construction: every simulated system is a :class:`Fleet`.

A fleet is one simulation environment, one or more shared network
segments ("racks"), and N complete server stacks — each shard owns its
own spindles, optional Presto NVRAM board, UFS instance, and nfsd pool,
built by :func:`repro.stack.build_stack`.  Shards share nothing but the
wire.  Every client mounts through the client-side
:class:`~repro.cluster.router.MountRouter`, and every fleet dies through
one finalizer.  A :class:`Cluster` is the fleet a :class:`ClusterConfig`
asks for; the paper's :class:`~repro.experiments.testbed.Testbed` is the
one-shard, one-rack, K=0 fleet.

Each cluster shard's UFS gets a disjoint inode range (``ino_base``), so
file handles are unambiguous fleet-wide — the router's pin table and the
cluster oracle both depend on that.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.router import ClusterRpc, MountRouter
from repro.cluster.shardmap import ShardMap
from repro.disk.device import DiskDevice
from repro.fs.ufs import ROOT_INO
from repro.net.segment import Segment
from repro.net.spec import FDDI, NetSpec
from repro.nfs.client import NfsClient
from repro.obs import RecordingCollector, install, registry_for
from repro.rpc.client import RpcClient
from repro.server.base import NfsServer
from repro.server.config import WritePath
from repro.sim import Environment
from repro.stack import ServerStack, StackConfig, build_stack, make_client

__all__ = ["ClusterConfig", "Cluster", "Fleet", "stack_by_host"]

#: Inode-number stride between shards: shard k allocates file inodes from
#: ``(k + 1) * INO_STRIDE`` upward, so handles never collide fleet-wide.
INO_STRIDE = 1_000_000


@dataclass
class ClusterConfig(StackConfig):
    """One scale-out configuration: the fleet, the map, and the wire.

    The per-shard hardware, server and client fields come from
    :class:`~repro.stack.StackConfig`; ``presto_bytes`` and ``stripes``
    are per shard.
    """

    netspec: NetSpec = FDDI
    write_path: WritePath = WritePath.GATHER
    #: Number of server shards.
    servers: int = 2
    #: Virtual nodes per server on the consistent-hash ring.
    vnodes: int = 64
    #: Network segments; servers (and client endpoints) spread round-robin
    #: across racks.  1 = the paper's single shared medium.
    racks: int = 1
    #: Per-shard retry budget for routed calls (repro.overload): the
    #: transmissions a client spends on one shard before re-resolving the
    #: route (failover redirect) or surfacing ETIMEDOUT.  None = retry
    #: forever, the hard-mount behaviour — except with replicas, where a
    #: small default budget is installed so in-flight calls against a dead
    #: primary re-resolve into its promoted backup.
    failover_attempts: Optional[int] = None
    #: Backups per shard (K, repro.replica).  0 = no replication: the
    #: cluster is byte-identical to its pre-replica behaviour.
    replicas: int = 0
    #: Backups that must ack stable storage before a reply is released.
    quorum: int = 1
    #: Heterogeneous tiers (repro.tiering): a sequence of
    #: :class:`~repro.tiering.tiers.TierConfig` hardware classes.  When
    #: set, ``servers`` is derived (the sum of tier shard counts), each
    #: shard gets its tier's storage stack (NVRAM, spindles, volume
    #: size), and the ring is capacity-weighted.  None = a homogeneous
    #: fleet from the flat fields above.
    tiers: Optional[List] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.tiers:
            names = [tier.name for tier in self.tiers]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate tier names: {names}")
            self.servers = sum(tier.shards for tier in self.tiers)
        if self.servers < 1:
            raise ValueError(f"need at least one server, got {self.servers}")
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        if not 1 <= self.racks <= self.servers:
            raise ValueError(
                f"racks must be in [1, servers]; got {self.racks} racks "
                f"for {self.servers} servers"
            )
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        if self.quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {self.quorum}")
        if self.replicas and self.quorum > self.replicas:
            raise ValueError(
                f"quorum ({self.quorum}) cannot exceed replicas "
                f"({self.replicas})"
            )
        if self.replicas and self.write_path == WritePath.SIVA:
            raise ValueError(
                "replication piggybacks on the standard/gather commit "
                "points; the siva path is not supported with replicas > 0"
            )
        if self.replicas and self.failover_attempts is None:
            # Promotion strands any call already retransmitting into the
            # dead primary unless it can give up and re-resolve.
            self.failover_attempts = 3


#: The paper's testbed as a topology: one shard on one rack, K=0.  Only
#: the topology fields are read.
_ONE_SHARD = ClusterConfig(servers=1)


class Fleet:
    """Environment, racks, member stacks, replica groups, router, clients.

    A root's constructor makes one :meth:`_build` call.
    """

    def _build(self, config: StackConfig, topology: Optional[ClusterConfig] = None) -> None:
        """Build the whole system from ``config``'s stack fields and
        ``topology``'s fleet fields (a cluster passes its config twice).

        No ``topology`` builds the paper's testbed: one shard on one rack,
        K=0, named as the paper names it (host ``server``, untagged
        spindles, the Ufs default inode base), in no replica group and
        never a migration end.
        """
        self._solo = topology is None
        self._topology = topology = topology or _ONE_SHARD
        self.config = config
        self.env = Environment()
        #: Span collector; a shared no-op unless ``config.tracing``.  Must be
        #: installed before any component is built — they cache it.
        self.collector = RecordingCollector() if config.tracing else None
        if self.collector is not None:
            install(self.env, self.collector)
        net_seed = config.seed if config.net_seed is None else config.net_seed
        self.segments: List[Segment] = [
            Segment(
                self.env,
                config.netspec,
                name=(
                    config.netspec.name
                    if topology.racks == 1
                    else f"{config.netspec.name}.rack{rack}"
                ),
                loss_rate=config.loss_rate,
                seed=net_seed + rack,
            )
            for rack in range(topology.racks)
        ]
        #: Per-shard tier spec, parallel to shard indices (empty for a
        #: homogeneous fleet; shards past its end use the flat config) and
        #: host -> tier-name lookup.
        self._tier_specs: List = [
            tier for tier in topology.tiers or () for _ in range(tier.shards)
        ]
        self.tier_of: Dict[str, str] = {}
        self.servers: List[NfsServer] = []
        #: Per-shard member stacks, parallel to ``servers``: the primary's
        #: first, then its backups in order.
        self.stacks: List[List[ServerStack]] = []
        #: One replica group per cluster shard, parallel to ``servers``
        #: (repro.replica; trivial single-member groups at K=0).
        self._groups: List = []
        self._rack_of_server: Dict[str, int] = {}
        for index in range(topology.servers):
            self._build_shard(index)
        weights = None
        if topology.tiers:
            weights = {
                server.host: spec.effective_weight
                for server, spec in zip(self.servers, self._tier_specs)
            }
        self.shard_map = ShardMap(
            [server.host for server in self.servers],
            vnodes=topology.vnodes,
            seed=config.seed,
            weights=weights,
        )
        self.router = MountRouter(self.shard_map, root_fhandle=(ROOT_INO, 0))
        self.clients: List[NfsClient] = []
        # Dropping the root ends the system (see _close); a root still
        # alive at interpreter exit is left alone.
        weakref.finalize(
            self, _close, self.env, self.segments, self.stacks, self.router, self.clients
        ).atexit = False

    # -- construction -------------------------------------------------------------

    def _build_member(
        self, index: int, host: str, disk_tag: str, ino_base: Optional[int]
    ) -> ServerStack:
        """One server stack of shard ``index`` on the shard's rack.

        Its hardware is the shard's tier (or the flat config past the
        tiers, for grown shards); every member of a shard shares the
        shard's inode range.
        """
        config = self.config
        rack = index % len(self.segments)
        tier = self._tier_specs[index] if index < len(self._tier_specs) else None
        hardware = config if tier is None else tier
        stack = build_stack(
            self.env,
            self.segments[rack],
            host,
            hardware.disk_spec,
            hardware.stripes,
            hardware.presto_bytes,
            config.server_config(
                ino_base=ino_base,
                fs_bytes=None if tier is None else tier.fs_bytes,
            ),
            disk_tag=disk_tag,
        )
        if not self._solo:
            from repro.tiering.engine import ShardMigrator

            ShardMigrator(stack.server)
        self._rack_of_server[host] = rack
        self.tier_of[host] = "default" if tier is None else tier.name
        return stack

    def _build_shard(self, index: int) -> NfsServer:
        """Shard ``index``: its primary and K backups, as a replica group.

        At K=0 the group is a trivial single-member record and *nothing
        else is built* — no replicators, no endpoints — so an unreplicated
        fleet stays byte-identical to its pre-replica behaviour.  With
        K>0, each backup is a complete server stack (own spindles, own
        UFS with the *same* ino_base as the primary, own nfsd pool) on the
        shard's rack segment, and every member gets a replicator; only
        the primary's starts active.
        """
        if self._solo:
            host, disk_tag, ino_base = "server", "", None
        else:
            host, disk_tag = f"server-{index}", f"-s{index}"
            ino_base = (index + 1) * INO_STRIDE
        stacks = [self._build_member(index, host, disk_tag, ino_base)]
        replicas = self._topology.replicas
        for backup in range(1, replicas + 1):
            tag = f"b{backup}"
            stacks.append(
                self._build_member(index, f"{host}.{tag}", disk_tag + tag, ino_base)
            )
        primary = stacks[0].server
        self.servers.append(primary)
        self.stacks.append(stacks)
        if not self._solo:
            from repro.replica.group import ReplicaGroup
            from repro.replica.replicator import Replicator

            members = [stack.server for stack in stacks]
            group = ReplicaGroup(index=index, logical_host=host, members=members)
            if replicas > 0:
                segment = self.segments[self._rack_of_server[host]]
                quorum = self._topology.quorum
                for member in members:
                    Replicator(member, group, quorum=quorum, segment=segment)
                primary.replicator.activate()
            self._groups.append(group)
        return primary

    def add_client(
        self,
        nbiods: Optional[int] = None,
        host: Optional[str] = None,
        policy=None,
        write_window=None,
    ) -> NfsClient:
        """Attach one client host, with an endpoint on every rack.

        Host names are auto-generated (``client-0``, ``client-1``, ...)
        skipping any name already attached to the first rack, so repeated
        calls — and calls mixed with explicit ``host=`` names — never
        collide.  ``policy`` overrides the RPC retransmission policy (e.g.
        an overload :class:`~repro.overload.rto.AdaptiveRetryPolicy`);
        ``write_window`` installs an AIMD
        :class:`~repro.overload.window.WriteWindow` on the biod pool.
        """
        name = host or self.segments[0].unique_host("client")
        rpcs = [
            RpcClient(self.env, segment.attach(name), self.servers[0].host, policy=policy)
            for segment in self.segments
        ]
        cluster_rpc = ClusterRpc(
            rpcs,
            self.router,
            self._rack_of_server,
            failover_attempts=self._topology.failover_attempts,
        )
        client = make_client(
            self.env, cluster_rpc, self.config, nbiods=nbiods, write_window=write_window
        )
        self.clients.append(client)
        return client


class Cluster(Fleet):
    """A wired-up fleet: environment, racks, shard map, servers, clients."""

    def __init__(self, config: ClusterConfig) -> None:
        self._build(config, config)

    @property
    def groups(self) -> List:
        """One replica group per shard, parallel to ``servers``."""
        return self._groups

    @property
    def disks(self) -> List[List[DiskDevice]]:
        """Per-shard primary spindles, parallel to ``servers``."""
        return [shard[0].disks for shard in self.stacks]

    @property
    def backup_disks(self) -> List[List[List[DiskDevice]]]:
        """Per-shard backup spindles: ``backup_disks[shard][backup]``."""
        return [[stack.disks for stack in shard[1:]] for shard in self.stacks]

    def grow(self) -> NfsServer:
        """Join one more shard mid-run.

        Consistent hashing means only the keys landing in the newcomer's
        ring arcs move to it; every pinned handle stays where it is (no
        data migration — growth redirects *future* placement only).
        """
        server = self._build_shard(len(self.servers))
        self.shard_map.add_server(server.host)
        return server

    # -- topology helpers ---------------------------------------------------------

    def stack_by_host(self, host: str) -> ServerStack:
        """The member stack serving as ``host`` (a primary or a backup)."""
        return stack_by_host(self.stacks, host)

    def server_by_host(self, host: str) -> NfsServer:
        return self.stack_by_host(host).server

    def segment_of(self, host: str) -> Segment:
        return self.segments[self._rack_of_server[host]]

    # -- measured quantities ------------------------------------------------------

    def stable_violations_total(self) -> int:
        return sum(len(server.stable_violations) for server in self.servers)

    def per_shard_rollup(self) -> List[dict]:
        """One metrics record per shard, from the shared registry.

        Includes disk totals, CPU utilization, completed write count and —
        on the gathering path — the shard's gather instruments (writes,
        batches, mean batch size, and gather ratio: the fraction of writes
        that shared their metadata update with at least one peer).
        """
        rollup: List[dict] = []
        for server, shard_disks in zip(self.servers, self.disks):
            ops = registry_for(self.env).snapshot(prefix=f"{server.host}.ops.")
            record: dict = {
                "host": server.host,
                "rack": self._rack_of_server[server.host],
                "cpu_pct": round(100.0 * server.cpu.utilization(), 2),
                "disk_bytes": sum(d.stats.bytes.value for d in shard_disks),
                "disk_transactions": sum(
                    d.stats.transactions.value for d in shard_disks
                ),
                "disk_writes": sum(d.stats.writes.value for d in shard_disks),
                "files_created": int(
                    ops.get(f"{server.host}.ops.create", {}).get("value", 0)
                ),
                "writes_completed": int(
                    ops.get(f"{server.host}.ops.write", {}).get("value", 0)
                ),
            }
            stats = getattr(server.write_path, "stats", None)
            if stats is not None:
                record.update(
                    {
                        "gather_writes": int(stats.writes.value),
                        "gather_batches": int(stats.batches.value),
                        "mean_batch_size": round(stats.mean_batch_size(), 4),
                        "gather_ratio": round(stats.gather_success_rate(), 4),
                    }
                )
            rollup.append(record)
        return rollup

    def aggregate_rollup(self) -> dict:
        """Cluster-wide totals over :meth:`per_shard_rollup`."""
        shards = self.per_shard_rollup()
        total_writes = sum(s.get("gather_writes", 0) for s in shards)
        gathered = sum(
            s.get("gather_ratio", 0.0) * s.get("gather_writes", 0) for s in shards
        )
        aggregate = {
            "disk_bytes": sum(s["disk_bytes"] for s in shards),
            "disk_transactions": sum(s["disk_transactions"] for s in shards),
            "disk_writes": sum(s["disk_writes"] for s in shards),
            "files_created": sum(s["files_created"] for s in shards),
            "writes_completed": sum(s["writes_completed"] for s in shards),
            "mean_cpu_pct": round(
                sum(s["cpu_pct"] for s in shards) / len(shards), 2
            ),
        }
        if total_writes:
            aggregate["gather_ratio"] = round(gathered / total_writes, 4)
        return aggregate


def _close(env, segments, stacks, router, clients) -> None:
    """A dropped root's finalizer, given its parts and never the root.

    It closes the environment (every suspended process ends), then cuts
    the back-edges that would keep the system a reference cycle: every
    member (backups and grown shards included), every rack, each client's
    cache stack, and the router's placement policy (which reads the
    router back).
    """
    env.close()
    router.placement = None
    for segment in segments:
        segment.close()
    for shard in stacks:
        for stack in shard:
            stack.server.close()
    for client in clients:
        if client.cache is not None:
            client.cache.close()


def stack_by_host(stacks: List[List[ServerStack]], host: str) -> ServerStack:
    """The member stack serving as ``host`` in a cluster's ``stacks``."""
    for shard in stacks:
        for stack in shard:
            if stack.server.host == host:
                return stack
    raise KeyError(f"no shard named {host!r}")

