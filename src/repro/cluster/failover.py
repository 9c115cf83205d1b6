"""Shard failover: crash a shard mid-run, redirect or promote, verify.

The single-server :class:`~repro.faults.controller.FaultController` drives
faults against *the* server; this controller speaks fleet.  A
:class:`ShardCrash` names which shard dies and when, how long it stays
unreachable, and what the cluster does about it:

* **crash** — the shard's volatile state dies
  (:meth:`NfsServer.simulate_crash`); the cluster oracle immediately
  checks every shard's crash contract;
* **outage** — the dead host is partitioned off its rack segment for the
  duration; clients retransmit into the void exactly as against a dead
  transceiver;
* **redirect** — while down, the shard leaves the shard map, so *new*
  files hash onto the survivors (consistent hashing promotes each of its
  ring-arc successors); pinned handles keep pointing at the dead shard
  and their clients simply wait it out — NFS hard-mount semantics;
* **promote** (repro.replica) — the shard's freshest surviving backup
  becomes the acting primary: the dead host is partitioned *permanently*,
  the router's alias table repoints the group's logical name (ring arcs
  and pinned handles untouched), and the promoted backup resyncs its
  peers from its retained log.  In-flight clients retransmit into the
  new primary, whose dup cache was primed by replication;
* **recovery** — the partition heals and (if redirected) the shard
  rejoins the map, reclaiming exactly its old arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.obs import PHASE_FAULT, collector_for

__all__ = ["ShardCrash", "FailoverController"]


@dataclass(frozen=True)
class ShardCrash:
    """One scripted shard failure."""

    #: Simulation time of the crash.
    at: float
    #: Index of the shard that dies.
    shard: int
    #: Seconds the host stays unreachable after the crash (0 = instant
    #: reboot, the paper's fast-restart assumption).
    outage: float = 0.0
    #: Drop the shard from the mount map while it is down, so new files
    #: route to the survivors.
    redirect: bool = False
    #: Promote the shard's freshest surviving backup (replica groups).
    #: The dead primary never returns; promotion replaces the outage.
    promote: bool = False

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at}")
        if self.outage < 0:
            raise ValueError(f"outage must be >= 0, got {self.outage}")
        if self.redirect and self.outage <= 0:
            raise ValueError(
                "redirect=True requires a positive outage: the redirect "
                "window *is* the outage window (an instant reboot leaves "
                "nothing to route around)"
            )
        if self.promote and self.redirect:
            raise ValueError(
                "promote and redirect are mutually exclusive: promotion "
                "keeps the shard's arcs and repoints them at a backup; "
                "redirect moves the arcs to other shards"
            )
        if self.promote and self.outage > 0:
            raise ValueError(
                "promote=True ignores outage: the dead primary is "
                "partitioned permanently and its backup takes over at once"
            )


class FailoverController:
    """Drives scripted :class:`ShardCrash` events against a cluster."""

    def __init__(self, cluster, crashes: Sequence[ShardCrash], oracle=None) -> None:
        # The parts the crashes act on, not the cluster: nothing under a
        # cluster may hold the cluster.
        self.env = cluster.env
        self.servers = cluster.servers
        self.groups = getattr(cluster, "groups", None)
        self.segments = cluster.segments
        self._rack_of_server = cluster._rack_of_server
        self.shard_map = cluster.shard_map
        self.router = cluster.router
        self.plan = list(crashes)
        self.oracle = oracle
        self.obs = collector_for(self.env)
        #: Applied events: dicts with shard, times, and recovery actions.
        self.log: List[dict] = []
        self.crashes = 0
        self.promotions = 0

    def start(self) -> "FailoverController":
        """Spawn one driver process per planned crash; returns self."""
        for index, crash in enumerate(self.plan):
            if not 0 <= crash.shard < len(self.servers):
                raise ValueError(
                    f"crash #{index} names shard {crash.shard}; cluster has "
                    f"{len(self.servers)} shards"
                )
            self.env.process(
                self._drive(crash), name=f"failover:{index}:shard{crash.shard}"
            )
        return self

    def _drive(self, crash: ShardCrash):
        if crash.at > self.env.now:
            yield self.env.timeout(crash.at - self.env.now)
        server = self.servers[crash.shard]
        group = self._group_of(crash.shard)
        if group is not None:
            # A crash always hits the shard's *acting* primary — which may
            # already be a promoted backup from an earlier crash.
            server = group.primary
        segment = self.segments[self._rack_of_server[server.host]]
        started = self.env.now
        server.simulate_crash()
        self.crashes += 1
        promoted_host: Optional[str] = None
        if crash.promote:
            promoted_host = self._promote(group, server, segment)
        if self.oracle is not None:
            self.oracle.check(f"shard-crash#{self.crashes}")
        redirected = False
        redirect_skipped = False
        # The ring holds *logical* shard names; after a promotion the
        # acting primary is a backup host that was never a ring member,
        # so redirect must add/remove the logical name, not server.host.
        logical = self.servers[crash.shard].host
        ring_weight = 1.0
        if crash.outage > 0:
            segment.partition(server.host)
            if crash.redirect:
                if len(self.shard_map) > 1:
                    ring_weight = self.shard_map.weight_of(logical)
                    self.shard_map.remove_server(logical)
                    redirected = True
                else:
                    # A 1-shard map cannot lose its only server; record the
                    # request instead of silently dropping it.
                    redirect_skipped = True
            yield self.env.timeout(crash.outage)
            segment.heal(server.host)
            if redirected:
                self.shard_map.add_server(logical, weight=ring_weight)
        record = {
            "kind": "shard_crash",
            "shard": crash.shard,
            "host": server.host,
            "start": started,
            "end": self.env.now,
            "outage": crash.outage,
            "redirected": redirected,
            "redirect_skipped": redirect_skipped,
        }
        if promoted_host is not None:
            record["promoted"] = promoted_host
        self.log.append(record)
        if self.obs.enabled:
            attrs = {"kind": "shard_crash", "host": server.host}
            if promoted_host is not None:
                attrs["promoted"] = promoted_host
            self.obs.emit(
                PHASE_FAULT,
                "cluster",
                started,
                self.env.now,
                **attrs,
            )

    def _group_of(self, shard: int):
        groups = self.groups
        if not groups or shard >= len(groups):
            return None
        return groups[shard]

    def _promote(self, group, server, segment) -> Optional[str]:
        """Fail ``server`` over to the group's freshest backup.

        Returns the promoted host, or None when the group has nobody left
        to promote (K=0, or the backups are already spent) — the shard
        then just reboots in place, the paper's single-server behaviour.
        """
        if group is None:
            return None
        promoted = group.freshest_backup()
        if promoted is None:
            return None
        # The old primary never comes back: cut its client-facing host and
        # its replication endpoint off the wire, so a stale incarnation
        # can neither answer retransmissions nor ship stale batches.
        segment.partition(server.host)
        if server.replicator is not None:
            segment.partition(server.replicator.endpoint_host)
        group.promote(promoted)
        self.router.repoint(group.logical_host, promoted.host)
        if promoted.leases is not None:
            # The dead primary's grants are invisible to the promoted
            # table: open a one-TTL grace window so they drain by expiry
            # before any mutation here can conflict with them.  Clients
            # re-register via LEASE_RENEW when their calls reroute.
            promoted.leases.reset_volatile()
        # The new primary replays its retained log to the surviving peers:
        # the idempotent seq guard skips what they already have, and
        # lagging peers (whose session queues died with the old primary)
        # converge on the promoted prefix.
        promoted.replicator.activate(resync=True)
        self.promotions += 1
        return promoted.host
