"""Create-time placement policies over a heterogeneous fleet.

The shard map alone spreads *names* uniformly; a mixed hot/cold fleet
wants better.  A :class:`PlacementPolicy` is consulted by the
:class:`~repro.cluster.router.MountRouter` the first time a CREATE (or
SYMLINK) routes a new name, and its choice is pinned immediately — a
retransmitted or re-routed create can never land on a second shard just
because free space or load shifted between attempts.

Three policies beyond the pure hash:

* :class:`MostFreePlacement` ("mfs") — the classic mkfs-across-volumes
  heuristic: put the new file where the most free bytes are;
* :class:`LeastLoadPlacement` ("least-load") — put it where the fewest
  requests are waiting (free bytes break ties);
* :class:`HotFirstPlacement` ("hot-first") — prefer NVRAM-rich shards
  while they have headroom, spilling to the cold tier once a hot shard's
  free space drops under its reserve: the ``moveonenospc`` analog, so a
  small fast tier absorbs the write-hot files without ever returning
  ENOSPC for the bulk.

All decisions read *current simulated state* (free space via the
allocator, load via the socket inbox) through the cluster's own objects —
deterministic, RPC-free, exactly what a client computing placement from a
shared map would see in the BuffetFS design.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.fleet import stack_by_host

__all__ = [
    "PlacementPolicy",
    "HashPlacement",
    "MostFreePlacement",
    "LeastLoadPlacement",
    "HotFirstPlacement",
    "make_policy",
    "POLICY_NAMES",
]


class PlacementPolicy:
    """Base: choose the logical shard for a newly created name."""

    name = "hash"

    def __init__(self, cluster) -> None:
        # The parts placement reads, not the cluster: the router holds
        # the policy, and nothing under a cluster may hold the cluster.
        self.router = cluster.router
        self.shard_map = cluster.shard_map
        self.tier_of = cluster.tier_of
        self._stacks = cluster.stacks

    def place(self, name: str) -> str:
        raise NotImplementedError

    # -- shared state probes ---------------------------------------------------

    def _acting(self, logical: str):
        """The server object currently acting for a logical shard."""
        return stack_by_host(self._stacks, self.router.resolve(logical)).server

    def free_bytes(self, logical: str) -> int:
        server = self._acting(logical)
        return (
            server.config.fs_bytes
            - server.ufs.allocator.allocated_count * server.ufs.block_size
        )

    def load_of(self, logical: str) -> int:
        """Requests sitting in the shard's socket buffer right now."""
        server = self._acting(logical)
        return len(server.endpoint.inbox)

    def candidates(self) -> List[str]:
        return self.shard_map.servers


class HashPlacement(PlacementPolicy):
    """The pure consistent-hash choice (the no-policy baseline)."""

    name = "hash"

    def place(self, name: str) -> str:
        return self.shard_map.server_for(name)


class MostFreePlacement(PlacementPolicy):
    """Most free bytes wins; host name breaks ties deterministically."""

    name = "mfs"

    def place(self, name: str) -> str:
        return min(
            self.candidates(), key=lambda host: (-self.free_bytes(host), host)
        )


class LeastLoadPlacement(PlacementPolicy):
    """Fewest queued requests wins; free space, then name, break ties."""

    name = "least-load"

    def place(self, name: str) -> str:
        return min(
            self.candidates(),
            key=lambda host: (self.load_of(host), -self.free_bytes(host), host),
        )


class HotFirstPlacement(PlacementPolicy):
    """Prefer the hot tier until a shard hits its free-space reserve.

    A hot shard is eligible while ``free_bytes > reserve_fraction *
    fs_bytes``; the most-free eligible hot shard wins.  With no eligible
    hot shard the file *spills* to the most-free shard of the remaining
    fleet — capacity pressure relocates placement instead of surfacing
    ENOSPC (the ``moveonenospc`` behaviour).
    """

    name = "hot-first"

    def __init__(self, cluster, hot_tier: str = "hot", reserve_fraction: float = 0.1) -> None:
        super().__init__(cluster)
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError(
                f"reserve_fraction must be in [0, 1), got {reserve_fraction}"
            )
        self.hot_tier = hot_tier
        self.reserve_fraction = reserve_fraction
        self.spills = 0

    def _split(self) -> Tuple[List[str], List[str]]:
        tier_of = self.tier_of
        hot = [h for h in self.candidates() if tier_of.get(h) == self.hot_tier]
        cold = [h for h in self.candidates() if tier_of.get(h) != self.hot_tier]
        return hot, cold

    def place(self, name: str) -> str:
        hot, cold = self._split()
        eligible = []
        for host in hot:
            free = self.free_bytes(host)
            reserve = self.reserve_fraction * self._acting(host).config.fs_bytes
            if free > reserve:
                eligible.append((-free, host))
        if eligible:
            return min(eligible)[1]
        self.spills += 1
        pool = cold or hot
        return min(pool, key=lambda host: (-self.free_bytes(host), host))


#: Policy registry for sweeps and the CLI.
POLICY_NAMES = ("hash", "mfs", "least-load", "hot-first")


def make_policy(name: str, cluster, **kwargs) -> Optional[PlacementPolicy]:
    """Build a policy by registry name; "hash" returns None (pure map)."""
    if name == "hash":
        return None
    if name == "mfs":
        return MostFreePlacement(cluster)
    if name == "least-load":
        return LeastLoadPlacement(cluster)
    if name == "hot-first":
        return HotFirstPlacement(cluster, **kwargs)
    raise ValueError(f"unknown placement policy {name!r} (want one of {POLICY_NAMES})")
