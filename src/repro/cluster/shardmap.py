"""The deterministic shard map: consistent hashing with virtual nodes.

Placement decisions are made *client-side* from a small, shared map — no
directory service, no placement RPCs (the BuffetFS argument).  The map is
a classic consistent-hash ring: each server contributes ``vnodes`` points
derived from a keyed BLAKE2 digest of ``"{seed}/{server}#{vnode}"``, and a
key belongs to the first ring point at or after its own digest.

Properties the cluster (and its property tests) rely on:

* **Deterministic** — digests, not Python ``hash()``, so the same seed
  yields the same placement in every process and across reruns;
* **Balanced** — with enough virtual nodes, shard loads concentrate
  around ``keys / servers``;
* **Minimal movement** — adding or removing one server only remaps the
  keys that land in that server's ring arcs; everything else stays put,
  which is what makes grow/shrink (and crash redirect) cheap;
* **Capacity weighting** (repro.tiering) — a server's ring-point count
  scales with its weight (weight ∝ tier capacity), and a different
  weight for one server only adds or removes that server's own points:
  point labels are stable ``"{server}#{k}"`` for ``k < count``, so a
  heavier weight adds arcs (keys move *to* the server) and a lighter one
  removes arcs (keys move *from* it) — never a third party's keys.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = ["ShardMap"]


def _point(seed: int, label: str) -> int:
    """A stable 64-bit ring position for ``label`` under ``seed``."""
    digest = hashlib.blake2b(
        f"{seed}/{label}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ShardMap:
    """Stable-hash placement of string keys onto a set of servers."""

    def __init__(
        self,
        servers: Sequence[str],
        vnodes: int = 64,
        seed: int = 0,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not servers:
            raise ValueError("a shard map needs at least one server")
        if len(set(servers)) != len(servers):
            raise ValueError(f"duplicate server names: {list(servers)}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.seed = seed
        #: (position, server) ring points, sorted by position; empty while
        #: the map has one server, which then owns every key unhashed.
        self._ring: List[Tuple[int, str]] = []
        self._servers: List[str] = []
        #: Per-server capacity weight; 1.0 = the nominal ``vnodes`` points.
        self._weights: Dict[str, float] = {}
        weights = weights or {}
        for server in servers:
            self.add_server(server, weight=weights.get(server, 1.0))

    # -- membership -------------------------------------------------------------

    @property
    def servers(self) -> List[str]:
        """Current members, in insertion order."""
        return list(self._servers)

    def __len__(self) -> int:
        return len(self._servers)

    def __contains__(self, server: str) -> bool:
        return server in self._servers

    def weight_of(self, server: str) -> float:
        """The server's capacity weight (1.0 = nominal)."""
        if server not in self._servers:
            raise ValueError(f"server {server!r} not in the map")
        return self._weights[server]

    def vnode_count(self, server: str) -> int:
        """Ring points ``server`` contributes at its current weight."""
        return self._count_for(self._weights.get(server, 1.0))

    def _count_for(self, weight: float) -> int:
        return max(1, round(self.vnodes * weight))

    def _points_for(self, server: str) -> List[Tuple[int, str]]:
        return [
            (_point(self.seed, f"{server}#{vnode}"), server)
            for vnode in range(self.vnode_count(server))
        ]

    def add_server(self, server: str, weight: float = 1.0) -> None:
        """Join ``server``; only keys in its new arcs move to it."""
        if server in self._servers:
            raise ValueError(f"server {server!r} already in the map")
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        self._servers.append(server)
        self._weights[server] = weight
        if len(self._servers) == 1:
            return
        for member in (server,) if self._ring else self._servers:
            self._ring.extend(self._points_for(member))
        self._ring.sort()

    def remove_server(self, server: str) -> None:
        """Leave ``server``; only keys it owned move (to arc successors)."""
        if server not in self._servers:
            raise ValueError(f"server {server!r} not in the map")
        if len(self._servers) == 1:
            raise ValueError("cannot remove the last server")
        self._servers.remove(server)
        self._weights.pop(server, None)
        self._ring = [pt for pt in self._ring if pt[1] != server]

    # -- placement ---------------------------------------------------------------

    def server_for(self, key: str) -> str:
        """The server responsible for ``key``."""
        if not self._ring:
            return self._servers[0]
        position = _point(self.seed, f"key:{key}")
        index = bisect_right(self._ring, (position, "￿"))
        if index == len(self._ring):
            index = 0  # wrap around the ring
        return self._ring[index][1]

    def load(self, keys: Iterable[str]) -> Dict[str, int]:
        """Keys-per-server histogram (every member listed, even at 0)."""
        counts = {server: 0 for server in self._servers}
        for key in keys:
            counts[self.server_for(key)] += 1
        return counts

    def describe(self) -> dict:
        """A JSON-ready summary (stable ordering)."""
        summary = {
            "servers": list(self._servers),
            "vnodes": self.vnodes,
            "seed": self.seed,
            "ring_points": sum(map(self.vnode_count, self._servers)),
        }
        if any(weight != 1.0 for weight in self._weights.values()):
            summary["weights"] = {
                server: self._weights[server] for server in self._servers
            }
        return summary
