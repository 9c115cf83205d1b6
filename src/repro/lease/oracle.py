"""The staleness oracle: omniscient checking of the lease contract.

The contract (Gray & Cheriton, applied to NFS):

* **No stale hit** — a cache may serve an entry only if no *other* client
  mutated that file handle after the entry was fetched.  The lease
  machinery enforces this with recalls and expiries; the oracle checks
  the outcome directly, from above, with no knowledge of leases at all:
  it cross-references every served hit against a global mutation log.
* **Quiesce before ack** — when a mutation is about to execute (after
  :meth:`~repro.lease.manager.LeaseManager.before` finished quiescing),
  no other client may still hold *dirty* data for the affected handle
  under a lease it believes valid.  A recall that acked before flushing,
  or a quiesce that returned early, shows up here.

The oracle attaches to hooks that exist whether or not it is listening
(``LeaseManager.on_mutate``, ``CacheStack.on_cache_hit``), so enabling it
changes nothing about the run.  It is multi-server aware: attach every
manager in a cluster (primaries and backups) and every client stack; the
mutation log is global because file handles are fleet-unique.
"""

from __future__ import annotations

from typing import Dict, List

from repro.lease.manager import LEASE_WRITE

__all__ = ["StalenessOracle"]


class StalenessOracle:
    """Cross-checks every served cache hit against the global mutation log."""

    def __init__(self, env) -> None:
        self.env = env
        self.violations: List[str] = []
        #: How many of ``violations`` earlier checks already returned.
        self._reported = 0
        self.hits_checked = 0
        self.mutations_checked = 0
        #: fhandle -> {mutating client host -> last mutation time}.
        self._mutations: Dict[tuple, Dict[str, float]] = {}
        #: client host -> CacheStack (for the quiesce-before-ack check).
        self._stacks: Dict[str, object] = {}

    # -- wiring -------------------------------------------------------------------

    def attach_client(self, client) -> None:
        """Watch one client's cache stack (``client.cache`` must exist)."""
        stack = client.cache
        if stack is None:
            raise ValueError(f"client {client.rpc.endpoint.host} has no cache stack")
        self._stacks[stack.host] = stack

        def _hook(kind, fhandle, fetched_at, dirty, _host=stack.host):
            self._on_hit(_host, kind, fhandle, fetched_at, dirty)

        stack.on_cache_hit = _hook

    def attach_server(self, server) -> None:
        """Watch one server's lease manager (``server.leases`` must exist)."""
        manager = server.leases
        if manager is None:
            raise ValueError(f"server {server.host} has no lease manager")
        manager.on_mutate = self._on_mutate

    def attach_testbed(self, testbed) -> None:
        """Convenience: watch a single-server testbed's server and clients."""
        self.attach_server(testbed.server)
        for client in testbed.clients:
            self.attach_client(client)

    def attach_cluster(self, cluster) -> None:
        """Convenience: watch every fleet member (primaries *and* backups —
        a promoted backup starts granting) and every client."""
        for group in cluster.groups:
            for member in group.members:
                if member.leases is not None:
                    self.attach_server(member)
        for client in cluster.clients:
            self.attach_client(client)

    # -- the two checks -----------------------------------------------------------

    def _on_mutate(self, fhandle: tuple, client: str) -> None:
        """A quiesced mutation by ``client`` is about to execute."""
        now = self.env.now
        self.mutations_checked += 1
        self._mutations.setdefault(fhandle, {})[client] = now
        for host, stack in self._stacks.items():
            if host == client:
                continue
            if stack.dirty_blocks(fhandle) and stack.lease_valid(
                fhandle, LEASE_WRITE
            ):
                self.violations.append(
                    f"t={now:.6f} unquiesced dirty data: {client} mutates "
                    f"{fhandle} while {host} still holds {stack.dirty_blocks(fhandle)} "
                    "dirty block(s) under a live write lease"
                )

    def _on_hit(
        self, host: str, kind: str, fhandle: tuple, fetched_at: float, dirty: bool
    ) -> None:
        """Cache ``host`` served a ``kind`` hit fetched at ``fetched_at``."""
        if dirty:
            return  # the client's own pending write: never stale to itself
        self.hits_checked += 1
        for mutator, when in self._mutations.get(fhandle, {}).items():
            if mutator != host and when > fetched_at:
                self.violations.append(
                    f"t={self.env.now:.6f} stale {kind} hit: {host} served "
                    f"{fhandle} fetched at t={fetched_at:.6f}, but {mutator} "
                    f"mutated it at t={when:.6f}"
                )

    # -- verdicts -----------------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.violations

    def check(self, label: str = "") -> List[str]:
        """The violations recorded since the previous check.

        The shared oracle contract: a check point (a fault controller's
        crash, the end of a run) gets the new violations back and the run
        goes on; it never raises.
        """
        found = self.violations[self._reported :]
        self._reported = len(self.violations)
        return found
