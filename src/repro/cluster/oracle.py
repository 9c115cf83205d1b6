"""The cluster-wide crash contract: no acked write lost on *any* shard.

The fleet's :class:`~repro.faults.oracle.Oracle` files every ack under the
shard the router's pin table says made the promise.  A check point (each
shard crash, and the end of the run) asserts every shard's acked-byte image
against its own durable storage — so a write acked by ``server-2`` that
somehow landed on ``server-0`` shows up as a violation, not a coincidence.
"""

from __future__ import annotations

from typing import List

from repro.faults.oracle import Oracle

__all__ = ["ClusterOracle"]


class ClusterOracle(Oracle):
    """The crash oracle of a fleet: one ledger, one holder per shard."""

    def __init__(self, cluster) -> None:
        super().__init__(cluster)
        # The parts the checks read, not the cluster: every client's ack
        # hooks hold this oracle, and nothing under a cluster may hold
        # the cluster.
        self.router = cluster.router
        self.groups = getattr(cluster, "groups", [])
        # Every shard check runs against the primary's role in its group.
        self.role = "primary"
        #: Extra contract checks (repro.tiering's migration contract):
        #: each is called with this oracle and the check label inside
        #: :meth:`check`, so every fault check and the final check walk
        #: them for free.
        self._extra_checks: List = []

    def _holder(self, fhandle) -> str:
        return self.router.server_for_fhandle(fhandle)

    def add_check(self, check) -> None:
        """Register ``check(oracle, label) -> List[str]`` to run at every
        check point (shard crashes, quiesce, final)."""
        self._extra_checks.append(check)

    def check(self, label: str = "final") -> List[str]:
        """Assert the crash contract on every shard; returns new violations.

        A shard with backups (repro.replica) is held to the *group*
        contract — no acked write may be missing from the surviving
        replica set — instead of the single-image contract: mid-promotion
        the old primary's image is dead weight, and the promise lives on
        whichever survivors hold the bytes.
        """
        before = len(self.violations)
        for group in self.groups:
            members = [(member.host, member.ufs) for member in group.surviving()]
            self._walk(label, group.logical_host, members, group=group.replicas > 0)
        for check in self._extra_checks:
            self.violations.extend(check(self, label))
        return self.violations[before:]

    def check_divergence(self, label: str = "quiesce") -> List[str]:
        """Byte-compare surviving replica images after the run drains.

        The group contract tolerates lagging backups *mid-run*; once the
        fleet has quiesced (all batches shipped, acked, and applied) every
        surviving member of a group must agree byte-for-byte on every
        acked file — size and durable content.  Each group compared counts
        as one check.
        """
        before = len(self.violations)
        stamp = f"[{label} t={self.env.now:.6f}]"
        for group in self.groups:
            survivors = group.surviving()
            if len(survivors) < 2:
                continue
            host = group.logical_host
            reference, *others = survivors
            for ino in self.acked_inos(host):
                reference_size = _durable_size(reference.ufs, ino)
                for member in others:
                    size = _durable_size(member.ufs, ino)
                    if size != reference_size:
                        self.violations.append(
                            f"{host}: {stamp} ino {ino}: durable size diverges "
                            f"({reference.host}={reference_size}, {member.host}={size})"
                        )
                    elif reference_size and member.ufs.durable_read(
                        ino, 0, reference_size
                    ) != reference.ufs.durable_read(ino, 0, reference_size):
                        self.violations.append(
                            f"{host}: {stamp} ino {ino}: durable bytes diverge "
                            f"between {reference.host} and {member.host}"
                        )
            self.checks += 1
        return self.violations[before:]


def _durable_size(ufs, ino: int):
    """``ino``'s committed size on one image (None if it has none)."""
    snapshot = ufs.cache.durable.inodes.get(ino)
    return None if snapshot is None else snapshot.size
