"""The cluster-wide crash contract: no acked write lost on *any* shard.

One :class:`~repro.faults.oracle.Oracle` per shard, plus client-side
dispatch: when a routed client's stable WRITE is acked, the router's pin
table says which shard made the promise, and exactly that shard's oracle
records it.  A check point (each shard crash, and the end of the run)
asserts every shard's acked-byte image against its own durable storage —
so a write acked by ``server-2`` that somehow landed on ``server-0``
shows up as a violation, not a coincidence.
"""

from __future__ import annotations

from typing import Dict, List

from repro.faults.oracle import Oracle

__all__ = ["ClusterOracle"]


class ClusterOracle:
    """Per-shard oracles with router-driven ack dispatch."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self._per_shard: Dict[str, Oracle] = {}
        #: Extra contract checks (repro.tiering's migration contract):
        #: each is called with the check label inside :meth:`check`, so
        #: every fault check and the final check walk them for free.
        self._extra_checks: List = []
        #: Violations those extra checks found, in detection order.
        self.extra_violations: List[str] = []
        for server in cluster.servers:
            self._oracle_for(server.host)

    def add_check(self, check) -> None:
        """Register ``check(label) -> List[str]`` to run at every check
        point (shard crashes, quiesce, final)."""
        self._extra_checks.append(check)

    def _oracle_for(self, host: str) -> Oracle:
        oracle = self._per_shard.get(host)
        if oracle is None:
            oracle = Oracle(self.cluster.stack_by_host(host))
            # Triage context baked into every violation message: which
            # shard made the promise, and that the check ran against the
            # primary's role in its group.
            oracle.set_context(shard=host, role="primary")
            self._per_shard[host] = oracle
        return oracle

    def shard(self, host: str) -> Oracle:
        """The one shard's oracle (tests poke at these directly)."""
        return self._oracle_for(host)

    # -- recording --------------------------------------------------------------

    def attach(self, client) -> None:
        """Shadow ``client``'s acks onto the acking shard's oracle.

        Stable acks bind immediately; unstable acks park as pending on
        the acking shard and a COMMIT ack promotes them there.
        """
        router = client.rpc.router

        def record(fhandle, offset: int, data: bytes) -> None:
            host = router.server_for_fhandle(fhandle)
            self._oracle_for(host).record_ack(fhandle, offset, data)

        def record_unstable(fhandle, offset: int, data) -> None:
            host = router.server_for_fhandle(fhandle)
            self._oracle_for(host).record_unstable(fhandle, offset, data)

        def record_commit(fhandle, offset: int, data) -> None:
            host = router.server_for_fhandle(fhandle)
            self._oracle_for(host).record_commit(fhandle, offset, data)

        def record_read(fhandle, offset: int, data) -> None:
            host = router.server_for_fhandle(fhandle)
            self._oracle_for(host).record_read(fhandle, offset, data)

        client.on_write_acked = record
        client.on_unstable_acked = record_unstable
        client.on_commit_acked = record_commit
        client.on_read_acked = record_read

    def transfer_ino(self, ino: int, src_host: str, dst_host: str) -> None:
        """Hand one file's bookkeeping to another shard (live migration).

        Called in the cutover instant, right after the router's pins
        repoint: the acked ranges and any still-uncommitted pending
        ranges now describe a promise the *destination* must keep, and
        future checks assert them against its durable state.
        """
        handoff = self._oracle_for(src_host).hand_off(ino)
        self._oracle_for(dst_host).adopt(ino, handoff)

    def holders_of(self, ino: int) -> List[str]:
        """Shards currently tracking acked or pending ranges for ``ino``
        (the migration contract wants exactly one, ever)."""
        return [
            host for host in sorted(self._per_shard) if self._per_shard[host].tracks(ino)
        ]

    def note_fault(self, record: dict) -> None:
        """Triage context: every shard oracle learns the latest fault, so
        violation messages can name what provoked them."""
        for oracle in self._per_shard.values():
            oracle.note_fault(record)

    # -- checking ---------------------------------------------------------------

    def check(self, label: str = "final") -> List[str]:
        """Assert the crash contract on every shard; returns new violations.

        A shard with backups (repro.replica) is held to the *group*
        contract — no acked write may be missing from the surviving
        replica set — instead of the single-image contract: mid-promotion
        the old primary's image is dead weight, and the promise lives on
        whichever survivors hold the bytes.
        """
        found: List[str] = []
        # Grown shards may have joined since construction.
        for index, server in enumerate(self.cluster.servers):
            oracle = self._oracle_for(server.host)
            group = self._group_for(index)
            if group is not None and group.replicas > 0:
                members = [
                    (member.host, member.ufs) for member in group.surviving()
                ]
                new = oracle.check_group(members, label)
            else:
                new = oracle.check(label)
            found.extend(f"{server.host}: {violation}" for violation in new)
        for check in self._extra_checks:
            extra = check(label)
            self.extra_violations.extend(extra)
            found.extend(extra)
        return found

    def _group_for(self, index: int):
        groups = getattr(self.cluster, "groups", None)
        if not groups or index >= len(groups):
            return None
        return groups[index]

    def check_divergence(self, label: str = "quiesce") -> List[str]:
        """Byte-compare surviving replica images after the run drains.

        The group contract tolerates lagging backups *mid-run*; once the
        fleet has quiesced (all batches shipped, acked, and applied) every
        surviving member of a group must agree byte-for-byte on every
        acked file — size and durable content.  Violations are recorded on
        the shard's oracle so :attr:`clean` reflects them.
        """
        found: List[str] = []
        now = self.env.now
        for index, server in enumerate(self.cluster.servers):
            group = self._group_for(index)
            if group is None or group.replicas == 0:
                continue
            oracle = self._oracle_for(server.host)
            survivors = group.surviving()
            if len(survivors) < 2:
                continue
            shard_found: List[str] = []
            reference = survivors[0]
            for ino in oracle.acked_inos():
                sizes = {}
                for member in survivors:
                    snapshot = member.ufs.cache.durable.inodes.get(ino)
                    sizes[member.host] = None if snapshot is None else snapshot.size
                reference_size = sizes[reference.host]
                for member in survivors[1:]:
                    if sizes[member.host] != reference_size:
                        shard_found.append(
                            f"[{label} t={now:.6f}] ino {ino}: durable size "
                            f"diverges ({reference.host}={reference_size}, "
                            f"{member.host}={sizes[member.host]})"
                        )
                        continue
                    if not reference_size:
                        continue
                    want = reference.ufs.durable_read(ino, 0, reference_size)
                    got = member.ufs.durable_read(ino, 0, reference_size)
                    if got != want:
                        shard_found.append(
                            f"[{label} t={now:.6f}] ino {ino}: durable bytes "
                            f"diverge between {reference.host} and {member.host}"
                        )
            oracle.checks += 1
            oracle.violations.extend(shard_found)
            found.extend(f"{server.host}: {violation}" for violation in shard_found)
        return found

    @property
    def acked_writes(self) -> int:
        return sum(oracle.acked_writes for oracle in self._per_shard.values())

    @property
    def checks(self) -> int:
        return sum(oracle.checks for oracle in self._per_shard.values())

    @property
    def read_violations(self) -> List[str]:
        """Silent-corruption reads (acked READ bytes != acked write image)."""
        out: List[str] = []
        for host in sorted(self._per_shard):
            out.extend(
                f"{host}: {violation}"
                for violation in self._per_shard[host].read_violations
            )
        return out

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for host in sorted(self._per_shard):
            out.extend(
                f"{host}: {violation}"
                for violation in self._per_shard[host].violations
            )
        out.extend(self.extra_violations)
        return out

    @property
    def clean(self) -> bool:
        return not self.extra_violations and all(
            oracle.clean for oracle in self._per_shard.values()
        )
