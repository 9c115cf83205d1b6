"""Server-side lease table: grant, recall, expire, grace.

One :class:`LeaseManager` per server.  Grants are computed after an action
completes and ride back piggybacked on the :class:`~repro.rpc.messages.RpcReply`
(``reply.lease``); conflicts are quiesced *before* a mutating action runs
(:meth:`LeaseManager.before`), by recalling every conflicting holder over a
dedicated callback endpoint (``{host}.cb`` — the server's main inbox is a
single-consumer socket buffer, so callback replies need their own).

Two invariants the staleness oracle checks:

* a mutation executes only after every conflicting lease is acked away or
  expired — so no holder can keep serving data the mutation invalidates;
* the recall wait is bounded by the lease TTL, so a partitioned holder
  stalls a writer for at most one TTL (the Gray & Cheriton argument).

The table is volatile: a crash empties it and opens a one-TTL *grace
period* during which mutations wait, so pre-crash leases (which the new
incarnation no longer remembers) drain by expiry before anything can
conflict with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Generator, Optional, Tuple

from repro.nfs.protocol import (
    PROC_CB_RECALL,
    PROC_CREATE,
    PROC_GETATTR,
    PROC_LOOKUP,
    PROC_READ,
    PROC_READDIR,
    PROC_READLINK,
    PROC_REMOVE,
    PROC_RENAME,
    PROC_SETATTR,
    PROC_SYMLINK,
    PROC_WRITE,
    RecallArgs,
)
from repro.obs import registry_for
from repro.rpc.client import RpcClient, RpcTimeoutError, RpcTimeoutPolicy
from repro.rpc.messages import CLASS_LIGHT, RPC_HEADER_BYTES
from repro.sim import Environment, Event

__all__ = ["LEASE_READ", "LEASE_WRITE", "Lease", "LeaseGrant", "LeaseManager"]

LEASE_READ = "read"
LEASE_WRITE = "write"

#: Retry budget for one recall callback; expiry bounds the *wait* either
#: way, this merely stops the background sender from retrying forever.
RECALL_MAX_ATTEMPTS = 8


def _settle(wait: Event, _ack: Event) -> None:
    """Recall-ack callback: wake the waiter unless the lease's expiry
    deadline got there first."""
    if not wait.triggered:
        wait.succeed()


@dataclass(frozen=True)
class LeaseGrant:
    """What the client receives: one lease on one file handle."""

    fhandle: tuple
    mode: str
    #: Absolute simulation time the lease dies.  The simulated cluster
    #: shares one clock, so client and server agree on it exactly.
    expires_at: float


class Lease:
    """Server-side record of one holder's lease."""

    __slots__ = ("mode", "expires_at")

    def __init__(self, mode: str, expires_at: float) -> None:
        self.mode = mode
        self.expires_at = expires_at


class LeaseManager:
    """Grants, tracks, recalls, and expires leases for one server."""

    def __init__(
        self,
        env: Environment,
        segment,
        host: str,
        ttl: float,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be > 0, got {ttl}")
        self.env = env
        self.host = host
        self.ttl = ttl
        #: Callback transport: its own endpoint (socket buffers are
        #: single-consumer; sharing the server inbox would steal request
        #: datagrams) named after the replica-host convention.
        self.cb_endpoint = segment.attach(f"{host}.cb")
        self.cb = RpcClient(
            env,
            self.cb_endpoint,
            server=host,
            policy=RpcTimeoutPolicy(max_attempts=RECALL_MAX_ATTEMPTS),
        )
        #: fhandle -> {client host -> Lease}.
        self._holders: Dict[tuple, Dict[str, Lease]] = {}
        #: In-flight recalls, (fhandle, holder) -> ack Event, so concurrent
        #: mutators share one callback instead of raising a CB storm.
        self._recalls: Dict[Tuple[tuple, str], Event] = {}
        #: End of the post-crash grace period (mutations wait until then).
        self.grace_until = 0.0
        #: Staleness-oracle hook: called as ``(fhandle, client)`` right
        #: before a quiesced mutation executes.
        self.on_mutate = None
        metrics = registry_for(env)
        prefix = f"leases.{host}"
        self.granted = metrics.counter(f"{prefix}.granted")
        self.recalls_sent = metrics.counter(f"{prefix}.recalls")
        self.recall_acks = metrics.counter(f"{prefix}.recall_acks")
        self.recall_expirations = metrics.counter(f"{prefix}.recall_expirations")
        self.grace_delays = metrics.counter(f"{prefix}.grace_delays")

    # -- queries -----------------------------------------------------------------

    # -- granting ----------------------------------------------------------------

    def _grant(self, fhandle: tuple, mode: str, client: str) -> LeaseGrant:
        holders = self._holders.setdefault(fhandle, {})
        existing = holders.get(client)
        if existing is not None and existing.mode == LEASE_WRITE:
            mode = LEASE_WRITE  # a refresh never silently downgrades
        expires_at = self.env.now + self.ttl
        holders[client] = Lease(mode, expires_at)
        self.granted.add(1)
        return LeaseGrant(fhandle, mode, expires_at)

    def grants_for(self, proc: str, args, result, client: str) -> Optional[tuple]:
        """The grant tuple to piggyback on a successful ``proc`` reply.

        Read leases on lookup (directory *and* file — the dir lease covers
        the client's positive and negative dirent cache), getattr, read,
        readdir, and readlink; a write lease on create (the creator may
        write back lazily until someone else opens the file).
        """
        if proc == PROC_LOOKUP:
            fhandle, _fattr = result
            return (
                self._grant(args.dir_fhandle, LEASE_READ, client),
                self._grant(fhandle, LEASE_READ, client),
            )
        if proc in (PROC_GETATTR, PROC_READDIR, PROC_READLINK):
            return (self._grant(args, LEASE_READ, client),)
        if proc == PROC_READ:
            return (self._grant(args.fhandle, LEASE_READ, client),)
        if proc == PROC_CREATE:
            fhandle, _fattr = result
            return (self._grant(fhandle, LEASE_WRITE, client),)
        return None

    def grants_for_negative_lookup(self, args, client: str) -> tuple:
        """An ENOENT lookup still grants the dir lease, so the client may
        cache the *negative* entry until a create invalidates it."""
        return (self._grant(args.dir_fhandle, LEASE_READ, client),)

    def renew(self, args, client: str) -> Generator:
        """LEASE_RENEW action: re-grant whatever is conflict-free.

        Used to refresh a lease about to expire and — after a shard
        promotion — to re-register leases with the new primary, whose
        table is empty.  Conflicted wants are silently dropped from the
        grant list; the client revalidates those the slow way.
        """
        grants = []
        now = self.env.now
        for fhandle, mode in args.wants:
            holders = self._holders.get(fhandle, {})
            conflict = False
            for holder, lease in holders.items():
                if holder == client or lease.expires_at <= now:
                    continue
                if mode == LEASE_WRITE or lease.mode == LEASE_WRITE:
                    conflict = True
                    break
            if not conflict:
                grants.append(self._grant(fhandle, mode, client))
        return tuple(grants), RPC_HEADER_BYTES
        yield  # pragma: no cover - generator form for action-routine parity

    # -- conflict quiescing -------------------------------------------------------

    #: proc -> (keys-extractor, required mode).  Mutations need exclusive
    #: access (recall every other holder); reads only conflict with another
    #: client's *write* lease (its cache may hold dirty data newer than us).
    def _affected(self, proc: str, args):
        if proc == PROC_WRITE:
            return (args.fhandle,), LEASE_WRITE
        if proc == PROC_SETATTR:
            return (args.fhandle,), LEASE_WRITE
        if proc in (PROC_CREATE, PROC_REMOVE, PROC_SYMLINK):
            return (args.dir_fhandle,), LEASE_WRITE
        if proc == PROC_RENAME:
            return (args.src_dir_fhandle, args.dst_dir_fhandle), LEASE_WRITE
        if proc == PROC_GETATTR or proc == PROC_READDIR:
            return (args,), LEASE_READ
        if proc == PROC_READ:
            return (args.fhandle,), LEASE_READ
        if proc == PROC_LOOKUP:
            return (args.dir_fhandle,), LEASE_READ
        return None

    def before(self, proc: str, args, client: str) -> Generator:
        """Quiesce conflicting leases before ``proc`` executes.

        Generator; returns without yielding when there is nothing to do
        (the common case), so enabling leases adds no simulated latency to
        an uncontended operation.
        """
        affected = self._affected(proc, args)
        if affected is None:
            return
        keys, mode = affected
        if mode == LEASE_WRITE and self.env.now < self.grace_until:
            # Post-crash grace: pre-crash leases the new incarnation no
            # longer remembers must drain by expiry before any mutation.
            self.grace_delays.add(1)
            yield self.env.timeout(self.grace_until - self.env.now)
        for key in keys:
            yield from self._quiesce(key, mode, client)
        if mode == LEASE_WRITE and self.on_mutate is not None:
            for key in keys:
                self.on_mutate(key, client)

    def _quiesce(self, key: tuple, mode: str, requester: str) -> Generator:
        holders = self._holders.get(key)
        if not holders:
            return
        now = self.env.now
        targets = []
        for holder, lease in list(holders.items()):
            if lease.expires_at <= now:
                del holders[holder]
                continue
            if holder == requester:
                continue  # own lease never conflicts (flush-during-recall)
            if mode == LEASE_READ and lease.mode == LEASE_READ:
                continue
            targets.append((holder, lease))
        # Start every recall first (they progress in parallel), then wait
        # each out; every wait is bounded by that lease's expiry.
        started = [
            (holder, lease, self._start_recall(key, holder)) for holder, lease in targets
        ]
        for holder, lease, ack in started:
            yield from self._await_quiesced(key, holder, lease, ack)

    def _start_recall(self, key: tuple, holder: str) -> Event:
        ack = self._recalls.get((key, holder))
        if ack is None:
            ack = Event(self.env)
            self._recalls[(key, holder)] = ack
            self.env.process(
                self._drive_recall(key, holder, ack), name=f"recall@{self.host}"
            )
        return ack

    def _drive_recall(self, key: tuple, holder: str, ack: Event):
        self.recalls_sent.add(1)
        try:
            yield from self.cb.call(
                PROC_CB_RECALL,
                RecallArgs(key),
                size=RPC_HEADER_BYTES,
                weight=CLASS_LIGHT,
                server=holder,
            )
        except RpcTimeoutError:
            # Lost callback (partition, crash-dead client): the waiter has
            # long since fallen back to lease expiry.
            return
        finally:
            self._recalls.pop((key, holder), None)
        self.recall_acks.add(1)
        if not ack.triggered:
            ack.succeed()

    def _await_quiesced(self, key: tuple, holder: str, lease: Lease, ack: Event):
        """Wait for the recall ack or the lease's expiry, whichever first."""
        if not ack.triggered:
            remaining = lease.expires_at - self.env.now
            if remaining > 0:
                wait = Event(self.env)
                self.env.deadline(remaining, wait)
                ack.callbacks.append(partial(_settle, wait))
                yield wait
            if not ack.triggered:
                self.recall_expirations.add(1)
        holders = self._holders.get(key)
        if holders is not None:
            holders.pop(holder, None)

    # -- crash -------------------------------------------------------------------

    def reset_volatile(self) -> None:
        """Crash semantics: the table is RAM; grace covers its ghosts."""
        self._holders.clear()
        self._recalls.clear()
        self.grace_until = self.env.now + self.ttl
        self.cb_endpoint.inbox.reset_volatile()
