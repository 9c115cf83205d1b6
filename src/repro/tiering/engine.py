"""Crash-safe live migration: copy-then-cutover between shards.

The :class:`MigrationEngine` moves one file at a time from its current
shard to a destination shard while clients keep writing to it, without
ever losing an acked write.  The protocol is the classic three-act live
migration, adapted to the cluster's RPC-free router:

1. **Snapshot copy** — ``MIGRATE_BEGIN`` installs dirty-range tracking
   on the source (a :class:`ShardMigrator` hook on every UFS write),
   then the engine streams the file with ``MIGRATE_READ`` /
   ``MIGRATE_WRITE`` chunks.  Writes keep landing on the source; the
   tracker records what the snapshot missed.
2. **Delta drain** — ``MIGRATE_DELTA`` rotates one round of dirtied
   ranges (idempotent per round number); the engine re-copies them.
   Rounds repeat until a round converges under the park threshold.
3. **Park + cutover** — ``MIGRATE_PARK`` freezes the file *at the
   instant the handler runs*: from that instant the source abandons
   every mutating reply for the file, so no write can be acked under the
   old authority again.  The park reply carries the final delta bytes
   (peeked without yielding — nothing can interleave) and the file's
   recent dup-cache entries.  The engine ships both durably to the
   destination, then performs the cutover in a single no-yield block:
   verify the park fence still stands (the source session is volatile,
   so any crash or promotion since park voids it), atomically repoint
   the router's handle+name pins, and hand the file's oracle bookkeeping
   to the destination shard.  Finally ``MIGRATE_PURGE`` removes the
   source copy.

Any fault before cutover — source crash, destination crash, partition,
replica promotion — surfaces as an RPC timeout or a lost-session error;
the engine aborts (best-effort unpark + the next attempt re-prepares the
destination) and retries with backoff.  A fault *after* cutover needs no
undo: the destination already holds every acked byte durably, and only
the source purge is retried.  Clients never participate: their stranded
calls retransmit, and the per-attempt route hook lands the
retransmission on the new authority the moment the pins move.

Unstable (NFSv3) writes are safe across the repoint because the engine
copies even cached-but-uncommitted source bytes durably: a post-cutover
COMMIT either mismatches the destination's boot verifier (the client
replays its writes — ordinary replay machinery) or matches one whose
durable image already covers the range.  Either way the acked data
survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

from repro.cluster.fleet import stack_by_host
from repro.fs.inode import FileType
from repro.fs.ufs import ROOT_INO, FsError
from repro.fs.vfs import IO_DELAYDATA
from repro.nfs.protocol import (
    PROC_COMMIT,
    PROC_LOOKUP,
    PROC_MIGRATE_ABORT,
    PROC_MIGRATE_BEGIN,
    PROC_MIGRATE_DELTA,
    PROC_MIGRATE_PARK,
    PROC_MIGRATE_PREPARE,
    PROC_MIGRATE_PURGE,
    PROC_MIGRATE_READ,
    PROC_MIGRATE_WRITE,
    PROC_REMOVE,
    PROC_RENAME,
    PROC_SETATTR,
    PROC_WRITE,
    LookupArgs,
    WEIGHT_OF,
)
from repro.replica.messages import ReplOp
from repro.rpc.client import RpcClient, RpcTimeoutError
from repro.rpc.dupcache import DONE
from repro.rpc.messages import RPC_HEADER_BYTES, RpcCall

__all__ = [
    "ShardMigrator",
    "MigrationEngine",
    "MigrationPlan",
    "MigrateBeginArgs",
    "MigrateReadArgs",
    "MigrateDeltaArgs",
    "MigrateParkArgs",
    "MigrateAbortArgs",
    "MigratePrepareArgs",
    "MigrateWriteArgs",
    "MigratePurgeArgs",
]

#: Error status for a migration call whose source-side session is gone
#: (crash, promotion, or an abort the engine never saw).
ENOSESSION = "ENOSESSION"


@dataclass
class MigrateBeginArgs:
    fhandle: tuple
    name: str


@dataclass
class MigrateReadArgs:
    fhandle: tuple
    offset: int
    count: int


@dataclass
class MigrateDeltaArgs:
    fhandle: tuple
    round_no: int


@dataclass
class MigrateParkArgs:
    fhandle: tuple


@dataclass
class MigrateAbortArgs:
    fhandle: tuple


@dataclass
class MigratePrepareArgs:
    name: str
    ino: int
    generation: int


@dataclass
class MigrateWriteArgs:
    ino: int
    generation: int
    offset: int
    data: bytes
    #: Shipped dup-cache entries (client, xid, proc, reply) — only on the
    #: final "seal" call, so post-cutover retransmissions of recently
    #: answered writes/commits replay their replies from the new shard.
    dups: tuple = ()


@dataclass
class MigratePurgeArgs:
    name: str
    ino: int


def _merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Coalesce (start, end) byte ranges; result sorted and disjoint."""
    if not ranges:
        return []
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(ranges):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


class _Session:
    """Source-side per-file migration state.  Volatile by design: a crash
    or promotion wipes it, which is exactly how the engine learns that
    the park fence (and the dirty tracking behind it) did not survive."""

    __slots__ = ("ino", "name", "dirty", "rounds", "parked")

    def __init__(self, ino: int, name: str) -> None:
        self.ino = ino
        self.name = name
        #: Byte ranges written since the last delta rotation.
        self.dirty: List[Tuple[int, int]] = []
        #: Rotated rounds, kept so a retransmitted DELTA is idempotent.
        self.rounds: Dict[int, List[Tuple[int, int]]] = {}
        self.parked = False


#: Procs whose replies must be abandoned for a parked/moved file, keyed
#: by how their args identify the target.
_FROZEN_BY_FHANDLE = frozenset((PROC_WRITE, PROC_COMMIT, PROC_SETATTR))
_FROZEN_BY_NAME = frozenset((PROC_REMOVE,))


class ShardMigrator:
    """Per-server migration agent: source and destination halves.

    Installed on every cluster server (primaries *and* backups, so a
    promoted backup can serve the destination role mid-migration).  Costs
    nothing when idle: the UFS write hook is a dict probe, and the
    dispatch/reply gates are a None-check until a file is frozen.
    """

    def __init__(self, server) -> None:
        self.server = server
        server.migrator = self
        server.ufs.on_write = self._on_write
        #: Active source-side sessions, by ino.
        self.sessions: Dict[int, _Session] = {}
        #: Files whose mutating replies must be abandoned (parked, or
        #: already cut over and awaiting purge): ino -> name.
        self.frozen: Dict[int, str] = {}
        actions = server._actions
        actions[PROC_MIGRATE_BEGIN] = self.handle_begin
        actions[PROC_MIGRATE_READ] = self.handle_read
        actions[PROC_MIGRATE_DELTA] = self.handle_delta
        actions[PROC_MIGRATE_PARK] = self.handle_park
        actions[PROC_MIGRATE_ABORT] = self.handle_abort
        actions[PROC_MIGRATE_PREPARE] = self.handle_prepare
        actions[PROC_MIGRATE_WRITE] = self.handle_write
        actions[PROC_MIGRATE_PURGE] = self.handle_purge

    # -- write observation and gating -------------------------------------------

    def _on_write(self, ino: int, offset: int, length: int) -> None:
        session = self.sessions.get(ino)
        if session is not None:
            session.dirty.append((offset, offset + length))
            if len(session.dirty) > 256:
                session.dirty = _merge_ranges(session.dirty)

    def blocks(self, proc: str, args) -> bool:
        """True when a request/reply targets a frozen file and must be
        abandoned (the client retransmits into the new authority)."""
        if not self.frozen:
            return False
        if proc in _FROZEN_BY_FHANDLE:
            fhandle = getattr(args, "fhandle", None)
            return fhandle is not None and fhandle[0] in self.frozen
        if proc in _FROZEN_BY_NAME:
            return getattr(args, "name", None) in self.frozen.values()
        if proc == PROC_RENAME:
            names = self.frozen.values()
            return args.src_name in names or args.dst_name in names
        return False

    def _freeze(self, ino: int, name: str) -> None:
        self.frozen[ino] = name

    def _unfreeze(self, ino: int) -> None:
        self.frozen.pop(ino, None)

    def mark_moved(self, ino: int) -> None:
        """Cutover bookkeeping: the session ends, the freeze stays until
        the source copy is purged (no mutation may sneak in between)."""
        self.sessions.pop(ino, None)

    def reset_volatile(self) -> None:
        """Crash semantics: sessions, fences, everything — RAM."""
        self.sessions.clear()
        self.frozen.clear()

    # -- source-side handlers ----------------------------------------------------

    def _session_for(self, fhandle) -> _Session:
        session = self.sessions.get(fhandle[0])
        if session is None:
            raise FsError(ENOSESSION, f"no migration session for ino {fhandle[0]}")
        return session

    def handle_begin(self, args: MigrateBeginArgs):
        """Install dirty tracking and report the file's size + generation.

        The session lands *before* the size is read, in the same sim
        instant — a write extending the file after this point dirties the
        extension, so the snapshot + deltas always cover everything.
        """
        server = self.server
        inode = server.ufs.get_inode(args.fhandle[0], args.fhandle[1])
        ino = inode.ino
        # A begin supersedes any stale session (an abort the source never
        # received): fresh tracking, fence down.
        self._unfreeze(ino)
        self.sessions[ino] = _Session(ino, args.name)
        yield from server.cpu.consume(0.0001)
        return (inode.size, inode.generation), RPC_HEADER_BYTES

    def handle_read(self, args: MigrateReadArgs):
        server = self.server
        inode = server.ufs.get_inode(args.fhandle[0], args.fhandle[1])
        data = yield from server.ufs.read(inode, args.offset, args.count)
        return data, RPC_HEADER_BYTES + len(data)

    def handle_delta(self, args: MigrateDeltaArgs):
        """Rotate one round of dirty ranges (idempotent per round)."""
        session = self._session_for(args.fhandle)
        ranges = session.rounds.get(args.round_no)
        if ranges is None:
            ranges = _merge_ranges(session.dirty)
            session.dirty = []
            session.rounds[args.round_no] = ranges
            # Older rounds were copied (or retransmitted) already.
            for stale in [r for r in session.rounds if r < args.round_no - 1]:
                del session.rounds[stale]
        yield from self.server.cpu.consume(0.0001)
        return list(ranges), RPC_HEADER_BYTES

    def handle_park(self, args: MigrateParkArgs):
        """Freeze the file and return the final delta, without yielding.

        Everything before this generator's first ``yield`` runs in one
        sim instant: the fence goes up, then the remaining dirty bytes
        are *peeked* from cache/durable state (no I/O events), then the
        file's recent dup-cache entries are collected.  Any write acked
        before this instant is therefore in the snapshot+deltas+final
        set; any write after it will never be acked by this shard.
        """
        session = self._session_for(args.fhandle)
        server = self.server
        inode = server.ufs.get_inode(args.fhandle[0], args.fhandle[1])
        session.parked = True
        self._freeze(inode.ino, session.name)
        final = _merge_ranges(
            session.dirty
            + [r for ranges in session.rounds.values() for r in ranges]
        )
        session.dirty = []
        session.rounds.clear()
        entries: List[Tuple[int, bytes]] = []
        payload = 0
        for start, end in final:
            end = min(end, inode.size)
            if end <= start:
                continue
            data = self._peek(inode, start, end)
            entries.append((start, data))
            payload += len(data)
        dups = self._recent_dups()
        yield from server.cpu.consume(0.0001 + 0.0000001 * payload)
        return (entries, dups, inode.size), RPC_HEADER_BYTES + payload

    def _peek(self, inode, start: int, end: int) -> bytes:
        """Read [start, end) from cache buffers / the durable image with
        no simulation events (park-instant snapshot)."""
        ufs = self.server.ufs
        block_size = ufs.block_size
        out = bytearray()
        pos = start
        while pos < end:
            fblock = pos // block_size
            within = pos - fblock * block_size
            take = min(end - pos, block_size - within)
            chunk = None
            addr = inode.block_addr(fblock)
            if addr is not None:
                buffer = ufs.cache.lookup(addr)
                if buffer is not None:
                    chunk = bytes(buffer.data[within : within + take])
            if chunk is None:
                durable = ufs.durable_read(inode.ino, pos, take)
                chunk = durable if durable is not None else b"\x00" * take
            if len(chunk) < take:
                chunk = chunk + b"\x00" * (take - len(chunk))
            out.extend(chunk)
            pos += take
        return bytes(out)

    def _recent_dups(self) -> tuple:
        """The dup-cache entries worth shipping: recently answered
        non-idempotent data ops whose retransmissions may chase the file
        to its new shard.  Entries for other files ride along inertly
        (xids are globally unique; their retransmissions route elsewhere)."""
        cache = self.server.svc.dup_cache
        now = self.server.env.now
        shipped = []
        for (client, xid), entry in cache._entries.items():
            if entry.state != DONE or entry.reply is None:
                continue
            if entry.proc not in (PROC_WRITE, PROC_COMMIT, PROC_SETATTR):
                continue
            if now - entry.when > cache.reply_window:
                continue
            shipped.append((client, xid, entry.proc, entry.reply))
        return tuple(shipped)

    def handle_abort(self, args: MigrateAbortArgs):
        """Idempotent unpark: drop the session and lower the fence."""
        ino = args.fhandle[0]
        self.sessions.pop(ino, None)
        self._unfreeze(ino)
        yield from self.server.cpu.consume(0.0001)
        return None, RPC_HEADER_BYTES

    # -- destination-side handlers ----------------------------------------------

    def handle_prepare(self, args: MigratePrepareArgs):
        """Adopt the file under its *original* ino + generation, so every
        client-held handle survives the cutover verbatim."""
        server = self.server
        ufs = server.ufs
        root = ufs.inodes[ROOT_INO]
        existing = root.entries.get(args.name)
        if existing is not None:
            if existing != args.ino:
                raise FsError("EEXIST", f"{args.name} exists as ino {existing}")
            inode = ufs.inodes[existing]
            inode.generation = args.generation
            yield from server.cpu.consume(0.0001)
            return None, RPC_HEADER_BYTES
        yield from ufs.adopt_inode(root, args.name, args.ino, args.generation)
        replicator = server.replicator
        if replicator is not None and replicator.active:
            op = ReplOp(
                proc=PROC_MIGRATE_PREPARE,
                ino=args.ino,
                generation=args.generation,
                dir_ino=ROOT_INO,
                name=args.name,
            )
            yield from replicator.commit_wait([op])
        return None, RPC_HEADER_BYTES

    def handle_write(self, args: MigrateWriteArgs):
        """Apply one migrated extent durably (and replicate it), then
        prime any shipped dup-cache entries."""
        server = self.server
        ufs = server.ufs
        if args.data:
            inode = ufs.get_inode(args.ino, args.generation)
            yield from ufs.write(inode, args.offset, args.data, IO_DELAYDATA)
            yield from ufs.sync_data(
                inode, args.offset, args.offset + len(args.data)
            )
            if inode.inode_dirty or inode.indirect_dirty:
                yield from ufs.fsync(inode, metadata_only=True)
            replicator = server.replicator
            if replicator is not None and replicator.active:
                op = ReplOp(
                    proc=PROC_WRITE,
                    ino=args.ino,
                    generation=args.generation,
                    offset=args.offset,
                    data=args.data,
                )
                yield from replicator.commit_wait([op])
        else:
            yield from server.cpu.consume(0.0001)
        for client, xid, proc, reply in args.dups:
            server.svc.dup_cache.record_done(
                RpcCall(xid=xid, proc=proc, args=None, size=1, client=client),
                reply,
            )
        return len(args.data), RPC_HEADER_BYTES

    def handle_purge(self, args: MigratePurgeArgs):
        """Remove this shard's copy (idempotent; refuses nothing)."""
        server = self.server
        ufs = server.ufs
        root = ufs.inodes[ROOT_INO]
        if root.entries.get(args.name) != args.ino:
            # Already purged, or the name was reborn as another file.
            self._unfreeze(args.ino)
            yield from server.cpu.consume(0.0001)
            return None, RPC_HEADER_BYTES
        yield from ufs.remove(root, args.name)
        server.vnodes.forget(args.ino)
        replicator = server.replicator
        if replicator is not None and replicator.active:
            op = ReplOp(proc=PROC_REMOVE, dir_ino=ROOT_INO, name=args.name)
            yield from replicator.commit_wait([op])
        self._unfreeze(args.ino)
        return None, RPC_HEADER_BYTES


@dataclass(frozen=True)
class MigrationPlan:
    """One scheduled migration: move ``name`` to shard ``dest`` at ``at``."""

    at: float
    name: str
    dest: str


class _Abort(Exception):
    """One migration attempt failed; the engine retries from BEGIN."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class MigrationEngine:
    """Drives migrations over the cluster's own transports.

    The engine is a privileged internal client: one endpoint per rack,
    calls routed through a :class:`~repro.cluster.router.ClusterRpc` so
    promotions redirect its traffic exactly as they redirect clients'.
    ``copy_pace`` (seconds per copied chunk) widens the copy window so
    fault campaigns can reliably land crashes mid-copy.
    """

    def __init__(
        self,
        cluster,
        oracle=None,
        chunk_bytes: int = 32768,
        park_threshold: int = 16384,
        max_rounds: int = 6,
        max_retries: int = 4,
        retry_backoff: float = 0.25,
        copy_pace: float = 0.0,
        failover_attempts: int = 4,
    ) -> None:
        from repro.cluster.router import ClusterRpc

        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        # The parts the engine drives, not the cluster: nothing under a
        # cluster may hold the cluster.
        self.env = cluster.env
        self.router = cluster.router
        self.groups = cluster.groups
        self._stacks = cluster.stacks
        self.oracle = oracle
        self.chunk_bytes = chunk_bytes
        self.park_threshold = park_threshold
        self.max_rounds = max_rounds
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.copy_pace = copy_pace
        host = cluster.segments[0].unique_host("migrator")
        rpcs = [
            RpcClient(self.env, segment.attach(host), cluster.servers[0].host)
            for segment in cluster.segments
        ]
        self.rpc = ClusterRpc(
            rpcs,
            cluster.router,
            cluster._rack_of_server,
            failover_attempts=failover_attempts,
        )
        #: Per-file migration state; the contract check walks this.
        self.active: Dict[str, dict] = {}
        if oracle is not None:
            # Over the engine's parts, not a bound method: the engine holds
            # the oracle, so the oracle must not hold the engine.
            oracle.add_check(
                partial(migration_contract, self.env, self.router, self.groups, self.active)
            )
        #: Completed fault/outcome log, in event order.
        self.records: List[dict] = []
        self.started = 0
        self.completed = 0
        self.aborts = 0

    def start(self, plans) -> "MigrationEngine":
        for plan in plans:
            self.env.process(
                self._drive(plan), name=f"migrate:{plan.name}->{plan.dest}"
            )
        return self

    # -- the per-migration process ------------------------------------------------

    def _drive(self, plan: MigrationPlan):
        if plan.at > self.env.now:
            yield self.env.timeout(plan.at - self.env.now)
        self.started += 1
        record = {
            "kind": "migration",
            "name": plan.name,
            "dest": plan.dest,
            "start": round(self.env.now, 6),
            "attempts": 0,
            "aborts": [],
            "outcome": "pending",
        }
        self.records.append(record)
        outcome = "gave-up"
        for attempt in range(1, self.max_retries + 1):
            record["attempts"] = attempt
            try:
                outcome = yield from self._attempt(plan)
                break
            except _Abort as abort:
                self.aborts += 1
                record["aborts"].append(abort.reason)
                yield from self._cleanup_abort(plan)
                yield self.env.timeout(self.retry_backoff * attempt)
        if outcome == "gave-up":
            yield from self._cleanup_gave_up(plan)
            state = self.active.get(plan.name)
            if state is not None:
                state["phase"] = "failed"
        record["outcome"] = outcome
        record["end"] = round(self.env.now, 6)
        if outcome == "done":
            self.completed += 1

    def _call(self, proc, args, size, server, reply_size=RPC_HEADER_BYTES):
        try:
            reply = yield from self.rpc.call(
                proc,
                args,
                size,
                reply_size=reply_size,
                weight=WEIGHT_OF[proc],
                server=server,
            )
        except RpcTimeoutError as exc:
            raise _Abort(f"{proc} to {server} timed out") from exc
        if not reply.ok:
            raise _Abort(f"{proc} to {server} failed: {reply.status}")
        return reply

    def _attempt(self, plan: MigrationPlan):
        router = self.router
        name = plan.name
        reply = yield from self._call_lookup(name)
        if reply is None:
            return "gone"
        fhandle, _fattr = reply.result
        ino = fhandle[0]
        source = router.server_for_fhandle(fhandle)
        if source == plan.dest:
            return "noop"
        state = self.active.setdefault(name, {})
        state.update(
            {
                "name": name,
                "ino": ino,
                "fhandle": fhandle,
                "source": source,
                "dest": plan.dest,
                "authority": source,
                "phase": "copy",
                "purged": False,
            }
        )

        # Act 1: begin + snapshot copy.
        reply = yield from self._call(
            PROC_MIGRATE_BEGIN,
            MigrateBeginArgs(fhandle, name),
            RPC_HEADER_BYTES + len(name),
            source,
        )
        size0, generation = reply.result
        yield from self._call(
            PROC_MIGRATE_PREPARE,
            MigratePrepareArgs(name, ino, generation),
            RPC_HEADER_BYTES + len(name),
            plan.dest,
        )
        yield from self._copy_ranges(
            fhandle, ino, generation, source, plan.dest, [(0, size0)]
        )

        # Act 2: delta drain until a round converges.
        round_no = 0
        while True:
            reply = yield from self._call(
                PROC_MIGRATE_DELTA,
                MigrateDeltaArgs(fhandle, round_no),
                RPC_HEADER_BYTES,
                source,
            )
            round_no += 1
            ranges = reply.result
            yield from self._copy_ranges(
                fhandle, ino, generation, source, plan.dest, ranges
            )
            total = sum(end - start for start, end in ranges)
            if total <= self.park_threshold or round_no >= self.max_rounds:
                break

        # Act 3: park, ship the final delta durably, cut over.
        state["phase"] = "park"
        reply = yield from self._call(
            PROC_MIGRATE_PARK, MigrateParkArgs(fhandle), RPC_HEADER_BYTES, source
        )
        entries, dups, _final_size = reply.result
        for offset, data in entries:
            for at in range(0, len(data), self.chunk_bytes):
                piece = data[at : at + self.chunk_bytes]
                yield from self._call(
                    PROC_MIGRATE_WRITE,
                    MigrateWriteArgs(ino, generation, offset + at, piece),
                    RPC_HEADER_BYTES + len(piece),
                    plan.dest,
                )
        # The seal call: primes the destination's dup cache even when the
        # final delta was empty.
        yield from self._call(
            PROC_MIGRATE_WRITE,
            MigrateWriteArgs(ino, generation, 0, b"", dups=dups),
            RPC_HEADER_BYTES + 64 * len(dups),
            plan.dest,
        )

        # Cutover: one sim instant, no yields between the fence check and
        # the pin repoint — nothing can interleave.
        acting = stack_by_host(self._stacks, router.resolve(source)).server
        migrator = getattr(acting, "migrator", None)
        session = migrator.sessions.get(ino) if migrator is not None else None
        if session is None or not session.parked:
            # The fence fell (crash wiped the volatile session, or a
            # promoted backup is acting and never had one): some write
            # may have been acked since park — the copy is not trusted.
            raise _Abort("park fence lost before cutover")
        if router.server_for_fhandle(fhandle) != source:
            raise _Abort("authority moved under the migration")
        router.migrate_pin(fhandle, name, plan.dest)
        if self.oracle is not None:
            self.oracle.transfer_ino(ino, source, plan.dest)
        migrator.mark_moved(ino)
        state["authority"] = plan.dest
        state["phase"] = "cleanup"

        # Roll-forward cleanup: only the source purge remains; acked data
        # already lives (durably) at the destination.
        purged = False
        for attempt in range(3):
            try:
                yield from self._call(
                    PROC_MIGRATE_PURGE,
                    MigratePurgeArgs(name, ino),
                    RPC_HEADER_BYTES + len(name),
                    source,
                )
                purged = True
                break
            except _Abort:
                yield self.env.timeout(self.retry_backoff * (attempt + 1))
        state["purged"] = purged
        state["phase"] = "done"
        return "done"

    def _call_lookup(self, name: str):
        """Resolve the file's handle (pinning it); None when it's gone."""
        args = LookupArgs(self.router.root_fhandle, name)
        try:
            reply = yield from self.rpc.call(
                PROC_LOOKUP,
                args,
                RPC_HEADER_BYTES + len(name),
                weight=WEIGHT_OF[PROC_LOOKUP],
            )
        except RpcTimeoutError as exc:
            raise _Abort("lookup timed out") from exc
        if not reply.ok:
            return None
        return reply

    def _copy_ranges(self, fhandle, ino, generation, source, dest, ranges):
        for start, end in ranges:
            offset = start
            while offset < end:
                take = min(self.chunk_bytes, end - offset)
                reply = yield from self._call(
                    PROC_MIGRATE_READ,
                    MigrateReadArgs(fhandle, offset, take),
                    RPC_HEADER_BYTES,
                    source,
                    reply_size=RPC_HEADER_BYTES + take,
                )
                data = reply.result
                if data:
                    yield from self._call(
                        PROC_MIGRATE_WRITE,
                        MigrateWriteArgs(ino, generation, offset, data),
                        RPC_HEADER_BYTES + len(data),
                        dest,
                    )
                offset += take
                if self.copy_pace:
                    yield self.env.timeout(self.copy_pace)

    def _cleanup_abort(self, plan: MigrationPlan):
        """Best-effort unpark; the next attempt re-prepares the dest."""
        state = self.active.get(plan.name)
        if not state or state.get("phase") in ("cleanup", "done"):
            return
        state["phase"] = "aborted"
        try:
            yield from self._call(
                PROC_MIGRATE_ABORT,
                MigrateAbortArgs(state["fhandle"]),
                RPC_HEADER_BYTES,
                state["source"],
            )
        except _Abort:
            pass  # unreachable source: its volatile fence dies with it

    def _cleanup_gave_up(self, plan: MigrationPlan):
        """Terminal abort: purge the destination's partial copy so the
        fleet never quiesces with two physical copies of one file."""
        state = self.active.get(plan.name)
        if not state or state.get("authority") != state.get("source"):
            return
        try:
            yield from self._call(
                PROC_MIGRATE_PURGE,
                MigratePurgeArgs(plan.name, state["ino"]),
                RPC_HEADER_BYTES + len(plan.name),
                state["dest"],
            )
        except _Abort:
            pass

    # -- the migration contract ----------------------------------------------------

    def check_contract(self, label: str = "") -> List[str]:
        """The migration contract now (see :func:`migration_contract`)."""
        return migration_contract(
            self.env, self.router, self.groups, self.active, self.oracle, label
        )

    def summary(self) -> dict:
        """JSON-ready counters + per-migration outcomes."""
        return {
            "started": self.started,
            "completed": self.completed,
            "aborts": self.aborts,
            "migrations": [dict(record) for record in self.records],
        }


def migration_contract(env, router, groups, active, oracle, label: str = "") -> List[str]:
    """Every acked range satisfiable at exactly one authoritative
    location, at every instant the oracle looks.

    Registered with the :class:`~repro.cluster.oracle.ClusterOracle` over
    the engine's parts (the oracle passes itself), so every fault check
    and the final check walk it for free:

    * the router's pins agree with the engine's recorded authority
      (clients can only reach the shard that holds the promise);
    * the oracle files the ino's promises under exactly the
      authority (no shard silently co-owns acked ranges);
    * once a migration is done *and purged*, no source-group member
      still holds the ino (no second physical copy at quiesce).
    """
    found: List[str] = []
    now = env.now
    for name, state in sorted(active.items()):
        authority = state["authority"]
        pinned = router._fhandle_pins.get(state["fhandle"])
        if pinned is not None and pinned != authority:
            found.append(
                f"[migration {name} t={now:.6f}] handle pinned to "
                f"{pinned} but authority is {authority} ({label})"
            )
        name_pin = router.server_for_name(name)
        if name_pin != authority:
            found.append(
                f"[migration {name} t={now:.6f}] name routes to "
                f"{name_pin} but authority is {authority} ({label})"
            )
        if oracle is not None:
            holders = oracle.holders_of(state["ino"])
            strays = [h for h in holders if h != authority]
            if strays:
                found.append(
                    f"[migration {name} t={now:.6f}] acked ranges "
                    f"tracked at {strays}, authority is {authority} "
                    f"({label})"
                )
        if state.get("phase") == "done" and state.get("purged"):
            found.extend(_check_single_copy(groups, name, state, label))
    return found


def _check_single_copy(groups, name: str, state: dict, label: str) -> List[str]:
    found: List[str] = []
    source = state["source"]
    ino = state["ino"]
    for group in groups:
        if group.logical_host != source:
            continue
        for member in group.surviving():
            inode = member.ufs.inodes.get(ino)
            if inode is not None and inode.ftype == FileType.FILE:
                found.append(
                    f"[migration {name}] purged source copy still "
                    f"present on {member.host} ({label})"
                )
    return found
