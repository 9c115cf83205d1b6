"""The NFS server: nfsd daemons, dispatch, and the non-write procedures.

Architecture per §4.2/§6.1: nfsds pull requests off the socket buffer via
the svc layer; each request is decoded (CPU), dispatched to an rfs_* action
routine, and answered.  The write action routine is pluggable — standard,
gathering, or the SIVA93 variant — and may return REPLY_PENDING, in which
case the nfsd simply goes back for more work while some other nfsd later
sends the parked reply from a cached transport handle.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.disk.device import Storage
from repro.fs.ufs import CostModel, FsError, Ufs
from repro.fs.vfs import VnodeTable
from repro.net.segment import Segment
from repro.fs.vfs import FWRITE, FWRITE_METADATA, IO_DELAYDATA
from repro.nfs.protocol import (
    PROC_COMMIT,
    PROC_CREATE,
    PROC_GETATTR,
    PROC_LEASE_RENEW,
    PROC_LOOKUP,
    PROC_MOUNT,
    PROC_READ,
    PROC_READDIR,
    PROC_READLINK,
    PROC_REMOVE,
    PROC_RENAME,
    PROC_SETATTR,
    PROC_STATFS,
    PROC_SYMLINK,
    PROC_UMOUNT,
    PROC_WRITE,
    Fattr,
)
from repro.obs import (
    PHASE_DISPATCH,
    PHASE_REPLICATE,
    PHASE_REPLY,
    PHASE_VNODE_WAIT,
    collector_for,
    registry_for,
)
from repro.rpc.dupcache import DuplicateRequestCache
from repro.rpc.messages import RPC_HEADER_BYTES
from repro.rpc.server import REPLY_DONE, SvcServer, TransportHandle
from repro.server.config import ServerConfig, WritePath
from repro.server.cpu import Cpu
from repro.server.standard import StandardWritePath
from repro.sim import Counter, Environment

__all__ = ["NfsServer", "StableStorageViolation"]

# CPU seconds for the RPC layer's side of each request, before
# ``cpu_scale``; per-frame receive costs come from the NetSpec and
# filesystem costs from :class:`~repro.fs.ufs.CostModel`.
#: svc decode and dispatch.
RPC_DISPATCH_CPU = 0.00025
#: Encoding and sending the reply.
REPLY_CPU = 0.00015


class StableStorageViolation(AssertionError):
    """Raised (in verify mode) when a reply would precede stable commit."""


class NfsServer:
    """One simulated NFS server host."""

    def __init__(
        self,
        env: Environment,
        segment: Segment,
        storage: Storage,
        host: str = "server",
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.env = env
        self.segment = segment
        self.spec = segment.spec
        self.storage = storage
        self.host = host
        self.config = config or ServerConfig()
        self.obs = collector_for(env)
        self.metrics = registry_for(env)
        self.endpoint = segment.attach(host, self.config.socket_buffer_bytes)
        self.cpu = Cpu(env)
        self.ufs = Ufs(
            env,
            storage,
            fs_bytes=self.config.fs_bytes,
            cpu=self.cpu,
            costs=CostModel().scaled(self.config.cpu_scale),
            ino_base=self.config.ino_base,
        )
        self.vnodes = VnodeTable(env, self.ufs)
        self.svc = SvcServer(
            env,
            self.endpoint,
            DuplicateRequestCache(env, enabled=self.config.dup_cache),
        )
        if self.config.admission_max_requests is not None:
            from repro.overload.admission import AdmissionQueue

            self.svc.attach_admission(
                AdmissionQueue(
                    env,
                    self.endpoint,
                    self.svc.dup_cache,
                    max_requests=self.config.admission_max_requests,
                    policy=self.config.shed_policy,
                )
            )
        self.write_path = self._make_write_path()
        #: Replica-group engine (repro.replica), installed by the cluster
        #: when the shard has backups; None on standalone servers.  When
        #: active, committed writes and namespace mutations must reach a
        #: quorum of backups before their replies are released.
        self.replicator = None
        #: Live-migration agent (repro.tiering), installed by the cluster
        #: on every member; None on standalone servers.  When a file is
        #: parked for cutover (or moved and awaiting purge), the agent's
        #: gates abandon its mutating requests and replies — the client
        #: retransmits and the router lands the retry on the new shard.
        self.migrator = None
        #: Lease layer (repro.lease): grants ride on replies, conflicting
        #: holders are recalled before mutations.  None = leases off.
        self.leases = None
        if self.config.lease_ttl is not None:
            from repro.lease.manager import LeaseManager

            self.leases = LeaseManager(env, segment, host, self.config.lease_ttl)
        #: Per-procedure completion counters, pre-resolved at construction
        #: so the reply hot path never does a name-keyed registry lookup.
        from repro.nfs.protocol import WEIGHT_OF

        self.ops_completed: Dict[str, Counter] = {
            proc: self.metrics.counter(f"{host}.ops.{proc}") for proc in WEIGHT_OF
        }
        self.op_latency = self.metrics.tally(f"{host}.op_latency")
        self.write_latency = self.metrics.tally(f"{host}.write_latency")
        self.stable_violations: list = []
        self._actions = {
            PROC_GETATTR: self._rfs_getattr,
            PROC_SETATTR: self._rfs_setattr,
            PROC_LOOKUP: self._rfs_lookup,
            PROC_READ: self._rfs_read,
            PROC_CREATE: self._rfs_create,
            PROC_REMOVE: self._rfs_remove,
            PROC_READDIR: self._rfs_readdir,
            PROC_STATFS: self._rfs_statfs,
            PROC_COMMIT: self._rfs_commit,
            PROC_READLINK: self._rfs_readlink,
            PROC_SYMLINK: self._rfs_symlink,
            PROC_RENAME: self._rfs_rename,
            PROC_MOUNT: self._mountd_mount,
            PROC_UMOUNT: self._mountd_umount,
        }
        #: NFSv3 write verifier: changes across (simulated) reboots so v3
        #: clients detect that unstable data may have been lost.
        self.boot_verifier = 1
        #: Simulation time of the last simulated crash; requests received
        #: before it died with the old incarnation and must never be
        #: answered (their clients will retransmit).
        self.last_crash_time = -1.0
        for nfsd_id in range(self.config.nfsds):
            env.process(self._nfsd(nfsd_id), name=f"nfsd{nfsd_id}@{host}")

    def close(self) -> None:
        """Cut the server's back-edges once its environment is closed.

        The write path, replicator and migration agent each point back at
        the server on every operation, and the action table holds bound
        methods; dropping the server's side of those edges lets a
        finished system die by refcount.
        """
        self._actions.clear()
        self.ufs.on_write = None
        self.write_path = self.replicator = self.migrator = None

    def _make_write_path(self):
        if self.config.write_path == WritePath.GATHER:
            from repro.core.gather import GatheringWritePath

            return GatheringWritePath(self, self.config.gather_policy)
        if self.config.write_path == WritePath.SIVA:
            from repro.core.siva import SivaWritePath

            return SivaWritePath(self)
        if self.config.write_path == WritePath.ASYNC_COMMIT:
            from repro.commit.path import AsyncCommitWritePath

            return AsyncCommitWritePath(self)
        return StandardWritePath(self)

    # -- shared services for write paths --------------------------------------

    def trace_of(self, handle: TransportHandle):
        """The request's Trace, or None (untraced run, or handle released)."""
        call = handle.call
        return getattr(call, "trace", None) if call is not None else None

    def emit_span(
        self,
        trace,
        phase: str,
        start: float,
        end: Optional[float] = None,
        **attrs,
    ) -> None:
        """Emit one lifecycle span for ``trace`` (no-op when untraced).

        Capture the trace via :meth:`trace_of` *before* replying — sending
        the reply releases the transport handle and with it the call.
        """
        if trace is None or not self.obs.enabled:
            return
        self.obs.emit(
            phase,
            self.host,
            start,
            self.env.now if end is None else end,
            trace_id=trace.trace_id,
            **attrs,
        )

    def reply(
        self,
        handle: TransportHandle,
        status: str,
        result,
        size: int = RPC_HEADER_BYTES,
        lease=None,
    ) -> Generator:
        """Charge reply CPU, record latency, and send the response."""
        if handle.acquired_at <= self.last_crash_time:
            # The request belongs to a previous server incarnation: the
            # real machine rebooted mid-service and never answered.  Drop
            # it silently; the client's retransmission will be served
            # fresh by the new incarnation.
            self.svc.abandon(handle)
            return
        if (
            self.migrator is not None
            and handle.call is not None
            and self.migrator.blocks(handle.call.proc, handle.call.args)
        ):
            # The file was parked for migration cutover while this reply
            # was in flight (e.g. a gathered write descriptor): from the
            # park instant this shard makes no more promises for it.  The
            # mutation may have applied locally — harmless, the source
            # copy is purged — but the *ack* must come from the new
            # authority, via the client's retransmission.
            self.svc.dup_cache.forget(handle.call)
            self.svc.abandon(handle)
            return
        yield from self.cpu.consume(
            (REPLY_CPU + self.spec.cpu_per_frame) * self.config.cpu_scale
        )
        proc = handle.call.proc
        latency = self.env.now - handle.acquired_at
        self.op_latency.observe(latency)
        if proc == PROC_WRITE:
            self.write_latency.observe(latency)
        try:
            self.ops_completed[proc].value += 1.0
        except KeyError:
            counter = self.ops_completed[proc] = self.metrics.counter(
                f"{self.host}.ops.{proc}"
            )
            counter.add(1)
        self.svc.send_reply(handle, status, result, size, lease=lease)

    def check_stable(
        self,
        vnode,
        offset: int,
        data: Optional[bytes],
        require_content: bool = True,
    ) -> None:
        """Verify the stable-storage-before-reply invariant (when enabled).

        ``require_content=False`` relaxes the byte-for-byte comparison to a
        reachability check: used when a *later* write in the same gathered
        batch legitimately superseded these bytes before the shared flush
        (NFS last-writer-wins) — the range must still be durably readable.
        Flyweight payloads (:mod:`repro.payload`) carry no content promise,
        so they always take the reachability check.
        """
        if not self.config.verify_stable or data is None:
            return
        if not isinstance(data, (bytes, bytearray, memoryview)):
            if not self.ufs.durable_covered(vnode.ino, offset, len(data)):
                self.stable_violations.append(
                    (self.env.now, vnode.ino, offset, len(data))
                )
            return
        durable = self.ufs.durable_read(vnode.ino, offset, len(data))
        if durable is None or (require_content and durable != data):
            self.stable_violations.append(
                (self.env.now, vnode.ino, offset, len(data))
            )

    # -- the nfsd daemon --------------------------------------------------------

    def _nfsd(self, nfsd_id: int):
        while True:
            handle = yield from self.svc.next_request()
            datagram = handle.datagram
            decode_started = self.env.now
            yield from self.cpu.consume(
                (
                    RPC_DISPATCH_CPU
                    + datagram.fragments * self.spec.cpu_per_frame
                )
                * self.config.cpu_scale
            )
            self.emit_span(
                self.trace_of(handle), PHASE_DISPATCH, decode_started, nfsd=nfsd_id
            )
            yield from self._dispatch(nfsd_id, handle)

    def _dispatch(self, nfsd_id: int, handle: TransportHandle) -> Generator:
        proc = handle.call.proc
        if self.migrator is not None and self.migrator.blocks(
            proc, handle.call.args
        ):
            # The file is frozen for migration cutover: execute nothing,
            # promise nothing.  Dropping the dup-cache registration lets
            # the retransmission be served fresh — by this shard if the
            # migration aborts, by the new authority once the pins move.
            self.svc.dup_cache.forget(handle.call)
            self.svc.abandon(handle)
            return REPLY_DONE
        leases = self.leases
        if leases is not None:
            # Quiesce conflicting leases (recall + wait, bounded by TTL)
            # before the operation touches anything.  No-op, consuming no
            # simulated time, when nothing conflicts.
            yield from leases.before(proc, handle.call.args, handle.call.client)
            if proc == PROC_LEASE_RENEW:
                result, size = yield from leases.renew(
                    handle.call.args, handle.call.client
                )
                yield from self.reply(handle, "ok", result, size)
                return REPLY_DONE
        if proc == PROC_WRITE:
            if not getattr(handle.call.args, "stable", True):
                # The async-commit path keeps its own unstable-write log
                # (memory-pressure flushing, COMMIT-time replication);
                # other paths share the plain cache-and-reply routine.
                unstable = getattr(self.write_path, "handle_unstable", None)
                if unstable is not None:
                    return (yield from unstable(handle))
                return (yield from self._rfs_write_unstable(handle))
            return (yield from self.write_path.handle(nfsd_id, handle))
        action = self._actions.get(proc)
        if action is None:
            yield from self.reply(handle, "EPROCUNAVAIL", None)
            return REPLY_DONE
        try:
            result, size = yield from action(handle.call.args)
        except FsError as exc:
            lease = None
            if leases is not None and proc == PROC_LOOKUP and exc.code == "ENOENT":
                # A miss still grants the dir lease: the client may cache
                # the negative entry until a create/remove invalidates it.
                lease = leases.grants_for_negative_lookup(
                    handle.call.args, handle.call.client
                )
            yield from self.reply(handle, exc.code, None, lease=lease)
            return REPLY_DONE
        if (
            self.replicator is not None
            and self.replicator.active
            and self.replicator.replicates(proc)
        ):
            # The mutation is locally committed; hold the reply until a
            # quorum of backups has it on stable storage too.
            replicate_started = self.env.now
            trace = self.trace_of(handle)
            yield from self.replicator.replicate_namespace(handle, proc, result, size)
            self.emit_span(trace, PHASE_REPLICATE, replicate_started, proc=proc)
        lease = None
        if leases is not None:
            lease = leases.grants_for(proc, handle.call.args, result, handle.call.client)
        yield from self.reply(handle, "ok", result, size, lease=lease)
        return REPLY_DONE

    # -- non-write action routines ------------------------------------------------

    def _rfs_getattr(self, fhandle) -> Generator:
        vnode = self.vnodes.by_fhandle(fhandle)
        yield from self.cpu.consume(0.0001)
        return Fattr.from_inode(vnode.inode), RPC_HEADER_BYTES

    def _rfs_setattr(self, args) -> Generator:
        vnode = self.vnodes.by_fhandle(args.fhandle)
        inode = vnode.inode
        if args.mtime is not None:
            inode.mtime = args.mtime
        if args.size is not None:
            inode.size = min(inode.size, args.size)  # truncate-only
        self.ufs._mark_meta_dirty(inode)
        yield from self.ufs._write_inode_sync(inode)
        return Fattr.from_inode(inode), RPC_HEADER_BYTES

    def _rfs_lookup(self, args) -> Generator:
        directory = self.vnodes.by_fhandle(args.dir_fhandle)
        inode = yield from self.ufs.lookup(directory.inode, args.name)
        vnode = self.vnodes.vnode_for(inode)
        return (vnode.fhandle, Fattr.from_inode(inode)), RPC_HEADER_BYTES

    def _rfs_read(self, args) -> Generator:
        vnode = self.vnodes.by_fhandle(args.fhandle)
        data = yield from vnode.vop_read(args.offset, args.count)
        return (
            (Fattr.from_inode(vnode.inode), data),
            RPC_HEADER_BYTES + len(data),
        )

    def _rfs_create(self, args) -> Generator:
        directory = self.vnodes.by_fhandle(args.dir_fhandle)
        try:
            inode = yield from self.ufs.create(directory.inode, args.name)
        except FsError as exc:
            if exc.code != "EEXIST":
                raise
            inode = yield from self.ufs.lookup(directory.inode, args.name)
        vnode = self.vnodes.vnode_for(inode)
        return (vnode.fhandle, Fattr.from_inode(inode)), RPC_HEADER_BYTES

    def _rfs_remove(self, args) -> Generator:
        directory = self.vnodes.by_fhandle(args.dir_fhandle)
        target_ino = directory.inode.entries.get(args.name)
        yield from self.ufs.remove(directory.inode, args.name)
        if target_ino is not None:
            self.vnodes.forget(target_ino)
        return None, RPC_HEADER_BYTES

    def _rfs_readdir(self, dir_fhandle) -> Generator:
        directory = self.vnodes.by_fhandle(dir_fhandle)
        names = yield from self.ufs.readdir(directory.inode)
        return names, RPC_HEADER_BYTES + 2048

    def _rfs_write_unstable(self, handle: TransportHandle) -> Generator:
        """NFSv3 unstable write (§8): cache the data, reply immediately.

        No stable-storage promise is made — the reply carries the boot
        verifier, and the client holds its copy of the data until a COMMIT
        under the same verifier succeeds.
        """
        args = handle.call.args
        try:
            vnode = self.vnodes.by_fhandle(args.fhandle)
        except FsError as exc:
            yield from self.reply(handle, exc.code, None)
            return REPLY_DONE
        trace = self.trace_of(handle)
        lock_requested = self.env.now
        with vnode.lock.request() as grant:
            yield grant
            self.emit_span(trace, PHASE_VNODE_WAIT, lock_requested, ino=vnode.ino)
            try:
                yield from vnode.vop_write(args.offset, args.data, IO_DELAYDATA)
            except FsError as exc:
                yield from self.reply(handle, exc.code, None)
                return REPLY_DONE
            fattr = Fattr.from_inode(vnode.inode)
        cached_at = self.env.now
        yield from self.reply(handle, "ok", (fattr, self.boot_verifier))
        self.emit_span(trace, PHASE_REPLY, cached_at, unstable=True)
        return REPLY_DONE

    def _rfs_commit(self, args) -> Generator:
        """NFSv3 COMMIT: make a byte range (and its metadata) stable."""
        commit = getattr(self.write_path, "commit", None)
        if commit is not None:
            # The async-commit path flushes through its unstable log
            # (and replicates the flushed pieces in a replica group).
            return (yield from commit(args))
        vnode = self.vnodes.by_fhandle(args.fhandle)
        with vnode.lock.request() as grant:
            yield grant
            yield from vnode.vop_syncdata(args.offset, args.offset + args.count)
            yield from vnode.vop_fsync(FWRITE | FWRITE_METADATA)
        return self.boot_verifier, RPC_HEADER_BYTES

    def simulate_crash(self) -> None:
        """Model a server crash and reboot.

        Volatile state dies: every cached buffer is dropped (unstable data
        is lost), in-core inode metadata reverts to its last committed
        snapshot, queued and parked requests are discarded *without
        replies* (their clients retransmit), the duplicate request cache
        empties, and the boot verifier changes so NFSv3 clients know to
        resend uncommitted writes.  Stable storage (the durable image,
        including NVRAM-accepted extents) survives.
        """
        self.boot_verifier += 1
        self.last_crash_time = self.env.now
        # The socket buffer and dup cache are RAM.
        self.endpoint.inbox.reset_volatile()
        self.svc.dup_cache.reset_volatile()
        # Parked write descriptors die with the old incarnation; their
        # transport handles go back to the cache without replies.
        queues = getattr(self.write_path, "queues", None)
        if queues is not None:
            for queue in queues:
                for descriptor in queue.take_all():
                    self.svc.abandon(descriptor.handle)
        # The async-commit path's unstable log is volatile memory too.
        reset = getattr(self.write_path, "reset_volatile", None)
        if reset is not None:
            reset()
        # Replication state is volatile too: queued batches die, sessions
        # stop, and any nfsd blocked on a quorum is released (its reply is
        # dropped by the incarnation guard above).
        if self.replicator is not None:
            self.replicator.halt()
        # Migration sessions (dirty tracking, park fences) are RAM: the
        # engine detects the loss at cutover and aborts the attempt.
        if self.migrator is not None:
            self.migrator.reset_volatile()
        # The lease table is RAM too; clearing it opens a one-TTL grace
        # period so pre-crash leases drain by expiry before any mutation.
        if self.leases is not None:
            self.leases.reset_volatile()
        # The buffer cache and in-core inodes revert to the durable image.
        self.ufs.reset_volatile()

    def _rfs_readlink(self, fhandle) -> Generator:
        vnode = self.vnodes.by_fhandle(fhandle)
        target = yield from self.ufs.readlink(vnode.inode)
        return target, RPC_HEADER_BYTES + len(target)

    def _rfs_symlink(self, args) -> Generator:
        directory = self.vnodes.by_fhandle(args.dir_fhandle)
        inode = yield from self.ufs.symlink(directory.inode, args.name, args.target)
        vnode = self.vnodes.vnode_for(inode)
        return (vnode.fhandle, Fattr.from_inode(inode)), RPC_HEADER_BYTES

    def _rfs_rename(self, args) -> Generator:
        src_dir = self.vnodes.by_fhandle(args.src_dir_fhandle)
        dst_dir = self.vnodes.by_fhandle(args.dst_dir_fhandle)
        yield from self.ufs.rename(
            src_dir.inode, args.src_name, dst_dir.inode, args.dst_name
        )
        return None, RPC_HEADER_BYTES

    def _mountd_mount(self, path) -> Generator:
        """The MOUNT protocol: hand out the root file handle for an
        exported path.  (mountd is a separate service in reality; it shares
        the endpoint here but keeps its own semantics.)"""
        yield from self.cpu.consume(0.0001)
        if path not in self.config.exports:
            raise FsError("EACCES", f"{path} is not exported")
        root = self.vnodes.root
        return (root.fhandle, Fattr.from_inode(root.inode)), RPC_HEADER_BYTES

    def _mountd_umount(self, _path) -> Generator:
        yield from self.cpu.consume(0.0001)
        return None, RPC_HEADER_BYTES

    def _rfs_statfs(self, _args) -> Generator:
        yield from self.cpu.consume(0.0001)
        return (
            {
                "blocks": self.config.fs_bytes // self.ufs.block_size,
                "bfree": self.config.fs_bytes // self.ufs.block_size
                - self.ufs.allocator.allocated_count,
            },
            RPC_HEADER_BYTES,
        )

    # -- measurement helpers ------------------------------------------------------

    def reset_measurements(self) -> None:
        """Zero all rate windows (between warmup and measurement)."""
        self.cpu.reset()
        self.storage.reset_stats()
        for counter in self.ops_completed.values():
            counter.reset()
