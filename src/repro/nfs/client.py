"""NFS client with biod write-behind and sync-on-close semantics (§4.1).

The behaviours write gathering exploits all live here:

* application writes accumulate in an 8K client cache block; when the block
  fills ("needs to go to the wire"), it becomes an NFS WRITE request;
* the request is handed to an idle biod, letting the application continue —
  this is what makes several writes for the same file arrive at the server
  at about the same time;
* if no biod is free, the application itself blocks performing the RPC
  (client/server flow control);
* ``close(2)`` blocks until every outstanding write has been answered,
  mostly to surface an ENOSPC from an earlier asynchronous write.

Setting ``nbiods=0`` yields the "dumb PC" single-threaded client of §6.10.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.fs.vfs import FileHandle
from repro.nfs.protocol import (
    NFS_MAX_DATA,
    PROC_CREATE,
    PROC_GETATTR,
    PROC_LOOKUP,
    PROC_READ,
    PROC_READDIR,
    PROC_REMOVE,
    PROC_READLINK,
    PROC_RENAME,
    PROC_SETATTR,
    PROC_STATFS,
    PROC_SYMLINK,
    PROC_WRITE,
    WEIGHT_OF,
    CreateArgs,
    LookupArgs,
    NfsError,
    ReadArgs,
    RemoveArgs,
    RenameArgs,
    SetattrArgs,
    SymlinkArgs,
    WriteArgs,
    call_size,
    reply_size,
)
from repro.obs import registry_for
from repro.payload import Extent, ExtentChain, is_bytes_payload
from repro.rpc.client import RpcClient, RpcTimeoutError
from repro.sim import AllOf, Environment, Event

__all__ = ["NfsClient", "OpenFile"]


class OpenFile:
    """Client-side state for one open file."""

    def __init__(self, fhandle: FileHandle, name: str) -> None:
        self.fhandle = fhandle
        self.name = name
        #: Write cursor for sequential writes via write_stream().
        self.cursor = 0
        #: Partial client cache block not yet "gone to the wire".
        self.pending = bytearray()
        self.pending_offset = 0
        #: Completion events of writes handed off to biods.
        self.outstanding: List[Event] = []
        #: First asynchronous error, reported at close (sync-on-close).
        self.error: Optional[str] = None
        #: Read-ahead state: where a sequential reader's next read would
        #: start, and prefetches in flight (offset -> completion event).
        self.read_cursor = 0
        self.prefetched: dict = {}
        #: File size as last reported by the server (bounds read-ahead).
        self.known_size: Optional[int] = None


class NfsClient:
    """One client host's NFS layer."""

    def __init__(
        self,
        env: Environment,
        rpc: RpcClient,
        nbiods: int = 4,
        write_cpu: float = 0.0003,
        nfs_version: int = 2,
        read_ahead: bool = False,
        write_window=None,
    ) -> None:
        if nbiods < 0:
            raise ValueError(f"nbiods must be >= 0, got {nbiods}")
        if nfs_version not in (2, 3):
            raise ValueError(f"nfs_version must be 2 or 3, got {nfs_version}")
        self.env = env
        self.rpc = rpc
        self.nbiods = nbiods
        #: 2 = stable-before-reply writes; 3 = unstable writes + COMMIT
        #: ("reliable asynchronous writes", the paper's §8).
        self.nfs_version = nfs_version
        #: Biods also "perform client read-ahead" (§4.1); off by default so
        #: read traffic is explicit unless a workload opts in.
        self.read_ahead = read_ahead
        #: Per-write client-side kernel work before the request hits the wire.
        self.write_cpu = write_cpu
        #: Optional AIMD :class:`~repro.overload.window.WriteWindow`: caps
        #: outstanding write-behind at ``min(nbiods, window.slots)`` and is
        #: wired into the RPC layer as its congestion listener.
        self.write_window = write_window
        if write_window is not None:
            rpc.congestion = write_window
        self._busy_biods = 0
        metrics = registry_for(env)
        prefix = f"nfs.{rpc.endpoint.host}"
        self.bytes_written = metrics.counter(f"{prefix}.bytes_written")
        self.write_latency = metrics.tally(f"{prefix}.write_latency")
        self.biod_handoffs = metrics.counter(f"{prefix}.biod_handoffs")
        self.blocked_writes = metrics.counter(f"{prefix}.blocked_writes")
        self.readahead_hits = metrics.counter(f"{prefix}.readahead_hits")
        #: User-level operations (the syscall view: open/read/write/close...),
        #: the denominator of rpcs_per_op.  The numerator is the transport's
        #: completed-call counter — for a cluster client every rack transport
        #: shares the same host name and therefore the same counter.
        self.user_ops = metrics.counter(f"{prefix}.user_ops")
        self.rpcs_per_op = metrics.ratio(
            f"{prefix}.rpcs_per_op",
            metrics.counter(f"rpc.{rpc.endpoint.host}.completed"),
            self.user_ops,
        )
        #: Optional :class:`~repro.nfs.cache.CacheStack` (repro.lease);
        #: installed by its constructor, None = uncached pre-lease client.
        self.cache = None
        self.root_fhandle: FileHandle = (2, 0)
        #: Crash-consistency hook (repro.faults.Oracle): called as
        #: ``(fhandle, offset, data)`` the instant a *stable* WRITE's ok
        #: reply lands — the moment the server's durability promise binds.
        self.on_write_acked = None
        #: Async-commit hooks (repro.faults.Oracle): an unstable WRITE was
        #: acked (no durability promise yet) / a COMMIT under the matching
        #: verifier succeeded (the promise binds now).
        self.on_unstable_acked = None
        self.on_commit_acked = None
        #: Integrity hook (repro.faults.Oracle): called as
        #: ``(fhandle, offset, data)`` when a READ's ok reply lands — the
        #: end-to-end contract that acked reads match acked writes.
        self.on_read_acked = None
        #: NFSv3: uncommitted ranges tagged with their write verifier,
        #: COMMITted on close / window pressure, resent on mismatch.
        self.tracker = None
        if nfs_version == 3:
            from repro.commit.tracker import UncommittedTracker

            self.tracker = UncommittedTracker(self)

    # -- generic RPC wrapper ---------------------------------------------------

    def _call(self, proc: str, args) -> Generator:
        try:
            reply = yield from self.rpc.call(
                proc,
                args,
                size=call_size(proc, args),
                reply_size=reply_size(proc, args),
                weight=WEIGHT_OF[proc],
            )
        except RpcTimeoutError:
            # Soft mount: an exhausted retry budget surfaces as ETIMEDOUT.
            raise NfsError("ETIMEDOUT") from None
        if self.cache is not None and reply.lease:
            # Grants ride even on error replies (an ENOENT lookup still
            # grants the dir lease), so learn them before raising.
            self.cache.learn_grants(reply.lease)
        if not reply.ok:
            raise NfsError(reply.status)
        return reply.result

    # -- namespace operations ----------------------------------------------------

    def mount(self, path: str = "/export") -> Generator:
        """MOUNT protocol: fetch the export's root file handle.

        Optional — clients default to the well-known root handle so the
        write-gathering experiments stay minimal — but real clients mount
        first, and tests exercise the EACCES path for unexported trees.
        """
        from repro.nfs.protocol import PROC_MOUNT

        self.user_ops.add(1)
        fhandle, _fattr = yield from self._call(PROC_MOUNT, path)
        self.root_fhandle = fhandle
        return fhandle

    def umount(self, path: str = "/export") -> Generator:
        from repro.nfs.protocol import PROC_UMOUNT

        self.user_ops.add(1)
        return (yield from self._call(PROC_UMOUNT, path))

    def lookup(self, name: str, dir_fhandle: Optional[FileHandle] = None) -> Generator:
        """LOOKUP: returns (fhandle, fattr).

        With a cache stack, positive *and* negative dirent entries are
        served locally while the directory's lease is valid.
        """
        self.user_ops.add(1)
        dir_fh = dir_fhandle or self.root_fhandle
        if self.cache is not None:
            from repro.nfs.cache import NEGATIVE

            hit = self.cache.dirent_hit(dir_fh, name)
            if hit is NEGATIVE:
                raise NfsError("ENOENT")
            if hit is not None:
                return hit
        args = LookupArgs(dir_fh, name)
        try:
            result = yield from self._call(PROC_LOOKUP, args)
        except NfsError as exc:
            if self.cache is not None and exc.code == "ENOENT":
                self.cache.store_negative(dir_fh, name)
            raise
        if self.cache is not None:
            self.cache.store_dirent(dir_fh, name, result)
        return result

    def create(self, name: str, dir_fhandle: Optional[FileHandle] = None) -> Generator:
        """CREATE: returns an :class:`OpenFile` for the new file."""
        self.user_ops.add(1)
        dir_fh = dir_fhandle or self.root_fhandle
        args = CreateArgs(dir_fh, name)
        result = yield from self._call(PROC_CREATE, args)
        if self.cache is not None:
            self.cache.note_local_create(dir_fh, name, result)
        fhandle, _fattr = result
        return OpenFile(fhandle, name)

    def open(self, name: str, dir_fhandle: Optional[FileHandle] = None) -> Generator:
        """LOOKUP and wrap in an :class:`OpenFile`.

        Close-to-open consistency: unless the file's lease still covers our
        cached attributes, open revalidates them with a GETATTR.
        """
        fhandle, fattr = yield from self.lookup(name, dir_fhandle)
        if self.cache is not None and not self.cache.lease_valid(fhandle):
            fattr = yield from self._call(PROC_GETATTR, fhandle)
            self.cache.store_attr(fhandle, fattr)
        open_file = OpenFile(fhandle, name)
        open_file.known_size = fattr.size  # bounds read-ahead
        return open_file

    def remove(self, name: str, dir_fhandle: Optional[FileHandle] = None) -> Generator:
        self.user_ops.add(1)
        dir_fh = dir_fhandle or self.root_fhandle
        args = RemoveArgs(dir_fh, name)
        result = yield from self._call(PROC_REMOVE, args)
        if self.cache is not None:
            self.cache.note_local_remove(dir_fh, name)
        return result

    def getattr(self, fhandle: FileHandle) -> Generator:
        self.user_ops.add(1)
        if self.cache is not None:
            fattr = self.cache.attr_hit(fhandle)
            if fattr is not None:
                return fattr
        fattr = yield from self._call(PROC_GETATTR, fhandle)
        if self.cache is not None:
            self.cache.store_attr(fhandle, fattr)
        return fattr

    def setattr(self, fhandle: FileHandle, **changes) -> Generator:
        self.user_ops.add(1)
        fattr = yield from self._call(PROC_SETATTR, SetattrArgs(fhandle, **changes))
        if self.cache is not None:
            self.cache.store_attr(fhandle, fattr)
        return fattr

    def readdir(self, dir_fhandle: Optional[FileHandle] = None) -> Generator:
        self.user_ops.add(1)
        return (yield from self._call(PROC_READDIR, dir_fhandle or self.root_fhandle))

    def statfs(self) -> Generator:
        self.user_ops.add(1)
        return (yield from self._call(PROC_STATFS, self.root_fhandle))

    def symlink(
        self, name: str, target: str, dir_fhandle: Optional[FileHandle] = None
    ) -> Generator:
        """SYMLINK: returns the new link's (fhandle, fattr)."""
        self.user_ops.add(1)
        dir_fh = dir_fhandle or self.root_fhandle
        args = SymlinkArgs(dir_fh, name, target)
        result = yield from self._call(PROC_SYMLINK, args)
        if self.cache is not None:
            self.cache.note_local_create(dir_fh, name, result)
        return result

    def readlink(self, fhandle: FileHandle) -> Generator:
        """READLINK: returns the link target string."""
        self.user_ops.add(1)
        return (yield from self._call(PROC_READLINK, fhandle))

    def rename(
        self,
        src_name: str,
        dst_name: str,
        src_dir: Optional[FileHandle] = None,
        dst_dir: Optional[FileHandle] = None,
    ) -> Generator:
        self.user_ops.add(1)
        src = src_dir or self.root_fhandle
        dst = dst_dir or self.root_fhandle
        args = RenameArgs(src, src_name, dst, dst_name)
        result = yield from self._call(PROC_RENAME, args)
        if self.cache is not None:
            self.cache.note_local_rename(src, src_name, dst, dst_name)
        return result

    def read(self, open_file: OpenFile, offset: int, count: int) -> Generator:
        """READ, returning ``(fattr, data)``.

        With ``read_ahead=True``, a detected sequential pattern hands a
        prefetch of the following range to a free biod, so the next read is
        served from the client cache while the wire stays busy (§4.1).
        """
        self.user_ops.add(1)
        if self.cache is not None:
            fattr = self.cache.attr_hit(open_file.fhandle)
            if fattr is not None:
                data = self.cache.read_hit(open_file.fhandle, offset, count)
                if data is not None:
                    open_file.known_size = fattr.size
                    open_file.read_cursor = offset + count
                    return fattr, data
        sequential = offset == open_file.read_cursor
        open_file.read_cursor = offset + count
        if self.read_ahead and sequential:
            # Pipeline as deep as the idle biods allow *before* blocking on
            # the current range, so the wire and disk stay busy while the
            # application consumes this block.
            for step in range(1, self.nbiods + 1):
                self._maybe_prefetch(open_file, offset + step * count, count)
        prefetch = open_file.prefetched.pop(offset, None)
        if prefetch is not None:
            fattr_and_data = yield prefetch
            self.readahead_hits.add(1)
        else:
            args = ReadArgs(open_file.fhandle, offset, count)
            fattr_and_data = yield from self._call(PROC_READ, args)
        fattr, data = fattr_and_data
        open_file.known_size = fattr.size
        if self.on_read_acked is not None:
            self.on_read_acked(open_file.fhandle, offset, data)
        if self.cache is not None:
            self.cache.store_attr(open_file.fhandle, fattr)
            self.cache.store_block(open_file.fhandle, offset, data)
        return fattr_and_data

    def _maybe_prefetch(self, open_file: OpenFile, offset: int, count: int) -> None:
        """Hand a read-ahead of [offset, offset+count) to an idle biod."""
        if self._busy_biods >= self.nbiods:
            return
        if open_file.known_size is not None and offset >= open_file.known_size:
            return  # nothing past EOF
        if offset in open_file.prefetched:
            return
        self._busy_biods += 1
        done = self.env.event()
        open_file.prefetched[offset] = done
        self.env.process(
            self._biod_read(open_file, offset, count, done), name="biod-ra"
        )

    def _biod_read(self, open_file: OpenFile, offset: int, count: int, done: Event):
        try:
            args = ReadArgs(open_file.fhandle, offset, count)
            result = yield from self._call(PROC_READ, args)
            done.succeed(result)
        except NfsError as exc:
            done.fail(exc)
            done.defused = True  # reader may never come back for it
        finally:
            self._busy_biods -= 1

    # -- the write path -----------------------------------------------------------

    def write_stream(self, open_file: OpenFile, data: bytes) -> Generator:
        """Application-level sequential write: fills 8K client cache blocks
        and pushes each full block to the wire via write-behind.

        ``data`` is either real bytes or a flyweight
        :class:`~repro.payload.Extent`; the two may not be mixed within
        one partially filled cache block.
        """
        self.user_ops.add(1)
        if not is_bytes_payload(data):
            yield from self._write_stream_flyweight(open_file, data)
            return
        view = memoryview(bytes(data))
        while view.nbytes > 0:
            if not open_file.pending:
                open_file.pending_offset = open_file.cursor
            elif isinstance(open_file.pending, ExtentChain):
                raise TypeError(
                    "cannot mix byte and flyweight payloads in one cache block"
                )
            room = NFS_MAX_DATA - len(open_file.pending)
            take = min(room, view.nbytes)
            open_file.pending.extend(view[:take])
            open_file.cursor += take
            view = view[take:]
            if len(open_file.pending) == NFS_MAX_DATA:
                yield from self._push_block(open_file)

    def _write_stream_flyweight(self, open_file: OpenFile, extent: Extent) -> Generator:
        """write_stream for flyweight payloads: identical block-fill logic,
        accumulating (offset, length, seed) extents instead of bytes."""
        pos = 0
        total = len(extent)
        while pos < total:
            pending = open_file.pending
            if not pending:
                open_file.pending_offset = open_file.cursor
                if not isinstance(pending, ExtentChain):
                    pending = open_file.pending = ExtentChain()
            elif not isinstance(pending, ExtentChain):
                raise TypeError(
                    "cannot mix byte and flyweight payloads in one cache block"
                )
            room = NFS_MAX_DATA - len(pending)
            take = min(room, total - pos)
            pending.append(extent.slice(pos, pos + take))
            open_file.cursor += take
            pos += take
            if len(pending) == NFS_MAX_DATA:
                yield from self._push_block(open_file)

    def write_at(self, open_file: OpenFile, offset: int, data: bytes) -> Generator:
        """Random-access write: goes to the wire immediately (no coalescing),
        in at-most-8K pieces."""
        self.user_ops.add(1)
        if not is_bytes_payload(data):
            pos = 0
            total = len(data)
            while pos < total:
                take = min(NFS_MAX_DATA, total - pos)
                yield from self._write_behind(
                    open_file, offset + pos, data.slice(pos, pos + take)
                )
                pos += take
            return
        view = memoryview(bytes(data))
        pos = offset
        while view.nbytes > 0:
            take = min(NFS_MAX_DATA, view.nbytes)
            yield from self._write_behind(open_file, pos, bytes(view[:take]))
            pos += take
            view = view[take:]

    def close(self, open_file: OpenFile) -> Generator:
        """sync-on-close: flush the partial block, await all outstanding
        writes, and raise the first captured asynchronous error.

        An NFSv3 client additionally COMMITs its unstable writes here and,
        if the server's write verifier changed (it crashed and rebooted,
        losing cached data), resends everything and commits again.
        """
        self.user_ops.add(1)
        if open_file.pending:
            yield from self._push_block(open_file)
        if self.cache is not None:
            # Write-back: dirty blocks deferred under a write lease go to
            # the wire now, through the ordinary write-behind train.
            yield from self.cache.flush_file(open_file)
        if open_file.outstanding:
            yield AllOf(self.env, list(open_file.outstanding))
            open_file.outstanding.clear()
        if self.tracker is not None and self.tracker.has_ranges(open_file.fhandle):
            yield from self.tracker.commit(self, open_file.fhandle)
        if open_file.error is not None:
            error, open_file.error = open_file.error, None
            raise NfsError(error)

    def _push_block(self, open_file: OpenFile) -> Generator:
        pending = open_file.pending
        if isinstance(pending, ExtentChain):
            data = pending.payload()
        else:
            data = bytes(pending)
        offset = open_file.pending_offset
        open_file.pending = bytearray()
        if self.cache is not None and self.cache.defer_write(open_file, offset, data):
            return  # absorbed by the write-back cache (no RPC, no time)
        yield from self._write_behind(open_file, offset, data)

    def _write_behind(self, open_file: OpenFile, offset: int, data: bytes) -> Generator:
        """Hand a WRITE to a biod, or perform it inline if none is free.

        With a write window, the effective biod pool is the AIMD cwnd: a
        struggling server shrinks the burst each client presents instead
        of receiving nbiods-deep retransmit trains.
        """
        yield self.env.timeout(self.write_cpu)
        limit = self.nbiods
        if self.write_window is not None:
            limit = min(limit, self.write_window.slots)
        if self._busy_biods < limit:
            self._busy_biods += 1
            self.biod_handoffs.add(1)
            done = self.env.event()
            open_file.outstanding.append(done)
            self.env.process(
                self._biod_write(open_file, offset, data, done), name="biod"
            )
        else:
            # No biod free: the application blocks until *this* request has
            # received a response (§4.1).
            self.blocked_writes.add(1)
            yield from self._do_write(open_file, offset, data)

    def _biod_write(self, open_file: OpenFile, offset: int, data: bytes, done: Event):
        try:
            yield from self._do_write(open_file, offset, data)
        except NfsError as exc:
            if open_file.error is None:
                open_file.error = exc.code
        finally:
            self._busy_biods -= 1
            done.succeed()

    def _replay_write(self, fhandle: FileHandle, offset: int, data: bytes) -> Generator:
        """Resend one uncommitted range after a verifier mismatch.

        Driven by the tracker's COMMIT train, which may not have an
        :class:`OpenFile` in hand (lease recalls commit by fhandle), so
        the write rides a throwaway one.  ``replaying=True`` suppresses
        the pressure/stale checks — the train itself is handling them.
        """
        shim = OpenFile(fhandle, "(replay)")
        yield from self._do_write(shim, offset, data, replaying=True)

    def _do_write(
        self,
        open_file: OpenFile,
        offset: int,
        data: bytes,
        record: bool = True,
        replaying: bool = False,
    ) -> Generator:
        started = self.env.now
        stable = self.nfs_version == 2
        args = WriteArgs(open_file.fhandle, offset, data, stable=stable)
        try:
            reply = yield from self.rpc.call(
                PROC_WRITE,
                args,
                size=call_size(PROC_WRITE, args),
                reply_size=reply_size(PROC_WRITE, args),
                weight=WEIGHT_OF[PROC_WRITE],
            )
        except RpcTimeoutError:
            raise NfsError("ETIMEDOUT") from None
        if not reply.ok:
            raise NfsError(reply.status)
        self.bytes_written.add(len(data))
        self.write_latency.observe(self.env.now - started)
        if stable:
            if self.on_write_acked is not None:
                self.on_write_acked(open_file.fhandle, offset, data)
            if self.cache is not None:
                self.cache.store_attr(open_file.fhandle, reply.result)
            return reply.result  # Fattr
        fattr, verifier = reply.result
        if self.cache is not None:
            self.cache.store_attr(open_file.fhandle, fattr)
        if record and self.tracker is not None:
            self.tracker.record(open_file.fhandle, offset, data, verifier)
            if self.on_unstable_acked is not None:
                self.on_unstable_acked(open_file.fhandle, offset, data)
            if not replaying:
                if self.tracker.stale_files(verifier):
                    # The verifier moved under us: the server lost an
                    # incarnation and our unstable data with it.  Resend
                    # every uncommitted range before proceeding.
                    yield from self.tracker.replay_stale(self, verifier)
                elif self.tracker.over_pressure(self, open_file.fhandle):
                    self.tracker.pressure_commits.add(1)
                    yield from self.tracker.commit(self, open_file.fhandle)
        return fattr
