"""UFS: a BSD-FFS-vintage filesystem with McVoy-Kleiman write clustering.

This is the "local filesystem" of §4.4.  It provides the operations the NFS
server layer drives through the VFS interface, with the paper's extensions:

* ``IO_SYNC`` (plain) — the reference-port standard write: data blocks are
  written synchronously; if the write grew the file or changed on-disk
  structure, the inode block (and, if touched, the indirect block) is also
  written synchronously before returning; a *modify-time-only* inode change
  is left for asynchronous update (the one promise the server may not keep).
* ``IO_SYNC | IO_DATAONLY`` — deliver data to (accelerated) storage now,
  delay all metadata copies.
* ``IO_DELAYDATA`` — leave the data delayed in the buffer cache so UFS can
  pick its own clustering policy; when a full cluster window of contiguous
  dirty buffers accumulates, an asynchronous clustered write is started.
* ``VOP_SYNCDATA(start, end)`` — flush the delayed data in a byte range as
  few large clustered transfers.
* ``VOP_FSYNC(FWRITE_METADATA)`` — flush only the inode and indirect blocks.

All operations are generators to be driven from within a simulation process
(``result = yield from ufs.write(...)``), and charge CPU through an optional
``cpu`` accountant so "UFS trips" and "driver trips" cost what the paper
says they cost.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Generator, Iterable, List, Optional

from repro.disk.device import Storage
from repro.fs.allocator import Allocator, NoSpace
from repro.fs.buffer_cache import BufferCache
from repro.fs.inode import NDIRECT, FileType, Inode
from repro.integrity.errors import CorruptBlockError
from repro.sim import AllOf, Environment, Event

__all__ = ["Ufs", "FsError", "CostModel", "WriteResult", "ROOT_INO", "DEFAULT_FS_BYTES"]

#: Traditional root inode number.
ROOT_INO = 2

#: The volume size every server gets unless its tier says otherwise.
DEFAULT_FS_BYTES = 900 * 1024 * 1024


class FsError(Exception):
    """Filesystem-level error carrying a UNIX-style code ("ENOSPC"...)."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code


@dataclass(frozen=True)
class CostModel:
    """CPU seconds charged for filesystem work (calibrated, see DESIGN.md)."""

    #: Entering a VOP (write/fsync/syncdata): locking, argument checking.
    ufs_trip: float = 0.00025
    #: Submitting one transaction to the disk driver and fielding its
    #: interrupt.  The paper: "It takes a lot of CPU cycles to run the disk
    #: driver and field device interrupts" — avoiding these trips is the
    #: CPU win write gathering banks on.
    driver_trip: float = 0.00050
    #: Handing one request to the Prestoserve driver (no seek setup, no
    #: device interrupt; the board drives the disk itself).
    nvram_trip: float = 0.00020
    #: Copying one byte between mbufs / cache / NVRAM.
    copy_per_byte: float = 25e-9
    #: A namei-style directory lookup.
    namei: float = 0.00015

    def scaled(self, factor: float) -> "CostModel":
        """Every cost times ``factor`` (a server's ``cpu_scale``)."""
        return CostModel(**{f.name: getattr(self, f.name) * factor for f in fields(self)})


@dataclass
class WriteResult:
    """What a VOP_WRITE did, for the server layer's accounting."""

    #: Bytes written.
    count: int
    #: Device transactions issued synchronously by this call.
    sync_transactions: int
    #: True if metadata beyond mtime is (still) dirty after this call.
    metadata_dirty: bool
    #: True if only the modify time changed (reference-port async case).
    mtime_only: bool


class Ufs:
    """The filesystem instance (one per served/exported volume)."""

    def __init__(
        self,
        env: Environment,
        storage: Storage,
        fs_bytes: int = DEFAULT_FS_BYTES,
        block_size: int = 8192,
        cluster_size: int = 65536,
        cpu=None,
        costs: Optional[CostModel] = None,
        cache_blocks: int = 4096,
        ino_base: Optional[int] = None,
    ) -> None:
        self.env = env
        self.storage = storage
        self.block_size = block_size
        self.cluster_size = cluster_size
        self.cpu = cpu
        self.costs = costs or CostModel()
        self.allocator = Allocator(fs_bytes, block_size)
        self.cache = BufferCache(env, storage, block_size, cluster_size, cache_blocks)
        self.inodes: Dict[int, Inode] = {}
        self._next_ino = ROOT_INO
        self._in_flight_data: Dict[int, List[Event]] = {}
        #: Write observer (repro.tiering): called as ``(ino, offset, length)``
        #: the instant any data lands in the cache — the single funnel every
        #: write path shares, which is what makes migration delta tracking
        #: exact.  None (the default) costs nothing.
        self.on_write = None
        root = self._new_inode(FileType.DIRECTORY)
        assert root.ino == ROOT_INO
        self.root = root
        # A cluster gives each shard a disjoint inode range so file handles
        # (ino, generation) are unambiguous fleet-wide; the root keeps the
        # traditional number on every shard so the well-known root handle
        # works against any server.
        if ino_base is not None:
            if ino_base <= ROOT_INO:
                raise ValueError(f"ino_base must be > {ROOT_INO}, got {ino_base}")
            self._next_ino = ino_base

    # -- small helpers --------------------------------------------------------

    @property
    def is_accelerated(self) -> bool:
        """Whether the backing storage is NVRAM-accelerated (Presto on)."""
        return bool(getattr(self.storage, "is_accelerated", False))

    def _charge(self, seconds: float) -> Iterable:
        """Charge CPU time if an accountant is attached (``yield from`` the
        result; no generator frame of its own)."""
        if self.cpu is not None and seconds > 0:
            return self.cpu.consume(seconds)
        return ()

    def _device_trip_cost(self) -> float:
        """CPU cost of handing one transaction to the storage driver."""
        if self.is_accelerated:
            return self.costs.nvram_trip
        return self.costs.driver_trip

    def _new_inode(self, ftype: str, ino: Optional[int] = None) -> Inode:
        # An explicit ``ino`` replays another UFS's allocation (replica
        # backups must agree with the primary byte-for-byte on handles);
        # the local counter jumps past it so later local allocations can
        # never collide.
        if ino is None:
            ino = self._next_ino
            self._next_ino += 1
        else:
            self._next_ino = max(self._next_ino, ino + 1)
        inode = Inode(
            ino=ino,
            ftype=ftype,
            inode_block_addr=self.allocator.inode_block_addr(ino),
            mtime=self.env.now,
            atime=self.env.now,
            ctime=self.env.now,
        )
        self.inodes[ino] = inode
        return inode

    def get_inode(self, ino: int, generation: Optional[int] = None) -> Inode:
        """Resolve an inode; raises ESTALE for removed/recycled files."""
        inode = self.inodes.get(ino)
        if inode is None:
            raise FsError("ESTALE", f"inode {ino} does not exist")
        if generation is not None and inode.generation != generation:
            raise FsError("ESTALE", f"inode {ino} generation mismatch")
        return inode

    def _mark_meta_dirty(self, inode: Inode, indirect: bool = False) -> None:
        inode.meta_version += 1
        inode.inode_dirty = True
        inode.only_mtime_dirty = False
        if indirect:
            inode.indirect_dirty = True

    def _file_extent_addrs(self, inode: Inode, start: int, end: int) -> List[int]:
        """Disk addresses of the file blocks overlapping byte range [start, end)."""
        if end <= start:
            return []
        first = start // self.block_size
        last = (end - 1) // self.block_size
        addrs = []
        for fblock in range(first, last + 1):
            addr = inode.block_addr(fblock)
            if addr is not None:
                addrs.append(addr)
        return addrs

    # -- data path -------------------------------------------------------------

    #: ioflags bits (mirroring the paper's VFS hints)
    IO_SYNC = 0x1
    IO_DATAONLY = 0x2
    IO_DELAYDATA = 0x4

    def write(
        self, inode: Inode, offset: int, data: bytes, ioflags: int = IO_SYNC
    ) -> Generator:
        """VOP_WRITE.  Yields until the flag-mandated work is stable.

        Returns a :class:`WriteResult`.  Raises FsError("ENOSPC") when the
        volume is full — the error NFS clients learn about at close(2) time.
        """
        if inode.ftype != FileType.FILE:
            raise FsError("EISDIR", f"write to non-file inode {inode.ino}")
        if offset < 0 or not data:
            raise FsError("EINVAL", f"bad write range ({offset}, {len(data)})")
        yield from self._charge(
            self.costs.ufs_trip + self.costs.copy_per_byte * len(data)
        )

        # Flyweight payloads (repro.payload.Extent) carry length but no
        # bytes: charge the same CPU, allocate and dirty the same blocks,
        # issue the same transactions — skip only the buffer byte copies.
        flyweight = not isinstance(data, (bytes, bytearray, memoryview))
        touched: List[int] = []
        grew_structure = False
        pos = offset
        end = offset + len(data)
        remaining = None if flyweight else memoryview(bytes(data))
        while pos < end:
            fblock = pos // self.block_size
            within = pos - fblock * self.block_size
            take = min(end - pos, self.block_size - within)
            addr = inode.block_addr(fblock)
            if addr is None:
                addr = self._allocate_block(inode, fblock)
                grew_structure = True
            buffer = self._get_buffer_checked(addr)
            if not flyweight:
                if take == buffer.size:
                    # Whole block: build it from the payload, no old bytes.
                    # A one-block ``bytes`` payload is immutable, so the
                    # buffer adopts it; a bytearray or memoryview writer
                    # could still mutate its bytes, so those are copied.
                    if take == len(data) and type(data) is bytes:
                        buffer.data = data
                    else:
                        buffer.data = bytes(remaining[:take])
                else:
                    block = buffer.data
                    if not isinstance(block, bytearray):
                        # Shared bytes: copy before the first write.
                        block = buffer.data = bytearray(block)
                    block[within : within + take] = remaining[:take]
                remaining = remaining[take:]
            self.cache.mark_dirty(buffer)
            touched.append(addr)
            pos += take

        if self.on_write is not None:
            self.on_write(inode.ino, offset, len(data))
        if offset + len(data) > inode.size:
            inode.size = offset + len(data)
            grew_structure = True
        inode.mtime = self.env.now
        if grew_structure:
            self._mark_meta_dirty(inode)
        elif not inode.inode_dirty:
            inode.only_mtime_dirty = True

        sync_transactions = 0
        if ioflags & self.IO_DELAYDATA:
            # Delayed data: let clustering accumulate; kick an async write
            # of any cluster window this write just completed.
            self._maybe_start_cluster_write(inode, touched)
        elif ioflags & self.IO_SYNC and ioflags & self.IO_DATAONLY:
            sync_transactions += yield from self._flush_data_addrs(inode, touched)
        elif ioflags & self.IO_SYNC:
            # Reference-port standard synchronous write (§4.4).
            sync_transactions += yield from self._flush_data_addrs(inode, touched)
            if inode.indirect_dirty:
                sync_transactions += yield from self._write_indirect_sync(inode)
            if inode.inode_dirty:
                sync_transactions += yield from self._write_inode_sync(inode)
            # else: mtime-only change stays for asynchronous update.
        return WriteResult(
            count=len(data),
            sync_transactions=sync_transactions,
            metadata_dirty=inode.inode_dirty or inode.indirect_dirty,
            mtime_only=inode.only_mtime_dirty
            and not (inode.inode_dirty or inode.indirect_dirty),
        )

    def _get_buffer_checked(self, addr: int):
        """Fault in a buffer, converting integrity failures to EIO.

        A corrupt durable block is quarantined at detection time (the
        scrub layer repairs or reports it) and the caller sees a plain
        I/O error — never the rotted bytes.
        """
        try:
            return self.cache.get(addr)
        except CorruptBlockError as exc:
            self.cache.durable.quarantine(addr, exc.reason)
            raise FsError("EIO", str(exc)) from exc

    def _allocate_block(self, inode: Inode, fblock: int) -> int:
        try:
            addr = self.allocator.allocate_near(inode.ino)
        except NoSpace as exc:
            raise FsError("ENOSPC", str(exc)) from exc
        touched_indirect = inode.set_block_addr(fblock, addr)
        if fblock >= NDIRECT and inode.indirect_addr is None:
            try:
                inode.indirect_addr = self.allocator.allocate_near(inode.ino)
            except NoSpace as exc:
                raise FsError("ENOSPC", str(exc)) from exc
        if touched_indirect:
            self._mark_meta_dirty(inode, indirect=True)
        return addr

    def _register_flush_events(self, ino: int, events: List[Event]) -> None:
        """Track in-flight data flushes so any syncer can wait them out."""
        pending = self._in_flight_data.setdefault(ino, [])
        pending.extend(events)
        for event in events:
            event.callbacks.append(
                lambda _ev, ino=ino, ev=event: self._forget_in_flight(ino, ev)
            )

    def _flush_data_addrs(self, inode: Inode, addrs: List[int]) -> Generator:
        """Synchronously flush the dirty buffers at ``addrs``; returns the
        number of device transactions issued."""
        runs = self.cache.plan_runs(addrs)
        if not runs:
            return 0
        yield from self._charge(self._device_trip_cost() * len(runs))
        events = self.cache.flush_runs_async(runs, kind="data")
        self._register_flush_events(inode.ino, events)
        if events:
            yield AllOf(self.env, events)
        return len(runs)

    def _maybe_start_cluster_write(self, inode: Inode, touched: List[int]) -> None:
        """Start an async clustered write for each completed cluster window."""
        for addr in touched:
            window_start = (addr // self.cluster_size) * self.cluster_size
            window_addrs = list(range(window_start, window_start + self.cluster_size, self.block_size))
            if all(
                self.cache.is_cached(a) and self.cache.lookup(a).dirty
                for a in window_addrs
            ):
                runs = self.cache.plan_runs(window_addrs)
                events = self.cache.flush_runs_async(runs, kind="data")
                self._register_flush_events(inode.ino, events)

    def _forget_in_flight(self, ino: int, event: Event) -> None:
        pending = self._in_flight_data.get(ino)
        if pending and event in pending:
            pending.remove(event)

    def sync_data(self, inode: Inode, start: int = 0, end: Optional[int] = None) -> Generator:
        """VOP_SYNCDATA: flush delayed data in [start, end) as clustered
        transfers, and wait out any overlapping async cluster writes.

        Returns the number of device transactions issued by this call."""
        yield from self._charge(self.costs.ufs_trip)
        if end is None:
            end = inode.size
        addrs = self._file_extent_addrs(inode, start, end)
        runs = self.cache.plan_runs(addrs)
        transactions = len(runs)
        if runs:
            yield from self._charge(self._device_trip_cost() * transactions)
            yield from self.cache.flush_runs(runs, kind="data")
        pending = list(self._in_flight_data.get(inode.ino, ()))
        if pending:
            yield AllOf(self.env, pending)
        return transactions

    def fsync(self, inode: Inode, metadata_only: bool = False) -> Generator:
        """VOP_FSYNC.  With ``metadata_only`` (FWRITE|FWRITE_METADATA in the
        paper), flushes just the indirect and inode blocks.

        Returns the number of device transactions issued."""
        yield from self._charge(self.costs.ufs_trip)
        transactions = 0
        if not metadata_only:
            addrs = self._file_extent_addrs(inode, 0, max(inode.size, 1))
            runs = self.cache.plan_runs(addrs)
            if runs:
                yield from self._charge(self._device_trip_cost() * len(runs))
                yield from self.cache.flush_runs(runs, kind="data")
                transactions += len(runs)
            pending = list(self._in_flight_data.get(inode.ino, ()))
            if pending:
                yield AllOf(self.env, pending)
        if inode.indirect_dirty:
            transactions += yield from self._write_indirect_sync(inode)
        if inode.inode_dirty or inode.only_mtime_dirty:
            transactions += yield from self._write_inode_sync(inode)
        return transactions

    def _write_inode_sync(self, inode: Inode, retire: Optional[Inode] = None) -> Generator:
        """Synchronously write ``inode``'s block.  ``retire`` is a removed
        inode whose committed state goes away with this write (the
        directory write that unlinks its last name)."""
        yield from self._charge(self._device_trip_cost())
        snapshot = inode.snapshot()
        version = inode.meta_version
        done = self.storage.submit(
            inode.inode_block_addr, self.block_size, is_write=True, kind="inode"
        )
        ino = inode.ino
        durable = self.cache.durable

        def commit(_event: Event) -> None:
            # A write still in flight when its file's removal committed
            # must not resurrect the retired inode.
            if not inode.retired:
                durable.commit_inode(ino, snapshot)
            if retire is not None:
                retire.retired = True
                durable.retire_inode(retire.ino)

        done.callbacks.append(commit)
        yield done
        if inode.meta_version == version:
            inode.inode_dirty = False
            inode.only_mtime_dirty = False
        return 1

    def _write_indirect_sync(self, inode: Inode) -> Generator:
        if inode.indirect_addr is None:
            return 0
        yield from self._charge(self._device_trip_cost())
        if inode.indirect_addr is None:
            # A crash during the charge reset the inode to its committed
            # state, which has no indirect block yet: nothing to write.
            return 0
        mapping = dict(inode.indirect)
        version = inode.meta_version
        addr = inode.indirect_addr
        done = self.storage.submit(addr, self.block_size, is_write=True, kind="indirect")

        def commit(_event: Event) -> None:
            if not inode.retired:
                self.cache.durable.commit_indirect(addr, mapping)

        done.callbacks.append(commit)
        yield done
        if inode.meta_version == version:
            inode.indirect_dirty = False
        return 1

    def read(self, inode: Inode, offset: int, nbytes: int) -> Generator:
        """VOP_READ.  Returns bytes (zero-filled over holes, truncated at EOF)."""
        if inode.ftype != FileType.FILE:
            raise FsError("EISDIR", f"read of non-file inode {inode.ino}")
        if offset < 0 or nbytes < 0:
            raise FsError("EINVAL", f"bad read range ({offset}, {nbytes})")
        end = min(offset + nbytes, inode.size)
        if end <= offset:
            yield from self._charge(self.costs.ufs_trip)
            return b""
        yield from self._charge(
            self.costs.ufs_trip + self.costs.copy_per_byte * (end - offset)
        )
        out = bytearray()
        pos = offset
        while pos < end:
            fblock = pos // self.block_size
            within = pos - fblock * self.block_size
            take = min(end - pos, self.block_size - within)
            addr = inode.block_addr(fblock)
            if addr is None:
                out.extend(b"\x00" * take)
            else:
                buffer = self.cache.lookup(addr)
                if buffer is None:
                    yield from self._charge(self._device_trip_cost())
                    yield self.storage.submit(addr, self.block_size, is_write=False, kind="data")
                    if self.storage.latent_overlap(addr, self.block_size):
                        # The medium failed the read: surface EIO, leave a
                        # quarantine record for the scrubber to repair.
                        self.cache.durable.quarantine(addr, "latent")
                        raise FsError("EIO", f"latent sector error at addr={addr}")
                    buffer = self._get_buffer_checked(addr)
                out.extend(buffer.data[within : within + take])
            pos += take
        inode.atime = self.env.now
        return bytes(out)

    # -- namespace -------------------------------------------------------------

    def lookup(self, directory: Inode, name: str) -> Generator:
        """Directory lookup (namei cache: CPU cost only)."""
        if directory.ftype != FileType.DIRECTORY:
            raise FsError("ENOTDIR", f"inode {directory.ino} is not a directory")
        yield from self._charge(self.costs.namei)
        ino = directory.entries.get(name)
        if ino is None:
            raise FsError("ENOENT", name)
        return self.inodes[ino]

    def create(
        self,
        directory: Inode,
        name: str,
        ftype: str = FileType.FILE,
        ino: Optional[int] = None,
    ) -> Generator:
        """Create a file/directory: two synchronous metadata transactions
        (directory data block + new inode block), per FFS semantics.
        ``ino`` pins the inode number (replica backups replaying a
        primary's allocation)."""
        if directory.ftype != FileType.DIRECTORY:
            raise FsError("ENOTDIR", f"inode {directory.ino} is not a directory")
        if name in directory.entries:
            raise FsError("EEXIST", name)
        yield from self._charge(self.costs.ufs_trip + self.costs.namei)
        inode = self._new_inode(ftype, ino=ino)
        directory.entries[name] = inode.ino
        directory.mtime = self.env.now
        self._mark_meta_dirty(directory)
        self._mark_meta_dirty(inode)
        yield from self._write_inode_sync(inode)
        yield from self._write_inode_sync(directory)
        return inode

    def adopt_inode(
        self, directory: Inode, name: str, ino: int, generation: int
    ) -> Generator:
        """Create ``name`` under a *foreign* inode number (live migration).

        Same cost and durability as :meth:`create`, with two differences:
        the inode's generation is pinned (client-held file handles must
        survive the move verbatim), and the allocation counter is left
        untouched — the adopted ino comes from another shard's range, and
        letting ``_new_inode``'s replay bump stand would march this
        shard's future allocations into that foreign range (fleet-wide
        handle collisions, including on a later-promoted backup).
        """
        if directory.ftype != FileType.DIRECTORY:
            raise FsError("ENOTDIR", f"inode {directory.ino} is not a directory")
        if name in directory.entries:
            raise FsError("EEXIST", name)
        if ino in self.inodes:
            raise FsError("EEXIST", f"inode {ino} already exists")
        yield from self._charge(self.costs.ufs_trip + self.costs.namei)
        saved_next = self._next_ino
        inode = self._new_inode(FileType.FILE, ino=ino)
        self._next_ino = saved_next
        inode.generation = generation
        directory.entries[name] = inode.ino
        directory.mtime = self.env.now
        self._mark_meta_dirty(directory)
        self._mark_meta_dirty(inode)
        yield from self._write_inode_sync(inode)
        yield from self._write_inode_sync(directory)
        return inode

    def remove(self, directory: Inode, name: str) -> Generator:
        """Remove a name: frees the file's blocks, bumps its generation so
        outstanding file handles go stale, and syncs the directory.  When
        that directory write commits, the removed inode leaves the durable
        image too (a crash before then keeps it, blocks and all)."""
        if directory.ftype != FileType.DIRECTORY:
            raise FsError("ENOTDIR", f"inode {directory.ino} is not a directory")
        ino = directory.entries.get(name)
        if ino is None:
            raise FsError("ENOENT", name)
        yield from self._charge(self.costs.ufs_trip + self.costs.namei)
        inode = self.inodes[ino]
        del directory.entries[name]
        directory.mtime = self.env.now
        self._mark_meta_dirty(directory)
        inode.nlink -= 1
        retire = None
        if inode.nlink <= 0:
            retire = inode
            for fblock in inode.mapped_blocks():
                addr = inode.block_addr(fblock)
                if addr is not None:
                    self.allocator.free(addr)
            if inode.indirect_addr is not None:
                self.allocator.free(inode.indirect_addr)
            inode.generation += 1
            del self.inodes[ino]
        yield from self._write_inode_sync(directory, retire=retire)

    def readdir(self, directory: Inode) -> Generator:
        if directory.ftype != FileType.DIRECTORY:
            raise FsError("ENOTDIR", f"inode {directory.ino} is not a directory")
        yield from self._charge(self.costs.namei)
        return sorted(directory.entries)

    def symlink(
        self,
        directory: Inode,
        name: str,
        target: str,
        ino: Optional[int] = None,
    ) -> Generator:
        """Create a symbolic link (its target string lives in the inode)."""
        inode = yield from self.create(directory, name, FileType.SYMLINK, ino=ino)
        inode.symlink_target = target
        return inode

    def readlink(self, inode: Inode) -> Generator:
        if inode.ftype != FileType.SYMLINK:
            raise FsError("EINVAL", f"inode {inode.ino} is not a symlink")
        yield from self._charge(self.costs.namei)
        return inode.symlink_target

    def rename(self, src_dir: Inode, src_name: str, dst_dir: Inode, dst_name: str) -> Generator:
        """Atomically move a directory entry (NFSv2 RENAME semantics: an
        existing destination entry is replaced)."""
        for directory in (src_dir, dst_dir):
            if directory.ftype != FileType.DIRECTORY:
                raise FsError("ENOTDIR", f"inode {directory.ino} is not a directory")
        ino = src_dir.entries.get(src_name)
        if ino is None:
            raise FsError("ENOENT", src_name)
        yield from self._charge(self.costs.ufs_trip + 2 * self.costs.namei)
        if dst_name in dst_dir.entries and dst_dir.entries[dst_name] != ino:
            yield from self.remove(dst_dir, dst_name)
        del src_dir.entries[src_name]
        dst_dir.entries[dst_name] = ino
        now = self.env.now
        src_dir.mtime = now
        dst_dir.mtime = now
        self._mark_meta_dirty(src_dir)
        yield from self._write_inode_sync(src_dir)
        if dst_dir is not src_dir:
            self._mark_meta_dirty(dst_dir)
            yield from self._write_inode_sync(dst_dir)

    # -- maintenance -------------------------------------------------------------

    def sync_all(self) -> Generator:
        """Flush everything dirty (the update(8) daemon's job)."""
        runs = self.cache.plan_runs(self.cache.dirty_addrs())
        if runs:
            yield from self._charge(self._device_trip_cost() * len(runs))
            yield from self.cache.flush_runs(runs, kind="data")
        for inode in list(self.inodes.values()):
            if inode.indirect_dirty:
                yield from self._write_indirect_sync(inode)
            if inode.inode_dirty or inode.only_mtime_dirty:
                yield from self._write_inode_sync(inode)

    def reset_volatile(self) -> None:
        """Lose all in-core filesystem state at a simulated crash.

        The buffer cache empties, in-flight flush tracking is dropped, and
        every in-core inode reverts to its last committed snapshot — an
        inode that never reached stable storage keeps its in-core identity
        (so its file handle resolves) but all its dirty flags clear: the
        new incarnation makes no promises the old one didn't keep.
        """
        self.cache.reset_volatile()
        self._in_flight_data.clear()
        durable = self.cache.durable
        for inode in self.inodes.values():
            snapshot = durable.inodes.get(inode.ino)
            if snapshot is not None:
                inode.size = snapshot.size
                inode.mtime = snapshot.mtime
                inode.direct = list(snapshot.direct)
                inode.indirect_addr = snapshot.indirect_addr
            durable_indirect = durable.indirects.get(inode.ino)
            if durable_indirect is not None:
                inode.indirect = dict(durable_indirect)
            elif snapshot is not None and snapshot.indirect_addr is None:
                inode.indirect = {}
            inode.inode_dirty = False
            inode.indirect_dirty = False
            inode.only_mtime_dirty = False

    # -- crash-consistency inspection (used by tests and invariant checks) -------

    def durable_read(self, ino: int, offset: int, nbytes: int) -> Optional[bytes]:
        """What a post-crash recovery would read from [offset, offset+nbytes).

        Returns None if any needed metadata or data has not been committed
        to stable storage; zero-fills holes inside the committed size.
        """
        snapshot = self.cache.durable.inodes.get(ino)
        if snapshot is None:
            return None
        end = offset + nbytes
        if end > snapshot.size:
            return None
        out = bytearray()
        pos = offset
        while pos < end:
            fblock = pos // self.block_size
            within = pos - fblock * self.block_size
            take = min(end - pos, self.block_size - within)
            if fblock < NDIRECT:
                addr = snapshot.direct[fblock]
            else:
                indirect = self.cache.durable.indirects.get(ino)
                if indirect is None:
                    return None
                addr = indirect.get(fblock)
            if addr is None:
                out.extend(b"\x00" * take)
            else:
                block = self.cache.durable.blocks.get(addr)
                if block is None:
                    return None
                out.extend(block[within : within + take])
            pos += take
        return bytes(out)

    def durable_covered(self, ino: int, offset: int, nbytes: int) -> bool:
        """Would :meth:`durable_read` succeed for [offset, offset+nbytes)?

        The reachability half of the crash contract without the byte
        assembly: committed metadata maps the whole range and every mapped
        block is on stable storage.  Flyweight payloads (which carry no
        content promise) are checked with this instead of a byte compare.
        """
        snapshot = self.cache.durable.inodes.get(ino)
        if snapshot is None:
            return False
        end = offset + nbytes
        if end > snapshot.size:
            return False
        durable = self.cache.durable
        first = offset // self.block_size
        last = (end - 1) // self.block_size if end > offset else first - 1
        for fblock in range(first, last + 1):
            if fblock < NDIRECT:
                addr = snapshot.direct[fblock]
            else:
                indirect = durable.indirects.get(ino)
                if indirect is None:
                    return False
                addr = indirect.get(fblock)
            # A hole (addr None) reads back as zeros: still covered.
            if addr is not None and addr not in durable.blocks:
                return False
        return True
