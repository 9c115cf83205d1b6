"""Buffer cache with delayed writes, clustering, and a durable image.

The cache holds real bytes, because the reproduction checks *content*
invariants, not just timings:

* every buffer is an 8K block's in-core copy, copy-on-write: until a
  real-byte write lands, it shares immutable ``bytes`` (the zero block,
  the durable block it was faulted from, or its last flush snapshot);
* delayed (dirty) buffers are what UFS clustering ([MCVO91]) coalesces into
  up-to-64K device transactions;
* the :class:`DurableImage` records what is actually on stable storage —
  a block's bytes enter the image only when the storage device reports the
  corresponding transaction complete, with the bytes snapshotted at submit
  time.  Crash-consistency tests compare NFS replies against this image.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.disk.device import Storage
from repro.fs.inode import InodeSnapshot
from repro.integrity.checksum import block_digest
from repro.integrity.errors import CorruptBlockError
from repro.sim import AllOf, Environment, Event

__all__ = ["Buffer", "BufferCache", "DurableImage", "FlushRun"]


class Buffer:
    """One cached disk block, copy-on-write over immutable ``bytes``.

    ``data`` is either a shared immutable ``bytes`` object — the flyweight
    zero block, the durable image's block, or the buffer's last flush
    snapshot — or, once a partial real-byte write has touched it, a
    private ``bytearray``.  Writers copy shared bytes before mutating them
    (or replace ``data`` wholesale).
    """

    __slots__ = ("addr", "size", "data", "dirty", "version", "last_use")

    def __init__(self, addr: int, size: int) -> None:
        self.addr = addr
        self.size = size
        #: A buffer that has only seen flyweight writes stays on the shared
        #: zero block (all its flushes commit that one object).
        self.data = _zero_block(size)
        self.dirty = False
        #: Bumped on every modification; flush completions only clean the
        #: buffer if the version is unchanged since the snapshot.
        self.version = 0
        self.last_use = 0.0


_ZERO_BLOCKS: Dict[int, bytes] = {}
_ZERO_DIGESTS: Dict[int, int] = {}


def _zero_block(size: int) -> bytes:
    block = _ZERO_BLOCKS.get(size)
    if block is None:
        block = _ZERO_BLOCKS[size] = bytes(size)
    return block


def _digest_of(data: bytes) -> int:
    """``block_digest``, with the shared flyweight zero block memoized —
    flyweight flushes commit the same immutable object over and over."""
    if data is _ZERO_BLOCKS.get(len(data)):
        digest = _ZERO_DIGESTS.get(len(data))
        if digest is None:
            digest = _ZERO_DIGESTS[len(data)] = block_digest(data)
        return digest
    return block_digest(data)


class DurableImage:
    """What stable storage currently holds (blocks + committed metadata).

    Every committed block carries a digest (``checksums``), written at
    commit time — the end-to-end integrity anchor.  Media faults mutate
    ``blocks`` *without* touching the digest, which is exactly what makes
    them detectable; ``quarantined`` marks addresses a scrub (or failed
    read) has declared unreadable pending repair.
    """

    def __init__(self) -> None:
        #: addr -> immutable ``bytes`` (buffers share these objects; faults
        #: replace an entry, never mutate it).
        self.blocks: Dict[int, bytes] = {}
        self.inodes: Dict[int, InodeSnapshot] = {}
        #: addr -> committed indirect block (file block -> data address).
        self.indirect_blocks: Dict[int, Dict[int, int]] = {}
        #: indirect addr -> inos whose committed inode names that address.
        self._named_by: Dict[int, Set[int]] = {}
        self._indirects: Dict[int, Dict[int, int]] = {}
        #: ino -> the committed indirect block its committed inode's
        #: ``indirect_addr`` names: a read-only view that commit_inode,
        #: commit_indirect and retire_inode keep in step.  An indirect
        #: block no committed inode names belongs to no file.
        self.indirects = MappingProxyType(self._indirects)
        #: addr -> digest of the bytes that were acked as stable.
        self.checksums: Dict[int, int] = {}
        #: addr -> reason string for blocks surfaced as unreadable.
        self.quarantined: Dict[int, str] = {}

    def commit_block(self, addr: int, data: bytes) -> None:
        self.blocks[addr] = data
        self.checksums[addr] = _digest_of(data)
        self.quarantined.pop(addr, None)

    def commit_block_torn(self, addr: int, intended: bytes, mangled: bytes) -> None:
        """A torn commit: ``mangled`` bytes land under the digest of the
        ``intended`` bytes — the on-medium state after a crash interrupts
        a multi-sector transfer mid-block."""
        self.blocks[addr] = mangled
        self.checksums[addr] = block_digest(intended)
        self.quarantined.pop(addr, None)

    def commit_inode(self, ino: int, snapshot: InodeSnapshot) -> None:
        previous = self.inodes.get(ino)
        self.inodes[ino] = snapshot
        addr = snapshot.indirect_addr
        if previous is not None and previous.indirect_addr not in (None, addr):
            self._unname(ino, previous.indirect_addr)
        if addr is not None:
            self._named_by.setdefault(addr, set()).add(ino)
            mapping = self.indirect_blocks.get(addr)
            if mapping is not None:
                self._indirects[ino] = mapping

    def commit_indirect(self, addr: int, mapping: Dict[int, int]) -> None:
        """Store the indirect block at ``addr`` (the caller hands over
        ``mapping``, a submit-time snapshot)."""
        self.indirect_blocks[addr] = mapping
        for ino in self._named_by.get(addr, ()):
            self._indirects[ino] = mapping

    def retire_inode(self, ino: int) -> None:
        """Forget a removed file's committed inode (its blocks, indirect
        block included, may now be reallocated to other files)."""
        snapshot = self.inodes.pop(ino, None)
        if snapshot is not None:
            self._unname(ino, snapshot.indirect_addr)

    def _unname(self, ino: int, addr: Optional[int]) -> None:
        self._indirects.pop(ino, None)
        if addr is not None:
            self._named_by[addr].discard(ino)

    def verify_block(self, addr: int) -> None:
        """Raise :class:`CorruptBlockError` if ``addr`` cannot be trusted.

        A block with no recorded digest verifies trivially (never
        committed through the checksummed path, e.g. a fresh hole).
        """
        reason = self.quarantined.get(addr)
        if reason is not None:
            raise CorruptBlockError(addr, "quarantined", reason)
        digest = self.checksums.get(addr)
        if digest is None:
            return
        data = self.blocks.get(addr)
        if data is None:
            raise CorruptBlockError(addr, "missing", "digest present, content lost")
        if _digest_of(data) != digest:
            raise CorruptBlockError(addr, "checksum")

    def quarantine(self, addr: int, reason: str) -> None:
        self.quarantined[addr] = reason

    def rot_block(self, addr: int, rng: random.Random) -> bool:
        """Silently flip one seeded bit of a committed block's bytes,
        leaving its digest intact.  Returns False if there is nothing to
        rot at ``addr``."""
        data = self.blocks.get(addr)
        if not data:
            return False
        pos = rng.randrange(len(data))
        flipped = data[pos] ^ (1 << rng.randrange(8))
        self.blocks[addr] = data[:pos] + bytes((flipped,)) + data[pos + 1 :]
        return True

    def lose_range(self, start: int, end: int, block_size: int) -> List[int]:
        """Lose every block overlapping ``[start, end)``; returns the
        afflicted addresses."""
        afflicted = [
            addr for addr in self.blocks if addr < end and start < addr + block_size
        ]
        for addr in afflicted:
            self.blocks.pop(addr)
        return sorted(afflicted)


class FlushRun:
    """A contiguous run of dirty buffers flushed as one device transaction."""

    __slots__ = ("start", "nbytes", "buffers", "snapshots")

    def __init__(self, start: int, buffers: List[Buffer]) -> None:
        self.start = start
        self.buffers = buffers
        self.nbytes = sum(buffer.size for buffer in buffers)
        self.snapshots: List[Tuple[Buffer, bytes, int]] = []

    def snapshot(self) -> None:
        """Capture buffer contents and versions at submit time.

        A private buffer is frozen into one ``bytes`` object that both the
        durable image (at commit) and the buffer (until its next write)
        share; an already-shared buffer is snapshotted without a copy.
        """
        snapshots = []
        for buffer in self.buffers:
            data = buffer.data
            if isinstance(data, bytearray):
                data = buffer.data = bytes(data)
            snapshots.append((buffer, data, buffer.version))
        self.snapshots = snapshots


class BufferCache:
    """Block cache over a :class:`Storage`, with LRU eviction of clean data."""

    def __init__(
        self,
        env: Environment,
        storage: Storage,
        block_size: int = 8192,
        cluster_size: int = 65536,
        capacity_blocks: int = 4096,
    ) -> None:
        if cluster_size % block_size != 0:
            raise ValueError("cluster size must be a multiple of the block size")
        self.env = env
        self.storage = storage
        self.block_size = block_size
        self.cluster_size = cluster_size
        self.capacity_blocks = capacity_blocks
        self._buffers: "OrderedDict[int, Buffer]" = OrderedDict()
        self.durable = DurableImage()
        #: Completion events of async flushes still in flight, keyed by the
        #: run's start address (syncdata waits on overlapping ones).
        self._in_flight: Dict[int, Tuple[Event, int]] = {}
        #: Armed torn-write fault: run id -> pre-drawn tear fraction for
        #: flushes that were in flight when the crash hit (see
        #: arm_torn_write / reset_volatile).
        self._torn_ids: Dict[int, float] = {}
        self._torn_rng: Optional[random.Random] = None

    # -- basic cache operations ---------------------------------------------

    def lookup(self, addr: int) -> Optional[Buffer]:
        """Return the cached buffer for ``addr`` without faulting one in."""
        buffer = self._buffers.get(addr)
        if buffer is not None:
            buffer.last_use = self.env.now
            self._buffers.move_to_end(addr)
        return buffer

    def get(self, addr: int) -> Buffer:
        """Return (creating if needed) the buffer for block ``addr``.

        A newly created buffer shares the durable image's bytes if the
        block has ever been written, else the zero block (a fresh block).
        """
        buffer = self.lookup(addr)
        if buffer is None:
            buffer = Buffer(addr, self.block_size)
            # End-to-end check: never launder corrupt (or lost) durable
            # bytes into the cache (raises CorruptBlockError on mismatch).
            self.durable.verify_block(addr)
            durable = self.durable.blocks.get(addr)
            if durable is not None:
                buffer.data = durable
            buffer.last_use = self.env.now
            self._buffers[addr] = buffer
            self._evict_if_needed()
        return buffer

    def is_cached(self, addr: int) -> bool:
        return addr in self._buffers

    def mark_dirty(self, buffer: Buffer) -> None:
        buffer.dirty = True
        buffer.version += 1

    def drop_clean(self) -> int:
        """Evict every clean buffer (simulates a cold cache).  Returns count."""
        clean = [addr for addr, buffer in self._buffers.items() if not buffer.dirty]
        for addr in clean:
            del self._buffers[addr]
        return len(clean)

    def _evict_if_needed(self) -> None:
        while len(self._buffers) > self.capacity_blocks:
            victim_addr = None
            for addr, buffer in self._buffers.items():  # LRU order
                if not buffer.dirty:
                    victim_addr = addr
                    break
            if victim_addr is None:
                break  # everything dirty; let the cache balloon rather than lose data
            del self._buffers[victim_addr]

    # -- flush planning and execution ----------------------------------------

    def plan_runs(self, addrs: Iterable[int]) -> List[FlushRun]:
        """Group dirty buffers at ``addrs`` into clustered contiguous runs.

        Runs never exceed ``cluster_size`` bytes; only currently dirty,
        cached buffers participate.
        """
        dirty = sorted(
            addr
            for addr in set(addrs)
            if addr in self._buffers and self._buffers[addr].dirty
        )
        runs: List[FlushRun] = []
        current: List[Buffer] = []
        current_start = 0
        for addr in dirty:
            buffer = self._buffers[addr]
            if (
                current
                and addr == current_start + sum(b.size for b in current)
                and sum(b.size for b in current) + buffer.size <= self.cluster_size
            ):
                current.append(buffer)
            else:
                if current:
                    runs.append(FlushRun(current_start, current))
                current = [buffer]
                current_start = addr
        if current:
            runs.append(FlushRun(current_start, current))
        return runs

    def flush_runs(
        self,
        runs: List[FlushRun],
        kind: str = "data",
        on_commit: Optional[Callable[[FlushRun], None]] = None,
    ):
        """Submit ``runs`` in parallel; generator completes when all stable."""
        events = [self._submit_run(run, kind, on_commit) for run in runs]
        if events:
            yield AllOf(self.env, events)

    def flush_runs_async(
        self,
        runs: List[FlushRun],
        kind: str = "data",
        on_commit: Optional[Callable[[FlushRun], None]] = None,
    ) -> List[Event]:
        """Submit ``runs`` without waiting; returns their completion events."""
        return [self._submit_run(run, kind, on_commit) for run in runs]

    def _submit_run(
        self, run: FlushRun, kind: str, on_commit: Optional[Callable[[FlushRun], None]]
    ) -> Event:
        run.snapshot()
        # The snapshot is what will land on stable storage; the buffer no
        # longer *needs* flushing unless it is modified again (mark_dirty
        # re-dirties it, and the version check below keeps the re-dirty).
        for buffer, _data, _version in run.snapshots:
            buffer.dirty = False
        device_event = self.storage.submit(run.start, run.nbytes, is_write=True, kind=kind)
        done = self.env.event()
        self._in_flight[id(run)] = (done, run.start)

        def complete(_event: Event) -> None:
            torn_at = self._torn_ids.pop(id(run), None)
            if torn_at is not None and len(run.snapshots) > 1:
                self._commit_torn(run, torn_at)
            else:
                for buffer, data, _version in run.snapshots:
                    self.durable.commit_block(buffer.addr, data)
            if on_commit is not None:
                on_commit(run)
            # pop, not del: a simulated crash clears the tracking table
            # while device completions are still in flight.
            self._in_flight.pop(id(run), None)
            done.succeed(run)

        device_event.callbacks.append(complete)
        return done

    def arm_torn_write(self, seed: int = 0) -> None:
        """Arm the next crash to tear flushes that are then in flight: a
        prefix of each multi-block run lands, one block lands mangled
        (under the digest of the intended bytes), the tail never lands.
        Single-block runs stay atomic.  Consumed by one crash."""
        self._torn_rng = random.Random(f"torn-write/{seed}")

    def _commit_torn(self, run: FlushRun, fraction: float) -> None:
        snapshots = run.snapshots
        tear = 1 + int(fraction * (len(snapshots) - 1))
        tear = min(tear, len(snapshots) - 1)
        for index, (buffer, data, _version) in enumerate(snapshots):
            if index < tear:
                self.durable.commit_block(buffer.addr, data)
            elif index == tear:
                mangled = data[:-1] + bytes((data[-1] ^ 0xFF,))
                self.durable.commit_block_torn(buffer.addr, data, mangled)
            # Blocks past the tear never reached the medium.

    def reset_volatile(self) -> None:
        """Forget all in-core state at a simulated crash.

        Every buffer (clean or dirty) and the in-flight flush tracking table
        vanish; the durable image survives untouched.  Device completions
        already in flight still fire — ``_submit_run`` pops from the cleared
        table — and still commit their submit-time snapshots, modelling
        transactions the controller had accepted before the host died.
        With a torn-write fault armed (:meth:`arm_torn_write`), those
        in-flight completions instead land *torn*.
        """
        if self._torn_rng is not None and self._in_flight:
            # Deterministic: draw tear fractions in run-start order (ties
            # keep submission order — dict order is insertion order).
            for run_id, (_done, _start) in sorted(
                self._in_flight.items(), key=lambda item: item[1][1]
            ):
                self._torn_ids[run_id] = self._torn_rng.random()
        self._torn_rng = None
        self._buffers.clear()
        self._in_flight.clear()

    def dirty_addrs(self) -> List[int]:
        return [addr for addr, buffer in self._buffers.items() if buffer.dirty]
