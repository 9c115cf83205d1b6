"""Block and inode allocation with FFS-style cylinder-group locality.

The disk's byte space is divided into *cylinder groups*.  Each group holds a
small inode table at its front followed by data blocks.  A file's inode lives
in some group and its data is allocated from the same group (spilling into
following groups when full), so the inode<->data seek distance is tens of
megabytes, not a full stroke — this locality is what the calibrated disk
model expects, and is faithful to [MCKU84].

Sequential allocations within a group return *contiguous* disk addresses,
which is what lets UFS clustering ([MCVO91]) turn eight dirty 8K buffers
into one 64K transfer.
"""

from __future__ import annotations

from typing import List, Set

__all__ = ["Allocator", "CylinderGroup", "NoSpace"]


class NoSpace(Exception):
    """The filesystem is out of blocks (the server returns ENOSPC)."""


class CylinderGroup:
    """One allocation region: an inode table plus a data area."""

    def __init__(self, base: int, size: int, inode_table_blocks: int, block_size: int) -> None:
        self.base = base
        self.size = size
        self.block_size = block_size
        self.inode_table_start = base
        self.inode_table_blocks = inode_table_blocks
        self.data_start = base + inode_table_blocks * block_size
        self.data_end = base + size
        self._next = self.data_start
        self._free: List[int] = []

    def allocate(self) -> int:
        """Allocate one data block; contiguous while the group is fresh."""
        if self._free:
            return self._free.pop()
        if self._next + self.block_size <= self.data_end:
            addr = self._next
            self._next += self.block_size
            return addr
        raise NoSpace(f"cylinder group at {self.base:#x} is full")

    def free(self, addr: int) -> None:
        if not self.data_start <= addr < self.data_end:
            raise ValueError(f"block {addr:#x} not in this group's data area")
        self._free.append(addr)

    def inode_block(self, slot: int) -> int:
        """Disk address of inode-table block ``slot`` within this group."""
        if not 0 <= slot < self.inode_table_blocks:
            raise ValueError(f"inode slot {slot} out of range")
        return self.inode_table_start + slot * self.block_size

    @property
    def has_space(self) -> bool:
        return bool(self._free) or self._next + self.block_size <= self.data_end


class Allocator:
    """Disk-wide allocator over cylinder groups."""

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int = 8192,
        group_size: int = 32 * 1024 * 1024,
        inode_table_blocks: int = 16,
    ) -> None:
        if capacity_bytes < group_size:
            group_size = capacity_bytes
        if group_size < (inode_table_blocks + 1) * block_size:
            raise ValueError("cylinder group too small for its inode table")
        self.block_size = block_size
        self.groups: List[CylinderGroup] = []
        base = 0
        while base + group_size <= capacity_bytes:
            self.groups.append(CylinderGroup(base, group_size, inode_table_blocks, block_size))
            base += group_size
        if not self.groups:
            raise ValueError("capacity too small for even one cylinder group")
        self._inodes_per_block = 64  # 128-byte on-disk inodes in an 8K block
        self._allocated: Set[int] = set()

    def group_for_inode(self, ino: int) -> int:
        """Which cylinder group an inode lives in (round-robin by ino)."""
        return ino % len(self.groups)

    def inode_block_addr(self, ino: int) -> int:
        """Disk address of the inode-table block containing inode ``ino``."""
        group = self.groups[self.group_for_inode(ino)]
        slot = (ino // len(self.groups)) % group.inode_table_blocks
        return group.inode_block(slot)

    def allocate_near(self, ino: int) -> int:
        """Allocate a data block, preferring the inode's cylinder group."""
        start = self.group_for_inode(ino)
        for step in range(len(self.groups)):
            group = self.groups[(start + step) % len(self.groups)]
            if group.has_space:
                addr = group.allocate()
                self._allocated.add(addr)
                return addr
        raise NoSpace("filesystem full")

    def free(self, addr: int) -> None:
        """Return a data block to its group's free list."""
        if addr not in self._allocated:
            raise ValueError(f"double free or foreign block: {addr:#x}")
        self._allocated.remove(addr)
        for group in self.groups:
            if group.data_start <= addr < group.data_end:
                group.free(addr)
                return
        raise ValueError(f"block {addr:#x} belongs to no group")

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)
