"""Inodes and block maps, BSD-FFS vintage (McKusick et al. [MCKU84]).

An inode holds ``NDIRECT`` direct block pointers plus one single-indirect
block.  This matches the paper's cost analysis: writing block ``i`` of a
growing file dirties the data block, the inode block (size change), and —
once past the direct blocks — the indirect block, i.e. "roughly 3N" disk
operations for an N-block file (§5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Inode", "FileType", "NDIRECT", "InodeSnapshot"]

#: Direct block pointers per inode (4.3BSD used 12).
NDIRECT = 12


class FileType:
    """Inode type tags."""

    FILE = "file"
    DIRECTORY = "directory"
    SYMLINK = "symlink"


@dataclass
class InodeSnapshot:
    """Immutable copy of inode metadata as last committed to stable storage."""

    size: int
    mtime: float
    direct: tuple
    indirect_addr: Optional[int]
    generation: int


@dataclass
class Inode:
    """An in-core inode."""

    ino: int
    ftype: str = FileType.FILE
    size: int = 0
    mtime: float = 0.0
    atime: float = 0.0
    ctime: float = 0.0
    #: Disk block address holding this inode (metadata writes target it).
    inode_block_addr: int = 0
    #: Direct block pointers: file block index -> disk block address.
    direct: List[Optional[int]] = field(default_factory=lambda: [None] * NDIRECT)
    #: Disk address of the single indirect block, if allocated.
    indirect_addr: Optional[int] = None
    #: Indirect entries: file block index (>= NDIRECT) -> disk block address.
    indirect: Dict[int, int] = field(default_factory=dict)
    #: Bumped on delete/recreate so stale file handles are detectable.
    generation: int = 0
    #: Directory entries (name -> ino) when ftype == DIRECTORY.
    entries: Dict[str, int] = field(default_factory=dict)
    #: Link target when ftype == SYMLINK.
    symlink_target: str = ""
    #: Link count; zero means removable.
    nlink: int = 1
    #: Set when the directory write removing the last link commits: the
    #: inode has left stable storage, and metadata writes of this in-core
    #: copy still in flight then must not commit it back.
    retired: bool = False

    # Dirty state, consulted by fsync:
    inode_dirty: bool = False
    indirect_dirty: bool = False
    #: True when only mtime changed (the reference port's async special case).
    only_mtime_dirty: bool = False
    #: Bumped on every metadata mutation; in-flight flushes only clear dirty
    #: flags if the version is unchanged when they complete.
    meta_version: int = 0

    def block_addr(self, file_block: int) -> Optional[int]:
        """Disk address of file block ``file_block``, or None if a hole."""
        if file_block < 0:
            raise ValueError(f"negative file block index: {file_block}")
        if file_block < NDIRECT:
            return self.direct[file_block]
        return self.indirect.get(file_block)

    def set_block_addr(self, file_block: int, addr: int) -> bool:
        """Install a block pointer.  Returns True if the indirect block was
        touched (and therefore must be flushed before replying)."""
        if file_block < 0:
            raise ValueError(f"negative file block index: {file_block}")
        if file_block < NDIRECT:
            self.direct[file_block] = addr
            return False
        self.indirect[file_block] = addr
        return True

    def mapped_blocks(self) -> List[int]:
        """All file block indices that have a disk address."""
        blocks = [i for i, addr in enumerate(self.direct) if addr is not None]
        blocks.extend(sorted(self.indirect))
        return blocks

    def snapshot(self) -> InodeSnapshot:
        """Copy the metadata that an inode-block write would commit."""
        return InodeSnapshot(
            size=self.size,
            mtime=self.mtime,
            direct=tuple(self.direct),
            indirect_addr=self.indirect_addr,
            generation=self.generation,
        )
