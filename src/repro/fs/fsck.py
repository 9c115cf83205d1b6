"""fsck: consistency checking of the durable (on-stable-storage) image.

After a crash, a 1994 server ran fsck before re-exporting; the checks here
are the moral equivalent for the simulated filesystem, and double as a
strong test oracle: any write-path bug that commits metadata pointing at
garbage — exactly the class of bug write gathering could introduce if it
reordered a metadata flush ahead of its data — shows up as an error.

Two modes:

* ``strict=True`` (after a clean sync): every committed inode must be fully
  backed — all mapped blocks inside the committed size have durable
  content.
* ``strict=False`` (after a crash): unbacked tails are reported as
  warnings, not errors — a crash may legitimately lose data whose metadata
  was never committed, but must never produce *structural* damage
  (out-of-bounds pointers, doubly-claimed blocks, pointers into the inode
  table area).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List

from repro.fs.inode import NDIRECT
from repro.fs.ufs import Ufs
from repro.integrity.checksum import block_digest

__all__ = ["FsckReport", "fsck"]


@dataclass
class FsckReport:
    """Outcome of a durable-image check."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    files_checked: int = 0
    blocks_referenced: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        status = "CLEAN" if self.clean else f"{len(self.errors)} ERRORS"
        return (
            f"fsck: {status}, {self.files_checked} inodes, "
            f"{self.blocks_referenced} blocks, {len(self.warnings)} warnings"
        )


def _inode_table_ranges(ufs: Ufs) -> List[tuple]:
    """Byte ranges of every cylinder group's inode table, sorted."""
    return sorted((group.inode_table_start, group.data_start) for group in ufs.allocator.groups)


def _in_inode_table(addr: int, table_ranges: List[tuple]) -> bool:
    # The ranges are disjoint: only the last one starting at or before
    # ``addr`` can hold it.
    index = bisect_right(table_ranges, (addr, math.inf)) - 1
    return index >= 0 and addr < table_ranges[index][1]


def fsck(ufs: Ufs, strict: bool = True) -> FsckReport:
    """Check the durable image for structural consistency."""
    report = FsckReport()
    durable = ufs.cache.durable
    block_size = ufs.block_size
    capacity = ufs.allocator.groups[-1].data_end
    table_ranges = _inode_table_ranges(ufs)
    claimed: Dict[int, tuple] = {}

    for ino, snapshot in sorted(durable.inodes.items()):
        report.files_checked += 1
        pointers: List[tuple] = [
            (fblock, addr)
            for fblock, addr in enumerate(snapshot.direct)
            if addr is not None
        ]
        committed_indirect = durable.indirects.get(ino)
        if committed_indirect:
            if snapshot.indirect_addr is None:
                report.errors.append(
                    f"ino {ino}: committed indirect entries but no indirect block address"
                )
            pointers.extend(sorted(committed_indirect.items()))

        for fblock, addr in pointers:
            report.blocks_referenced += 1
            if addr % block_size != 0:
                report.errors.append(
                    f"ino {ino} block {fblock}: unaligned pointer {addr:#x}"
                )
                continue
            if not 0 <= addr < capacity:
                report.errors.append(
                    f"ino {ino} block {fblock}: pointer {addr:#x} out of bounds"
                )
                continue
            if _in_inode_table(addr, table_ranges):
                report.errors.append(
                    f"ino {ino} block {fblock}: pointer {addr:#x} inside an inode table"
                )
                continue
            previous_owner = claimed.get(addr)
            if previous_owner is not None:
                owner_ino, owner_fblock = previous_owner
                report.errors.append(
                    f"block {addr:#x} claimed by both ino {owner_ino} "
                    f"(block {owner_fblock}) and ino {ino} (block {fblock})"
                )
            claimed[addr] = (ino, fblock)
            # Backing check: mapped blocks inside the committed size need
            # durable content.
            if fblock * block_size < snapshot.size and addr not in durable.blocks:
                message = (
                    f"ino {ino} block {fblock}: mapped inside committed size "
                    f"({snapshot.size}) but no durable content at {addr:#x}"
                )
                if strict:
                    report.errors.append(message)
                else:
                    report.warnings.append(message)
                continue
            # Integrity check: content present under a digest must match
            # it.  A quarantined block is already *detected* damage
            # awaiting repair — warn, don't error; a silent mismatch on an
            # unquarantined block is an error in both modes (no crash
            # legitimately mutates committed bytes).
            content = durable.blocks.get(addr)
            digest = durable.checksums.get(addr)
            if content is None or digest is None:
                continue
            if addr in durable.quarantined:
                report.warnings.append(
                    f"ino {ino} block {fblock}: block {addr:#x} quarantined "
                    f"({durable.quarantined[addr]}), awaiting repair"
                )
            elif block_digest(content) != digest:
                report.errors.append(
                    f"ino {ino} block {fblock}: checksum mismatch at {addr:#x} "
                    f"(silent corruption)"
                )

        if snapshot.indirect_addr is not None:
            if snapshot.indirect_addr % block_size != 0 or not (
                0 <= snapshot.indirect_addr < capacity
            ):
                report.errors.append(
                    f"ino {ino}: bad indirect block address {snapshot.indirect_addr:#x}"
                )
        if snapshot.size < 0:
            report.errors.append(f"ino {ino}: negative committed size")
        # A committed size reaching into the indirect range is unreadable
        # after a crash unless the indirect block was also committed.
        if snapshot.size > NDIRECT * block_size and committed_indirect is None:
            message = (
                f"ino {ino}: committed size {snapshot.size} spans the indirect "
                f"range but the indirect block was never committed"
            )
            if strict:
                report.errors.append(message)
            else:
                report.warnings.append(message)
    return report
