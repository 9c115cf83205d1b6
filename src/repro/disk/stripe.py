"""RAID-0 style striping driver (the "disk striping driver" of the paper).

Tables 5 and 6 use "a stripe set of three RZ26 disks".  The driver here maps
the logical byte space round-robin across member disks in fixed-size stripe
units, coalesces the chunks of one logical request that land on the same
member into a single contiguous member transaction (consecutive units on a
member are adjacent in member LBA space), issues the member transactions in
parallel, and completes when all members have committed.

This is why striping pays off so much more *with* gathering: a gathered 64K
cluster becomes one ~21K contiguous write per member running on three
spindles at once, while ungathered 8K writes serialize on whichever member
holds the inode block.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.disk.device import Storage
from repro.sim import AllOf, Environment, Event

__all__ = ["StripeSet"]


class StripeSet(Storage):
    """Stripes a logical byte space over member :class:`Storage` devices."""

    def __init__(
        self,
        env: Environment,
        members: Sequence[Storage],
        stripe_unit: int = 8192,
        name: str = "stripe",
    ) -> None:
        if not members:
            raise ValueError("StripeSet requires at least one member disk")
        if stripe_unit <= 0:
            raise ValueError(f"stripe unit must be positive, got {stripe_unit}")
        super().__init__(env, name)
        self.members = list(members)
        self.stripe_unit = stripe_unit

    def map_extent(self, offset: int, nbytes: int) -> List[Tuple[int, int, int]]:
        """Map a logical extent to ``(member_index, member_offset, length)``.

        Chunks landing on the same member are coalesced into one contiguous
        member extent per logical request.
        """
        ndisks = len(self.members)
        unit = self.stripe_unit
        per_member: Dict[int, List[Tuple[int, int]]] = {}
        cursor = offset
        remaining = nbytes
        while remaining > 0:
            unit_index = cursor // unit
            within = cursor - unit_index * unit
            take = min(remaining, unit - within)
            member = unit_index % ndisks
            member_offset = (unit_index // ndisks) * unit + within
            per_member.setdefault(member, []).append((member_offset, take))
            cursor += take
            remaining -= take
        extents: List[Tuple[int, int, int]] = []
        for member, pieces in sorted(per_member.items()):
            start = min(piece_offset for piece_offset, _length in pieces)
            end = max(piece_offset + length for piece_offset, length in pieces)
            extents.append((member, start, end - start))
        return extents

    def submit(self, offset: int, nbytes: int, is_write: bool = True, kind: str = "data") -> Event:
        parts = [
            self.members[member].submit(member_offset, length, is_write, kind)
            for member, member_offset, length in self.map_extent(offset, nbytes)
        ]
        if len(parts) == 1:
            return parts[0]
        return AllOf(self.env, parts)

    def queue_depth(self) -> int:
        return sum(member.queue_depth() for member in self.members)

    # Media faults map through the same extent geometry as the data.

    def inject_latent(self, offset: int, nbytes: int) -> None:
        for member, member_offset, length in self.map_extent(offset, nbytes):
            self.members[member].inject_latent(member_offset, length)

    def heal_latent(self, offset: int, nbytes: int) -> None:
        for member, member_offset, length in self.map_extent(offset, nbytes):
            self.members[member].heal_latent(member_offset, length)

    def latent_overlap(self, offset: int, nbytes: int) -> bool:
        return any(
            self.members[member].latent_overlap(member_offset, length)
            for member, member_offset, length in self.map_extent(offset, nbytes)
        )

    def reset_stats(self) -> None:
        super().reset_stats()
        for member in self.members:
            member.reset_stats()
