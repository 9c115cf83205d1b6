"""Storage tiers: heterogeneous shard hardware under one shard map.

The paper's economics (§2, §9) are per-server: an NVRAM board turns a
disk-bound write path into a memory-bound one at a hardware price.  At
fleet scale that price is paid per *shard*, so a real deployment mixes a
few NVRAM-rich "hot" shards with many disk-only "cold" ones.  A
:class:`TierConfig` describes one such hardware class; a cluster built
from tiers gets per-shard storage stacks and a capacity-weighted ring
(a big cold shard earns proportionally more ring arcs than a small hot
one), and the placement layer (:mod:`repro.tiering.placement`) decides
which tier newly created files land on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.disk.model import RZ26, DiskSpec
from repro.fs.ufs import DEFAULT_FS_BYTES

__all__ = ["TierConfig", "DEFAULT_FS_BYTES"]


@dataclass(frozen=True)
class TierConfig:
    """One hardware class: how many shards, and what each is made of."""

    #: Tier name ("hot", "cold", ...), used by placement policies and
    #: reporting; must be unique within a cluster.
    name: str
    #: Number of shards built from this hardware class.
    shards: int
    #: Per-shard NVRAM accelerator capacity; None = disk-only.
    presto_bytes: Optional[int] = None
    disk_spec: DiskSpec = RZ26
    #: Spindles per shard.
    stripes: int = 1
    #: Per-shard volume size; None = DEFAULT_FS_BYTES.
    fs_bytes: Optional[int] = None
    #: Ring weight override; None derives it from capacity
    #: (``fs_bytes / DEFAULT_FS_BYTES``), so a quarter-size shard owns a
    #: quarter of the nominal arcs.
    weight: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tier needs a name")
        if self.shards < 1:
            raise ValueError(f"tier {self.name!r} needs >= 1 shard")
        if self.stripes < 1:
            raise ValueError(f"tier {self.name!r}: stripes must be >= 1")
        if self.fs_bytes is not None and self.fs_bytes <= 0:
            raise ValueError(f"tier {self.name!r}: fs_bytes must be positive")
        if self.presto_bytes is not None and self.presto_bytes <= 0:
            raise ValueError(f"tier {self.name!r}: presto_bytes must be positive")
        if self.weight is not None and self.weight <= 0:
            raise ValueError(f"tier {self.name!r}: weight must be > 0")

    @property
    def effective_fs_bytes(self) -> int:
        return self.fs_bytes if self.fs_bytes is not None else DEFAULT_FS_BYTES

    @property
    def effective_weight(self) -> float:
        if self.weight is not None:
            return self.weight
        return self.effective_fs_bytes / DEFAULT_FS_BYTES

    @property
    def accelerated(self) -> bool:
        return self.presto_bytes is not None
