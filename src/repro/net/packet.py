"""Datagrams: what travels across a simulated segment.

A datagram carries an arbitrary payload object (an RPC call or reply) plus
its wire size; the segment fragments it into MTU-sized frames for
transmission timing, and the receiving host pays per-frame CPU to reassemble
it (§4.1's "server CPU overhead due to packet reassembly").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Datagram"]


@dataclass(slots=True)
class Datagram:
    """A UDP datagram in flight or queued in a socket buffer."""

    src: str
    dst: str
    payload: Any
    #: UDP payload size in bytes (data + protocol headers above IP).
    size: int
    #: Number of frames this datagram was fragmented into (set on send).
    fragments: int = 1
    #: When this datagram entered the destination's socket buffer (set on
    #: delivery; socket-buffer residency spans are measured from it).
    arrived_at: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"datagram size must be positive, got {self.size}")
