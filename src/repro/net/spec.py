"""Network technology parameters (Ethernet and FDDI, as in the paper).

The paper's procrastination intervals are transport dependent: "approx. 8
msec for Ethernet or multi-segment requests and 5 msec for FDDI based
requests" (§6.6) — so the gather interval lives here with the other
per-technology constants.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetSpec", "ETHERNET", "FDDI", "NETWORKS"]


@dataclass(frozen=True)
class NetSpec:
    """Static parameters of a network segment technology."""

    name: str
    #: Raw signalling rate in bits/second.
    bandwidth_bps: float
    #: Maximum transmission unit (payload bytes per frame).
    mtu: int
    #: Per-frame header/trailer overhead bytes on the wire.
    frame_overhead: int
    #: One-way propagation + driver latency per frame, seconds.
    latency: float
    #: Host CPU seconds to process one received/sent frame (interrupt,
    #: reassembly work); Ethernet's small MTU is what makes its per-request
    #: CPU cost high.
    cpu_per_frame: float
    #: The paper's empirically derived procrastination interval (§6.6).
    gather_interval: float

    def frames_for(self, payload_bytes: int) -> int:
        """Number of frames a datagram of ``payload_bytes`` fragments into."""
        if payload_bytes <= 0:
            raise ValueError(f"payload must be positive, got {payload_bytes}")
        return -(-payload_bytes // self.mtu)  # ceil division

    def wire_time(self, payload_bytes: int) -> float:
        """Pure transmission time of a datagram, all fragments."""
        frames = self.frames_for(payload_bytes)
        wire_bytes = payload_bytes + frames * self.frame_overhead
        return wire_bytes * 8.0 / self.bandwidth_bps


#: 10 Mb/s shared Ethernet: 1500-byte MTU, 8K writes fragment into 6 frames.
ETHERNET = NetSpec(
    name="ethernet",
    bandwidth_bps=10e6,
    mtu=1500,
    frame_overhead=42,
    latency=0.0004,
    cpu_per_frame=0.0003,
    gather_interval=0.008,
)

#: 100 Mb/s FDDI ring: 4352-byte MTU, 8K writes fragment into 2 frames.
FDDI = NetSpec(
    name="fddi",
    bandwidth_bps=100e6,
    mtu=4352,
    frame_overhead=67,
    latency=0.0002,
    cpu_per_frame=0.00012,
    gather_interval=0.005,
)

#: The paper's two technologies by name (the CLI's ``--net`` choices).
NETWORKS = {spec.name: spec for spec in (ETHERNET, FDDI)}
