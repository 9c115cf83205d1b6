"""Typed fault events and the plans that sequence them.

A :class:`FaultPlan` is pure data: an ordered tuple of :class:`FaultEvent`
subclasses, each carrying a :class:`Trigger` (fire at a simulation time, or
when an observability span matching a predicate closes) and the parameters
of one adversity — a server crash and reboot, a burst of packet loss, a
network partition, datagram duplication or reordering, a degraded spindle,
or a shrunken socket buffer.  Plans are declarative and serializable, so a
failing chaos campaign can print the exact plan that broke the server and a
test can re-run it verbatim.

The paper's crash contract (§4.4, §6.9) is what these adversities probe:
no reply may leave the server before the write it acknowledges is stable,
no matter when the crash lands or how the network mangles the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Tuple, Union

__all__ = [
    "AtTime",
    "OnSpan",
    "Trigger",
    "FaultEvent",
    "ServerCrash",
    "PacketLossBurst",
    "NetworkPartition",
    "DatagramDuplication",
    "DatagramReorder",
    "SlowDisk",
    "SockBufShrink",
    "RetransmitStorm",
    "LatentSectorError",
    "BitRot",
    "TornWrite",
    "NvramDegrade",
    "FaultPlan",
]


@dataclass(frozen=True)
class AtTime:
    """Fire when the simulation clock reaches ``at`` seconds."""

    at: float

    def describe(self) -> dict:
        return {"type": "at", "at": self.at}


@dataclass(frozen=True)
class OnSpan:
    """Fire when the ``occurrence``-th obs span matching the predicate
    closes (requires a traced testbed).

    ``phase`` is a dotted span name (e.g. ``gather.procrastinate`` — the
    span closing as the first parked write's nap ends, i.e. "a write is
    sitting on the active write queue").  ``attrs`` adds equality matches
    on span attributes; ``delay`` postpones the fault past the match.
    """

    phase: str
    occurrence: int = 1
    attrs: Tuple[Tuple[str, object], ...] = ()
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {self.occurrence}")

    def matches(self, span) -> bool:
        if span.name != self.phase:
            return False
        return all(span.attrs.get(key) == value for key, value in self.attrs)

    def describe(self) -> dict:
        record: Dict[str, object] = {
            "type": "span",
            "phase": self.phase,
            "occurrence": self.occurrence,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.delay:
            record["delay"] = self.delay
        return record


Trigger = Union[AtTime, OnSpan]


@dataclass(frozen=True)
class FaultEvent:
    """One adversity: a trigger plus fault-specific parameters."""

    trigger: Trigger

    #: Sim-seconds the fault stays active before the controller reverts it
    #: (0 = instantaneous, e.g. a crash with immediate reboot).
    @property
    def window(self) -> float:
        return getattr(self, "duration", 0.0)

    @property
    def kind(self) -> str:
        return _KIND_OF[type(self)]

    def params(self) -> dict:
        """Fault parameters (everything but the trigger), for reports."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "trigger"
        }

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "trigger": self.trigger.describe(),
            **self.params(),
        }


@dataclass(frozen=True)
class ServerCrash(FaultEvent):
    """Power-fail the server; it reboots ``reboot_delay`` seconds later.

    During the outage the host is partitioned off the segment, so client
    retransmissions go unanswered exactly as against a dead machine.  With
    ``reboot_delay=0`` the reboot is instantaneous (volatile state is still
    lost — the interesting part — without the retransmission stall).
    """

    reboot_delay: float = 0.0

    @property
    def window(self) -> float:
        return self.reboot_delay


@dataclass(frozen=True)
class PacketLossBurst(FaultEvent):
    """Raise the segment's frame loss rate for a window (a noisy cable)."""

    loss_rate: float = 0.3
    duration: float = 0.1


@dataclass(frozen=True)
class NetworkPartition(FaultEvent):
    """Cut hosts off the segment for a window.  Empty ``hosts`` means the
    server — the classic client-visible server outage without state loss."""

    hosts: Tuple[str, ...] = ()
    duration: float = 0.2


@dataclass(frozen=True)
class DatagramDuplication(FaultEvent):
    """Deliver a fraction of datagrams twice — the adversity the [JUSZ89]
    duplicate request cache exists for."""

    rate: float = 0.2
    duration: float = 0.2


@dataclass(frozen=True)
class DatagramReorder(FaultEvent):
    """Delay a fraction of datagrams so later traffic overtakes them."""

    rate: float = 0.2
    extra_delay: float = 0.002
    duration: float = 0.2


@dataclass(frozen=True)
class SlowDisk(FaultEvent):
    """Multiply every spindle's service time (sector retries, thermal
    recalibration) for a window."""

    factor: float = 4.0
    duration: float = 0.3


@dataclass(frozen=True)
class SockBufShrink(FaultEvent):
    """Clamp the server's NFS socket buffer to ``capacity_bytes`` for a
    window, forcing §4.2-style overload drops."""

    capacity_bytes: int = 16 * 1024
    duration: float = 0.2


@dataclass(frozen=True)
class RetransmitStorm(FaultEvent):
    """Manufacture NFS-over-UDP congestion collapse: clamp the server's
    socket buffer *and* raise frame loss for a window.

    Loss makes clients time out; the shrunken buffer makes their
    synchronized retransmissions overflow it; the overflow drops fresh
    work, which times out in turn — the feedback loop §4.2 hints at.  The
    ``repro.overload`` shed policies and adaptive retransmission exist to
    break exactly this loop, so chaos campaigns include it to exercise
    them.
    """

    loss_rate: float = 0.25
    capacity_bytes: int = 24 * 1024
    duration: float = 0.3


@dataclass(frozen=True)
class LatentSectorError(FaultEvent):
    """Mark ``count`` seeded durable sectors unreadable (the medium grew a
    defect); reads of an afflicted sector fail with EIO until a write —
    or a scrub repair — relocates the data over it."""

    count: int = 1
    seed: int = 0


@dataclass(frozen=True)
class BitRot(FaultEvent):
    """Silently flip a byte in ``count`` seeded durable blocks.  The disk
    keeps serving the rotted bytes without complaint — only checksum
    verification on the read path (or a scrub pass) can notice."""

    count: int = 1
    seed: int = 0


@dataclass(frozen=True)
class TornWrite(FaultEvent):
    """Arm the next crash to tear an in-flight multi-sector flush: a
    prefix of the run lands, one sector lands mangled, the tail never
    does.  No-op if no flush is in flight when the crash hits."""

    seed: int = 0


@dataclass(frozen=True)
class NvramDegrade(FaultEvent):
    """Battery fault: a seeded ``fraction`` of the *unflushed* NVRAM
    contents is lost at the next crash instead of surviving it — the
    failure mode Presto's battery exists to prevent."""

    fraction: float = 0.5
    seed: int = 0


_KIND_OF = {
    ServerCrash: "server_crash",
    PacketLossBurst: "packet_loss",
    NetworkPartition: "partition",
    DatagramDuplication: "duplication",
    DatagramReorder: "reorder",
    SlowDisk: "slow_disk",
    SockBufShrink: "sockbuf_shrink",
    RetransmitStorm: "retransmit_storm",
    LatentSectorError: "latent_sector",
    BitRot: "bit_rot",
    TornWrite: "torn_write",
    NvramDegrade: "nvram_degrade",
}


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, declarative schedule of fault events."""

    name: str
    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        self._validate()

    def _validate(self) -> None:
        """Reject plans that are nonsense before they reach a controller.

        Negative trigger times, delays, or windows would schedule faults
        in the past; two partitions whose windows overlap on intersecting
        host sets would make the controller's revert restore the wrong
        membership.  Both used to be applied as-is.
        """
        for index, event in enumerate(self.events):
            where = f"{self.name!r} event #{index} ({event.kind})"
            trigger = event.trigger
            if isinstance(trigger, AtTime) and trigger.at < 0:
                raise ValueError(f"{where}: negative trigger time {trigger.at}")
            if isinstance(trigger, OnSpan) and trigger.delay < 0:
                raise ValueError(f"{where}: negative trigger delay {trigger.delay}")
            if event.window < 0:
                raise ValueError(f"{where}: negative duration {event.window}")
        partitions = [
            (index, event)
            for index, event in enumerate(self.events)
            if isinstance(event, NetworkPartition)
            and isinstance(event.trigger, AtTime)
        ]
        for pos, (index_a, a) in enumerate(partitions):
            for index_b, b in partitions[pos + 1 :]:
                start_a, end_a = a.trigger.at, a.trigger.at + a.duration
                start_b, end_b = b.trigger.at, b.trigger.at + b.duration
                if start_a < end_b and start_b < end_a:
                    # Empty hosts = the server, so two empty-host
                    # partitions always collide; otherwise only when the
                    # host sets intersect.
                    hosts_a, hosts_b = set(a.hosts), set(b.hosts)
                    if (not hosts_a and not hosts_b) or (hosts_a & hosts_b):
                        raise ValueError(
                            f"{self.name!r}: partitions #{index_a} and "
                            f"#{index_b} overlap in time "
                            f"([{start_a}, {end_a}) vs [{start_b}, {end_b})) "
                            f"on the same hosts"
                        )

    def needs_tracing(self) -> bool:
        """True if any event waits on an obs span (testbed must trace)."""
        return any(isinstance(event.trigger, OnSpan) for event in self.events)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "events": [event.describe() for event in self.events],
        }
