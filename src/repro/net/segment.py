"""A shared network segment (private Ethernet or FDDI ring).

Both technologies in the paper are shared media: every frame from every
host serializes on the one channel.  The segment models this with a single
transmission slot held *per frame* (a :class:`~repro.sim.HoldQueue`, whose
busy clock is the wire's utilization), so a long request train and the
reply traffic interleave frame-by-frame exactly as in the §5 case study.

Each host's NIC sends its datagrams strictly in order.  An idle NIC
claims the medium for a datagram's first frame in the instant the
datagram is sent, and each frame's end claims the next frame (or the next
queued datagram) in that same instant: no relay event between hops.

Delivery places the reassembled datagram into the destination endpoint's
socket buffer; if that buffer is full the datagram is dropped, which is how
an overloaded server sheds load back onto client retransmission (§4.2).

The segment doubles as the fault-injection surface for the ``repro.faults``
subsystem: loss rate is adjustable mid-run, hosts can be partitioned off
(their traffic silently dropped in both directions, as with a dead
transceiver), and delivered datagrams can be probabilistically duplicated
or delayed out of order — all drawing from the segment's own seeded RNG so
faulty runs stay deterministic.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Optional, Set

from repro.net.packet import Datagram
from repro.net.spec import NetSpec
from repro.net.udp import UdpEndpoint
from repro.obs import PHASE_WIRE, collector_for, registry_for
from repro.sim import Environment, Hold, Timer

__all__ = ["Segment"]


class _Nic:
    """One host's transmitter: its queued datagrams and the one on the
    wire, sent frame by frame on the segment's shared medium."""

    __slots__ = (
        "segment", "queue", "datagram", "frame", "frame_payload",
        "wire_bytes", "lost", "trace",
    )

    def __init__(self, segment: "Segment") -> None:
        self.segment = segment
        self.queue: Deque[Datagram] = deque()
        #: The datagram being sent; None while the NIC is idle.
        self.datagram: Optional[Datagram] = None
        self.frame = 0
        self.frame_payload = 0
        self.wire_bytes = 0
        self.lost = False
        self.trace = None

    def send(self, datagram: Datagram) -> None:
        if self.datagram is None:
            self._begin(datagram)
        else:
            self.queue.append(datagram)

    def _begin(self, datagram: Datagram) -> None:
        segment = self.segment
        self.datagram = datagram
        self.frame = 0
        self.frame_payload = -(-datagram.size // datagram.fragments)  # even-ish split
        self.lost = False
        self.trace = (
            getattr(datagram.payload, "trace", None) if segment.obs.enabled else None
        )
        self._claim()

    def _claim(self) -> None:
        """Queue for the medium to send the current frame."""
        segment = self.segment
        spec = segment.spec
        datagram = self.datagram
        payload = min(self.frame_payload, datagram.size - self.frame * self.frame_payload)
        self.wire_bytes = wire_bytes = payload + spec.frame_overhead
        claim = segment.medium.hold(wire_bytes * 8.0 / spec.bandwidth_bps)
        claim.callbacks.append(self._frame_sent)

    def _frame_sent(self, claim: Hold) -> None:
        """The current frame is off the wire: free the medium, then send
        the next frame, or deliver this datagram and start the next."""
        segment = self.segment
        segment.medium.release()
        datagram = self.datagram
        wire_bytes = self.wire_bytes
        if self.trace is not None:
            segment.obs.emit(
                PHASE_WIRE,
                segment.name,
                claim.started,
                segment.env.now,
                trace_id=self.trace.trace_id,
                frame=self.frame,
                frames=datagram.fragments,
                bytes=wire_bytes,
                src=datagram.src,
            )
        segment.bytes_moved.add(wire_bytes)
        if segment.loss_rate and segment._rng.random() < segment.loss_rate:
            self.lost = True  # keep transmitting; the medium time is spent
        self.frame += 1
        if self.frame < datagram.fragments:
            self._claim()
            return
        # Propagation/delivery happens off the NIC's critical path.
        segment._schedule_delivery(datagram, self.lost)
        self.datagram = self.trace = None
        if self.queue:
            self._begin(self.queue.popleft())


class Segment:
    """One shared-medium network segment with attached hosts."""

    def __init__(
        self,
        env: Environment,
        spec: NetSpec,
        name: str = "",
        loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self.env = env
        self.spec = spec
        self.name = name or spec.name
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)
        self._endpoints: Dict[str, UdpEndpoint] = {}
        self._nics: Dict[str, _Nic] = {}
        #: Hosts currently cut off the segment (fault injection).
        self._partitioned: Set[str] = set()
        #: Probability a delivered datagram is delivered twice.
        self.duplicate_rate = 0.0
        #: Probability a delivered datagram is delayed by ``reorder_delay``
        #: (letting later traffic overtake it).
        self.reorder_rate = 0.0
        self.reorder_delay = 0.0
        self.obs = collector_for(env)
        metrics = registry_for(env)
        #: The shared medium; its busy clock is the wire's utilization.
        self.medium = metrics.hold_queue(f"{self.name}.wire")
        self.delivered = metrics.counter(f"{self.name}.delivered")
        self.dropped = metrics.counter(f"{self.name}.dropped")
        self.lost = metrics.counter(f"{self.name}.lost")
        self.bytes_moved = metrics.counter(f"{self.name}.bytes")
        self.partition_drops = metrics.counter(f"{self.name}.partition_drops")
        self.duplicated = metrics.counter(f"{self.name}.duplicated")
        self.reordered = metrics.counter(f"{self.name}.reordered")

    def attach(self, host: str, buffer_bytes: int = 256 * 1024) -> UdpEndpoint:
        """Create an endpoint for ``host`` with a bounded socket buffer."""
        if host in self._endpoints:
            raise ValueError(f"host {host!r} already attached to {self.name}")
        endpoint = UdpEndpoint(self.env, host, self, buffer_bytes)
        self._endpoints[host] = endpoint
        self._nics[host] = _Nic(self)
        return endpoint

    def close(self) -> None:
        """Detach every host once the environment is closed: endpoints,
        their handlers and NICs point back at their segment, and frames
        queued for the medium at their NICs, so each would keep a
        finished system a reference cycle."""
        for endpoint in self._endpoints.values():
            endpoint.handler = None
        self._endpoints.clear()
        self._nics.clear()
        self.medium.queue.clear()

    def endpoint(self, host: str) -> UdpEndpoint:
        return self._endpoints[host]

    def unique_host(self, prefix: str) -> str:
        """First unattached name in the ``{prefix}-{n}`` sequence.

        Lets testbeds and clusters auto-generate client host names that
        never collide with hosts already attached (including ones callers
        attached explicitly under a matching name).
        """
        index = 0
        while f"{prefix}-{index}" in self._endpoints:
            index += 1
        return f"{prefix}-{index}"

    # -- fault-injection controls (driven by repro.faults) ---------------------

    def set_loss_rate(self, rate: float) -> None:
        """Change the per-frame loss probability mid-run."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self.loss_rate = rate

    def partition(self, host: str) -> None:
        """Cut ``host`` off the segment: its datagrams (both directions)
        finish their wire time but are never delivered."""
        if host not in self._endpoints:
            raise ValueError(f"unknown host {host!r}")
        self._partitioned.add(host)

    def heal(self, host: str) -> None:
        """Reconnect a partitioned host."""
        self._partitioned.discard(host)

    def is_partitioned(self, host: str) -> bool:
        return host in self._partitioned

    def set_duplicate_rate(self, rate: float) -> None:
        """Probability that a delivered datagram arrives twice."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"duplicate rate must be in [0, 1), got {rate}")
        self.duplicate_rate = rate

    def set_reorder(self, rate: float, extra_delay: float) -> None:
        """Delay a ``rate`` fraction of datagrams by ``extra_delay`` seconds,
        letting traffic sent after them arrive first."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"reorder rate must be in [0, 1), got {rate}")
        if extra_delay < 0:
            raise ValueError(f"extra delay must be >= 0, got {extra_delay}")
        self.reorder_rate = rate
        self.reorder_delay = extra_delay

    def send(self, datagram: Datagram) -> None:
        """Queue ``datagram`` on its source host's NIC; returns immediately."""
        if datagram.dst not in self._endpoints:
            raise ValueError(f"unknown destination host {datagram.dst!r}")
        nic = self._nics.get(datagram.src)
        if nic is None:
            raise ValueError(f"unknown source host {datagram.src!r}")
        datagram.fragments = self.spec.frames_for(datagram.size)
        nic.send(datagram)

    def _schedule_delivery(self, datagram: Datagram, lost: bool) -> None:
        """Arrange for ``datagram`` to arrive ``latency`` from now.

        Delivery is a bound-method callback on a :class:`~repro.sim.Timer`
        that carries the datagram — not a process — so the per-datagram
        cost is one heap event instead of a full process lifecycle
        (spawn, initialize, resume, finish).
        """
        # Fault knobs draw from the RNG only while nonzero, so fault-free
        # runs consume the identical random stream they always did.
        extra_delay = 0.0
        duplicated = False
        if not lost:
            if self.reorder_rate and self._rng.random() < self.reorder_rate:
                extra_delay = self.reorder_delay
                self.reordered.add(1)
            if self.duplicate_rate and self._rng.random() < self.duplicate_rate:
                duplicated = True
        if lost:
            arrive = self._arrive_lost
        elif duplicated:
            arrive = self._arrive_with_duplicate
        else:
            arrive = self._arrive
        Timer(self.env, self.spec.latency + extra_delay, arrive, datagram)

    def _arrive_lost(self, arrival: Timer) -> None:
        self.lost.add(1)

    def _arrive_with_duplicate(self, arrival: Timer) -> None:
        self._arrive(arrival)
        self.duplicated.add(1)
        Timer(self.env, self.spec.latency, self._arrive, self._clone(arrival.payload))

    def _arrive(self, arrival: Timer) -> None:
        datagram = arrival.payload
        if datagram.src in self._partitioned or datagram.dst in self._partitioned:
            self.partition_drops.add(1)
            return
        target = self._endpoints[datagram.dst]
        if not target.deliver(datagram):
            self.dropped.add(1)
        else:
            self.delivered.add(1)

    @staticmethod
    def _clone(datagram: Datagram) -> Datagram:
        """A fresh Datagram carrying the same payload (the duplicate gets
        its own arrival bookkeeping in the destination socket buffer)."""
        copy = Datagram(
            src=datagram.src,
            dst=datagram.dst,
            payload=datagram.payload,
            size=datagram.size,
        )
        copy.fragments = datagram.fragments
        return copy
