"""UDP endpoints with bounded, inspectable socket buffers.

The server's incoming request queue *is* its NFS socket buffer (§4.2): a
fixed-size mbuf pool (DEC OSF/1 used at most 0.25 MB).  When it fills,
arriving requests are silently dropped and client retransmission takes
over.  The gathering server's "mbuf hunter" (§6.5) scans this buffer for
additional write requests to the same file and can steal them out of order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.net.packet import Datagram
from repro.sim import Environment, Event

__all__ = ["UdpEndpoint", "SocketBuffer"]


class SocketBuffer:
    """A byte-bounded FIFO of datagrams with blocking get and steal."""

    def __init__(self, env: Environment, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"socket buffer must be positive, got {capacity_bytes}")
        self.env = env
        self.capacity_bytes = capacity_bytes
        self.items: Deque[Datagram] = deque()
        self.used_bytes = 0
        self._getters: Deque[Event] = deque()
        #: Optional admission controller (repro.overload): consulted before
        #: the byte-capacity check; False from its ``admit`` sheds the
        #: arriving datagram deliberately instead of by silent overflow.
        self.admission = None

    def __len__(self) -> int:
        return len(self.items)

    def try_put(self, datagram: Datagram) -> bool:
        """Queue a datagram, or return False (drop) if it does not fit."""
        if self.admission is not None and not self.admission.admit(self, datagram):
            return False
        if self.used_bytes + datagram.size > self.capacity_bytes:
            return False
        datagram.arrived_at = self.env.now
        self.items.append(datagram)
        self.used_bytes += datagram.size
        self._dispatch()
        return True

    def get(self) -> Event:
        """Wait for the oldest datagram."""
        event = self.env.event()
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self) -> Optional[Datagram]:
        if self.items and not self._getters:
            return self._pop()
        return None

    def evict_oldest(self) -> Optional[Datagram]:
        """Remove and return the oldest queued datagram (drop-oldest shed).

        Only meaningful while the queue is non-empty; getters are never
        parked while items are queued, so no waiter can be starved by it.
        """
        if not self.items:
            return None
        return self._pop()

    def scan(self, predicate: Callable[[Datagram], bool]) -> List[Datagram]:
        """Return (without removing) queued datagrams matching ``predicate``."""
        return [datagram for datagram in self.items if predicate(datagram)]

    def reset_volatile(self) -> None:
        """Drop every queued datagram (crash: the mbuf pool is RAM).

        Waiting getters stay parked — the post-reboot nfsds simply block
        until fresh traffic (client retransmissions) arrives.
        """
        self.items.clear()
        self.used_bytes = 0

    def _pop(self) -> Datagram:
        datagram = self.items.popleft()
        self.used_bytes -= datagram.size
        return datagram

    def _dispatch(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self._pop())


class UdpEndpoint:
    """A host's attachment to a segment."""

    def __init__(self, env: Environment, host: str, segment, buffer_bytes: int) -> None:
        self.env = env
        self.host = host
        self.segment = segment
        self.inbox = SocketBuffer(env, buffer_bytes)

    def send(self, dst: str, payload: Any, size: int) -> None:
        """Fire-and-forget a datagram toward ``dst``."""
        self.segment.send(Datagram(src=self.host, dst=dst, payload=payload, size=size))

    def deliver(self, datagram: Datagram) -> bool:
        """Called by the segment; False means the socket buffer was full."""
        return self.inbox.try_put(datagram)

    def recv(self) -> Event:
        """Wait for the next datagram."""
        return self.inbox.get()
