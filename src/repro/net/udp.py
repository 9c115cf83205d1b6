"""UDP endpoints with bounded, inspectable socket buffers.

The server's incoming request queue *is* its NFS socket buffer (§4.2): a
fixed-size mbuf pool (DEC OSF/1 used at most 0.25 MB).  When it fills,
arriving requests are silently dropped and client retransmission takes
over.  The gathering server's "mbuf hunter" (§6.5) scans this buffer for
additional write requests to the same file and can steal them out of order.

A datagram reaches its reader in the instant it is delivered.  One that
lands in a buffer with a parked reader (an idle nfsd) resumes the oldest
one at once, inside the delivery callback.  An endpoint with a delivery
handler (an RPC client's reply matcher) skips its buffer altogether.
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
        """Queue a datagram, or return False (drop) if it does not fit.

        A parked getter resumes before this returns, so call it from a
        kernel callback (the segment's delivery timer) or from outside
        the simulation, never from a process that may be that getter.
        """
        if self.admission is not None and not self.admission.admit(self, datagram):
            return False
        if self.used_bytes + datagram.size > self.capacity_bytes:
            return False
        datagram.arrived_at = self.env.now
        self.items.append(datagram)
        self.used_bytes += datagram.size
        if self._getters:
            # Getters park only while the buffer is empty, so the oldest
            # one takes this datagram, resuming in this instant.
            self._getters.popleft().succeed_now(self._pop())
        return True

    def get(self) -> Event:
        """Wait for the oldest datagram.

        One already queued still comes by a wake, not inline: a freed
        nfsd's CPU claim then keeps its place behind the claims made
        earlier in this instant.
        """
        event = self.env.event()
        self._getters.append(event)
        self._dispatch()
        return event

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
        #: Called with each delivered datagram in place of queueing it in
        #: ``inbox``; set by the endpoint's one owner (an RPC client).
        self.handler: Optional[Callable[[Datagram], None]] = None

    def send(self, dst: str, payload: Any, size: int) -> None:
        """Fire-and-forget a datagram toward ``dst``."""
        self.segment.send(Datagram(src=self.host, dst=dst, payload=payload, size=size))

    def deliver(self, datagram: Datagram) -> bool:
        """Called by the segment; False means the socket buffer was full."""
        if self.handler is not None:
            self.handler(datagram)
            return True
        return self.inbox.try_put(datagram)

    def recv(self) -> Event:
        """Wait for the next datagram."""
        return self.inbox.get()
