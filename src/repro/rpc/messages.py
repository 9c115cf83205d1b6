"""Sun-RPC-style call/reply messages.

Sizes are wire sizes (payload plus the ~160 bytes of RPC/NFS headers), used
by the network substrate for transmission timing and by socket buffers for
byte accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["RpcCall", "RpcReply", "RPC_HEADER_BYTES", "CLASS_LIGHT", "CLASS_MEDIUM", "CLASS_HEAVY"]

#: Approximate RPC + NFS header overhead per message.
RPC_HEADER_BYTES = 160

# Client backoff classes (§4.1): write performance is the heavyweight
# indicator, read the middleweight, lookup the lightweight.
CLASS_LIGHT = "light"
CLASS_MEDIUM = "medium"
CLASS_HEAVY = "heavy"


@dataclass(slots=True)
class RpcCall:
    """An RPC request as seen on the wire and in the socket buffer."""

    xid: int
    proc: str
    args: Any
    #: Wire size in bytes (headers + argument payload).
    size: int
    #: Originating host name (for replies and duplicate detection).
    client: str
    #: Expected reply size in bytes.
    reply_size: int = RPC_HEADER_BYTES
    #: Backoff class for the client's adaptive retransmission timer.
    weight: str = CLASS_MEDIUM
    #: Transmission counter; >1 marks a retransmission.
    attempt: int = 1
    #: Observability trace (:class:`repro.obs.span.Trace`) carried through
    #: every layer this call crosses; None when tracing is off.
    trace: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"RPC call size must be positive, got {self.size}")


@dataclass(slots=True)
class RpcReply:
    """An RPC reply."""

    xid: int
    status: str  # "ok" or an error code such as "ESTALE"
    result: Any
    size: int = RPC_HEADER_BYTES
    #: Piggybacked lease grants (repro.lease): a tuple of LeaseGrant
    #: records, or None when the server runs without leases.  Kept out of
    #: ``result`` so existing reply-shape consumers are untouched.
    lease: Any = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"
