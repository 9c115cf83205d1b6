"""The mbuf hunter (§6.5).

"A routine (the mbuf hunter) was written (hacked) to scan the socket buffer
searching for NFS writes for a given file and returning true/false.  The
mbuf hunter is a gross violation of kernel layering, but with a fast server
this technique is often a win (and thus the hack has redeeming virtue)."

It exists because under Prestoserve there is often no I/O event in
VOP_WRITE, so the nfsd never blocks and queued follow-on writes would go
unnoticed without peeking below the RPC layer.
"""

from __future__ import annotations

from repro.net.udp import SocketBuffer
from repro.nfs.protocol import PROC_WRITE
from repro.rpc.messages import RpcCall

__all__ = ["hunt"]


def hunt(socket_buffer: SocketBuffer, fhandle) -> bool:
    """True if the socket buffer holds a WRITE for ``fhandle``.

    The scan stops at the first match and calls no Python function per
    datagram: the hunter runs on every gathering decision.
    """
    for datagram in socket_buffer.items:
        call = datagram.payload
        if (
            isinstance(call, RpcCall)
            and call.proc == PROC_WRITE
            and getattr(call.args, "fhandle", None) == fhandle
        ):
            return True
    return False
