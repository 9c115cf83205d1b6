"""Network substrate: shared segments, datagrams, UDP endpoints."""

from repro.net.packet import Datagram
from repro.net.segment import Segment
from repro.net.spec import ETHERNET, FDDI, NETWORKS, NetSpec
from repro.net.udp import SocketBuffer, UdpEndpoint

__all__ = [
    "NetSpec",
    "ETHERNET",
    "FDDI",
    "NETWORKS",
    "Datagram",
    "Segment",
    "SocketBuffer",
    "UdpEndpoint",
]
