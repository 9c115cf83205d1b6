"""NFS server: nfsd pool, dispatch, CPU model, standard write path."""

from repro.server.base import NfsServer, StableStorageViolation
from repro.server.config import ServerConfig, WritePath
from repro.server.cpu import Cpu
from repro.server.standard import StandardWritePath

__all__ = [
    "NfsServer",
    "StableStorageViolation",
    "ServerConfig",
    "WritePath",
    "Cpu",
    "StandardWritePath",
]
