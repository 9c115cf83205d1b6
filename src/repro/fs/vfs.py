"""The VFS (vnode) layer: what the NFS server layer actually calls.

The paper modified this layer (GFS in ULTRIX) so the server could pass
*hints* to the filesystem — ``IO_DATAONLY``, ``IO_DELAYDATA``, a
metadata-only fsync, and a byte-ranged ``VOP_SYNCDATA``.  A vnode also
carries the sleep lock the author added for nfsd serialization (§6.2):
an nfsd that finds the lock held knows another nfsd is mid-write on the
same file, which is precisely the signal write gathering keys on.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.fs.inode import Inode
from repro.fs.ufs import Ufs
from repro.sim import Environment, Resource

__all__ = [
    "IO_SYNC",
    "IO_DATAONLY",
    "IO_DELAYDATA",
    "FWRITE",
    "FWRITE_METADATA",
    "Vnode",
    "VnodeTable",
    "FileHandle",
]

# ioflags for VOP_WRITE (§6.4)
IO_SYNC = Ufs.IO_SYNC
IO_DATAONLY = Ufs.IO_DATAONLY
IO_DELAYDATA = Ufs.IO_DELAYDATA

# flags for VOP_FSYNC (§6.4)
FWRITE = 0x1
FWRITE_METADATA = 0x2

#: An NFS file handle: opaque to clients, (ino, generation) to the server.
FileHandle = Tuple[int, int]


class Vnode:
    """An in-core file reference with the added sleep lock."""

    def __init__(self, env: Environment, ufs: Ufs, inode: Inode) -> None:
        self.env = env
        self.ufs = ufs
        self.inode = inode
        #: The vnode sleep lock of §6.2.  Capacity 1; nfsds blocked here are
        #: visible to the gathering logic via ``lock.queue``.
        self.lock = Resource(env, capacity=1)

    @property
    def ino(self) -> int:
        return self.inode.ino

    @property
    def fhandle(self) -> FileHandle:
        return (self.inode.ino, self.inode.generation)

    def waiters(self) -> int:
        """How many nfsds are blocked on this vnode's sleep lock."""
        return len(self.lock.queue)

    def locked(self) -> bool:
        return self.lock.count > 0

    # -- VOPs (generators, driven inside a simulation process) ---------------

    def vop_write(self, offset: int, data: bytes, ioflags: int = IO_SYNC) -> Generator:
        return self.ufs.write(self.inode, offset, data, ioflags)

    def vop_read(self, offset: int, nbytes: int) -> Generator:
        return self.ufs.read(self.inode, offset, nbytes)

    def vop_fsync(self, flags: int = FWRITE) -> Generator:
        metadata_only = bool(flags & FWRITE_METADATA)
        return self.ufs.fsync(self.inode, metadata_only=metadata_only)

    def vop_syncdata(self, start: int = 0, end: Optional[int] = None) -> Generator:
        return self.ufs.sync_data(self.inode, start, end)


class VnodeTable:
    """Maps file handles to vnodes, creating vnodes on first touch."""

    def __init__(self, env: Environment, ufs: Ufs) -> None:
        self.env = env
        self.ufs = ufs
        self._vnodes: Dict[int, Vnode] = {}
        self.root = self.vnode_for(ufs.root)

    def vnode_for(self, inode: Inode) -> Vnode:
        vnode = self._vnodes.get(inode.ino)
        if vnode is None or vnode.inode is not inode:
            vnode = Vnode(self.env, self.ufs, inode)
            self._vnodes[inode.ino] = vnode
        return vnode

    def by_fhandle(self, fhandle: FileHandle) -> Vnode:
        """Resolve a client file handle; raises FsError("ESTALE") when the
        file has been removed or its inode recycled."""
        ino, generation = fhandle
        inode = self.ufs.get_inode(ino, generation)
        return self.vnode_for(inode)

    def forget(self, ino: int) -> None:
        self._vnodes.pop(ino, None)
