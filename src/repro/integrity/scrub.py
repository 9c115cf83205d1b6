"""Background scrub and self-healing repair (repro.integrity).

The :class:`Scrubber` is a sim process owned by one shard's primary.  It
walks every block referenced by the durable image at a bounded rate
(``bandwidth`` bytes of scrub reads per second, each charged to the real
storage device so scrub competes with foreground I/O), verifies each
block's checksum and the medium under it, and heals what it finds:

* **Replicated shard (K≥1)** — fetch a verified copy of the afflicted
  ``(ino, fblock)`` from the freshest surviving replica-group peer over
  the replica RPC plane (``PROC_SCRUB_FETCH``; the fetch is addressed by
  file coordinates, not raw block address, because each member's
  allocator lays files out independently).  The fetched bytes must match
  the locally recorded digest — a stale peer cannot "repair" new data
  with old.  A successful repair rewrites the block (a real device
  write), recommits it under its digest, and heals any latent range.
* **Standalone shard (K=0)** — nothing to fetch from: the block is
  quarantined, reads of it surface EIO, and the quarantine record is the
  report (never silence).

Convergence is observable: :meth:`request_quiesce` returns an event that
fires at the end of the first *clean* pass (zero new defects) started
after the request — with K≥1 that means every latent/corrupt block was
repaired; with K=0 that every one is quarantined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.fs.inode import NDIRECT
from repro.integrity.checksum import block_digest
from repro.integrity.errors import CorruptBlockError
from repro.nfs.protocol import PROC_SCRUB_FETCH
from repro.obs import PHASE_REPAIR, PHASE_SCRUB, collector_for
from repro.rpc.client import RpcTimeoutError
from repro.rpc.messages import CLASS_MEDIUM, RPC_HEADER_BYTES
from repro.sim import Event

__all__ = [
    "ScrubFetchArgs",
    "Scrubber",
    "QuarantineRecord",
    "RepairRecord",
    "install_scrub_fetch",
]


@dataclass(frozen=True)
class ScrubFetchArgs:
    """Ask a peer for one verified block of a file, by file coordinates."""

    ino: int
    fblock: int
    nbytes: int


@dataclass(frozen=True)
class RepairRecord:
    """One healed block."""

    addr: int
    ino: int
    fblock: int
    kind: str
    detected_at: float
    repaired_at: float
    nbytes: int
    peer: str


@dataclass(frozen=True)
class QuarantineRecord:
    """One block surfaced as unreadable (EIO) with no repair source."""

    addr: int
    ino: int
    fblock: int
    kind: str
    at: float


def install_scrub_fetch(server) -> None:
    """Register the peer side of scrub repair on ``server``.

    The handler is an ordinary server action routine: it resolves the
    file coordinates against the member's *own* durable image, charges a
    real disk read, refuses (EIO) if its copy is latent/corrupt/missing,
    and otherwise returns the verified bytes (reply size includes them,
    so repair traffic is modeled on the wire).
    """
    from repro.fs.ufs import FsError

    def handle_scrub_fetch(args: ScrubFetchArgs):
        ufs = server.ufs
        durable = ufs.cache.durable
        snapshot = durable.inodes.get(args.ino)
        if snapshot is None:
            raise FsError("EIO", f"scrub_fetch: ino {args.ino} not committed here")
        if args.fblock < NDIRECT:
            addr = snapshot.direct[args.fblock]
        else:
            addr = durable.indirects.get(args.ino, {}).get(args.fblock)
        if addr is None:
            raise FsError(
                "EIO", f"scrub_fetch: ino {args.ino} block {args.fblock} unmapped"
            )
        yield ufs.storage.submit(addr, ufs.block_size, is_write=False, kind="scrub")
        if ufs.storage.latent_overlap(addr, ufs.block_size):
            raise FsError("EIO", f"scrub_fetch: latent sector at addr={addr}")
        try:
            durable.verify_block(addr)
        except CorruptBlockError as exc:
            raise FsError("EIO", f"scrub_fetch: {exc}") from exc
        data = durable.blocks.get(addr)
        if data is None:
            raise FsError("EIO", f"scrub_fetch: no durable content at addr={addr}")
        return data, RPC_HEADER_BYTES + len(data)

    server._actions[PROC_SCRUB_FETCH] = handle_scrub_fetch


class Scrubber:
    """Background integrity scrub of one shard's durable image."""

    def __init__(
        self,
        server,
        storage,
        group=None,
        bandwidth: float = 4 << 20,
        interval: float = 0.05,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"scrub bandwidth must be positive, got {bandwidth}")
        if interval <= 0:
            raise ValueError(f"scrub interval must be positive, got {interval}")
        self.server = server
        self.storage = storage
        self.group = group
        self.env = server.env
        self.block_size = server.ufs.block_size
        self.bandwidth = bandwidth
        self.interval = interval
        self.obs = collector_for(self.env)
        # -- outcome accounting ------------------------------------------
        self.passes = 0
        self.blocks_scanned = 0
        #: addr -> (detection time, defect kind), first detection wins.
        self.detections: Dict[int, Tuple[float, str]] = {}
        self.repairs: List[RepairRecord] = []
        self.quarantines: List[QuarantineRecord] = []
        self.repair_bytes = 0
        self._unrepairable: Set[int] = set()
        self._stopped = False
        self._process = None
        self._pending_quiesce: List[Event] = []
        self._armed_quiesce: List[Event] = []

    @property
    def ufs(self):
        # Resolved through the server every time: crash/failover paths may
        # swap filesystem state under a long-lived scrubber.
        return self.server.ufs

    # -- control ---------------------------------------------------------------

    def start(self) -> "Scrubber":
        if self._process is None:
            self._process = self.env.process(
                self._run(), name=f"scrub:{self.server.host}"
            )
        return self

    def stop(self) -> None:
        self._stopped = True

    def request_quiesce(self) -> Event:
        """Event firing at the end of the first clean pass (zero new
        defects) that *starts* after this call."""
        done = Event(self.env)
        self._pending_quiesce.append(done)
        return done

    @property
    def mean_time_to_repair(self) -> Optional[float]:
        if not self.repairs:
            return None
        return sum(r.repaired_at - r.detected_at for r in self.repairs) / len(
            self.repairs
        )

    # -- the scrub loop ---------------------------------------------------------

    def _run(self):
        while not self._stopped:
            self._armed_quiesce.extend(self._pending_quiesce)
            self._pending_quiesce.clear()
            new_defects = yield from self._pass()
            if new_defects == 0:
                for waiter in self._armed_quiesce:
                    if not waiter.triggered:
                        waiter.succeed()
                self._armed_quiesce.clear()
            if self._stopped:
                return
            yield self.env.timeout(self.interval)

    def _referenced(self) -> List[Tuple[int, int, int]]:
        """(addr, ino, fblock) for every block inside a committed size."""
        durable = self.ufs.cache.durable
        block_size = self.block_size
        refs: List[Tuple[int, int, int]] = []
        for ino, snapshot in durable.inodes.items():
            for fblock, addr in enumerate(snapshot.direct):
                if addr is not None and fblock * block_size < snapshot.size:
                    refs.append((addr, ino, fblock))
            mapping = durable.indirects.get(ino)
            if mapping:
                for fblock, addr in mapping.items():
                    if addr is not None and fblock * block_size < snapshot.size:
                        refs.append((addr, ino, fblock))
        refs.sort()
        return refs

    def _pass(self):
        started = self.env.now
        new_defects = 0
        scanned = 0
        durable = self.ufs.cache.durable
        for addr, ino, fblock in self._referenced():
            if self._stopped:
                break
            # Pace the walk (the bandwidth bound), then charge the read to
            # the real device so scrub competes with foreground traffic.
            yield self.env.timeout(self.block_size / self.bandwidth)
            yield self.storage.submit(
                addr, self.block_size, is_write=False, kind="scrub"
            )
            scanned += 1
            if addr in self._unrepairable:
                continue  # already surfaced; nothing more to do without peers
            defect = None
            if self.storage.latent_overlap(addr, self.block_size):
                defect = "latent"
            elif addr in durable.quarantined:
                # A read path hit this first; the scrubber owns the repair.
                defect = durable.quarantined[addr]
            else:
                try:
                    durable.verify_block(addr)
                except CorruptBlockError as exc:
                    defect = exc.reason
            if defect is None:
                continue
            new_defects += 1
            detected_at = self.env.now
            self.detections.setdefault(addr, (detected_at, defect))
            yield from self._repair(addr, ino, fblock, defect, detected_at)
        self.blocks_scanned += scanned
        self.passes += 1
        if self.obs.enabled:
            self.obs.emit(
                PHASE_SCRUB,
                self.server.host,
                started,
                self.env.now,
                blocks=scanned,
                defects=new_defects,
            )
        return new_defects

    # -- repair ----------------------------------------------------------------

    def _peer_order(self) -> List[str]:
        """Surviving group peers, freshest (highest applied seq) first."""
        if self.group is None:
            return []
        peers = [
            member
            for member in self.group.surviving()
            if member is not self.server
        ]
        peers.sort(
            key=lambda member: (
                -(member.replicator.applied_seq if member.replicator else 0),
                member.host,
            )
        )
        return [member.host for member in peers]

    def _repair(self, addr: int, ino: int, fblock: int, kind: str, detected_at: float):
        durable = self.ufs.cache.durable
        want = durable.checksums.get(addr)
        rpc = self.server.replicator.rpc if self.server.replicator else None
        if rpc is not None:
            for host in self._peer_order():
                try:
                    reply = yield from rpc.call(
                        PROC_SCRUB_FETCH,
                        ScrubFetchArgs(ino, fblock, self.block_size),
                        size=RPC_HEADER_BYTES + 16,
                        reply_size=RPC_HEADER_BYTES + self.block_size,
                        weight=CLASS_MEDIUM,
                        server=host,
                        max_attempts=5,
                    )
                except RpcTimeoutError:
                    continue  # dead/unreachable peer must not wedge the scrub
                if not reply.ok:
                    continue
                data = reply.result
                if want is not None and block_digest(data) != want:
                    # A stale peer cannot repair newer data with older.
                    continue
                yield self.storage.submit(
                    addr, self.block_size, is_write=True, kind="repair"
                )
                durable.commit_block(addr, data)
                self.storage.heal_latent(addr, self.block_size)
                repaired_at = self.env.now
                self.repairs.append(
                    RepairRecord(
                        addr=addr,
                        ino=ino,
                        fblock=fblock,
                        kind=kind,
                        detected_at=detected_at,
                        repaired_at=repaired_at,
                        nbytes=len(data),
                        peer=host,
                    )
                )
                self.repair_bytes += len(data)
                if self.obs.enabled:
                    self.obs.emit(
                        PHASE_REPAIR,
                        self.server.host,
                        detected_at,
                        repaired_at,
                        addr=addr,
                        peer=host,
                        kind=kind,
                    )
                return True
        # No peer could serve a verified copy: surface, never silence.
        durable.quarantine(addr, kind)
        self._unrepairable.add(addr)
        self.quarantines.append(
            QuarantineRecord(
                addr=addr, ino=ino, fblock=fblock, kind=kind, at=self.env.now
            )
        )
        return False
