"""The global array of nfsd state (§6.2).

"A global array of nfsd state was created so that one nfsd can ascertain
the state of others.  Most notably, whether another nfsd is processing a
write, and to which file, and to which offset and length, and at what stage
the nfsd is in the processing of a write."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "NfsdStateTable",
    "NfsdState",
    "STAGE_IDLE",
    "STAGE_WRITING",
    "STAGE_GATHER_WAIT",
    "STAGE_FLUSHING",
]

STAGE_IDLE = "idle"
STAGE_WRITING = "writing"
STAGE_GATHER_WAIT = "gather-wait"
STAGE_FLUSHING = "flushing"


@dataclass
class NfsdState:
    """One nfsd's publicly visible state."""

    nfsd_id: int
    stage: str = STAGE_IDLE
    ino: Optional[int] = None
    offset: int = 0
    length: int = 0

    def clear(self) -> None:
        self.stage = STAGE_IDLE
        self.ino = None
        self.offset = 0
        self.length = 0


class NfsdStateTable:
    """Fixed array of per-nfsd state slots."""

    def __init__(self, nfsds: int) -> None:
        if nfsds < 1:
            raise ValueError(f"need at least one nfsd, got {nfsds}")
        self._slots: List[NfsdState] = [NfsdState(i) for i in range(nfsds)]

    def __len__(self) -> int:
        return len(self._slots)

    def slot(self, nfsd_id: int) -> NfsdState:
        return self._slots[nfsd_id]

    def set(
        self,
        nfsd_id: int,
        stage: str,
        ino: Optional[int] = None,
        offset: int = 0,
        length: int = 0,
    ) -> None:
        slot = self._slots[nfsd_id]
        slot.stage = stage
        slot.ino = ino
        slot.offset = offset
        slot.length = length

    def clear(self, nfsd_id: int) -> None:
        self._slots[nfsd_id].clear()

    def another_write_incoming(self, ino: int, exclude: int) -> bool:
        """Is some *other* nfsd still writing a request's data for ``ino``?

        Such an nfsd will enqueue its own descriptor and run the gathering
        decision itself, so the asking nfsd may safely leave the metadata
        update to it.
        """
        for slot in self._slots:
            if slot.ino == ino and slot.stage == STAGE_WRITING and slot.nfsd_id != exclude:
                return True
        return False

    def any_responsible(self, ino: int) -> bool:
        """Is any nfsd at any active stage (incl. waiting/flushing) for ``ino``?

        Used by the orphan watchdog: if descriptors are queued and this is
        False, nobody is going to send their replies.
        """
        return any(
            slot.ino == ino and slot.stage != STAGE_IDLE for slot in self._slots
        )

    def snapshot(self) -> List[NfsdState]:
        return [NfsdState(s.nfsd_id, s.stage, s.ino, s.offset, s.length) for s in self._slots]
