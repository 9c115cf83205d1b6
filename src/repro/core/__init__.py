"""The paper's contribution: NFS write gathering."""

from repro.core.gather import GatheringWritePath, GatherStats
from repro.core.learned import LearnedClientDb
from repro.core.mbuf_hunter import hunt
from repro.core.policy import REPLY_FIFO, REPLY_LIFO, GatherPolicy
from repro.core.siva import SivaWritePath
from repro.core.state_table import (
    STAGE_FLUSHING,
    STAGE_GATHER_WAIT,
    STAGE_IDLE,
    STAGE_WRITING,
    NfsdState,
    NfsdStateTable,
)
from repro.core.write_queue import ActiveWriteQueue, WriteDescriptor, WriteQueueRegistry

__all__ = [
    "GatheringWritePath",
    "GatherStats",
    "GatherPolicy",
    "REPLY_FIFO",
    "REPLY_LIFO",
    "LearnedClientDb",
    "hunt",
    "SivaWritePath",
    "NfsdStateTable",
    "NfsdState",
    "STAGE_IDLE",
    "STAGE_WRITING",
    "STAGE_GATHER_WAIT",
    "STAGE_FLUSHING",
    "ActiveWriteQueue",
    "WriteDescriptor",
    "WriteQueueRegistry",
]
