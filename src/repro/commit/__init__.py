"""repro.commit — the async WRITE + COMMIT write path (NFSv3 §8 style).

The third answer to the paper's sync-write problem: instead of making
WRITEs stable before the reply (standard), amortizing the commit across
a gathered batch (gather), or absorbing it in NVRAM (Presto), the server
acks unstable WRITEs from volatile memory immediately and shifts the
crash-replay responsibility to the client via a boot verifier and an
explicit COMMIT procedure.

* :class:`~repro.commit.path.AsyncCommitWritePath` — the server half:
  volatile unstable-write log, verifier-stamped replies, COMMIT flushes,
  opportunistic flushing under memory pressure.
* :class:`~repro.commit.tracker.UncommittedTracker` — the client half:
  per-file dirty ranges tagged with the verifier they were written
  under, COMMIT on close and window pressure, full resend on mismatch.
* :func:`~repro.commit.experiment.run_commit` (``run("commit")``) — the
  seeded three-way write-path comparison.
"""

from repro.commit.path import AsyncCommitWritePath, UnstableLog
from repro.commit.tracker import UncommittedTracker

__all__ = ["AsyncCommitWritePath", "UnstableLog", "UncommittedTracker"]
