"""Client-side COMMIT bookkeeping for unstable (NFSv3-style) writes.

The client half of the async WRITE + COMMIT contract: every range sent
with ``stable=False`` is held here, tagged with the **write verifier**
the server's reply carried, until a COMMIT returning the *same* verifier
succeeds.  A different verifier in any reply means the server crashed,
rebooted, or a backup was promoted — the volatile data may be gone, so
the client resends every uncommitted range before proceeding.

COMMITs are issued

* at ``close(2)`` (sync-on-close, like the flush of outstanding writes),
* under **window pressure** — once a file's uncommitted ranges exceed a
  multiple of the AIMD :class:`~repro.overload.window.WriteWindow` slot
  budget (or the biod pool without a window), the writer COMMITs inline
  before pushing more, bounding the replay the client must be ready to
  perform, and
* on lease recalls (:meth:`~repro.nfs.cache.CacheStack.handle_recall`),
  where flushed-but-uncommitted data must be made stable before the
  recall ack hands the file to another client.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.nfs.protocol import PROC_COMMIT, CommitArgs, NfsError
from repro.obs import registry_for
from repro.sim import Event

__all__ = ["UncommittedTracker"]

#: A COMMIT train that still mismatches after this many resend rounds
#: gives up (EIO) — the server is crash-looping faster than we replay.
MAX_COMMIT_ATTEMPTS = 3

#: Window-pressure threshold: COMMIT once a file holds this many
#: uncommitted ranges per write-window slot (or per biod without a
#: window).  4 deep keeps the COMMIT amortized over a full train.
RANGES_PER_SLOT = 4


class UncommittedTracker:
    """Per-file uncommitted write ranges, tagged with their verifier.

    The client owns its tracker and passes itself to the calls that
    need it; the tracker keeps no reference back.
    """

    def __init__(self, client) -> None:
        self.env = client.env
        #: fhandle -> list of [offset, data, verifier] (mutable rows so a
        #: discharge can drop exactly the rows a COMMIT snapshot covered).
        self._ranges: Dict[object, List[list]] = {}
        #: fhandle -> Event: a COMMIT train is running for the file;
        #: concurrent committers wait on it instead of doubling up.
        self._inflight: Dict[object, Event] = {}
        metrics = registry_for(client.env)
        prefix = f"nfs.{client.rpc.endpoint.host}"
        self.commits_sent = metrics.counter(f"{prefix}.commits")
        self.ranges_replayed = metrics.counter(f"{prefix}.replayed_ranges")
        self.pressure_commits = metrics.counter(f"{prefix}.pressure_commits")

    # -- bookkeeping -----------------------------------------------------------

    def record(self, fhandle, offset: int, data, verifier: int) -> None:
        """An unstable WRITE was acked under ``verifier``: hold the range."""
        self._ranges.setdefault(fhandle, []).append([offset, data, verifier])

    def ranges(self, fhandle) -> List[tuple]:
        """The file's uncommitted ``(offset, data)`` pairs (test surface)."""
        return [(offset, data) for offset, data, _v in self._ranges.get(fhandle, [])]

    def has_ranges(self, fhandle) -> bool:
        return bool(self._ranges.get(fhandle))

    def uncommitted_bytes(self) -> int:
        return sum(
            len(data)
            for rows in self._ranges.values()
            for _offset, data, _v in rows
        )

    def stale_files(self, verifier: int) -> List[object]:
        """Files holding ranges written under a different verifier."""
        return [
            fhandle
            for fhandle, rows in self._ranges.items()
            if any(v != verifier for _offset, _data, v in rows)
        ]

    def _pressure_limit(self, client) -> int:
        window = client.write_window
        if window is not None:
            slots = window.slots
        else:
            slots = max(1, client.nbiods)
        return max(2, slots) * RANGES_PER_SLOT

    def over_pressure(self, client, fhandle) -> bool:
        """Should ``client``'s writer COMMIT inline before pushing more?"""
        if fhandle in self._inflight:
            return False  # a train is already draining the file
        return len(self._ranges.get(fhandle, ())) >= self._pressure_limit(client)

    # -- the COMMIT train ------------------------------------------------------

    def commit(self, client, fhandle) -> Generator:
        """COMMIT the file's uncommitted ranges through ``client``.

        On a verifier mismatch (any tracked range written under a
        different incarnation than the COMMIT reply's) the volatile data
        may be gone: resend every range — they re-record under the new
        verifier — and COMMIT again.  Gives up with EIO after
        :data:`MAX_COMMIT_ATTEMPTS` rounds.
        """
        while fhandle in self._inflight:
            yield self._inflight[fhandle]
        if not self._ranges.get(fhandle):
            return
        gate = self._inflight[fhandle] = Event(self.env)
        try:
            for _attempt in range(MAX_COMMIT_ATTEMPTS):
                snapshot = list(self._ranges.get(fhandle, ()))
                if not snapshot:
                    return
                lo = min(offset for offset, _data, _v in snapshot)
                hi = max(offset + len(data) for offset, data, _v in snapshot)
                commit_verf = yield from client._call(
                    PROC_COMMIT, CommitArgs(fhandle, lo, hi - lo)
                )
                self.commits_sent.add(1)
                if all(v == commit_verf for _offset, _data, v in snapshot):
                    self._discharge(client, fhandle, snapshot)
                    return
                # The server lost an incarnation under us; replay.
                self.ranges_replayed.add(len(snapshot))
                ids = {id(row) for row in snapshot}
                kept = [
                    row
                    for row in self._ranges.get(fhandle, [])
                    if id(row) not in ids
                ]
                self._ranges[fhandle] = kept
                for offset, data, _v in snapshot:
                    yield from client._replay_write(fhandle, offset, data)
            raise NfsError("EIO")
        finally:
            del self._inflight[fhandle]
            gate.succeed()

    def _discharge(self, client, fhandle, snapshot: List[list]) -> None:
        """A COMMIT under the right verifier succeeded: the covered
        ranges are durable — release them and tell the oracle hook."""
        ids = {id(row) for row in snapshot}
        kept = [row for row in self._ranges.get(fhandle, []) if id(row) not in ids]
        if kept:
            self._ranges[fhandle] = kept
        else:
            self._ranges.pop(fhandle, None)
        hook = client.on_commit_acked
        if hook is not None:
            for offset, data, _v in snapshot:
                hook(fhandle, offset, data)

    def replay_stale(self, client, verifier: int) -> Generator:
        """A reply carried ``verifier``; every file holding ranges tagged
        with a different one resends (via its COMMIT train's mismatch
        round) before the caller proceeds."""
        for fhandle in self.stale_files(verifier):
            yield from self.commit(client, fhandle)
