"""Prestoserve-style NVRAM write accelerator (§4.3, §6.3 of the paper).

:class:`PrestoCache` sits in front of a :class:`~repro.disk.device.Storage`
(a disk or stripe set) and is itself a ``Storage``:

* A write of at most :attr:`accept_limit` bytes (typically 8K) completes as
  soon as the bytes are copied into NVRAM — NVRAM *is* stable storage under
  the SPEC baseline rules, so the caller's stable-storage promise is kept
  at copy time, in tens to hundreds of microseconds instead of tens of
  milliseconds.
* A larger write is *declined* and passed straight through to the backing
  device ("resulting in performance that degrades to underlying disk
  speed") — this is why a gathering server must not cluster in UFS when the
  filesystem is accelerated.
* A background drain clusters adjacent dirty extents into large transactions
  ("Presto does its own clustering") and writes them to the backing device
  asynchronously and in parallel with request processing.
* The NVRAM is small (the paper: "typically one or more MB"); when full,
  accepted writes block until the drain frees space.

After a simulated crash, :attr:`dirty_extents` reports the extents that must
be flushed before service resumes, modeling the "recovered and flushed to
disk after server failure" clause of the SPEC baseline requirement.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.disk.device import Storage
from repro.obs import PHASE_NVRAM_COPY, collector_for
from repro.sim import Container, Environment, Event

__all__ = ["PrestoCache", "PRESTO_BYTES"]

#: The paper's Prestoserve board (1 MB).
PRESTO_BYTES = 1 << 20


class PrestoCache(Storage):
    """NVRAM write-back cache in front of a backing storage device."""

    #: Marks this storage as accelerated; the server write layer queries
    #: this to pick its §6.3 policy (data-only sync vs delayed data).
    is_accelerated = True

    def __init__(
        self,
        env: Environment,
        backing: Storage,
        capacity: int = PRESTO_BYTES,
        accept_limit: int = 8192,
        copy_rate: float = 40e6,
        copy_overhead: float = 0.0001,
        max_flush: int = 128 * 1024,
        drain_high: float = 0.5,
        drain_low: float = 0.125,
        drain_max_age: float = 0.25,
        name: str = "presto",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"NVRAM capacity must be positive, got {capacity}")
        if accept_limit <= 0 or accept_limit > capacity:
            raise ValueError(
                f"accept limit {accept_limit} outside (0, capacity={capacity}]"
            )
        if max_flush <= 0:
            raise ValueError(f"max_flush must be positive, got {max_flush}")
        if not 0 <= drain_low < drain_high <= 1:
            raise ValueError(
                f"need 0 <= drain_low < drain_high <= 1, got {drain_low}/{drain_high}"
            )
        if drain_max_age <= 0:
            raise ValueError(f"drain_max_age must be positive, got {drain_max_age}")
        super().__init__(env, name)
        self.obs = collector_for(env)
        self.backing = backing
        self.capacity = capacity
        self.accept_limit = accept_limit
        self.copy_rate = copy_rate
        self.copy_overhead = copy_overhead
        self.max_flush = max_flush
        self.drain_high = drain_high
        self.drain_low = drain_low
        self.drain_max_age = drain_max_age
        #: Free NVRAM bytes; writers reserve, the drain releases.
        self._free = Container(env, capacity=capacity, init=capacity)
        #: Sorted dirty extents as (offset, end) pairs; touching extents
        #: merge, so a gap separates every two.
        self._dirty: List[Tuple[int, int]] = []
        #: Bytes the ``_dirty`` extents cover.
        self._dirty_bytes = 0
        #: Extent currently being written to the backing device; still in
        #: NVRAM (and recoverable) until that write completes.
        self._draining: Tuple[int, int] | None = None
        self._dirty_signal = env.event()
        #: Armed battery fault as (fraction, seed); None = battery healthy.
        self._degrade: Optional[Tuple[float, int]] = None
        #: When the oldest currently-cached byte arrived (age trigger).
        self._oldest_insert: float = 0.0
        #: Elevator cursor: the drain sweeps extents in address order so a
        #: hot small extent (the inode block, rewritten by every NFS write)
        #: cannot starve the large contiguous data extent.
        self._drain_cursor: int = 0
        env.process(self._drain(), name=f"{name}:drain")

    # -- public Storage interface -------------------------------------------

    def submit(self, offset: int, nbytes: int, is_write: bool = True, kind: str = "data") -> Event:
        if nbytes <= 0:
            raise ValueError(f"request length must be positive, got {nbytes}")
        if not is_write:
            # Reads pass through (server read traffic goes to the spindle).
            return self.backing.submit(offset, nbytes, is_write=False, kind=kind)
        if nbytes > self.accept_limit:
            # Presto declines oversized requests; underlying disk speed.
            return self.backing.submit(offset, nbytes, is_write=True, kind=kind)
        done = self.env.event()
        if self._free.try_get(nbytes):
            # Space available now: reserve synchronously and finish the
            # NVRAM copy with a timeout callback instead of a process —
            # one heap event per accepted write instead of a process
            # lifecycle.  try_get also keeps FIFO fairness: it declines
            # whenever an earlier writer is already queued for space.
            accepted_at = self.env.now
            timer = self.env.timeout(self.copy_overhead + nbytes / self.copy_rate)
            timer.callbacks.append(
                lambda _ev: self._finish_accept(done, offset, nbytes, kind, accepted_at)
            )
        else:
            self.env.process(self._accept(done, offset, nbytes, kind))
        return done

    def queue_depth(self) -> int:
        return self.backing.queue_depth()

    @property
    def dirty_extents(self) -> List[Tuple[int, int]]:
        """NVRAM-resident (offset, end) extents: sorted, non-overlapping.

        Includes the extent currently being drained (its bytes stay in NVRAM
        until the backing write completes), merged with any re-dirtied
        overlap so the view is a clean union.
        """
        extents = list(self._dirty)
        if self._draining is not None:
            extents.append(self._draining)
        extents.sort()
        merged: List[Tuple[int, int]] = []
        for start, end in extents:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def reset_stats(self) -> None:
        super().reset_stats()
        self.backing.reset_stats()

    # -- media-fault hooks ---------------------------------------------------

    def inject_latent(self, offset: int, nbytes: int) -> None:
        self.backing.inject_latent(offset, nbytes)

    def heal_latent(self, offset: int, nbytes: int) -> None:
        self.backing.heal_latent(offset, nbytes)

    def latent_overlap(self, offset: int, nbytes: int) -> bool:
        return self.backing.latent_overlap(offset, nbytes)

    def arm_degrade(self, fraction: float, seed: int = 0) -> None:
        """Arm a battery fault: at the next crash, a seeded Bernoulli coin
        per dirty extent loses roughly ``fraction`` of the unflushed NVRAM
        contents (see :meth:`take_degraded`)."""
        if not 0 <= fraction <= 1:
            raise ValueError(f"degrade fraction must be in [0, 1], got {fraction}")
        self._degrade = (fraction, seed)

    def take_degraded(self) -> List[Tuple[int, int]]:
        """Consume an armed battery fault at crash time.

        Returns the (offset, end) extents whose NVRAM copies did *not*
        survive the crash; they are dropped from the dirty set (their
        space returns to the pool) so recovery cannot flush them.  Unarmed
        caches return ``[]`` — the battery held, everything survived.
        """
        if self._degrade is None:
            return []
        fraction, seed = self._degrade
        self._degrade = None
        rng = random.Random(f"nvram-degrade/{seed}")
        lost: List[Tuple[int, int]] = []
        kept: List[Tuple[int, int]] = []
        for start, end in self._dirty:
            if rng.random() < fraction:
                lost.append((start, end))
            else:
                kept.append((start, end))
        self._dirty = kept
        self._dirty_bytes = sum(end - start for start, end in kept)
        freed = sum(end - start for start, end in lost)
        if freed:
            self._free.put(freed)
        return lost

    # -- internals ----------------------------------------------------------

    def _accept(self, done: Event, offset: int, nbytes: int, kind: str):
        """Slow path: wait for the drain to free NVRAM space first."""
        accepted_at = self.env.now
        yield self._free.get(nbytes)
        yield self.env.timeout(self.copy_overhead + nbytes / self.copy_rate)
        self._finish_accept(done, offset, nbytes, kind, accepted_at)

    def _finish_accept(
        self, done: Event, offset: int, nbytes: int, kind: str, accepted_at: float
    ) -> None:
        """Complete an accepted write once its NVRAM copy time has elapsed."""
        if self.obs.enabled:
            self.obs.emit(
                PHASE_NVRAM_COPY,
                self.name,
                accepted_at,
                self.env.now,
                kind=kind,
                bytes=nbytes,
                offset=offset,
            )
        # Space accounting is backed by the pending (_dirty) set only: the
        # extent under drain frees its own reservation when the flush ends,
        # so a rewrite overlapping it genuinely occupies new space.
        surplus = nbytes - self._insert_extent(offset, offset + nbytes)
        if surplus > 0:
            # Overwrote bytes that were already dirty: give the space back.
            # This always fits (the bytes came out of our own reservation),
            # so the put completes synchronously.
            self._free.put(surplus)
        self.stats.busy.add_busy(self.copy_overhead + nbytes / self.copy_rate)
        self.stats.record(nbytes, True, kind)
        self._wake_drain()
        done.succeed()

    def _insert_extent(self, start: int, end: int) -> int:
        """Merge ``[start, end)`` into the dirty set with every extent it
        overlaps or touches; returns how many dirty bytes it added."""
        dirty = self._dirty
        # The extents to merge are consecutive: from the first that ends
        # at or after ``start`` to the last that starts at or before ``end``.
        low = bisect_left(dirty, (start,))
        if low and dirty[low - 1][1] >= start:
            low -= 1
        high = bisect_left(dirty, (end + 1,), low)
        merged = dirty[low:high]
        if merged:
            start = min(start, merged[0][0])
            end = max(end, merged[-1][1])
        covered = sum(run_end - run_start for run_start, run_end in merged)
        dirty[low:high] = [(start, end)]
        grown = end - start - covered
        self._dirty_bytes += grown
        return grown

    def _take_chunk(self) -> Tuple[int, int]:
        """Remove and return the next drain chunk: up to ``max_flush``
        bytes from the first extent at or past the elevator cursor
        (wrapping to the lowest)."""
        dirty = self._dirty
        index = bisect_left(dirty, (self._drain_cursor,))
        if index == len(dirty):
            index = 0  # wrap the sweep
        start, end = dirty[index]
        chunk_end = min(end, start + self.max_flush)
        if chunk_end == end:
            dirty.pop(index)
        else:
            dirty[index] = (chunk_end, end)
        self._dirty_bytes -= chunk_end - start
        self._drain_cursor = chunk_end
        return start, chunk_end

    def _wake_drain(self) -> None:
        if not self._dirty_signal.triggered:
            self._dirty_signal.succeed()

    def _drain(self):
        """Lazy write-back: drain only past the high watermark or once the
        cached data ages out.

        Draining eagerly would put an 8K-request stream on the spindle —
        exactly the pattern §6.6 says is "sub-optimal in both drive
        throughput and CPU utilization".  Waiting lets adjacent extents
        coalesce so the disk sees few, large, contiguous transfers.
        """
        while True:
            if not self._dirty:
                self._dirty_signal = self.env.event()
                yield self._dirty_signal
                self._oldest_insert = self.env.now
                continue
            pending = self._dirty_bytes
            over_watermark = pending >= self.drain_high * self.capacity
            aged = self.env.now - self._oldest_insert >= self.drain_max_age
            if not over_watermark and not aged:
                # Poll at a fraction of the age limit; cheap in event count.
                yield self.env.timeout(self.drain_max_age / 4.0)
                continue
            # Drain down to the low watermark (or empty, if age-triggered),
            # sweeping extents elevator-style by address.  The burst is
            # bounded by the bytes present when it started: data arriving
            # *during* the burst waits for the next trigger, so it can
            # coalesce into large extents instead of being chased to the
            # spindle 8K at a time.
            target = self.drain_low * self.capacity if over_watermark else 0.0
            budget = pending - target
            drained = 0.0
            while self._dirty and drained < budget:
                start, chunk_end = self._take_chunk()
                take = chunk_end - start
                self._draining = (start, chunk_end)
                yield self.backing.submit(start, take, is_write=True, kind="presto-flush")
                self._draining = None
                yield self._free.put(take)
                drained += take
            self._oldest_insert = self.env.now
