"""Storage devices: the abstract interface and the single-spindle device.

Every durable medium in the reproduction (plain disk, stripe set, NVRAM
front-end) implements :class:`Storage`: ``submit()`` returns an event that
fires when the request's bytes are *stable* on that medium.  The filesystem
and the NFS write paths only ever talk to a :class:`Storage`, which is what
lets the Presto duality of §6.3 slot in transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.disk.model import DiskModel, DiskSpec
from repro.disk.stats import IoStats
from repro.obs import PHASE_DISK_IO, collector_for
from repro.sim import Environment, Event, Timeout

__all__ = ["IoRequest", "Storage", "DiskDevice", "SCHEDULER_FIFO", "SCHEDULER_ELEVATOR"]


@dataclass
class IoRequest:
    """One I/O transaction submitted to a storage device."""

    offset: int
    nbytes: int
    is_write: bool = True
    #: What the bytes are, for accounting: "data", "inode", "indirect",
    #: "presto-flush", ...
    kind: str = "data"
    #: Completion event, filled in by the device at submit and cleared
    #: when it fires (the event carries no value).
    done: Optional[Event] = field(default=None, repr=False)
    #: Simulation time the request entered the device queue.
    queued_at: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"IoRequest length must be positive, got {self.nbytes}")
        if self.offset < 0:
            raise ValueError(f"IoRequest offset must be >= 0, got {self.offset}")


class Storage:
    """Abstract stable-storage device."""

    def __init__(self, env: Environment, name: str) -> None:
        self.env = env
        self.name = name
        self.stats = IoStats(env, name)

    def submit(self, offset: int, nbytes: int, is_write: bool = True, kind: str = "data") -> Event:
        """Queue a transaction; the returned event fires when it is stable."""
        raise NotImplementedError

    def queue_depth(self) -> int:
        """Number of requests queued but not yet completed."""
        raise NotImplementedError

    def reset_stats(self) -> None:
        self.stats.reset()

    # -- media-fault hooks (default: perfect media) ---------------------
    # Latent sector errors are a *registry*, not per-request state: the
    # device keeps serving timings as usual, and the filesystem asks
    # ``latent_overlap`` on its read paths to learn the medium failed.
    # Composite devices (stripe sets, NVRAM front-ends) forward these
    # down the chain.

    def inject_latent(self, offset: int, nbytes: int) -> None:
        """Mark ``[offset, offset+nbytes)`` unreadable.  Default: no-op."""

    def heal_latent(self, offset: int, nbytes: int) -> None:
        """Clear latent errors overlapping the range.  Default: no-op."""

    def latent_overlap(self, offset: int, nbytes: int) -> bool:
        """True if a read of the range would hit a latent sector error."""
        return False


SCHEDULER_FIFO = "fifo"
SCHEDULER_ELEVATOR = "elevator"


class DiskDevice(Storage):
    """A single spindle served one request at a time by a :class:`DiskModel`.

    Two queueing disciplines:

    * ``fifo`` (default, and what the paper's drivers did) — requests are
      served in arrival order;
    * ``elevator`` — C-SCAN by byte offset, an extension ablation: with a
      deep queue of seeking requests it trades fairness for fewer seeks,
      attacking the same cost write gathering attacks at a higher layer.
    """

    def __init__(
        self,
        env: Environment,
        spec: DiskSpec,
        name: str = "",
        scheduler: str = SCHEDULER_FIFO,
    ) -> None:
        if scheduler not in (SCHEDULER_FIFO, SCHEDULER_ELEVATOR):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        super().__init__(env, name or spec.name)
        self.obs = collector_for(env)
        self.spec = spec
        self.scheduler = scheduler
        self.model = DiskModel(spec)
        # Service-time degradation is a stack of revocable fault tokens, so
        # two overlapping faults compose multiplicatively and each revert
        # restores exactly the state the other fault expects (see
        # push_slowdown/pop_slowdown).
        self._slowdown_tokens: Dict[int, float] = {}
        self._next_token = 0
        self._effective_slowdown = 1.0
        #: Latent sector errors: ``(start, end) -> injected_at`` ranges a
        #: read would fail on.  Empty on healthy media.
        self._latent: Dict[Tuple[int, int], float] = {}
        self._pending: list = []
        self._signal = env.event()
        self._in_flight = 0
        env.process(self._serve(), name=f"disk:{self.name}")

    @property
    def slowdown(self) -> float:
        """Effective service-time multiplier.  1.0 = healthy."""
        return self._effective_slowdown

    def _recompute_slowdown(self) -> None:
        effective = 1.0
        for factor in self._slowdown_tokens.values():
            effective *= factor
        self._effective_slowdown = effective

    def push_slowdown(self, factor: float) -> int:
        """Stack a revocable degradation on the spindle; returns a token
        for :meth:`pop_slowdown`.  Overlapping faults compose as a product
        and revert in any order without clobbering each other."""
        if factor <= 0:
            raise ValueError(f"slowdown factor must be positive, got {factor}")
        token = self._next_token
        self._next_token += 1
        self._slowdown_tokens[token] = factor
        self._recompute_slowdown()
        return token

    def pop_slowdown(self, token: int) -> None:
        """Revert one :meth:`push_slowdown`; unknown tokens are no-ops
        (the fault may have been cleared wholesale)."""
        if self._slowdown_tokens.pop(token, None) is not None:
            self._recompute_slowdown()

    # -- latent sector errors -------------------------------------------

    def inject_latent(self, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError(f"latent range must be positive, got {nbytes}")
        self._latent[(offset, offset + nbytes)] = self.env.now

    def heal_latent(self, offset: int, nbytes: int) -> None:
        end = offset + nbytes
        for span in [s for s in self._latent if s[0] < end and offset < s[1]]:
            del self._latent[span]

    def latent_overlap(self, offset: int, nbytes: int) -> bool:
        if not self._latent:
            return False
        end = offset + nbytes
        return any(start < end and offset < stop for start, stop in self._latent)

    def submit(self, offset: int, nbytes: int, is_write: bool = True, kind: str = "data") -> Event:
        request = IoRequest(offset=offset, nbytes=nbytes, is_write=is_write, kind=kind)
        request.done = self.env.event()
        request.queued_at = self.env.now
        self._in_flight += 1
        self._pending.append(request)
        if not self._signal.triggered:
            self._signal.succeed()
        return request.done

    def queue_depth(self) -> int:
        return self._in_flight

    def _pick(self) -> IoRequest:
        if self.scheduler == SCHEDULER_FIFO or len(self._pending) == 1:
            return self._pending.pop(0)
        head = self.model._head or 0
        ahead = [r for r in self._pending if r.offset >= head]
        candidates = ahead or self._pending  # C-SCAN: sweep up, then wrap
        choice = min(candidates, key=lambda r: r.offset)
        self._pending.remove(choice)
        return choice

    def _serve(self):
        while True:
            if not self._pending:
                self._signal = self.env.event()
                yield self._signal
                continue
            request = self._pick()
            service_started = self.env.now
            self.stats.busy.begin()
            yield Timeout(
                self.env,
                self.model.service_time(request.offset, request.nbytes) * self.slowdown,
            )
            self.stats.busy.end()
            self.stats.record(request.nbytes, request.is_write, request.kind)
            if request.is_write and self._latent:
                # Writing over a latent sector relocates/refreshes it.
                self.heal_latent(request.offset, request.nbytes)
            self._in_flight -= 1
            if self.obs.enabled:
                self.obs.emit(
                    PHASE_DISK_IO,
                    self.name,
                    service_started,
                    self.env.now,
                    kind=request.kind,
                    bytes=request.nbytes,
                    is_write=request.is_write,
                    queued_at=request.queued_at,
                )
            # Unlink before firing: an event whose value points back at
            # its request would make every I/O a reference cycle.
            done, request.done = request.done, None
            done.succeed()
