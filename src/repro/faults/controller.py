"""The fault controller: drives a FaultPlan against a live testbed.

One simulation process per event waits for its trigger (a clock time, or an
obs span matching a predicate), applies the fault through the public
injection hooks (`Segment.set_loss_rate`/`partition`/...,
`DiskDevice.push_slowdown`, `NfsServer.simulate_crash`), holds it for the
event's window, then reverts it.  Every applied fault is appended to
:attr:`FaultController.log` and — when tracing is on — emitted as a
``fault.inject`` span, so exported timelines show crashes and partitions
inline with the RPC lifecycle.

Crashes are special twice over: they have no "revert" (lost state stays
lost; the reboot is the partition healing), and they notify an attached
:class:`~repro.faults.oracle.Oracle` so the crash contract is checked
against the durable image at the instant of death.
"""

from __future__ import annotations

import random
from functools import partial
from typing import List, Optional

from repro.faults.events import (
    AtTime,
    BitRot,
    DatagramDuplication,
    DatagramReorder,
    FaultEvent,
    FaultPlan,
    LatentSectorError,
    NetworkPartition,
    NvramDegrade,
    OnSpan,
    PacketLossBurst,
    RetransmitStorm,
    ServerCrash,
    SlowDisk,
    SockBufShrink,
    TornWrite,
)
from repro.obs import PHASE_FAULT, collector_for

__all__ = ["FaultController"]


class _SpanWaiter:
    """Counts matching spans for one OnSpan trigger; succeeds its event."""

    __slots__ = ("trigger", "done", "seen")

    def __init__(self, trigger: OnSpan, done) -> None:
        self.trigger = trigger
        self.done = done
        self.seen = 0

    def offer(self, span) -> None:
        if self.done.triggered or not self.trigger.matches(span):
            return
        self.seen += 1
        if self.seen >= self.trigger.occurrence:
            self.done.succeed(span)


def _offer_span(waiters: List[_SpanWaiter], span) -> None:
    for waiter in waiters:
        waiter.offer(span)


class FaultController:
    """Executes one :class:`FaultPlan` against a server stack: a testbed,
    or one cluster member's :class:`~repro.stack.ServerStack`."""

    def __init__(self, testbed, plan: FaultPlan, oracle=None) -> None:
        # The stack's parts, not the testbed: nothing under a testbed may
        # hold the testbed.
        self.env = testbed.env
        self.segment = testbed.segment
        self.server = testbed.server
        self.storage = testbed.storage
        self.disks = testbed.disks
        self.plan = plan
        self.oracle = oracle
        self.obs = collector_for(self.env)
        #: Applied faults: dicts with kind, start, end, and parameters.
        self.log: List[dict] = []
        self.crashes = 0
        self._span_waiters: List[_SpanWaiter] = []
        #: Extra record fields set by _apply (e.g. victim block addrs).
        self._apply_extra: Optional[dict] = None
        #: The most recently applied fault record (triage context).
        self.last_applied: Optional[dict] = None

    def start(self) -> "FaultController":
        """Spawn one driver process per planned event.  Call before
        ``env.run()``; returns self for chaining."""
        if self.plan.needs_tracing():
            if not self.obs.enabled:
                raise ValueError(
                    f"plan {self.plan.name!r} has span-triggered faults; "
                    "build the testbed with tracing=True"
                )
            # The waiter list, not a bound method: every component holds
            # the collector, so a subscriber holding the controller (and
            # through it the server) would close a cycle.
            self.obs.subscribe(partial(_offer_span, self._span_waiters))
        for index, event in enumerate(self.plan.events):
            waiter: Optional[_SpanWaiter] = None
            if isinstance(event.trigger, OnSpan):
                waiter = _SpanWaiter(event.trigger, self.env.event())
                self._span_waiters.append(waiter)
            self.env.process(
                self._drive(event, waiter),
                name=f"fault:{self.plan.name}:{index}:{event.kind}",
            )
        return self

    # -- internals -------------------------------------------------------------

    def _drive(self, event: FaultEvent, waiter: Optional[_SpanWaiter]):
        trigger = event.trigger
        if isinstance(trigger, AtTime):
            if trigger.at > self.env.now:
                yield self.env.timeout(trigger.at - self.env.now)
        else:
            yield waiter.done
            if trigger.delay > 0:
                yield self.env.timeout(trigger.delay)
        started = self.env.now
        if self.oracle is not None and hasattr(self.oracle, "note_fault"):
            # Tell the oracle *before* applying: crash-time checks then
            # carry the fault that provoked them in their messages.
            self.oracle.note_fault(
                {"kind": event.kind, "start": started, **event.params()}
            )
        revert = self._apply(event)
        extra = self._apply_extra
        self._apply_extra = None
        if event.window > 0:
            yield self.env.timeout(event.window)
        if revert is not None:
            revert()
        self._record(event, started, self.env.now, extra)

    def _apply(self, event: FaultEvent):
        """Inject one fault; returns a revert callable (or None)."""
        segment = self.segment
        server = self.server
        if isinstance(event, ServerCrash):
            server.simulate_crash()
            self.crashes += 1
            # An armed NVRAM battery fault bites now: the lost extents'
            # durable copies vanish (detectably — digests stay behind).
            storage = self.storage
            if hasattr(storage, "take_degraded"):
                lost = storage.take_degraded()
                if lost:
                    durable = server.ufs.cache.durable
                    afflicted: List[int] = []
                    for start, end in lost:
                        afflicted.extend(
                            durable.lose_range(start, end, server.ufs.block_size)
                        )
                    self._apply_extra = {
                        "nvram_lost_extents": [list(extent) for extent in lost],
                        "nvram_lost_blocks": sorted(set(afflicted)),
                    }
            if self.oracle is not None:
                self.oracle.check(f"crash#{self.crashes}")
            if server.replicator is not None:
                # A replicated shard rejoins its group on reboot and
                # resyncs from its own log (fresh peers repair the rest).
                server.replicator.activate()
            if event.reboot_delay > 0:
                # Down for the count: unreachable until the reboot finishes.
                segment.partition(server.host)
                return lambda: segment.heal(server.host)
            return None
        if isinstance(event, PacketLossBurst):
            previous = segment.loss_rate
            segment.set_loss_rate(event.loss_rate)
            return lambda: segment.set_loss_rate(previous)
        if isinstance(event, NetworkPartition):
            hosts = event.hosts or (server.host,)
            for host in hosts:
                segment.partition(host)
            return lambda: [segment.heal(host) for host in hosts]
        if isinstance(event, DatagramDuplication):
            previous = segment.duplicate_rate
            segment.set_duplicate_rate(event.rate)
            return lambda: segment.set_duplicate_rate(previous)
        if isinstance(event, DatagramReorder):
            previous = (segment.reorder_rate, segment.reorder_delay)
            segment.set_reorder(event.rate, event.extra_delay)
            return lambda: segment.set_reorder(*previous)
        if isinstance(event, SlowDisk):
            # Token-stacked degradation: overlapping SlowDisk windows
            # compose multiplicatively and each revert removes exactly its
            # own contribution, whatever the overlap order.
            disks = list(self.disks)
            tokens = [disk.push_slowdown(event.factor) for disk in disks]
            return lambda: [
                disk.pop_slowdown(token) for disk, token in zip(disks, tokens)
            ]
        if isinstance(event, SockBufShrink):
            inbox = server.endpoint.inbox
            previous_capacity = inbox.capacity_bytes
            inbox.capacity_bytes = min(previous_capacity, event.capacity_bytes)
            def restore(inbox=inbox, capacity=previous_capacity):
                inbox.capacity_bytes = capacity
            return restore
        if isinstance(event, RetransmitStorm):
            inbox = server.endpoint.inbox
            previous_capacity = inbox.capacity_bytes
            previous_loss = segment.loss_rate
            inbox.capacity_bytes = min(previous_capacity, event.capacity_bytes)
            segment.set_loss_rate(event.loss_rate)
            def calm(inbox=inbox, capacity=previous_capacity, loss=previous_loss):
                inbox.capacity_bytes = capacity
                segment.set_loss_rate(loss)
            return calm
        if isinstance(event, LatentSectorError):
            victims = self._pick_victims(event.kind, event.seed, event.count)
            block_size = server.ufs.block_size
            for addr in victims:
                self.storage.inject_latent(addr, block_size)
            self._apply_extra = {"victims": victims}
            return None
        if isinstance(event, BitRot):
            victims = self._pick_victims(event.kind, event.seed, event.count)
            rng = random.Random(f"{event.kind}/{event.seed}/flip")
            durable = server.ufs.cache.durable
            rotted = [addr for addr in victims if durable.rot_block(addr, rng)]
            self._apply_extra = {"victims": rotted}
            return None
        if isinstance(event, TornWrite):
            server.ufs.cache.arm_torn_write(event.seed)
            return None
        if isinstance(event, NvramDegrade):
            storage = self.storage
            if hasattr(storage, "arm_degrade"):
                storage.arm_degrade(event.fraction, event.seed)
                self._apply_extra = {"armed": True}
            else:
                # No NVRAM in front of the disks: nothing to degrade.
                self._apply_extra = {"armed": False}
            return None
        raise TypeError(f"unknown fault event {type(event).__name__}")

    def _pick_victims(self, kind: str, seed: int, count: int) -> List[int]:
        """Seeded choice of durable block addresses to afflict."""
        durable = self.server.ufs.cache.durable
        pool = sorted(durable.blocks)
        if not pool or count <= 0:
            return []
        rng = random.Random(f"{kind}/{seed}")
        return sorted(rng.sample(pool, min(count, len(pool))))

    def _record(
        self,
        event: FaultEvent,
        started: float,
        ended: float,
        extra: Optional[dict] = None,
    ) -> None:
        record = {"kind": event.kind, "start": started, "end": ended}
        record.update(
            {
                key: (list(value) if isinstance(value, tuple) else value)
                for key, value in event.params().items()
            }
        )
        if extra:
            record.update(extra)
        self.log.append(record)
        self.last_applied = record
        if self.obs.enabled:
            self.obs.emit(
                PHASE_FAULT, "faults", started, ended, **{"kind": event.kind}
            )
