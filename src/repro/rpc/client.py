"""RPC client with the reference port's retransmission behaviour (§4.1).

A request that has not been answered within the class timeout is
retransmitted; the interval starts at 1.1 seconds and doubles per attempt.
The base interval adapts to measured server performance per weight class —
*write* latency is the heavyweight indicator, so a slow write path inflates
the client's patience for all heavyweight operations, exactly the coupling
the paper calls out ("Poor write performance will affect client behavior
with respect to other types of requests").
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional

from repro.net.udp import UdpEndpoint
from repro.obs import PHASE_RPC, Trace, collector_for, registry_for
from repro.rpc.messages import (
    CLASS_HEAVY,
    CLASS_LIGHT,
    CLASS_MEDIUM,
    RpcCall,
    RpcReply,
)
from repro.sim import Environment, Event

__all__ = ["RpcClient", "RpcTimeoutPolicy", "RpcTimeoutError"]

#: Reference-port initial retransmission interval.
INITIAL_TIMEOUT = 1.1

#: Cap on the doubling exponent so the uncapped product never overflows
#: into absurd floats before the ceiling clamp is applied.
MAX_BACKOFF_EXPONENT = 16

#: What a retransmit timer wakes its caller with, in place of a reply.
_TIMEOUT = object()


class RpcTimeoutError(Exception):
    """A call exhausted its retry budget (soft-mount ``ETIMEDOUT``)."""

    def __init__(self, proc: str, xid: int, attempts: int, server: str) -> None:
        super().__init__(
            f"rpc {proc} xid={xid} to {server} timed out after {attempts} attempts"
        )
        self.proc = proc
        self.xid = xid
        self.attempts = attempts
        self.server = server


class RpcTimeoutPolicy:
    """Per-class adaptive retransmission timers."""

    def __init__(
        self,
        initial: float = INITIAL_TIMEOUT,
        floor: float = INITIAL_TIMEOUT,
        ceiling: float = 30.0,
        gain: float = 0.125,
        latency_multiplier: float = 4.0,
        max_attempts: Optional[int] = None,
        jitter: float = 0.0,
        jitter_seed: int = 0,
    ) -> None:
        if max_attempts is not None and max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.floor = floor
        self.ceiling = ceiling
        self.gain = gain
        self.latency_multiplier = latency_multiplier
        #: Soft-mount retry budget; None = hard mount (retry forever).
        self.max_attempts = max_attempts
        self.jitter = jitter
        self.jitter_seed = jitter_seed
        self._base: Dict[str, float] = {
            CLASS_LIGHT: initial,
            CLASS_MEDIUM: initial,
            CLASS_HEAVY: initial,
        }

    def timeout_for(self, weight: str, attempt: int) -> float:
        """Interval before (re)transmission ``attempt`` is declared lost."""
        base = self._base.get(weight, INITIAL_TIMEOUT)
        exponent = min(attempt - 1, MAX_BACKOFF_EXPONENT)
        return min(self.ceiling, base * (2 ** exponent))

    def interval_for(self, weight: str, attempt: int, host: str, xid: int) -> float:
        """The (optionally jittered) interval the client actually arms."""
        interval = self.timeout_for(weight, attempt)
        if not self.jitter:
            return interval
        from repro.overload.rto import retransmit_jitter

        return interval * retransmit_jitter(
            self.jitter_seed, host, xid, attempt, self.jitter
        )

    def observe(self, weight: str, latency: float, retransmitted: bool = False) -> None:
        """Fold a measured round-trip into the class's base interval.

        The fixed-schedule policy predates Karn's algorithm, so the
        ``retransmitted`` flag is accepted (for interface parity with
        :class:`~repro.overload.rto.AdaptiveRetryPolicy`) but ignored.
        """
        target = max(self.floor, latency * self.latency_multiplier)
        base = self._base.get(weight, INITIAL_TIMEOUT)
        self._base[weight] = min(
            self.ceiling, (1 - self.gain) * base + self.gain * target
        )

    def on_timeout(self, weight: str) -> None:
        """Timeout notification hook: the fixed schedule does not react."""

    def base(self, weight: str) -> float:
        return self._base.get(weight, INITIAL_TIMEOUT)


class RpcClient:
    """Issues calls toward one server host, matching replies by XID."""

    def __init__(
        self,
        env: Environment,
        endpoint: UdpEndpoint,
        server: str,
        policy: RpcTimeoutPolicy | None = None,
    ) -> None:
        # The client takes every datagram its endpoint receives.
        if endpoint.handler is not None:
            raise ValueError(f"endpoint {endpoint.host!r} already has a receiver")
        self.env = env
        # XIDs come from one counter per *environment* (not per process):
        # globally unique within a run — the dup cache keys on
        # (client, xid) and rack transports share a host — yet identical
        # across same-seed runs, which a process-wide counter is not
        # (seeded retransmit jitter is keyed by xid).
        xids = getattr(env, "_rpc_xids", None)
        if xids is None:
            xids = itertools.count(1)
            env._rpc_xids = xids
        self._xids = xids
        self.endpoint = endpoint
        self.server = server
        self.policy = policy or RpcTimeoutPolicy()
        #: Optional congestion listener (e.g. an overload
        #: :class:`~repro.overload.window.WriteWindow`): told about every
        #: timeout (``on_timeout(weight)``) and every completion
        #: (``on_success(weight, attempts)``).
        self.congestion = None
        #: Optional server-initiated-call handler (repro.lease callbacks):
        #: a generator function invoked as ``on_call(call)`` for every
        #: inbound :class:`RpcCall`; its return value is sent back as the
        #: reply result.  None (the default) drops such calls as stray
        #: traffic, the pre-lease behaviour.
        self.on_call = None
        self._pending: Dict[int, Event] = {}
        self.obs = collector_for(env)
        metrics = registry_for(env)
        prefix = f"rpc.{endpoint.host}"
        self.retransmissions = metrics.counter(f"{prefix}.retransmissions")
        self.completed = metrics.counter(f"{prefix}.completed")
        self.duplicate_replies = metrics.counter(f"{prefix}.duplicate_replies")
        self.timeouts = metrics.counter(f"{prefix}.timeouts")
        self.latency = metrics.tally(f"{prefix}.latency")
        endpoint.handler = self._deliver

    def call(
        self,
        proc: str,
        args: Any,
        size: int,
        reply_size: int = 160,
        weight: str = CLASS_MEDIUM,
        server: str | None = None,
        max_attempts: int | None = None,
        route=None,
    ) -> Generator:
        """Send a call and wait (retransmitting as needed) for its reply.

        Returns the :class:`RpcReply`.  With no retry budget it never
        gives up: like a hard NFS mount, it retries until the server
        answers.  A budget — ``max_attempts`` here, or the policy's own —
        bounds total transmissions; exhausting it raises
        :class:`RpcTimeoutError` (soft-mount semantics).  ``server``
        overrides the default destination host for this one call (a routed
        cluster client picks the file's shard here; retransmissions stay
        on it).  ``route``, when given, is consulted before *every*
        retransmission — returning the destination for that attempt — so
        a routed call follows an alias repoint (promotion, live migration)
        mid-retry instead of burning its whole budget against the old
        host; the xid and backoff schedule carry across the move, exactly
        like a retransmission that happened to land on the new server.
        The first transmission goes to ``server``, which a routed caller
        resolved in this same instant.
        """
        xid = next(self._xids)
        trace = None
        if self.obs.enabled:
            attrs = {}
            offset = getattr(args, "offset", None)
            if offset is not None:
                attrs["offset"] = offset
            data = getattr(args, "data", None)
            if data is not None:
                attrs["bytes"] = len(data)
            trace = Trace(trace_id=xid, proc=proc, client=self.endpoint.host, attrs=attrs)
        call = RpcCall(
            xid=xid,
            proc=proc,
            args=args,
            size=size,
            client=self.endpoint.host,
            reply_size=reply_size,
            weight=weight,
            trace=trace,
        )
        destination = server or self.server
        budget = max_attempts if max_attempts is not None else self.policy.max_attempts
        pending = self._pending
        started = self.env.now
        try:
            while True:
                self.endpoint.send(destination, call, call.size)
                interval = self.policy.interval_for(
                    weight, call.attempt, self.endpoint.host, xid
                )
                # One wait per transmission, filed under the xid: the
                # delivery handler succeeds it with the reply, the retransmit
                # deadline with _TIMEOUT, whichever comes first.
                wait = Event(self.env)
                pending[xid] = wait
                self.env.deadline(interval, wait, _TIMEOUT)
                reply = yield wait
                if reply is not _TIMEOUT:
                    break
                self.timeouts.add(1)
                self.policy.on_timeout(weight)
                if self.congestion is not None:
                    self.congestion.on_timeout(weight)
                if budget is not None and call.attempt >= budget:
                    raise RpcTimeoutError(proc, xid, call.attempt, destination)
                call.attempt += 1
                self.retransmissions.add(1)
                if route is not None:
                    destination = route() or destination
        finally:
            pending.pop(xid, None)
        elapsed = self.env.now - started
        self.policy.observe(weight, elapsed, retransmitted=call.attempt > 1)
        self.latency.observe(elapsed)
        self.completed.add(1)
        if self.congestion is not None:
            self.congestion.on_success(weight, call.attempt)
        if trace is not None:
            self.obs.emit(
                PHASE_RPC,
                self.endpoint.host,
                started,
                self.env.now,
                trace_id=xid,
                proc=proc,
                attempts=call.attempt,
                **trace.attrs,
            )
        return reply

    def _deliver(self, datagram) -> None:
        """The endpoint's delivery handler: a reply resumes its caller
        before the delivery callback returns."""
        reply = datagram.payload
        if not isinstance(reply, RpcReply):
            if isinstance(reply, RpcCall) and self.on_call is not None:
                # A server-initiated call (lease recall): serve it in its
                # own process, since the handler may block.
                self.env.process(
                    self._serve_callback(reply),
                    name=f"rpc-cb:{self.endpoint.host}",
                )
            return  # stray traffic
        waiter = self._pending.get(reply.xid)
        if waiter is None or waiter.triggered:
            # Reply to a request we already gave up on / answered (or
            # whose timer fired this instant): a duplicate generated by
            # our own retransmission.
            self.duplicate_replies.add(1)
            return
        waiter.succeed_now(reply)

    def _serve_callback(self, call: RpcCall):
        """Run the on_call handler and send its result back as the reply.

        The handler must be idempotent: a retransmitted callback spawns a
        second handler run (there is no client-side dup cache), and the
        caller's RPC layer dedupes the extra reply by xid.
        """
        result = yield from self.on_call(call)
        self.endpoint.send(
            call.client,
            RpcReply(xid=call.xid, status="ok", result=result),
            call.reply_size,
        )
