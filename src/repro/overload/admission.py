"""Server-side backpressure: a bounded nfsd admission queue with shed policies.

Without admission control the server "accepts" work until the socket
buffer's byte limit silently drops datagrams — the overflow is blind, so
a retransmit storm evicts *fresh* work and keeps duplicates with equal
probability.  :class:`AdmissionQueue` bounds the request queue by *count*
and makes the shed decision deliberate, at arrival time, before the
request costs any nfsd CPU:

* ``drop-newest`` — refuse the arriving datagram (classic tail drop, but
  counted and observable rather than silent);
* ``drop-oldest`` — evict the head of the queue to admit the newcomer
  (the oldest request is the one most likely already retransmitted, so
  its client's duplicate is in flight anyway);
* ``early-reply`` — consult the duplicate-request cache first: a
  duplicate of an IN_PROGRESS request is shed for free (§6.9 would drop
  it after paying decode CPU anyway), and a recent DONE duplicate is
  answered straight from the cached reply without ever entering the
  queue; fresh work falls back to drop-oldest.

The queue hooks :class:`~repro.net.udp.SocketBuffer` via its
``admission`` attribute and is consulted before the byte-capacity check,
so the byte bound (§4.2's 0.25 MB mbuf limit) still applies after
admission.
"""

from __future__ import annotations

from repro.net.packet import Datagram
from repro.net.udp import SocketBuffer, UdpEndpoint
from repro.obs import PHASE_SHED, collector_for, registry_for
from repro.rpc.dupcache import DuplicateRequestCache
from repro.rpc.messages import RpcCall
from repro.sim import Environment

__all__ = ["AdmissionQueue", "SHED_POLICIES"]

SHED_POLICIES = ("drop-newest", "drop-oldest", "early-reply")


class AdmissionQueue:
    """Bounded admission control for a server endpoint's socket buffer."""

    def __init__(
        self,
        env: Environment,
        endpoint: UdpEndpoint,
        dup_cache: DuplicateRequestCache,
        max_requests: int,
        policy: str = "drop-newest",
    ) -> None:
        if max_requests < 1:
            raise ValueError(f"max_requests must be >= 1, got {max_requests}")
        if policy not in SHED_POLICIES:
            names = ", ".join(SHED_POLICIES)
            raise ValueError(f"unknown shed policy {policy!r} (expected one of: {names})")
        self.env = env
        # The endpoint's host and segment, not the endpoint: its socket
        # buffer holds this queue.
        self.host = endpoint.host
        self.segment = endpoint.segment
        self.dup_cache = dup_cache
        self.max_requests = max_requests
        self.policy = policy
        self.obs = collector_for(env)
        metrics = registry_for(env)
        prefix = f"admission.{self.host}"
        self.admitted = metrics.counter(f"{prefix}.admitted")
        self.shed = metrics.counter(f"{prefix}.shed")
        self.evicted = metrics.counter(f"{prefix}.evicted")
        self.early_replies = metrics.counter(f"{prefix}.early_replies")
        self.dup_sheds = metrics.counter(f"{prefix}.dup_sheds")

    def admit(self, buffer: SocketBuffer, datagram) -> bool:
        """Decide the fate of one arriving datagram.

        Returns True to let the buffer queue it (byte check still
        follows), False to shed it here.
        """
        call = datagram.payload
        if not isinstance(call, RpcCall):
            return True  # stray non-request traffic is not ours to police
        if len(buffer) < self.max_requests:
            self.admitted.add(1)
            return True
        policy = self.policy
        if policy == "early-reply":
            disposition, cached_reply = self.dup_cache.peek(call)
            if disposition == "drop":
                # Duplicate of an in-progress request: §6.9 drops it after
                # decode anyway — shedding it at the door is pure savings.
                self.dup_sheds.add(1)
                self._emit(call, "dup_dropped")
                return False
            if disposition == "replay":
                self.segment.send(
                    Datagram(
                        src=self.host,
                        dst=call.client,
                        payload=cached_reply,
                        size=cached_reply.size,
                    )
                )
                self.early_replies.add(1)
                self._emit(call, "early_reply")
                return False
            policy = "drop-oldest"  # fresh work: make room instead
        if policy == "drop-oldest":
            victim = buffer.evict_oldest()
            if victim is not None:
                self.evicted.add(1)
                evicted_call = victim.payload
                if isinstance(evicted_call, RpcCall):
                    # The victim was never dequeued, so check() never ran
                    # for it — nothing to forget in the dup cache.
                    self._emit(evicted_call, "evicted")
                self.admitted.add(1)
                return True
            # Queue drained between the length check and now: just admit.
            self.admitted.add(1)
            return True
        self.shed.add(1)
        self._emit(call, "refused")
        return False

    def _emit(self, call: RpcCall, action: str) -> None:
        if not self.obs.enabled:
            return
        self.obs.emit(
            PHASE_SHED,
            self.host,
            self.env.now,
            self.env.now,
            proc=call.proc,
            client=call.client,
            xid=call.xid,
            action=action,
        )
