"""The crash-consistency oracle: acked ⇒ durable, and no structural damage.

The oracle shadows every *stable* WRITE acknowledgement a client receives
(via :attr:`NfsClient.on_write_acked`) into a ledger of acked byte ranges
per inode and *holder* — the host whose durable image owes the promise.
At every check point — the instant of each simulated crash, and once at
the end of the run — it asserts the paper's crash contract
against the server's durable image:

1. **Durability**: every acked byte range is durably readable
   (:meth:`Ufs.durable_read` returns actual bytes, not None);
2. **Content**: the durable bytes equal the last acked write's bytes;
3. **Structure**: ``fsck`` in post-crash mode reports zero structural
   errors (lost *unacked* tails are legitimate and stay warnings).

Any violation is recorded with the simulation time and byte range, so a
chaos campaign's report pinpoints exactly which promise broke and when.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.fs.fsck import fsck

__all__ = ["Oracle"]

#: One content run: ``(start, end, acked bytes of [start, end))``.
ContentRun = Tuple[int, int, bytearray]


class _Ledger:
    """One inode's acked byte ranges as sorted, disjoint, non-empty runs.

    Run ``i`` covers ``[starts[i], ends[i])``.  ``contents[i]`` holds the
    bytes the last covering ack carried, or ``None`` when that ack was a
    flyweight payload (the range is promised durable, its content is not).
    Touching runs of the same kind are always merged, so every content run
    is maximal.  A content run may touch a flyweight run; together they
    form one *acked run*, the unit every check reports on.
    """

    __slots__ = ("starts", "ends", "contents")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.contents: List[Optional[bytearray]] = []

    def record(self, offset: int, end: int, content) -> None:
        """Ack ``[offset, end)``; ``content`` is its bytes or ``None``.

        The new run replaces whatever it overlaps (the last writer wins)
        and merges with a touching or overlapping neighbour of its kind.
        """
        if end <= offset:
            return
        starts, ends, contents = self.starts, self.ends, self.contents
        lo = bisect_left(ends, offset)
        hi = bisect_right(starts, end)  # runs [lo, hi) touch [offset, end)
        right = None
        if lo < hi and ends[hi - 1] > end:
            tail = contents[hi - 1]
            if tail is not None:
                tail = tail[end - starts[hi - 1] :]
            right = (end, ends[hi - 1], tail)
        left = None
        start, buf = offset, None
        if lo < hi and starts[lo] < offset:
            head = contents[lo]
            if head is not None:
                del head[offset - starts[lo] :]  # a sole owner: trim in place
            if (head is None) == (content is None):
                start, buf = starts[lo], head
            else:
                left = (starts[lo], offset, head)
        if content is not None:
            if buf is None:
                buf = bytearray(content)
            else:
                buf += content
        stop = end
        if right is not None and (right[2] is None) == (buf is None):
            stop = right[1]
            if buf is not None:
                buf += right[2]
            right = None
        pieces = [piece for piece in (left, (start, stop, buf), right) if piece]
        starts[lo:hi] = [piece[0] for piece in pieces]
        ends[lo:hi] = [piece[1] for piece in pieces]
        contents[lo:hi] = [piece[2] for piece in pieces]

    def acked_runs(self) -> Iterator[Tuple[int, int, List[ContentRun]]]:
        """Maximal acked runs, each with the content runs inside it."""
        starts, ends, contents = self.starts, self.ends, self.contents
        index, count = 0, len(starts)
        while index < count:
            start = starts[index]
            inner: List[ContentRun] = []
            while True:
                if contents[index] is not None:
                    inner.append((starts[index], ends[index], contents[index]))
                index += 1
                if index == count or starts[index] != ends[index - 1]:
                    break
            yield start, ends[index - 1], inner

    def content_within(self, low: int, high: int) -> Iterator[ContentRun]:
        """Content runs clipped to ``[low, high)``."""
        starts, ends, contents = self.starts, self.ends, self.contents
        for index in range(bisect_right(ends, low), len(starts)):
            start = starts[index]
            if start >= high:
                return
            content = contents[index]
            if content is None:
                continue
            sub_start, sub_end = max(start, low), min(ends[index], high)
            yield sub_start, sub_end, content[sub_start - start : sub_end - start]

    def byte_total(self) -> int:
        return sum(self.ends) - sum(self.starts)


def _image_faults(ufs, ino: int, start: int, end: int, content_runs) -> List[str]:
    """What one durable image gets wrong about one acked run of ``ino``:
    ``"bytes [a,b): …"`` phrases, empty when the image keeps the promise."""
    unreadable = [f"bytes [{start},{end}): acked but not durably readable"]
    if not content_runs:
        # Flyweight-only run: reachability is the whole promise.
        return [] if ufs.durable_covered(ino, start, end - start) else unreadable
    durable = ufs.durable_read(ino, start, end - start)
    if durable is None:
        return unreadable
    faults: List[str] = []
    for sub_start, sub_end, want in content_runs:
        got = durable[sub_start - start : sub_end - start]
        if got != want:
            first_bad = next(
                index
                for index, (got_byte, want_byte) in enumerate(zip(got, want))
                if got_byte != want_byte
            )
            faults.append(
                f"bytes [{sub_start},{sub_end}): durable content differs from "
                f"acked content (first mismatch at byte {sub_start + first_bad})"
            )
    return faults


class Oracle:
    """Records client-acked writes; diffs them against the durable image.

    Every promise is filed under its *holder*, the host whose durable
    image owes it, in one ledger keyed by ``(holder, ino)``.  A testbed's
    oracle files everything under ``None`` and checks its ``server``;
    :class:`~repro.cluster.oracle.ClusterOracle` files each ack under the
    shard the router pins its handle to.
    """

    def __init__(self, target) -> None:
        self.env = target.env
        #: The testbed's server (a cluster has none; its oracle walks the
        #: replica groups).  The oracle keeps parts, never the testbed:
        #: the clients' ack hooks hold it.
        self.server = getattr(target, "server", None)
        #: Acked byte ranges per ``(holder, ino)`` (an ino acked only with
        #: zero-length writes has an empty ledger: listed, but promising
        #: nothing).
        self._ledgers: Dict[Tuple[Optional[str], int], _Ledger] = {}
        #: Async-commit bookkeeping: unstable acks carry *no* durability
        #: promise — the ``(offset, length)`` range sits here until a
        #: COMMIT under the right verifier promotes it to a hard ack.  An
        #: un-COMMITted write may legally be absent from a post-crash
        #: image; the client's replay obligation is what eventually lands
        #: it (checked as a hard ack once the COMMIT succeeds).
        self._pending: Dict[Tuple[Optional[str], int], Set[Tuple[int, int]]] = {}
        self.acked_writes = 0
        self.unstable_acks = 0
        self.committed_acks = 0
        self.read_acks = 0
        self.checks = 0
        #: Human-readable violation strings, in detection order.
        self.violations: List[str] = []
        #: Read-contract violations (also mirrored into ``violations``):
        #: an acked READ returned bytes differing from the acked write
        #: image — silent corruption that escaped every checksum.
        self.read_violations: List[str] = []
        # Triage context, all optional: a holder names its shard, chaos
        # campaigns set the plan seed, and the controller keeps
        # ``note_fault`` current.  Empty context adds nothing to messages,
        # so single-server reports are byte-stable.
        self.shard: Optional[str] = None
        self.role: Optional[str] = None
        self.plan_seed: Optional[object] = None
        self._last_fault: Optional[dict] = None

    def _holder(self, fhandle) -> Optional[str]:
        """The host whose durable image owes acks on ``fhandle``."""
        return None

    # -- recording --------------------------------------------------------------

    def attach(self, client) -> None:
        """Shadow ``client``'s write, COMMIT and READ acknowledgements.

        Stable (v2) acks bind a durability promise immediately; unstable
        (v3) acks only park the range as pending, and the promise binds
        when the matching COMMIT is acked.
        """
        client.on_write_acked = self.record_ack
        client.on_unstable_acked = self.record_unstable
        client.on_commit_acked = self.record_commit
        client.on_read_acked = self.record_read

    def record_ack(self, fhandle, offset: int, data: bytes) -> None:
        """One stable WRITE was acked: remember the promise it binds.

        A flyweight payload promises the range durable but not its
        content, so it is recorded without bytes and checks skip the
        byte compare there.
        """
        key = (self._holder(fhandle), fhandle[0])
        ledger = self._ledgers.get(key)
        if ledger is None:
            ledger = self._ledgers[key] = _Ledger()
        content = data if isinstance(data, (bytes, bytearray, memoryview)) else None
        ledger.record(offset, offset + len(data), content)
        self.acked_writes += 1

    def record_unstable(self, fhandle, offset: int, data) -> None:
        """An *unstable* WRITE was acked: no durability promise yet.

        The range is tracked only so reports can show how much data was
        in flight under the async-commit contract; a crash may legally
        drop it (the client resends under the new verifier).  A resend
        re-acks a range that is already pending and adds nothing.
        """
        key = (self._holder(fhandle), fhandle[0])
        self.unstable_acks += 1
        self._pending.setdefault(key, set()).add((offset, len(data)))

    def record_commit(self, fhandle, offset: int, data) -> None:
        """A COMMIT under the matching verifier covered this range: the
        durability promise binds now, exactly like a stable WRITE ack."""
        key = (self._holder(fhandle), fhandle[0])
        self.committed_acks += 1
        pending = self._pending.get(key)
        if pending is not None:
            pending.discard((offset, len(data)))
            if not pending:
                del self._pending[key]
        self.record_ack(fhandle, offset, data)

    def record_read(self, fhandle, offset: int, data) -> None:
        """An acked READ: its bytes must match the acked write image.

        This is the end-to-end half of the integrity contract: whatever
        the storage stack did internally, a read that *succeeded* must
        never hand the application bytes differing from what was acked
        stable.  Flyweight reads and never-acked ranges are skipped.
        """
        holder, ino = self._holder(fhandle), fhandle[0]
        self.read_acks += 1
        if not isinstance(data, (bytes, bytearray, memoryview)):
            return
        ledger = self._ledgers.get((holder, ino))
        if ledger is None:
            return
        now = self.env.now
        for sub_start, sub_end, want in ledger.content_within(offset, offset + len(data)):
            got = bytes(data[sub_start - offset : sub_end - offset])
            if got != want:
                message = (
                    f"[read t={now:.6f}] ino {ino} bytes [{sub_start},{sub_end}): "
                    f"acked READ returned bytes differing from the acked "
                    f"write image (silent corruption)"
                )
                self.read_violations.extend(self._file(holder, [message]))

    def note_fault(self, record: dict) -> None:
        """Remember the most recently applied fault for triage context."""
        self._last_fault = dict(record)

    def set_context(
        self,
        shard: Optional[str] = None,
        role: Optional[str] = None,
        plan_seed: Optional[object] = None,
    ) -> None:
        """Attach triage context appended to every violation message."""
        if shard is not None:
            self.shard = shard
        if role is not None:
            self.role = role
        if plan_seed is not None:
            self.plan_seed = plan_seed

    def _file(self, holder: Optional[str], found: List[str]) -> List[str]:
        """Stamp ``holder`` and the triage context on new violations;
        record and return them."""
        parts: List[str] = []
        shard = holder or self.shard
        if shard is not None:
            parts.append(f"shard={shard}")
        if self.role is not None:
            parts.append(f"role={self.role}")
        if self.plan_seed is not None:
            parts.append(f"plan_seed={self.plan_seed}")
        if self._last_fault is not None:
            kind = self._last_fault.get("kind", "?")
            start = self._last_fault.get("start")
            at = f"@t={start:.6f}" if isinstance(start, float) else ""
            parts.append(f"last_fault={kind}{at}")
        lead = "" if holder is None else f"{holder}: "
        suffix = f" [{', '.join(parts)}]" if parts else ""
        found = [f"{lead}{message}{suffix}" for message in found]
        self.violations.extend(found)
        return found

    # -- the ledger -------------------------------------------------------------

    def pending_byte_total(self) -> int:
        """Bytes acked unstable and not yet promoted by a COMMIT."""
        return sum(
            length for ranges in self._pending.values() for _offset, length in ranges
        )

    def acked_runs(self, ino: int, holder: Optional[str] = None) -> List[Tuple[int, int]]:
        """Maximal contiguous byte ranges of ``ino`` covered by acks."""
        ledger = self._ledgers.get((holder, ino))
        if ledger is None:
            return []
        return [(start, end) for start, end, _inner in ledger.acked_runs()]

    def content_runs(self, ino: int, holder: Optional[str] = None) -> List[Tuple[int, int]]:
        """Maximal byte ranges of ``ino`` acked *with content*; flyweight
        acks promise durability only and appear in :meth:`acked_runs`."""
        ledger = self._ledgers.get((holder, ino))
        if ledger is None:
            return []
        return [
            (start, end)
            for start, end, content in zip(ledger.starts, ledger.ends, ledger.contents)
            if content is not None
        ]

    def acked_inos(self, holder: Optional[str] = None) -> List[int]:
        """Inodes ``holder`` owes at least one acked write for (sorted)."""
        return sorted(ino for owner, ino in self._ledgers if owner == holder)

    def acked_byte_total(self) -> int:
        """Total bytes currently covered by stable-write acknowledgements.

        The overload experiment's goodput numerator: work the server
        *promised* (acked stably), not merely work clients offered —
        retransmitted duplicates and timed-out attempts never count.
        """
        return sum(ledger.byte_total() for ledger in self._ledgers.values())

    def tracks(self, ino: int, holder: Optional[str] = None) -> bool:
        """Does ``holder`` owe acked bytes or pending ranges for ``ino``?"""
        ledger = self._ledgers.get((holder, ino))
        return bool((ledger is not None and ledger.starts) or self._pending.get((holder, ino)))

    def holders_of(self, ino: int) -> List[Optional[str]]:
        """Holders currently owing acked or pending ranges for ``ino``
        (the migration contract wants exactly one, ever)."""
        keys = set(self._ledgers) | set(self._pending)
        return sorted(
            holder for holder, key_ino in keys if key_ino == ino and self.tracks(ino, holder)
        )

    def transfer_ino(self, ino: int, src: Optional[str], dst: Optional[str]) -> None:
        """Refile one inode's promises from holder ``src`` to ``dst``.

        Called in a live migration's cutover instant, right after the
        router's pins repoint: the acked ledger replaces ``dst``'s, the
        still-uncommitted pending ranges join ``dst``'s, and future checks
        assert them against the destination's durable state.
        """
        ledger = self._ledgers.pop((src, ino), None)
        if ledger is not None:
            self._ledgers[(dst, ino)] = ledger
        pending = self._pending.pop((src, ino), None)
        if pending:
            self._pending.setdefault((dst, ino), set()).update(pending)

    # -- checking ---------------------------------------------------------------

    def check(self, label: str = "final") -> List[str]:
        """Assert the crash contract on the server's durable image now;
        returns (and records) the new violations."""
        return self._walk(label, None, [(None, self.server.ufs)])

    def check_group(self, members, label: str = "final") -> List[str]:
        """Assert the *replica-group* crash contract (repro.replica).

        ``members`` is the surviving replica set as ``(name, ufs)`` pairs.
        An acked byte range is satisfied when **any** surviving member
        holds it durably with the acked content — the group promises the
        write outlives the primary, not that every member is already
        caught up at the instant of a crash.  Structure is checked on
        every survivor: a quorum cannot excuse a corrupt backup.
        """
        return self._walk(label, None, members, group=True)

    def _walk(self, label: str, holder, members, group: bool = False) -> List[str]:
        """The one ledger walk behind every crash check: ``holder``'s acked
        runs against ``members`` (``(name, ufs)`` pairs), then fsck on each.

        Alone (``group`` false), the single member must keep every promise
        and each fault is reported; as a group, a run fails only when no
        member keeps it.
        """
        stamp = f"[{label} t={self.env.now:.6f}]"
        found: List[str] = []
        for ino in self.acked_inos(holder):
            for start, end, content_runs in self._ledgers[(holder, ino)].acked_runs():
                if not group:
                    found.extend(
                        f"{stamp} ino {ino} {fault}"
                        for fault in _image_faults(members[0][1], ino, start, end, content_runs)
                    )
                elif all(
                    _image_faults(ufs, ino, start, end, content_runs) for _name, ufs in members
                ):
                    found.append(
                        f"{stamp} ino {ino} bytes [{start},{end}): "
                        "acked but missing from every surviving replica"
                    )
        for name, ufs in members:
            where = f"fsck({name})" if group else "fsck"
            found.extend(
                f"{stamp} {where}: {error}" for error in fsck(ufs, strict=False).errors
            )
        self.checks += 1
        return self._file(holder, found)

    @property
    def clean(self) -> bool:
        return not self.violations
