"""The client cache stack: attributes, dirents, and write-back data.

A :class:`CacheStack` sits beside one :class:`~repro.nfs.client.NfsClient`
and deletes RPCs instead of serving them faster:

* **AttrCache** — ``getattr`` answered locally while the file's read lease
  is valid;
* **DirCache** — ``lookup`` answered locally (positive *and* negative
  entries) while the directory's read lease is valid;
* **DataCache** — ``read`` answered from cached blocks, and — under a
  write lease — full client blocks *deferred* instead of written through:
  dirty blocks ride the existing biod/:class:`~repro.overload.window.WriteWindow`
  machinery at close, recall, or budget pressure, so all three server
  ``WritePath`` modes see an ordinary write-behind train.

Consistency is leases, not guesswork: every entry is served only under an
unexpired lease learned from reply piggybacks
(:class:`~repro.lease.manager.LeaseGrant`), the server recalls conflicting
holders before mutations execute (``CB_RECALL`` arrives via
``RpcClient.on_call`` and is answered only after dirty data is flushed),
and ``open`` revalidates attributes unless lease-covered (close-to-open).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.lease.manager import LEASE_READ, LEASE_WRITE
from repro.nfs.protocol import PROC_LEASE_RENEW, RenewArgs
from repro.obs import registry_for
from repro.rpc.client import RpcTimeoutError
from repro.rpc.messages import CLASS_LIGHT, RPC_HEADER_BYTES
from repro.sim import AllOf

__all__ = ["CacheStack", "NEGATIVE"]


class _Negative:
    """Sentinel for a cached 'this name does not exist' dirent."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "<negative dirent>"


NEGATIVE = _Negative()

#: Per-file dirty-block budget: past this the stack stops deferring and
#: writes through (bounding both client RAM and recall-flush latency).
MAX_DIRTY_BLOCKS = 64

#: Per-file clean-block budget (plain capacity bound, not consistency).
MAX_CLEAN_BLOCKS = 256


class CacheStack:
    """Lease-consistent client caches for one NFS client host."""

    def __init__(self, env, client, max_dirty_blocks: int = MAX_DIRTY_BLOCKS) -> None:
        self.env = env
        self.client = client
        self.host = client.rpc.endpoint.host
        self.max_dirty_blocks = max_dirty_blocks
        #: fhandle -> (mode, expires_at) — the client's view of its leases.
        self._leases: Dict[tuple, Tuple[str, float]] = {}
        #: fhandle -> when continuous lease coverage began.  An entry is
        #: served only if fetched inside the current coverage run: during
        #: a gap (expiry, recall, reroute) another client may mutate
        #: without recalling us, so entries fetched before the gap are
        #: stale even once a fresh lease arrives.
        self._valid_since: Dict[tuple, float] = {}
        #: fhandle -> (Fattr, fetched_at).
        self._attrs: Dict[tuple, tuple] = {}
        #: (dir_fhandle, name) -> ((fhandle, Fattr) | NEGATIVE, fetched_at).
        self._dirents: Dict[tuple, tuple] = {}
        #: dir_fhandle -> set of cached names (for whole-dir invalidation).
        self._dir_names: Dict[tuple, set] = {}
        #: fhandle -> {offset -> (payload, fetched_at)} clean read blocks.
        self._blocks: Dict[tuple, Dict[int, tuple]] = {}
        #: fhandle -> {offset -> payload} deferred (dirty) write blocks.
        self._dirty: Dict[tuple, Dict[int, object]] = {}
        #: fhandle -> OpenFile owning the dirty blocks (flush bookkeeping).
        self._dirty_files: Dict[tuple, object] = {}
        #: Staleness-oracle hook: ``(kind, fhandle, fetched_at, dirty)``
        #: per served hit; None when unchecked.
        self.on_cache_hit = None
        metrics = registry_for(env)
        prefix = f"cache.{self.host}"
        self.attr_hits = metrics.counter(f"{prefix}.attr_hits")
        self.dirent_hits = metrics.counter(f"{prefix}.dirent_hits")
        self.negative_hits = metrics.counter(f"{prefix}.negative_hits")
        self.data_hits = metrics.counter(f"{prefix}.data_hits")
        self.deferred_writes = metrics.counter(f"{prefix}.deferred_writes")
        self.flushed_blocks = metrics.counter(f"{prefix}.flushed_blocks")
        self.recalls_served = metrics.counter(f"{prefix}.recalls_served")
        self.reregistrations = metrics.counter(f"{prefix}.reregistrations")
        # Wire ourselves in: the client consults us per op, the transport
        # hands us server-initiated recalls, and a routed (cluster)
        # transport tells us when a shard repoints so we re-register.
        client.cache = self
        rpc = client.rpc
        if hasattr(rpc, "set_on_call"):
            rpc.set_on_call(self.handle_recall)
        else:
            rpc.on_call = self.handle_recall
        if hasattr(rpc, "on_reroute"):
            rpc.on_reroute = self.handle_reroute

    def close(self) -> None:
        """Cut the stack's back-edges once the environment is closed: the
        client and its transport hold the stack, and an oracle's hit hook
        may hold it too."""
        self.client = None
        self.on_cache_hit = None

    # -- lease bookkeeping --------------------------------------------------------

    def learn_grants(self, grants) -> None:
        """Fold reply-piggybacked grants into the lease table."""
        for grant in grants:
            if not self.lease_valid(grant.fhandle):
                # Fresh acquisition after a coverage gap: older cached
                # entries for this handle are no longer servable.
                self._valid_since[grant.fhandle] = self.env.now
            self._leases[grant.fhandle] = (grant.mode, grant.expires_at)

    def lease_valid(self, fhandle: tuple, mode: str = LEASE_READ) -> bool:
        lease = self._leases.get(fhandle)
        if lease is None:
            return False
        held_mode, expires_at = lease
        if expires_at <= self.env.now:
            del self._leases[fhandle]
            return False
        return mode == LEASE_READ or held_mode == LEASE_WRITE

    def _covered(self, fhandle: tuple, fetched_at: float) -> bool:
        """Was ``fetched_at`` inside the current lease-coverage run?"""
        return fetched_at >= self._valid_since.get(fhandle, 0.0)

    def held_leases(self) -> Dict[tuple, str]:
        """fhandle -> mode for every currently valid lease (diagnostics)."""
        now = self.env.now
        return {
            fh: mode
            for fh, (mode, expires_at) in self._leases.items()
            if expires_at > now
        }

    def _record_hit(self, kind: str, fhandle: tuple, fetched_at: float, dirty: bool) -> None:
        if self.on_cache_hit is not None:
            self.on_cache_hit(kind, fhandle, fetched_at, dirty)

    # -- attribute cache ----------------------------------------------------------

    def store_attr(self, fhandle: tuple, fattr) -> None:
        previous = self._attrs.get(fhandle)
        if previous is not None and previous[0].mtime != fattr.mtime:
            # The file changed since we last cached data under the old
            # attributes: close-to-open says drop the stale blocks.
            self._blocks.pop(fhandle, None)
        self._attrs[fhandle] = (fattr, self.env.now)

    def attr_hit(self, fhandle: tuple):
        """The cached Fattr, or None (miss / lease lapsed)."""
        if not self.lease_valid(fhandle):
            return None
        entry = self._attrs.get(fhandle)
        if entry is None:
            return None
        fattr, fetched_at = entry
        if not self._covered(fhandle, fetched_at):
            del self._attrs[fhandle]
            return None
        self.attr_hits.add(1)
        self._record_hit("attr", fhandle, fetched_at, False)
        return fattr

    # -- dirent cache -------------------------------------------------------------

    def store_dirent(self, dir_fhandle: tuple, name: str, result) -> None:
        """Cache a positive lookup result ((fhandle, fattr))."""
        if not self.lease_valid(dir_fhandle):
            return
        self._dirents[(dir_fhandle, name)] = (result, self.env.now)
        self._dir_names.setdefault(dir_fhandle, set()).add(name)
        fhandle, fattr = result
        self.store_attr(fhandle, fattr)

    def store_negative(self, dir_fhandle: tuple, name: str) -> None:
        if not self.lease_valid(dir_fhandle):
            return
        self._dirents[(dir_fhandle, name)] = (NEGATIVE, self.env.now)
        self._dir_names.setdefault(dir_fhandle, set()).add(name)

    def dirent_hit(self, dir_fhandle: tuple, name: str):
        """(fhandle, fattr), NEGATIVE, or None (miss / lease lapsed)."""
        if not self.lease_valid(dir_fhandle):
            return None
        entry = self._dirents.get((dir_fhandle, name))
        if entry is None:
            return None
        value, fetched_at = entry
        if not self._covered(dir_fhandle, fetched_at):
            del self._dirents[(dir_fhandle, name)]
            self._dir_names.get(dir_fhandle, set()).discard(name)
            return None
        if value is NEGATIVE:
            self.negative_hits.add(1)
            self._record_hit("negative", dir_fhandle, fetched_at, False)
            return NEGATIVE
        self.dirent_hits.add(1)
        self._record_hit("dirent", dir_fhandle, fetched_at, False)
        fhandle, fattr = value
        cached = self._attrs.get(fhandle)
        if cached is not None and self.lease_valid(fhandle):
            fattr = cached[0]  # the freshest attributes we may serve
        return fhandle, fattr

    def note_local_create(self, dir_fhandle: tuple, name: str, result) -> None:
        """Our own create: replace any cached negative entry immediately."""
        self.store_dirent(dir_fhandle, name, result)

    def note_local_remove(self, dir_fhandle: tuple, name: str) -> None:
        entry = self._dirents.pop((dir_fhandle, name), None)
        self._dir_names.get(dir_fhandle, set()).discard(name)
        if entry is not None and entry[0] is not NEGATIVE:
            fhandle, _fattr = entry[0]
            self._void_file(fhandle)
        if self.lease_valid(dir_fhandle):
            self._dirents[(dir_fhandle, name)] = (NEGATIVE, self.env.now)
            self._dir_names.setdefault(dir_fhandle, set()).add(name)

    def note_local_rename(self, src_dir: tuple, src_name: str, dst_dir: tuple, dst_name: str) -> None:
        self._dirents.pop((src_dir, src_name), None)
        self._dir_names.get(src_dir, set()).discard(src_name)
        self._dirents.pop((dst_dir, dst_name), None)
        self._dir_names.get(dst_dir, set()).discard(dst_name)

    # -- data cache ---------------------------------------------------------------

    def store_block(self, fhandle: tuple, offset: int, payload) -> None:
        if not self.lease_valid(fhandle):
            return
        blocks = self._blocks.setdefault(fhandle, {})
        if len(blocks) >= MAX_CLEAN_BLOCKS and offset not in blocks:
            return
        blocks[offset] = (payload, self.env.now)

    def read_hit(self, fhandle: tuple, offset: int, count: int):
        """The cached payload for an exact (offset, count) block, or None.

        Dirty blocks win over clean ones (read-your-writes)."""
        if not self.lease_valid(fhandle):
            return None
        dirty = self._dirty.get(fhandle)
        if dirty is not None:
            payload = dirty.get(offset)
            if payload is not None and len(payload) == count:
                self.data_hits.add(1)
                self._record_hit("data", fhandle, self.env.now, True)
                return payload
        entry = self._blocks.get(fhandle, {}).get(offset)
        if entry is None:
            return None
        payload, fetched_at = entry
        if not self._covered(fhandle, fetched_at):
            del self._blocks[fhandle][offset]
            return None
        if len(payload) != count:
            return None
        self.data_hits.add(1)
        self._record_hit("data", fhandle, fetched_at, False)
        return payload

    # -- write-back ---------------------------------------------------------------

    def defer_write(self, open_file, offset: int, payload) -> bool:
        """Absorb one full client block instead of writing through.

        Only under a valid *write* lease and within the dirty budget; the
        caller writes through on False.  Deferral costs no simulated time —
        that is the RPC the cache deleted.
        """
        fhandle = open_file.fhandle
        if not self.lease_valid(fhandle, LEASE_WRITE):
            return False
        dirty = self._dirty.setdefault(fhandle, {})
        if offset not in dirty and len(dirty) >= self.max_dirty_blocks:
            return False
        dirty[offset] = payload
        self._dirty_files[fhandle] = open_file
        self.deferred_writes.add(1)
        return True

    def flush_file(self, open_file):
        """Push the file's dirty blocks through ordinary write-behind
        (biods + write window + the server's configured WritePath)."""
        yield from self._flush_fhandle(open_file.fhandle, wait=False)

    def _flush_fhandle(self, fhandle: tuple, wait: bool = True):
        dirty = self._dirty.pop(fhandle, None)
        open_file = self._dirty_files.pop(fhandle, None)
        if not dirty or open_file is None:
            return
        for offset in sorted(dirty):
            self.flushed_blocks.add(1)
            yield from self.client._write_behind(open_file, offset, dirty[offset])
        if wait and open_file.outstanding:
            # Quiesce means the server *has* the data before we ack.
            yield AllOf(self.env, list(open_file.outstanding))
            open_file.outstanding.clear()

    def dirty_blocks(self, fhandle: tuple) -> int:
        return len(self._dirty.get(fhandle, ()))

    # -- invalidation (recall / reroute) ------------------------------------------

    def _void_file(self, fhandle: tuple) -> None:
        self._leases.pop(fhandle, None)
        self._attrs.pop(fhandle, None)
        self._blocks.pop(fhandle, None)
        names = self._dir_names.pop(fhandle, None)
        if names:
            for name in names:
                self._dirents.pop((fhandle, name), None)

    def handle_recall(self, call):
        """CB_RECALL handler (via ``RpcClient.on_call``): drop every cached
        copy under the recalled lease, flush dirty data, then ack.

        Idempotent by construction — a retransmitted callback finds the
        lease and dirty set already gone and acks immediately.
        """
        fhandle = call.args.fhandle
        self.recalls_served.add(1)
        self._void_file(fhandle)  # stop serving hits before the flush
        yield from self._flush_fhandle(fhandle)
        tracker = getattr(self.client, "tracker", None)
        if tracker is not None and tracker.has_ranges(fhandle):
            # Async-commit (v3) client: the flush above only got the data
            # into the server's volatile UnstableLog.  The recall ack hands
            # the lease to a conflicting holder, so our write-behind must
            # be *durable* first — COMMIT (and replay on a verifier
            # mismatch) before answering.
            yield from tracker.commit(self.client, fhandle)
        return True

    def handle_reroute(self, logical: str, physical: str) -> None:
        """ClusterRpc hook: ``logical`` now resolves to ``physical``.

        The new primary's lease table knows nothing about us: every lease
        on a handle pinned to that shard is void.  Drop them (and their
        cached state), then re-register via LEASE_RENEW in the background.
        """
        router = getattr(self.client.rpc, "router", None)
        if router is None:
            return
        affected = []
        for fhandle, (mode, expires_at) in list(self._leases.items()):
            try:
                owner = router.server_for_fhandle(fhandle)
            except KeyError:
                continue
            if owner == logical:
                affected.append((fhandle, mode))
        if not affected:
            return
        for fhandle, _mode in affected:
            self._void_file(fhandle)
        self.env.process(
            self._reregister(logical, tuple(affected)),
            name=f"lease-rereg:{self.host}",
        )

    def _reregister(self, logical: str, wants: tuple):
        """Re-register voided leases with the shard's new primary."""
        self.reregistrations.add(1)
        try:
            reply = yield from self.client.rpc.call(
                PROC_LEASE_RENEW,
                RenewArgs(wants),
                size=RPC_HEADER_BYTES,
                reply_size=RPC_HEADER_BYTES,
                weight=CLASS_LIGHT,
                server=logical,
            )
        except RpcTimeoutError:
            reply = None
        granted = set()
        if reply is not None and reply.ok:
            grants = reply.result
            self.learn_grants(grants)
            granted = {grant.fhandle for grant in grants}
        for fhandle, _mode in wants:
            if fhandle not in granted and self._dirty.get(fhandle):
                # The new primary would not re-grant: stop deferring and
                # get the dirty data onto the wire now.
                yield from self._flush_fhandle(fhandle)

    # -- explicit renewal ---------------------------------------------------------
