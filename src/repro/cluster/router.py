"""Client-side mount router: every NFS call resolves to its shard locally.

The router is the cluster's "mount map".  Namespace operations (LOOKUP,
CREATE, REMOVE, SYMLINK, RENAME) carry a file *name*, which the
:class:`~repro.cluster.shardmap.ShardMap` places directly.  Data
operations (READ, WRITE, COMMIT, GETATTR, ...) carry only an opaque file
handle — so the moment a namespace reply hands the client a handle, the
router *pins* it to the shard that produced it.  Every subsequent call on
that handle routes from the pin table: zero extra RPCs, ever.

:class:`ClusterRpc` is the piece the :class:`~repro.nfs.client.NfsClient`
actually talks to.  It quacks like an :class:`~repro.rpc.client.RpcClient`
(same ``call`` signature, same ``endpoint`` attribute) but consults the
router per call, picks the right rack's transport, and feeds namespace
replies back into the pin table.  Every client a testbed or a cluster
attaches talks through one, so a client of the one-server testbed and a
client of a 16-shard fleet run the identical write path.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.fs.vfs import FileHandle
from repro.nfs.protocol import (
    PROC_CREATE,
    PROC_LOOKUP,
    PROC_REMOVE,
    PROC_RENAME,
    PROC_SYMLINK,
)
from repro.rpc.client import RpcClient, RpcTimeoutError
from repro.rpc.messages import CLASS_MEDIUM

__all__ = ["MountRouter", "ClusterRpc"]

#: Procs routed by the file name in their args.
_NAME_PROCS = frozenset((PROC_LOOKUP, PROC_CREATE, PROC_REMOVE, PROC_SYMLINK))
#: Namespace procs whose reply carries the new/found file handle.
_PINNING_PROCS = frozenset((PROC_LOOKUP, PROC_CREATE, PROC_SYMLINK))


class _RouteState:
    """Mutable (logical, destination) pair shared with the route hook."""

    __slots__ = ("logical", "destination")

    def __init__(self, logical: str, destination: str) -> None:
        self.logical = logical
        self.destination = destination


class _RackMove(Exception):
    """A per-attempt re-resolution crossed racks; restart the transport."""

    def __init__(self, logical: str, destination: str) -> None:
        super().__init__(f"route moved to {destination} on another rack")
        self.logical = logical
        self.destination = destination


class MountRouter:
    """Resolves (proc, args) to a server host from the shard map + pins."""

    def __init__(self, shard_map, root_fhandle: FileHandle = (2, 0)) -> None:
        self.map = shard_map
        #: The well-known root handle, identical on every shard; root-level
        #: operations (MOUNT, STATFS, READDIR of the export root) go to the
        #: map's home shard instead of a pin.
        self.root_fhandle = root_fhandle
        #: File handle -> shard host, bound at namespace-reply time.
        self._fhandle_pins: Dict[FileHandle, str] = {}
        #: Name -> shard host overrides: RENAME creates these (the
        #: destination name stays on the source's shard), and so does a
        #: placement policy (the chosen shard differs from the map's hash
        #: choice, so later LOOKUPs must follow the decision).
        self._name_pins: Dict[str, str] = {}
        #: Logical shard name -> acting physical host (repro.replica).
        #: Promotion repoints a whole replica group with one entry: the
        #: ring arcs and every pinned handle keep the *logical* name, and
        #: only the transport destination changes.
        self._aliases: Dict[str, str] = {}
        #: Create-time placement policy (repro.tiering); None = pure map.
        self.placement = None

    def set_placement(self, policy) -> None:
        """Install a create-time placement policy (``place(name) -> host``).

        The decision is *sticky*: the moment a CREATE/SYMLINK routes
        through the policy, the name is pinned to the chosen shard — so a
        retransmitted or re-routed create can never land on a second shard
        just because free space or load shifted between attempts.
        """
        self.placement = policy

    # -- resolution --------------------------------------------------------------

    @property
    def home(self) -> str:
        """The shard that answers root-level (nameless) operations."""
        return self.map.server_for("/")

    def server_for_name(self, name: str) -> str:
        """Placement of a file name (pin overrides, then the map)."""
        return self._name_pins.get(name) or self.map.server_for(name)

    def server_for_fhandle(self, fhandle: FileHandle) -> str:
        """The shard a pinned handle lives on (home for the root handle)."""
        if fhandle == self.root_fhandle:
            return self.home
        try:
            return self._fhandle_pins[fhandle]
        except KeyError:
            raise KeyError(
                f"file handle {fhandle} is not pinned to any shard — "
                "it did not come from a routed LOOKUP/CREATE/SYMLINK"
            ) from None

    def route(self, proc: str, args) -> str:
        """The destination host for one call."""
        if proc in _NAME_PROCS:
            if (
                self.placement is not None
                and proc in (PROC_CREATE, PROC_SYMLINK)
                and args.name not in self._name_pins
            ):
                chosen = self.placement.place(args.name)
                self._name_pins[args.name] = chosen
                return chosen
            return self.server_for_name(args.name)
        if proc == PROC_RENAME:
            return self.server_for_name(args.src_name)
        fhandle = args if isinstance(args, tuple) else getattr(args, "fhandle", None)
        if fhandle is not None:
            return self.server_for_fhandle(fhandle)
        # MOUNT/UMOUNT carry a path string; anything else nameless is a
        # root-level operation.
        return self.home

    # -- learning from replies ----------------------------------------------------

    def observe(self, proc: str, args, server: str, result) -> None:
        """Fold one successful reply into the pin tables."""
        if proc in _PINNING_PROCS:
            fhandle, _fattr = result
            self._fhandle_pins[fhandle] = server
        elif proc == PROC_RENAME:
            # The file stayed on the source shard; future opens of the
            # destination name must route there, wherever the map would
            # have put that name.
            self._name_pins[args.dst_name] = server
            self._name_pins.pop(args.src_name, None)
        elif proc == PROC_REMOVE:
            self._name_pins.pop(args.name, None)

    def pins(self) -> Dict[FileHandle, str]:
        """A copy of the handle pin table (diagnostics/tests)."""
        return dict(self._fhandle_pins)

    # -- promotion aliases ---------------------------------------------------------

    def repoint(self, logical: str, physical: str) -> None:
        """Route every reference to ``logical`` at ``physical``.

        Called at promotion: the dead primary's name stays in the shard
        map and the pin tables, but every call resolved to it now lands on
        the promoted backup.
        """
        if physical == logical:
            self._aliases.pop(logical, None)
        else:
            self._aliases[logical] = physical

    def resolve(self, host: str) -> str:
        """The physical host currently acting for ``host``."""
        return self._aliases.get(host, host)

    # -- live-migration cutover ----------------------------------------------------

    def migrate_pin(self, fhandle: FileHandle, name: str, logical: str) -> None:
        """Atomically repoint one file at a new shard (repro.tiering).

        The cutover instant of a live migration: every client-held handle
        for the file, and the name itself, now resolve to ``logical``.
        One shared router per cluster means this is a single RPC-free
        state change — no client round-trips, the BuffetFS property the
        migration protocol is built around.
        """
        self._fhandle_pins[fhandle] = logical
        self._name_pins[name] = logical


class ClusterRpc:
    """An RpcClient-shaped facade that routes each call to its shard.

    One underlying :class:`RpcClient` per rack segment (each owns one
    endpoint + receiver); the router picks the shard, the shard's rack
    picks the transport.  Single-rack clusters degenerate to one
    transport with a per-call destination override.
    """

    def __init__(
        self,
        rpcs: List[RpcClient],
        router: MountRouter,
        rack_of_server: Dict[str, int],
        failover_attempts: Optional[int] = None,
    ) -> None:
        if failover_attempts is not None and failover_attempts < 1:
            raise ValueError(
                f"failover_attempts must be >= 1, got {failover_attempts}"
            )
        self._rpcs = list(rpcs)
        #: The primary rack's endpoint (metric naming, host identity) and
        #: policy (every rack's, when the client was given one).  Rack
        #: transports share one host name, hence one registry counter, so
        #: its counters count every rack's calls.
        primary = self._rpcs[0]
        self.endpoint = primary.endpoint
        self.policy = primary.policy
        self.retransmissions = primary.retransmissions
        self.timeouts = primary.timeouts
        self.completed = primary.completed
        self.router = router
        #: The fleet's live host -> rack map, not a copy: a shard the
        #: fleet grows later, on any rack, is routed through its rack.
        self._rack_of_server = rack_of_server
        #: Per-shard retry budget (repro.overload): transmissions against
        #: one shard before the router re-resolves the route.  During a
        #: failover outage the budget turns an infinitely stranded call
        #: into either a redirect (the map moved the shard's arcs) or a
        #: terminal RpcTimeoutError.  None = hard-mount: retry forever.
        self.failover_attempts = failover_attempts
        #: Reroute hook (repro.lease): called as ``(logical, physical)``
        #: the moment a stranded call discovers an alias repoint, so the
        #: cache stack can void and re-register leases the new primary's
        #: (empty) table no longer remembers.
        self.on_reroute = None

    @property
    def congestion(self):
        """The congestion listener (an AIMD write window) — shared across
        every rack transport, since the window models the client's total
        outstanding write-behind, not one wire's."""
        return self._rpcs[0].congestion

    @congestion.setter
    def congestion(self, listener) -> None:
        for rpc in self._rpcs:
            rpc.congestion = listener

    def set_on_call(self, handler) -> None:
        """Install a server-initiated-call handler (lease recalls) on every
        rack transport — a callback may arrive on any rack's endpoint."""
        for rpc in self._rpcs:
            rpc.on_call = handler

    def call(
        self,
        proc: str,
        args,
        size: int,
        reply_size: int = 160,
        weight: str = CLASS_MEDIUM,
        server: Optional[str] = None,
    ) -> Generator:
        """Route, delegate, and learn pins from the reply.

        The route is re-resolved before **every** retransmission (the
        transport's per-attempt ``route`` hook): a promotion repoint or a
        live-migration cutover that lands mid-retry redirects the very
        next retransmission instead of burning the rest of the failover
        budget against the old shard.  A re-resolution that crosses racks
        restarts the call on the right transport.  A call that exhausts
        its whole budget without the route changing surfaces the timeout
        (soft-mount semantics).
        """
        logical = server or self.router.route(proc, args)
        destination = self.router.resolve(logical)
        while True:
            rack = self._rack_of_server.get(destination, 0)
            rpc = self._rpcs[rack]
            state = _RouteState(logical, destination)

            def reroute(state=state, rack=rack):
                relogical = server or self.router.route(proc, args)
                rerouted = self.router.resolve(relogical)
                if rerouted != state.destination:
                    if self._rack_of_server.get(rerouted, 0) != rack:
                        # The new destination lives on another rack: this
                        # transport cannot reach it — unwind and restart
                        # the call on the right endpoint.
                        raise _RackMove(relogical, rerouted)
                    if self.on_reroute is not None:
                        self.on_reroute(relogical, rerouted)
                    state.logical = relogical
                    state.destination = rerouted
                return state.destination

            try:
                reply = yield from rpc.call(
                    proc,
                    args,
                    size,
                    reply_size=reply_size,
                    weight=weight,
                    server=destination,
                    max_attempts=self.failover_attempts,
                    route=reroute,
                )
                logical = state.logical
            except _RackMove as move:
                if self.on_reroute is not None:
                    self.on_reroute(move.logical, move.destination)
                logical, destination = move.logical, move.destination
                continue
            except RpcTimeoutError:
                # Terminal only if the route is *still* unchanged: the
                # per-attempt hook already chased same-rack moves, but a
                # repoint can land in the gap after the final timeout.
                relogical = server or self.router.route(proc, args)
                rerouted = self.router.resolve(relogical)
                if rerouted != state.destination:
                    if self.on_reroute is not None:
                        self.on_reroute(relogical, rerouted)
                    logical, destination = relogical, rerouted
                    continue
                raise
            break
        if reply.ok:
            # Pins record the *logical* shard so they survive promotion.
            self.router.observe(proc, args, logical, reply.result)
        return reply
