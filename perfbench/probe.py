"""The light probe present in every benchmark run, traced or not.

It wraps, from outside the program:

* the ``Testbed`` and ``Cluster`` constructors, to time set-up and to
  collect every system a workload builds;
* the NFS client's RPC boundary, ``NfsClient._call`` and
  ``NfsClient._do_write``, to record each RPC's simulated latency and
  whether it raised :class:`~repro.nfs.protocol.NfsError`.  Workload
  generators may swallow these errors (the LADDIS generator does); the
  probe counts them before they are hidden;
* ``LaddisGenerator._execute``, to time each LADDIS operation as the SFS
  rules do (one operation may span several RPCs).

The probe schedules no simulation events, so every simulated number is
the same with or without it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List, NamedTuple

from perfbench.patch import Patcher


class OpRecord(NamedTuple):
    """One client NFS RPC as the client saw it (times in sim seconds)."""

    proc: str
    start: float
    latency: float
    nbytes: int
    ok: bool


class Probe:
    """Set-up timer, system collector and client-RPC recorder."""

    def __init__(self) -> None:
        #: Wall seconds spent in :meth:`phase` blocks, by kind, since the
        #: last :meth:`take_phases`: ``setup`` (constructors included) and
        #: ``check`` (correctness checks the benchmark adds).  Neither
        #: counts toward the measured phase.
        self.spent = {"setup": 0.0, "check": 0.0}
        #: Called with False when a phase block opens and True when it
        #: closes, so a tracer can pause around it.
        self.on_measure = None
        #: Clock for every measured interval; the harness swaps in one
        #: that leaves out host-speed sampling.
        self.clock = time.perf_counter
        self.systems: List[object] = []
        self.ops: List[OpRecord] = []
        #: LADDIS operations (one may span several RPCs), as the SFS rules
        #: time them.
        self.laddis_ops: List[OpRecord] = []
        self._depth = 0
        self._patcher = Patcher()

    # -- installation -------------------------------------------------------------

    def install(self) -> "Probe":
        from repro.cluster.fleet import Cluster
        from repro.experiments.testbed import Testbed
        from repro.nfs.client import NfsClient
        from repro.workload.laddis import LaddisGenerator

        for cls in (Testbed, Cluster):
            self._patcher.wrap(cls, "__init__", self._constructor)
        self._patcher.wrap(NfsClient, "_call", self._call)
        self._patcher.wrap(NfsClient, "_do_write", self._do_write)
        self._patcher.wrap(LaddisGenerator, "_execute", self._laddis_op)
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- phases outside the measurement -----------------------------------------

    @contextmanager
    def phase(self, kind: str) -> Iterator[None]:
        """Charge the enclosed block's wall time to ``kind``.  Only the
        outermost block counts, so a constructor inside a set-up block is
        not charged twice."""
        self._depth += 1
        outermost = self._depth == 1
        if outermost and self.on_measure is not None:
            self.on_measure(False)
        started = self.clock()
        try:
            yield
        finally:
            self._depth -= 1
            if outermost:
                self.spent[kind] += self.clock() - started
                if self.on_measure is not None:
                    self.on_measure(True)

    def take_phases(self) -> dict:
        spent, self.spent = self.spent, {"setup": 0.0, "check": 0.0}
        return spent

    def take_systems(self) -> List[object]:
        systems, self.systems = self.systems, []
        return systems

    def take_ops(self, laddis: bool = False) -> List[OpRecord]:
        held = self.laddis_ops if laddis else self.ops
        # The wrappers hold this list: empty it in place.
        ops = list(held)
        held.clear()
        return ops

    # -- wrappers -----------------------------------------------------------------

    def _constructor(self, original):
        probe = self

        def __init__(system, *args, **kwargs):
            with probe.phase("setup"):
                original(system, *args, **kwargs)
            probe.systems.append(system)

        return __init__

    def _call(self, original):
        from repro.nfs.protocol import NfsError

        ops = self.ops

        def _call(client, proc, args):
            env = client.env
            start = env.now
            try:
                result = yield from original(client, proc, args)
            except NfsError:
                ops.append(OpRecord(proc, start, env.now - start, 0, False))
                raise
            ops.append(OpRecord(proc, start, env.now - start, 0, True))
            return result

        return _call

    def _do_write(self, original):
        from repro.nfs.protocol import NfsError

        ops = self.ops

        def _do_write(client, open_file, offset, data, *args, **kwargs):
            env = client.env
            start = env.now
            try:
                result = yield from original(client, open_file, offset, data, *args, **kwargs)
            except NfsError:
                ops.append(OpRecord("write", start, env.now - start, len(data), False))
                raise
            ops.append(OpRecord("write", start, env.now - start, len(data), True))
            return result

        return _do_write

    def _laddis_op(self, original):
        from repro.nfs.protocol import NfsError

        ops = self.laddis_ops

        def _execute(generator, client, op, rng):
            env = generator.env
            start = env.now
            try:
                yield from original(generator, client, op, rng)
            except NfsError:
                ops.append(OpRecord(op, start, env.now - start, 0, False))
                raise
            ops.append(OpRecord(op, start, env.now - start, 0, True))

        return _execute
