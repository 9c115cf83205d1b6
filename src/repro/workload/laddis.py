"""A SPEC SFS 1.0 / LADDIS-style mixed-operation load generator (§7.2).

Reproduces the *method* of [WITT93]/[SPEC93]: several client hosts, each
running several load-generating processes, offer a target aggregate NFS
operation rate drawn from the SFS operation mix (writes are 15% of
operations but dominate server cost).  For each offered load the generator
reports achieved throughput (ops/s) and average response time (ms) — one
point of the Figure 2/3 curves.  Server capacity is the highest achieved
throughput whose average latency stays within the SFS 50 ms bound.

Load processes are *paced*: each keeps an absolute schedule of operation
start times drawn from an exponential interarrival distribution.  A
saturated server makes processes fall behind schedule, so achieved ops/s
flattens while latency climbs — the classic LADDIS curve shape.

Writes carry flyweight :class:`~repro.payload.Extent` payloads: nothing in
a LADDIS run reads written bytes back, and every layer times its work from
the payload's length alone (``docs/payload-fidelity.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Generator, List

from repro.net.segment import Segment
from repro.nfs.client import NfsClient, OpenFile
from repro.nfs.protocol import (
    PROC_CREATE,
    PROC_GETATTR,
    PROC_LOOKUP,
    PROC_READ,
    PROC_READDIR,
    PROC_READLINK,
    PROC_REMOVE,
    PROC_SETATTR,
    PROC_STATFS,
    PROC_WRITE,
    NfsError,
)
from repro.payload import Extent
from repro.rpc.client import RpcClient
from repro.sim import Environment, Tally

__all__ = ["SFS_MIX", "LaddisResult", "LaddisGenerator"]

#: SPEC SFS 1.0 operation mix.
SFS_MIX = [
    (PROC_LOOKUP, 0.34),
    (PROC_READ, 0.22),
    (PROC_WRITE, 0.15),
    (PROC_GETATTR, 0.13),
    (PROC_READLINK, 0.08),
    (PROC_READDIR, 0.03),
    (PROC_CREATE, 0.02),
    (PROC_REMOVE, 0.01),
    (PROC_SETATTR, 0.01),
    (PROC_STATFS, 0.01),
]

#: SFS 1.0 reporting requires average response time under 50 ms.
SFS_LATENCY_BOUND_MS = 50.0

#: LADDIS write-op transfer sizes (blocks of 8K) and weights: SFS writes
#: move whole files drawn from a size distribution skewed small but with a
#: long tail — it is these multi-block transfers, pushed through the
#: client's biods, that give the server its gathering opportunities.
WRITE_SIZE_BLOCKS = [1, 2, 4, 8, 16]
WRITE_SIZE_WEIGHTS = [0.40, 0.28, 0.18, 0.10, 0.04]


@dataclass
class LaddisResult:
    """One point on a Figure 2/3 curve."""

    offered_ops: float
    achieved_ops: float
    avg_latency_ms: float
    per_op_latency_ms: Dict[str, float] = field(default_factory=dict)
    op_counts: Dict[str, int] = field(default_factory=dict)


class LaddisGenerator:
    """Drives one server with the SFS mix from several client hosts."""

    def __init__(
        self,
        env: Environment,
        segment: Segment,
        server_host: str = "server",
        clients: int = 5,
        procs_per_client: int = 4,
        nbiods: int = 4,
        file_count: int = 48,
        file_blocks: int = 8,
        record_size: int = 8192,
        seed: int = 12345,
        mix=None,
    ) -> None:
        if clients < 1 or procs_per_client < 1:
            raise ValueError("need at least one client and one process")
        self.mix = list(mix) if mix is not None else list(SFS_MIX)
        total = sum(weight for _op, weight in self.mix)
        if not 0.99 <= total <= 1.01:
            raise ValueError(f"operation mix must sum to 1, got {total}")
        self.env = env
        self.segment = segment
        self.server_host = server_host
        self.procs_per_client = procs_per_client
        self.file_count = file_count
        self.file_blocks = file_blocks
        self.record_size = record_size
        self.rng = random.Random(seed)
        self.clients: List[NfsClient] = []
        for index in range(clients):
            endpoint = segment.attach(f"laddis-client-{index}")
            rpc = RpcClient(env, endpoint, server_host)
            self.clients.append(NfsClient(env, rpc, nbiods=nbiods))
        self._files: List[str] = []
        self._handles: Dict[str, OpenFile] = {}
        self._symlinks: List[tuple] = []
        self._temp_counter = 0

    # -- working set ------------------------------------------------------------

    def setup(self) -> Generator:
        """Create and fill the working-set files (run before measuring)."""
        client = self.clients[0]
        for index in range(self.file_count):
            name = f"laddis.{index:04d}"
            open_file = yield from client.create(name)
            payload = Extent(self.record_size, seed=index % 256)
            for _block in range(self.file_blocks):
                yield from client.write_stream(open_file, payload)
            yield from client.close(open_file)
            self._files.append(name)
            self._handles[name] = open_file
        # Symlinks for the READLINK share of the mix (SFS: 8%).
        for index in range(max(4, self.file_count // 8)):
            target = self._files[index % len(self._files)]
            fhandle, _fattr = yield from client.symlink(f"link.{index:03d}", target)
            self._symlinks.append(fhandle)

    # -- one measurement point ----------------------------------------------------

    def run_point(
        self, offered_ops: float, duration: float = 10.0, warmup: float = 2.0
    ) -> Generator:
        """Offer ``offered_ops`` aggregate ops/s for ``duration`` seconds
        (after ``warmup``); returns a :class:`LaddisResult`."""
        if offered_ops <= 0:
            raise ValueError("offered load must be positive")
        if not self._files:
            raise RuntimeError("call setup() before run_point()")
        nprocs = len(self.clients) * self.procs_per_client
        per_proc_rate = offered_ops / nprocs
        latency = Tally("laddis.latency")
        per_op: Dict[str, Tally] = {}
        counts: Dict[str, int] = {}
        measure_start = self.env.now + warmup
        measure_end = measure_start + duration
        stop = self.env.event()
        finished: List = []

        max_outstanding = 8  # per load process

        def one_op(client: NfsClient, op: str, rng: random.Random, state: dict):
            started = self.env.now
            try:
                yield from self._execute(client, op, rng)
            except NfsError:
                pass  # errors still consume server work; keep offering
            finally:
                state["outstanding"] -= 1
            if measure_start <= started < measure_end:
                elapsed_ms = (self.env.now - started) * 1000.0
                latency.observe(elapsed_ms)
                per_op.setdefault(op, Tally(op)).observe(elapsed_ms)
                counts[op] = counts.get(op, 0) + 1

        def load_proc(client: NfsClient, proc_seed: int):
            # Open-loop pacing: ops start on schedule regardless of earlier
            # ops still in flight (up to a sanity cap), the way SFS load
            # generators hold a target offered rate.  A saturated server
            # pushes outstanding to the cap, flattening achieved ops/s.
            rng = random.Random(proc_seed)
            state = {"outstanding": 0}
            next_at = self.env.now + rng.expovariate(per_proc_rate)
            while True:
                if next_at > self.env.now:
                    yield self.env.timeout(next_at - self.env.now)
                if self.env.now >= measure_end:
                    break
                if state["outstanding"] < max_outstanding:
                    op = self._pick_op(rng)
                    state["outstanding"] += 1
                    self.env.process(one_op(client, op, rng, state))
                next_at += rng.expovariate(per_proc_rate)
            finished.append(True)
            if len(finished) == nprocs:
                stop.succeed()

        proc_index = 0
        for client in self.clients:
            for _p in range(self.procs_per_client):
                self.env.process(
                    load_proc(client, hash((proc_index, self.rng.random()))),
                    name=f"laddis-proc-{proc_index}",
                )
                proc_index += 1
        yield stop
        # Grace period: let in-flight ops that started inside the window
        # finish and record their latencies.
        yield self.env.timeout(0.5)
        achieved = latency.count / duration
        return LaddisResult(
            offered_ops=offered_ops,
            achieved_ops=achieved,
            avg_latency_ms=latency.mean,
            per_op_latency_ms={op: tally.mean for op, tally in per_op.items()},
            op_counts=counts,
        )

    # -- operation execution -----------------------------------------------------

    def _pick_op(self, rng: random.Random) -> str:
        roll = rng.random()
        accumulated = 0.0
        for op, fraction in self.mix:
            accumulated += fraction
            if roll < accumulated:
                return op
        return self.mix[-1][0]

    def _random_file(self, rng: random.Random) -> OpenFile:
        return self._handles[self._files[rng.randrange(len(self._files))]]

    def _execute(self, client: NfsClient, op: str, rng: random.Random) -> Generator:
        if op == PROC_LOOKUP:
            name = self._files[rng.randrange(len(self._files))]
            yield from client.lookup(name)
        elif op == PROC_GETATTR:
            yield from client.getattr(self._random_file(rng).fhandle)
        elif op == PROC_READ:
            handle = self._random_file(rng)
            offset = rng.randrange(self.file_blocks) * self.record_size
            yield from client.read(handle, offset, self.record_size)
        elif op == PROC_WRITE:
            # Half the write ops truncate and rewrite a whole file — every
            # 8K transfer then grows the file and dirties the inode, the
            # 3N-disk-op regime of §5 that gathering collapses toward N.
            # The rest overwrite allocated blocks in place (the cheap
            # mtime-only regime for both servers).
            handle = self._random_file(rng)
            nblocks = rng.choices(WRITE_SIZE_BLOCKS, WRITE_SIZE_WEIGHTS)[0]
            if rng.random() < 0.5:
                yield from client.setattr(handle.fhandle, size=0)
            payload = Extent(nblocks * self.record_size, seed=rng.randrange(256))
            yield from client.write_at(handle, 0, payload)
            # Whole, closed operations: wait out write-behind so the
            # measured latency covers the stable commit.
            yield from client.close(handle)
        elif op == PROC_READLINK:
            fhandle = self._symlinks[rng.randrange(len(self._symlinks))]
            yield from client.readlink(fhandle)
        elif op == PROC_READDIR:
            yield from client.readdir()
        elif op == PROC_CREATE:
            self._temp_counter += 1
            name = f"laddis.tmp.{self._temp_counter:06d}"
            open_file = yield from client.create(name)
            self._handles[name] = open_file
            self._files.append(name)
        elif op == PROC_REMOVE:
            victim = next(
                (name for name in reversed(self._files) if ".tmp." in name), None
            )
            if victim is None:
                yield from client.statfs()
                return
            self._files.remove(victim)
            self._handles.pop(victim, None)
            yield from client.remove(victim)
        elif op == PROC_SETATTR:
            handle = self._random_file(rng)
            yield from client.setattr(handle.fhandle, mtime=self.env.now)
        elif op == PROC_STATFS:
            yield from client.statfs()
        else:
            raise ValueError(f"unknown op {op!r}")
