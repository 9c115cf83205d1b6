"""Cluster-wide experiments: the sharded write workload and scaling sweeps.

The ``cluster`` experiment (:func:`run_cluster`, reached through
``run("cluster", ...)``) is the fleet analogue of the
paper's file copy: every client writes its own set of files, the shard
map spreads those files across the fleet, and the result records
aggregate throughput next to *per-shard* gathering efficacy — the tension
this subsystem exists to measure.  Sharding multiplies spindles and nfsd
pools, but it also thins each server's request stream, and write
gathering (§5-§6) feeds on a busy server: fewer same-file companions in
the socket buffer means more singleton batches.  The scaling sweep
(:func:`run_scaling_sweep`, what ``repro cluster`` runs when given more
than one ``--servers`` or ``--clients`` value) quantifies exactly that
trade as servers × clients grow.

Everything is seeded: the same :class:`ClusterConfig` produces the same
placement, the same sim timeline, and byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Generator, List, Optional, Sequence

from repro.cluster.failover import FailoverController, ShardCrash
from repro.cluster.fleet import Cluster, ClusterConfig
from repro.cluster.oracle import ClusterOracle
from repro.experiments.runner import run_arms
from repro.metrics.report import ExperimentReport
from repro.nfs.client import NfsClient
from repro.sim import AllOf, Environment, Process
from repro.workload.sequential import write_file

__all__ = [
    "ClusterRunResult",
    "ScalingSweepResult",
    "check_workload",
    "run_cluster",
    "run_scaling_sweep",
    "start_writers",
]


@dataclass
class ClusterRunResult(ExperimentReport):
    """Everything one cluster run measured, JSON-stable under a seed."""

    servers: int
    clients: int
    vnodes: int
    racks: int
    write_path: str
    presto: bool
    seed: int
    file_kb: int
    files_per_client: int
    elapsed: float
    total_bytes: int
    aggregate_kb_per_sec: float
    per_shard: List[dict]
    aggregate: dict
    placement: dict
    acked_writes: int
    retransmissions: int
    crashes: int
    oracle_checks: int
    stable_violations: int
    faults: List[dict] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and self.stable_violations == 0

    def mean_gather_ratio(self) -> Optional[float]:
        """Write-weighted mean of the per-shard gather ratios."""
        total = sum(s.get("gather_writes", 0) for s in self.per_shard)
        if not total:
            return None
        gathered = sum(
            s.get("gather_ratio", 0.0) * s.get("gather_writes", 0)
            for s in self.per_shard
        )
        return gathered / total

    def progress_line(self) -> str:
        return (
            f"ran {self.servers} servers x {self.clients} clients: "
            f"{self.aggregate_kb_per_sec:.0f} KB/s"
        )

    def to_dict(self) -> dict:
        payload = {
            "servers": self.servers,
            "clients": self.clients,
            "vnodes": self.vnodes,
            "racks": self.racks,
            "write_path": self.write_path,
            "presto": self.presto,
            "seed": self.seed,
            "file_kb": self.file_kb,
            "files_per_client": self.files_per_client,
            "elapsed": round(self.elapsed, 9),
            "total_bytes": self.total_bytes,
            "aggregate_kb_per_sec": round(self.aggregate_kb_per_sec, 2),
            "per_shard": self.per_shard,
            "aggregate": self.aggregate,
            "placement": self.placement,
            "acked_writes": self.acked_writes,
            "retransmissions": self.retransmissions,
            "crashes": self.crashes,
            "oracle_checks": self.oracle_checks,
            "stable_violations": self.stable_violations,
            "clean": self.clean,
            "faults": self.faults,
            "violations": list(self.violations),
        }
        ratio = self.mean_gather_ratio()
        if ratio is not None:
            payload["mean_gather_ratio"] = round(ratio, 4)
        return payload


def _client_files(host: str, files_per_client: int) -> List[str]:
    """The deterministic file names one client writes."""
    return [f"{host}-f{index}" for index in range(files_per_client)]


#: Producer think time for cluster workloads.  Deliberately a touch
#: *slower* than FDDI's 5 ms procrastination interval: a saturating fast
#: producer gathers 100% everywhere (the biod train always fills a batch),
#: hiding the sharding effect.  At 6 ms the gatherer only wins when
#: server-side queueing holds same-file writes together — which is exactly
#: the per-server concurrency that sharding dilutes.
CLUSTER_THINK_TIME = 0.006


def _client_workload(
    env: Environment, client: NfsClient, names: Sequence[str], nbytes: int
) -> Generator:
    for name in names:
        yield from write_file(env, client, name, nbytes, think_time=CLUSTER_THINK_TIME)
    return env.now


def start_writers(
    cluster: Cluster,
    oracle: ClusterOracle,
    clients: int,
    files_per_client: int,
    nbytes: int,
) -> List[Process]:
    """Add ``clients`` clients to ``cluster``, attach each to ``oracle``,
    and start each one writing its own files; returns the writer
    processes, each resolving to the time its client finished."""
    env = cluster.env
    writers = []
    for _ in range(clients):
        client = cluster.add_client()
        oracle.attach(client)
        host = client.rpc.endpoint.host
        writers.append(
            env.process(
                _client_workload(env, client, _client_files(host, files_per_client), nbytes),
                name=f"workload:{host}",
            )
        )
    return writers


def check_workload(clients: int, files_per_client: int, file_kb: int) -> None:
    """Reject an empty workload before any fleet is built."""
    if clients < 1:
        raise ValueError(f"need at least one client, got {clients}")
    if files_per_client < 1:
        raise ValueError(f"need at least one file per client, got {files_per_client}")
    if file_kb < 1:
        raise ValueError(f"file_kb must be >= 1, got {file_kb}")


def run_cluster(
    config: Optional[ClusterConfig] = None,
    clients: int = 4,
    files_per_client: int = 2,
    file_kb: int = 64,
    crashes: Optional[Sequence[ShardCrash]] = None,
) -> ClusterRunResult:
    """Run the sharded write workload (optionally under shard crashes)."""
    check_workload(clients, files_per_client, file_kb)
    config = config or ClusterConfig()
    cluster = Cluster(config)
    oracle = ClusterOracle(cluster)
    env = cluster.env
    nbytes = file_kb * 1024
    writers = start_writers(cluster, oracle, clients, files_per_client, nbytes)
    controller = None
    if crashes:
        controller = FailoverController(cluster, crashes, oracle=oracle).start()
    env.run(until=AllOf(env, writers))
    elapsed = max(proc.value for proc in writers)
    env.run()  # drain in-flight completions, NVRAM destage, watchdogs
    oracle.check("final")
    total_bytes = clients * files_per_client * nbytes
    placement = {
        host: 0 for host in (server.host for server in cluster.servers)
    }
    for client in cluster.clients:
        for name in _client_files(client.rpc.endpoint.host, files_per_client):
            placement[cluster.router.server_for_name(name)] += 1
    return ClusterRunResult(
        servers=len(cluster.servers),
        clients=clients,
        vnodes=config.vnodes,
        racks=config.racks,
        write_path=str(config.write_path),
        presto=bool(config.presto_bytes),
        seed=config.seed,
        file_kb=file_kb,
        files_per_client=files_per_client,
        elapsed=elapsed,
        total_bytes=total_bytes,
        aggregate_kb_per_sec=total_bytes / elapsed / 1024.0,
        per_shard=cluster.per_shard_rollup(),
        aggregate=cluster.aggregate_rollup(),
        placement=placement,
        acked_writes=oracle.acked_writes,
        retransmissions=int(
            sum(client.rpc.retransmissions.value for client in cluster.clients)
        ),
        crashes=controller.crashes if controller else 0,
        oracle_checks=oracle.checks,
        stable_violations=cluster.stable_violations_total(),
        faults=controller.log if controller else [],
        violations=oracle.violations,
    )


@dataclass
class ScalingSweepResult(ExperimentReport):
    """The servers × clients grid and its scaling-efficiency table."""

    server_counts: List[int]
    client_counts: List[int]
    rows: List[ClusterRunResult]

    def table(self) -> List[dict]:
        """One summary row per (servers, clients) cell.

        ``scaling_efficiency`` is throughput relative to perfect linear
        scaling from the 1-server cell at the same client count (absent
        when the sweep does not include 1 server).
        """
        base: dict = {}
        for row in self.rows:
            if row.servers == 1:
                base[row.clients] = row.aggregate_kb_per_sec
        out = []
        for row in self.rows:
            summary = {
                "servers": row.servers,
                "clients": row.clients,
                "aggregate_kb_per_sec": round(row.aggregate_kb_per_sec, 2),
                "mean_gather_ratio": (
                    round(row.mean_gather_ratio(), 4)
                    if row.mean_gather_ratio() is not None
                    else None
                ),
                "clean": row.clean,
            }
            reference = base.get(row.clients)
            if reference:
                summary["scaling_efficiency"] = round(
                    row.aggregate_kb_per_sec / (row.servers * reference), 4
                )
            out.append(summary)
        return out

    def to_dict(self) -> dict:
        return {
            "server_counts": list(self.server_counts),
            "client_counts": list(self.client_counts),
            "table": self.table(),
            "rows": [row.to_dict() for row in self.rows],
        }

    @property
    def clean(self) -> bool:
        return all(row.clean for row in self.rows)


def run_scaling_sweep(
    base: ClusterConfig,
    server_counts: Sequence[int],
    client_counts: Sequence[int],
    files_per_client: int = 2,
    file_kb: int = 64,
    progress=None,
) -> ScalingSweepResult:
    """Sweep the fleet size against the client population.

    Each ``(servers, clients)`` cell is one arm: a fresh, independently
    seeded cluster run.
    """
    run_cell = partial(_run_cell, base, files_per_client=files_per_client, file_kb=file_kb)
    cells = [(servers, clients) for servers in server_counts for clients in client_counts]
    return ScalingSweepResult(
        server_counts=list(server_counts),
        client_counts=list(client_counts),
        rows=run_arms(cells, run_cell, progress),
    )


def _run_cell(base: ClusterConfig, cell, **workload) -> tuple:
    """One scaling-sweep arm: a ``(servers, clients)`` cluster run."""
    servers, clients = cell
    result = run_cluster(base.variant(servers=servers), clients=clients, **workload)
    return result, result.progress_line()
