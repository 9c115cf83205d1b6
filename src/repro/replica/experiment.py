"""The replication experiment: what does K-safety cost, and does it hold?

``repro replica`` runs the same seeded sharded write workload once per
replication factor (arms K=0, 1, 2 by default) under a crash-and-promote
storm: every storm event kills a shard's *acting primary* mid-workload
and (for K>0) promotes its freshest backup.  Each arm reports

* client-observed write latency (p50/p99) and aggregate throughput —
  the replicated-commit round trip is pure added commit latency, so the
  K=0 arm is the paper's baseline and the deltas are the cost of safety;
* acked-write survival: the group-level oracle contract (no acked write
  missing from the surviving replica set) checked at every crash and at
  the end, plus the post-quiesce divergence check (surviving replica
  images byte-identical);
* promotion bookkeeping (crashes, promotions, who is acting primary).

Everything is seeded; ``--json`` output is byte-identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence

from repro.cluster.experiment import check_workload, start_writers
from repro.cluster.failover import FailoverController, ShardCrash
from repro.cluster.fleet import Cluster, ClusterConfig
from repro.cluster.oracle import ClusterOracle
from repro.experiments.runner import run_arms
from repro.metrics.collect import write_latency_ms
from repro.metrics.report import ExperimentReport
from repro.sim import AllOf

__all__ = ["ReplicaRunResult", "replica_storm", "run_replica", "run_replica_arm"]

REPLICA_SCHEMA = "repro.replica/1"

#: First storm crash lands after the workload has acked some writes...
STORM_START = 0.04
#: ...and subsequent crashes are spaced widely enough that promotion and
#: client rerouting settle between events.
STORM_SPACING = 0.05


def replica_storm(
    servers: int, crashes: int, promote: bool
) -> List[ShardCrash]:
    """The seeded crash plan: ``crashes`` primary kills, round-robin over
    shards.  With ``promote`` each kill fails over to the freshest backup;
    without (the K=0 baseline) the shard crash-reboots in place, the
    paper's fast-restart assumption."""
    return [
        ShardCrash(
            at=STORM_START + index * STORM_SPACING,
            shard=index % servers,
            promote=promote,
        )
        for index in range(crashes)
    ]


@dataclass
class ReplicaArm:
    """One replication factor's measured run."""

    replicas: int
    quorum: int
    elapsed: float
    total_bytes: int
    aggregate_kb_per_sec: float
    write_latency_ms: dict
    acked_writes: int
    crashes: int
    promotions: int
    replication: dict
    acting_primaries: dict
    oracle_checks: int
    stable_violations: int
    faults: List[dict] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and self.stable_violations == 0

    def progress_line(self) -> str:
        return (
            f"K={self.replicas} quorum={self.quorum}: "
            f"{self.aggregate_kb_per_sec:>8.0f} KB/s  "
            f"p50 {self.write_latency_ms['p50']:>7.2f} ms  "
            f"p99 {self.write_latency_ms['p99']:>7.2f} ms  "
            f"{self.crashes} crashes, {self.promotions} promotions, "
            f"{'clean' if self.clean else 'VIOLATIONS'}"
        )

    def to_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "quorum": self.quorum,
            "elapsed": round(self.elapsed, 9),
            "total_bytes": self.total_bytes,
            "aggregate_kb_per_sec": round(self.aggregate_kb_per_sec, 2),
            "write_latency_ms": self.write_latency_ms,
            "acked_writes": self.acked_writes,
            "crashes": self.crashes,
            "promotions": self.promotions,
            "replication": self.replication,
            "acting_primaries": self.acting_primaries,
            "oracle_checks": self.oracle_checks,
            "stable_violations": self.stable_violations,
            "clean": self.clean,
            "faults": self.faults,
            "violations": list(self.violations),
        }


def run_replica_arm(
    config: ClusterConfig,
    clients: int = 6,
    files_per_client: int = 2,
    file_kb: int = 64,
    crashes: Optional[Sequence[ShardCrash]] = None,
) -> ReplicaArm:
    """One arm: the sharded write workload at one replication factor."""
    check_workload(clients, files_per_client, file_kb)
    cluster = Cluster(config)
    oracle = ClusterOracle(cluster)
    env = cluster.env
    latency = write_latency_ms(env, clients)
    nbytes = file_kb * 1024
    writers = start_writers(cluster, oracle, clients, files_per_client, nbytes)
    controller = None
    if crashes:
        controller = FailoverController(cluster, crashes, oracle=oracle).start()
    env.run(until=AllOf(env, writers))
    elapsed = max(proc.value for proc in writers)
    env.run()  # drain replication sessions, NVRAM destage, watchdogs
    oracle.check("final")
    oracle.check_divergence("quiesce")
    total_bytes = clients * files_per_client * nbytes
    replication = {"batches": 0, "ops": 0, "acks": 0, "resyncs": 0}
    waits: List[float] = []
    for group in cluster.groups:
        for member in group.members:
            replicator = member.replicator
            if replicator is None:
                continue
            replication["batches"] += int(replicator.batches.value)
            replication["ops"] += int(replicator.ops.value)
            replication["acks"] += int(replicator.acks.value)
            replication["resyncs"] += int(replicator.resyncs.value)
            if replicator.wait.count:
                waits.append(replicator.wait.mean)
    replication["mean_commit_wait_ms"] = (
        round(sum(waits) / len(waits) * 1000.0, 4) if waits else 0.0
    )
    return ReplicaArm(
        replicas=config.replicas,
        quorum=min(config.quorum, config.replicas) if config.replicas else 0,
        elapsed=elapsed,
        total_bytes=total_bytes,
        aggregate_kb_per_sec=total_bytes / elapsed / 1024.0,
        write_latency_ms=latency(),
        acked_writes=oracle.acked_writes,
        crashes=controller.crashes if controller else 0,
        promotions=controller.promotions if controller else 0,
        replication=replication,
        acting_primaries={
            group.logical_host: group.primary.host for group in cluster.groups
        },
        oracle_checks=oracle.checks,
        stable_violations=cluster.stable_violations_total(),
        faults=controller.log if controller else [],
        violations=oracle.violations,
    )


@dataclass
class ReplicaRunResult(ExperimentReport):
    """The K-sweep: replication cost vs acked-write survival."""

    servers: int
    clients: int
    files_per_client: int
    file_kb: int
    seed: int
    write_path: str
    quorum: int
    storm_crashes: int
    arms: List[ReplicaArm]

    @property
    def clean(self) -> bool:
        return all(arm.clean for arm in self.arms)

    def comparison(self) -> List[dict]:
        """Each K>0 arm's latency/throughput cost relative to K=0."""
        baseline = next((arm for arm in self.arms if arm.replicas == 0), None)
        if baseline is None:
            return []
        out = []
        base_p99 = baseline.write_latency_ms["p99"]
        base_throughput = baseline.aggregate_kb_per_sec
        for arm in self.arms:
            if arm.replicas == 0:
                continue
            out.append(
                {
                    "replicas": arm.replicas,
                    "p99_write_latency_vs_k0": (
                        round(arm.write_latency_ms["p99"] / base_p99, 4)
                        if base_p99
                        else None
                    ),
                    "throughput_vs_k0": (
                        round(arm.aggregate_kb_per_sec / base_throughput, 4)
                        if base_throughput
                        else None
                    ),
                }
            )
        return out

    def to_dict(self) -> dict:
        return {
            "schema": REPLICA_SCHEMA,
            "servers": self.servers,
            "clients": self.clients,
            "files_per_client": self.files_per_client,
            "file_kb": self.file_kb,
            "seed": self.seed,
            "write_path": self.write_path,
            "quorum": self.quorum,
            "storm_crashes": self.storm_crashes,
            "arms": [arm.to_dict() for arm in self.arms],
            "comparison": self.comparison(),
            "clean": self.clean,
        }


def run_replica(
    config: Optional[ClusterConfig] = None,
    replica_counts: Sequence[int] = (0, 1, 2),
    clients: int = 6,
    files_per_client: int = 2,
    file_kb: int = 64,
    storm_crashes: int = 3,
    progress=None,
) -> ReplicaRunResult:
    """Sweep the replication factor under the crash-and-promote storm.

    Each arm is a fresh, independently seeded cluster; the storm is the
    same shape in every arm (identical times and shard order), differing
    only in whether a backup exists to promote.
    """
    config = config or ClusterConfig()
    run_arm = partial(
        _run_arm,
        config,
        storm_crashes,
        clients=clients,
        files_per_client=files_per_client,
        file_kb=file_kb,
    )
    return ReplicaRunResult(
        servers=config.servers,
        clients=clients,
        files_per_client=files_per_client,
        file_kb=file_kb,
        seed=config.seed,
        write_path=str(config.write_path),
        quorum=config.quorum,
        storm_crashes=storm_crashes,
        arms=run_arms(replica_counts, run_arm, progress),
    )


def _run_arm(config: ClusterConfig, storm_crashes: int, replicas: int, **workload) -> tuple:
    """One replica-sweep arm: the storm against ``replicas`` backups."""
    arm = run_replica_arm(
        config.variant(replicas=replicas),
        crashes=replica_storm(config.servers, storm_crashes, promote=replicas > 0),
        **workload,
    )
    return arm, arm.progress_line()
