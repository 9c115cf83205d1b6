"""The scrub experiment: does end-to-end integrity actually hold?

``repro scrub`` runs a seeded single-shard write workload while a media
fault storm lands on the primary — bit rot, latent sector errors, an
armed torn-write tear, and an armed NVRAM battery degrade, all cashed in
by a mid-run crash — with a background :class:`~repro.integrity.scrub.
Scrubber` walking the durable image.  The sweep crosses corruption rate
× scrub bandwidth × replication factor K and each arm reports

* detection: how many injected defects the scrub (or a read) caught,
  and the mean latency from injection to detection;
* repair: blocks healed from replica peers, mean time-to-repair, and
  the wire bytes the repairs cost;
* surfacing: quarantined blocks and EIO read-backs (the K=0 story —
  with nobody to fetch from, corruption must be *loud*, never silent);
* the integrity contract itself: zero acked READs returning bytes that
  differ from the acked write image, in **every** arm.

Everything is seeded; ``--json`` output is byte-identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence

from repro.cluster.experiment import _client_files, check_workload, start_writers
from repro.cluster.fleet import Cluster, ClusterConfig
from repro.cluster.oracle import ClusterOracle
from repro.experiments.runner import run_arms
from repro.faults.controller import FaultController
from repro.faults.events import (
    AtTime,
    BitRot,
    FaultPlan,
    LatentSectorError,
    NvramDegrade,
    ServerCrash,
    TornWrite,
)
from repro.integrity.scrub import Scrubber, install_scrub_fetch
from repro.metrics.report import ExperimentReport
from repro.nfs.protocol import NfsError
from repro.nvram.presto import PRESTO_BYTES
from repro.sim import AllOf

__all__ = ["ScrubConfig", "ScrubArm", "ScrubRunResult", "run_scrub"]

SCRUB_SCHEMA = "repro.scrub/1"

#: The storm timeline, placed mid-workload so the media faults land on
#: *acked* durable blocks (striking too early only corrupts in-flight
#: data that clients rewrite after the crash — nothing would be at
#: stake).  Rot and latent errors hit standing data first; the torn
#: write and NVRAM degrade arm just before the crash that cashes them.
BIT_ROT_AT = 0.30
LATENT_AT = 0.35
TORN_ARM_AT = 0.38
DEGRADE_ARM_AT = 0.385
CRASH_AT = 0.40

#: Idle gap between scrub passes (simulated seconds).
SCRUB_INTERVAL = 0.005


@dataclass
class ScrubConfig:
    """One integrity sweep: workload shape plus the three swept axes."""

    seed: int = 0
    clients: int = 3
    files_per_client: int = 2
    file_kb: int = 32
    #: Fraction of the workload's durable blocks afflicted per media
    #: fault (bit rot and latent each get ``rate * blocks`` victims).
    corruption_rates: Sequence[float] = (0.25,)
    #: Scrub read bandwidth in bytes/second.
    scrub_bandwidths: Sequence[float] = (2 << 20, 8 << 20)
    #: Replication factors to sweep.
    replica_counts: Sequence[int] = (0, 1)

    def __post_init__(self) -> None:
        check_workload(self.clients, self.files_per_client, self.file_kb)
        for rate in self.corruption_rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"corruption rate must be in [0, 1], got {rate}")
        for bandwidth in self.scrub_bandwidths:
            if bandwidth <= 0:
                raise ValueError(f"scrub bandwidth must be positive, got {bandwidth}")
        for replicas in self.replica_counts:
            if replicas < 0:
                raise ValueError(f"replicas must be >= 0, got {replicas}")


def _storm(rate: float, victims: int, seed: int) -> FaultPlan:
    """The per-arm fault plan: same shape in every arm, seeded victims."""
    return FaultPlan(
        name=f"scrub-storm/r{rate}/s{seed}",
        events=(
            BitRot(trigger=AtTime(BIT_ROT_AT), count=victims, seed=seed),
            LatentSectorError(trigger=AtTime(LATENT_AT), count=victims, seed=seed + 1),
            TornWrite(trigger=AtTime(TORN_ARM_AT), seed=seed),
            NvramDegrade(
                trigger=AtTime(DEGRADE_ARM_AT),
                fraction=min(1.0, rate * 2.0),
                seed=seed,
            ),
            ServerCrash(trigger=AtTime(CRASH_AT), reboot_delay=0.0),
        ),
    )


@dataclass
class ScrubArm:
    """One (corruption rate, scrub bandwidth, K) cell's measured run."""

    corruption_rate: float
    scrub_bandwidth: float
    replicas: int
    elapsed: float
    acked_writes: int
    injected_defects: int
    scrub_passes: int
    blocks_scanned: int
    detections: int
    mean_detection_latency_ms: Optional[float]
    repairs: int
    mean_time_to_repair_ms: Optional[float]
    repair_bytes: int
    quarantines: int
    eio_reads: int
    read_acks: int
    silent_read_corruptions: int
    converged: bool
    #: Violations recorded mid-run (crash-time checks seeing corruption
    #: the scrub had not healed yet) — *detections*, not end-state debt.
    crash_time_violations: int
    #: Violations still standing at the final post-repair audit.
    durability_violations: int
    faults: List[dict] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """The arm-level integrity contract.

        Silence is never tolerated.  With peers (K>=1) everything must
        heal by the final audit: no quarantines, no EIO, no residual
        violations (crash-time reports are fine — that is detection
        working).  Standalone (K=0) the losses are real but must all be
        *surfaced* — quarantined and EIO on read-back — so residual
        durability violations are the detected losses themselves, not a
        contract breach.
        """
        if self.silent_read_corruptions or not self.converged:
            return False
        if self.replicas > 0:
            return (
                self.durability_violations == 0
                and self.quarantines == 0
                and self.eio_reads == 0
            )
        return True

    def progress_line(self) -> str:
        healed = (
            f"{self.repairs} repaired"
            if self.replicas
            else f"{self.quarantines} quarantined, {self.eio_reads} EIO"
        )
        return (
            f"K={self.replicas} rate={self.corruption_rate} "
            f"bw={self.scrub_bandwidth / (1 << 20):.0f}MiB/s: "
            f"{self.detections} detected, {healed}, "
            f"{self.silent_read_corruptions} silent "
            f"[{'clean' if self.clean else 'DIRTY'}]"
        )

    def to_dict(self) -> dict:
        return {
            "corruption_rate": self.corruption_rate,
            "scrub_bandwidth": self.scrub_bandwidth,
            "replicas": self.replicas,
            "elapsed": round(self.elapsed, 9),
            "acked_writes": self.acked_writes,
            "injected_defects": self.injected_defects,
            "scrub_passes": self.scrub_passes,
            "blocks_scanned": self.blocks_scanned,
            "detections": self.detections,
            "mean_detection_latency_ms": self.mean_detection_latency_ms,
            "repairs": self.repairs,
            "mean_time_to_repair_ms": self.mean_time_to_repair_ms,
            "repair_bytes": self.repair_bytes,
            "quarantines": self.quarantines,
            "eio_reads": self.eio_reads,
            "read_acks": self.read_acks,
            "silent_read_corruptions": self.silent_read_corruptions,
            "converged": self.converged,
            "crash_time_violations": self.crash_time_violations,
            "durability_violations": self.durability_violations,
            "clean": self.clean,
            "faults": self.faults,
            "violations": list(self.violations),
        }


def _read_back(env, client, names: List[str], nbytes: int, counts: dict):
    """Sequentially read every file back, counting EIO chunks.

    Acked chunks flow through ``on_read_acked`` into the oracle's silent-
    corruption check; EIO chunks are the *detected* (surfaced) failures.
    """
    chunk = 8192
    for name in names:
        open_file = yield from client.open(name)
        offset = 0
        while offset < nbytes:
            take = min(chunk, nbytes - offset)
            try:
                yield from client.read(open_file, offset, take)
            except NfsError as exc:
                if exc.code != "EIO":
                    raise
                counts["eio"] += 1
            offset += take


def run_scrub_arm(
    config: ScrubConfig, rate: float, bandwidth: float, replicas: int
) -> ScrubArm:
    """One cell: workload + storm + scrub + read-back audit."""
    cluster_config = ClusterConfig(
        servers=1,
        replicas=replicas,
        quorum=1,
        presto_bytes=PRESTO_BYTES,
        seed=config.seed,
    )
    cluster = Cluster(cluster_config)
    env = cluster.env
    oracle = ClusterOracle(cluster)
    primary = cluster.servers[0]
    group = cluster.groups[0]
    for member in group.members:
        install_scrub_fetch(member)
    scrubber = Scrubber(
        primary,
        primary.storage,
        group=group if replicas > 0 else None,
        bandwidth=bandwidth,
        interval=SCRUB_INTERVAL,
    ).start()

    nbytes = config.file_kb * 1024
    block_size = primary.ufs.block_size
    total_blocks = max(
        1, config.clients * config.files_per_client * nbytes // block_size
    )
    victims = max(1, int(round(rate * total_blocks)))
    controller = FaultController(
        cluster.stacks[0][0], _storm(rate, victims, config.seed), oracle=oracle
    ).start()

    writers = start_writers(cluster, oracle, config.clients, config.files_per_client, nbytes)
    env.run(until=AllOf(env, writers))
    elapsed = max(proc.value for proc in writers)

    # Let the scrub converge: the event fires at the end of the first
    # pass (started after this request) that finds zero new defects.
    quiesced = scrubber.request_quiesce()
    env.run(until=quiesced)
    scrubber.stop()

    # Read-back audit: every acked byte, through the real READ path.
    counts = {"eio": 0}
    readers = [
        env.process(
            _read_back(
                env,
                client,
                _client_files(client.rpc.endpoint.host, config.files_per_client),
                nbytes,
                counts,
            ),
            name=f"readback:{client.rpc.endpoint.host}",
        )
        for client in cluster.clients
    ]
    env.run(until=AllOf(env, readers))
    env.run()  # drain replication sessions, NVRAM destage, watchdogs
    crash_time = len(oracle.violations)
    final_violations = oracle.check("final")
    if replicas > 0:
        final_violations.extend(oracle.check_divergence("quiesce"))

    injected = _injected_defects(controller.log)
    latencies = [
        scrubber.detections[addr][0] - injected_at
        for addr, injected_at in injected.items()
        if addr in scrubber.detections
    ]
    return ScrubArm(
        corruption_rate=rate,
        scrub_bandwidth=bandwidth,
        replicas=replicas,
        elapsed=elapsed,
        acked_writes=oracle.acked_writes,
        injected_defects=len(injected),
        scrub_passes=scrubber.passes,
        blocks_scanned=scrubber.blocks_scanned,
        detections=len(scrubber.detections),
        mean_detection_latency_ms=(
            round(sum(latencies) / len(latencies) * 1000.0, 4)
            if latencies
            else None
        ),
        repairs=len(scrubber.repairs),
        mean_time_to_repair_ms=(
            round(scrubber.mean_time_to_repair * 1000.0, 4)
            if scrubber.mean_time_to_repair is not None
            else None
        ),
        repair_bytes=scrubber.repair_bytes,
        quarantines=len(scrubber.quarantines),
        eio_reads=counts["eio"],
        read_acks=oracle.read_acks,
        silent_read_corruptions=len(oracle.read_violations),
        converged=quiesced.triggered,
        crash_time_violations=crash_time,
        durability_violations=len(final_violations),
        faults=controller.log,
        violations=final_violations,
    )


def _injected_defects(log: List[dict]) -> dict:
    """addr -> injection time, for every media-fault victim the storm
    actually afflicted (torn writes tear anonymously; they show up in the
    detection counts, not here)."""
    injected: dict = {}
    for record in log:
        for key in ("victims", "nvram_lost_blocks"):
            for addr in record.get(key, ()):
                injected.setdefault(addr, record["start"])
    return injected


@dataclass
class ScrubRunResult(ExperimentReport):
    """The full sweep: corruption rate × scrub bandwidth × K."""

    config: ScrubConfig
    arms: List[ScrubArm]

    @property
    def clean(self) -> bool:
        return all(arm.clean for arm in self.arms)

    def to_dict(self) -> dict:
        return {
            "schema": SCRUB_SCHEMA,
            "seed": self.config.seed,
            "clients": self.config.clients,
            "files_per_client": self.config.files_per_client,
            "file_kb": self.config.file_kb,
            "corruption_rates": list(self.config.corruption_rates),
            "scrub_bandwidths": [float(b) for b in self.config.scrub_bandwidths],
            "replica_counts": list(self.config.replica_counts),
            "arms": [arm.to_dict() for arm in self.arms],
            "clean": self.clean,
        }


def run_scrub(config: Optional[ScrubConfig] = None, progress=None) -> ScrubRunResult:
    """Sweep the integrity axes; each arm is a fresh, seeded cluster."""
    config = config or ScrubConfig()
    arms = [
        (rate, float(bandwidth), replicas)
        for rate in config.corruption_rates
        for bandwidth in config.scrub_bandwidths
        for replicas in config.replica_counts
    ]
    return ScrubRunResult(
        config=config, arms=run_arms(arms, partial(_run_arm, config), progress)
    )


def _run_arm(config: ScrubConfig, arm: tuple) -> tuple:
    """One scrub-sweep arm: ``(rate, bandwidth, replicas)``."""
    result = run_scrub_arm(config, *arm)
    return result, result.progress_line()
