"""The benchmark's four workloads, driven through repro's public API.

Each workload is a function ``(seed, probe) -> Outcome`` that runs one
complete iteration: it builds its systems (timed as set-up by the probe),
runs the simulation, and checks the result.  Everything it generates is
drawn from ``seed``; the same seed gives identical simulated numbers.

* ``seqwrite`` — the paper's core experiment: one FDDI client with 7
  biods writes one sequential file of tens of MB through the gather path,
  no Presto, flyweight payloads.  Closed loop.
* ``sfs_mix`` — the LADDIS SFS 1.0 mix from 5 clients x 4 load processes
  against a 20-disk stripe with 32 nfsds on the gather path, open loop at
  three fixed offered rates (below, near and past the knee), on three
  independent testbeds per iteration.
* ``crash_campaign`` — the seeded chaos campaign over all four write
  paths x Presto off/on, full payloads, oracle + fsck + verify_stable,
  with files kept below the indirect block (see ``CAMPAIGN_FILE_KB``).
* ``fleet_storm`` — the tiering migration storm: a 4-shard hot/cold fleet
  of Zipf tenants with K=1 replicas, 3 live migrations under 2 promotions
  and a partition, checked by the ClusterOracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence

from perfbench.probe import OpRecord, Probe

MB = 1024 * 1024


@dataclass
class Outcome:
    """What one workload iteration simulated and checked."""

    #: Simulated end-to-end metrics (deterministic for a seed).
    sim: Dict[str, float]
    #: Simulated per-layer numbers (gather, cpu, disk, SFS load points...).
    layer: Dict[str, float]
    #: NFS operations the servers completed in the measured phase.
    sim_ops: int
    #: Client NFS RPCs attempted / failed with NfsError (ETIMEDOUT, EIO...).
    ops_attempted: int
    ops_failed: int
    #: Correctness violations: oracle, fsck, stable-storage, bookkeeping.
    violations: List[str] = field(default_factory=list)

    @property
    def oracle_violations(self) -> int:
        return len(self.violations)


# -- shared arithmetic ------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 1])."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _servers(system) -> List:
    """Every server of a Testbed or Cluster, replica backups included."""
    if hasattr(system, "groups"):
        return [member for group in system.groups for member in group.members]
    return [system.server]


def _disks(system) -> List:
    if hasattr(system, "groups"):
        primaries = [disk for shard in system.disks for disk in shard]
        backups = [
            disk
            for shard in system.backup_disks
            for member in shard
            for disk in member
        ]
        return primaries + backups
    return list(system.disks)


class Totals:
    """Counters summed over every system a workload iteration built."""

    def __init__(self) -> None:
        self.sim_ops = 0
        self.disk_writes = 0
        self.stable_violations = 0
        self.cpu_busy = 0.0
        self.cpu_time = 0.0
        self.gather_writes = 0
        self.gather_batch_sizes: List[float] = []
        self.retransmissions = 0

    def add(self, systems: Iterable) -> None:
        from repro.obs import registry_for

        for system in systems:
            # Every RpcClient of a host shares its host's counter.
            for name, record in registry_for(system.env).snapshot("rpc.").items():
                if name.endswith(".retransmissions"):
                    self.retransmissions += int(record["value"])
            self.disk_writes += sum(d.stats.writes.value for d in _disks(system))
            for server in _servers(system):
                self.sim_ops += int(
                    sum(counter.value for counter in server.ops_completed.values())
                )
                self.stable_violations += len(server.stable_violations)
                busy = server.cpu.meter.busy_time
                if busy:
                    self.cpu_busy += busy
                    self.cpu_time += busy / server.cpu.utilization()
                stats = getattr(server.write_path, "stats", None)
                if stats is not None and hasattr(stats, "batch_size"):
                    self.gather_writes += int(stats.writes.value)
                    self.gather_batch_sizes.extend(stats.batch_size._samples or [])

    def layer(self) -> Dict[str, float]:
        sizes = self.gather_batch_sizes
        singles = sum(1 for size in sizes if size <= 1)
        return {
            "core.mean_batch_size": sum(sizes) / len(sizes) if sizes else 0.0,
            "core.gather_success_rate": (
                1.0 - singles / self.gather_writes if self.gather_writes else 0.0
            ),
            "server.cpu_busy_frac": (
                self.cpu_busy / self.cpu_time if self.cpu_time else 0.0
            ),
            "rpc.retransmissions": float(self.retransmissions),
        }


def _latencies_ms(ops: Iterable[OpRecord]) -> List[float]:
    return [op.latency * 1000.0 for op in ops if op.ok]


def latency_metrics(ops: Sequence[OpRecord]) -> Dict[str, float]:
    """Client RPC latency: WRITEs and every procedure."""
    writes = _latencies_ms(op for op in ops if op.proc == "write")
    everything = _latencies_ms(ops)
    return {
        "sim_write_p50_ms": percentile(writes, 0.50),
        "sim_write_p99_ms": percentile(writes, 0.99),
        "sim_op_mean_ms": sum(everything) / len(everything),
        "sim_op_p99_ms": percentile(everything, 0.99),
    }


def client_metrics(
    ops: Sequence[OpRecord],
    sim_seconds: float,
    disk_writes: float,
    all_ops: Sequence[OpRecord] = None,
) -> Dict[str, float]:
    """The simulated end-to-end metrics over the measured client RPCs
    ``ops``, which span ``sim_seconds``.  ``all_ops`` (default ``ops``)
    are every RPC that could have caused the ``disk_writes``."""
    all_ops = ops if all_ops is None else all_ops
    return {
        "sim_client_kb_s": _written(ops) / 1024.0 / sim_seconds,
        "sim_disk_writes_per_mb": disk_writes / (_written(all_ops) / MB),
        **latency_metrics(ops),
    }


def mix_weighted_mean_ms(ops: Iterable[OpRecord], mix) -> float:
    """Mean RPC latency with each procedure weighted by its ``mix`` share
    (procedures absent from ``ops`` drop out of the weighting)."""
    by_proc: Dict[str, List[float]] = {}
    for op in ops:
        if op.ok:
            by_proc.setdefault(op.proc, []).append(op.latency * 1000.0)
    present = [(proc, weight) for proc, weight in mix if proc in by_proc]
    total = sum(weight for _proc, weight in present)
    return sum(
        weight * sum(by_proc[proc]) / len(by_proc[proc]) for proc, weight in present
    ) / total


def _written(ops: Iterable[OpRecord]) -> int:
    return sum(op.nbytes for op in ops if op.ok)


def outcome(
    sim: Dict[str, float],
    ops: Sequence[OpRecord],
    totals: Totals,
    violations: List[str],
    layer: Dict[str, float] = None,
) -> Outcome:
    """Assemble an :class:`Outcome`; ``ops`` are every client RPC of the
    iteration, for failure counting."""
    if totals.stable_violations:
        violations = violations + [
            f"{totals.stable_violations} stable-before-reply violations"
        ]
    return Outcome(
        sim=sim,
        layer={**totals.layer(), **(layer or {})},
        sim_ops=totals.sim_ops,
        ops_attempted=len(ops),
        ops_failed=sum(1 for op in ops if not op.ok),
        violations=violations,
    )


def _fsck(ufs, label: str) -> List[str]:
    from repro.fs.fsck import fsck

    return [f"{label}: fsck: {error}" for error in fsck(ufs, strict=False).errors]


# -- seqwrite ---------------------------------------------------------------------

SEQ_FILE_MB = 48


def seqwrite(seed: int, probe: Probe) -> Outcome:
    from repro.experiments.testbed import Testbed, TestbedConfig
    from repro.net.spec import FDDI
    from repro.payload import PAYLOAD_FLYWEIGHT
    from repro.workload.sequential import write_file

    rng = random.Random(f"seqwrite/{seed}")
    # The seed draws the file length: 48 MB plus up to 63 extra 8K blocks.
    nbytes = SEQ_FILE_MB * MB + rng.randrange(64) * 8192
    config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7, seed=seed)
    testbed = Testbed(config)
    with probe.phase("setup"):
        client = testbed.add_client()
    env = testbed.env
    writer = env.process(
        write_file(env, client, "seqwrite", nbytes, payload=PAYLOAD_FLYWEIGHT),
        name="seqwrite",
    )
    elapsed = env.run(until=writer)
    env.run()  # drain write-behind and watchdogs so disk totals are final
    ops = probe.take_ops()
    totals = Totals()
    totals.add(probe.take_systems())
    with probe.phase("check"):
        violations = _fsck(testbed.server.ufs, "seqwrite")
        acked = int(client.bytes_written.value)
        if acked != nbytes:
            violations.append(f"seqwrite: {acked} bytes acked, {nbytes} written")
    sim = client_metrics(ops, elapsed, totals.disk_writes)
    return outcome(sim, ops, totals, violations)


# -- sfs_mix ----------------------------------------------------------------------

#: Offered aggregate ops/s: below, near and past the gather server's knee.
SFS_RATES = (300.0, 450.0, 600.0)
SFS_DURATION = 4.0
SFS_WARMUP = 1.0
#: Independent LADDIS runs per iteration, each on its own testbed and
#: seed; pooling them keeps the simulated numbers from hanging on one
#: seed's draws.
SFS_REPLICAS = 3


def _sfs_replica(seed: int, probe: Probe, totals: Totals) -> dict:
    """One LADDIS run over every rate on a fresh testbed."""
    from repro.experiments.testbed import Testbed, TestbedConfig
    from repro.net.spec import FDDI
    from repro.workload.laddis import LaddisGenerator

    config = TestbedConfig(
        netspec=FDDI,
        write_path="gather",
        stripes=20,
        nfsds=32,
        verify_stable=False,
        seed=seed,
    )
    with probe.phase("setup"):
        testbed = Testbed(config)
        env = testbed.env
        generator = LaddisGenerator(
            env,
            testbed.segment,
            server_host=testbed.server.host,
            clients=5,
            procs_per_client=4,
            seed=seed,
        )
        env.run(until=env.process(generator.setup(), name="laddis-setup"))
        testbed.server.reset_measurements()
        disk_writes_before = sum(d.stats.writes.value for d in testbed.disks)
        probe.take_ops()  # working-set fill is set-up, not measured ops
        probe.take_ops(laddis=True)
    replica = {"ops": [], "windows": [], "laddis_windows": [], "results": []}
    for offered in SFS_RATES:
        window_start = env.now + SFS_WARMUP
        window_end = window_start + SFS_DURATION
        point = env.process(
            generator.run_point(offered, duration=SFS_DURATION, warmup=SFS_WARMUP),
            name=f"laddis@{offered:g}",
        )
        replica["results"].append(env.run(until=point))
        point_ops = probe.take_ops()
        replica["ops"].extend(point_ops)
        replica["windows"].append(
            [op for op in point_ops if window_start <= op.start < window_end]
        )
        replica["laddis_windows"].append(
            [op for op in probe.take_ops(laddis=True) if window_start <= op.start < window_end]
        )
    totals.add(probe.take_systems())
    totals.disk_writes -= disk_writes_before  # the working-set fill's
    with probe.phase("check"):
        replica["fsck_errors"] = len(_fsck(testbed.server.ufs, "sfs_mix"))
    return replica


def sfs_mix(seed: int, probe: Probe) -> Outcome:
    from repro.workload.laddis import SFS_LATENCY_BOUND_MS, SFS_MIX

    totals = Totals()
    replicas = [
        _sfs_replica(seed * SFS_REPLICAS + index, probe, totals)
        for index in range(SFS_REPLICAS)
    ]
    layer: Dict[str, float] = {"fs.fsck_errors": sum(r["fsck_errors"] for r in replicas)}
    capacity = 0.0
    for index, offered in enumerate(SFS_RATES):
        results = [replica["results"][index] for replica in replicas]
        achieved = sum(result.achieved_ops for result in results) / len(results)
        mean_ms = sum(result.avg_latency_ms for result in results) / len(results)
        layer[f"sfs.r{offered:g}.achieved_frac"] = achieved / offered
        layer[f"sfs.r{offered:g}.mean_ms"] = mean_ms
        if mean_ms <= SFS_LATENCY_BOUND_MS:
            capacity = max(capacity, achieved)
    layer["sim_sfs_capacity_ops_s"] = capacity
    middle = len(SFS_RATES) // 2
    laddis_middle = [op for r in replicas for op in r["laddis_windows"][middle]]
    layer["sfs.mid.laddis_mean_ms"] = sum(_latencies_ms(laddis_middle)) / len(laddis_middle)
    layer["sfs.mid.laddis_p99_ms"] = percentile(_latencies_ms(laddis_middle), 0.99)
    # Throughput and disk writes/MB pool the measured windows of every
    # rate and replica.  Latency pools only the rates below the knee: past
    # it the backlog grows for the whole window and its tail says more
    # about the seed than about the server.  The mean weights each
    # procedure by its SFS mix share, so it does not move with how many
    # multi-block writes a seed draws.
    ops = [op for r in replicas for op in r["ops"]]
    measured = [op for r in replicas for window in r["windows"] for op in window]
    sim = client_metrics(
        measured,
        SFS_DURATION * len(SFS_RATES) * len(replicas),
        totals.disk_writes,
        all_ops=ops,
    )
    unsaturated = [op for r in replicas for window in r["windows"][:-1] for op in window]
    sim.update(latency_metrics(unsaturated))
    sim["sim_op_mean_ms"] = mix_weighted_mean_ms(unsaturated, SFS_MIX)
    return outcome(sim, ops, totals, [], layer=layer)


# -- crash_campaign ---------------------------------------------------------------

CAMPAIGN_PLANS_PER_COMBO = 10
#: 12 direct blocks of 8K: files stay below the single-indirect block.
#: A crash while a file's indirect block is committed ahead of its inode
#: leaves the recovered inode with indirect entries and no indirect
#: address, which fsck rejects and a later fsync trips over (192 KB
#: files, e.g. ``repro chaos --seed 11``).  Until that is fixed, larger
#: files would make the workload fail on about a quarter of seeds.
CAMPAIGN_FILE_KB = 96


def crash_campaign(seed: int, probe: Probe) -> Outcome:
    from repro.faults.campaign import ChaosCampaign, run_plan

    campaign = ChaosCampaign(
        seed=seed, plans_per_combo=CAMPAIGN_PLANS_PER_COMBO, file_kb=CAMPAIGN_FILE_KB
    )
    totals = Totals()
    ops: List[OpRecord] = []
    sim_seconds = 0.0
    violations: List[str] = []
    for write_path, presto in campaign.combos():
        config = campaign.config_for(write_path, presto)
        for index in range(campaign.plans_per_combo):
            plan = campaign.plan_for(write_path, presto, index)
            result = run_plan(config, plan, file_kb=campaign.file_kb)
            totals.add(probe.take_systems())
            ops.extend(probe.take_ops())
            sim_seconds += result.sim_elapsed
            violations.extend(f"{plan.name}: {v}" for v in result.violations)
    sim = client_metrics(ops, sim_seconds, totals.disk_writes)
    return outcome(sim, ops, totals, violations)


# -- fleet_storm ------------------------------------------------------------------

#: Storms per iteration, each on its own seed drawn from the workload seed.
FLEET_STORMS = 8


def _storm(seed: int, probe: Probe, totals: Totals, violations: List[str]) -> float:
    """One migration storm; returns the simulated time the writers took."""
    from repro.cluster.failover import FailoverController, ShardCrash
    from repro.cluster.fleet import Cluster, ClusterConfig
    from repro.cluster.oracle import ClusterOracle
    from repro.sim import AllOf
    from repro.tiering.engine import MigrationEngine, MigrationPlan
    from repro.tiering.experiment import (
        FAULT_OFFSET,
        STORM_SPACING,
        STORM_START,
        TieringConfig,
    )
    from repro.tiering.placement import make_policy
    from repro.workload.zipf import tenant_file_name, zipf_tenant

    config = TieringConfig(seed=seed)
    cluster = Cluster(
        ClusterConfig(
            tiers=config.mixed_tiers(), seed=seed, replicas=config.storm_replicas
        )
    )
    env = cluster.env
    with probe.phase("setup"):
        oracle = ClusterOracle(cluster)
        cluster.router.set_placement(make_policy("hot-first", cluster))
        clients = [cluster.add_client() for _ in range(config.tenants)]
    writers = []
    for tenant, client in enumerate(clients):
        oracle.attach(client)
        writers.append(
            env.process(
                zipf_tenant(
                    env,
                    client,
                    tenant,
                    files=config.files_per_tenant,
                    ops=config.ops_per_tenant,
                    chunk_bytes=config.chunk_kb * 1024,
                    skew=config.skew,
                    think_time=config.think_time,
                    seed=seed,
                ),
                name=f"tenant-{tenant}",
            )
        )
    # Demote each tenant's hottest file hot->cold, one migration every
    # STORM_SPACING; crash the first destination (promote), then hot shard
    # 0 (promote), then partition the third destination.
    plans = []
    for m in range(config.storm_migrations):
        tenant = m % config.tenants
        dest = config.hot_shards + m % config.cold_shards
        plans.append(
            (
                STORM_START + m * STORM_SPACING,
                tenant_file_name(tenant, tenant % config.files_per_tenant),
                dest,
            )
        )
    engine = MigrationEngine(
        cluster, oracle=oracle, chunk_bytes=8192, park_threshold=4096, copy_pace=0.003
    )
    engine.start([MigrationPlan(at=at, name=name, dest=f"server-{dest}") for at, name, dest in plans])
    crashes = [
        ShardCrash(at=plans[0][0] + FAULT_OFFSET, shard=plans[0][2], promote=True),
        ShardCrash(at=plans[1][0] + FAULT_OFFSET, shard=0, promote=True),
        ShardCrash(
            at=plans[2][0] + FAULT_OFFSET, shard=plans[2][2], outage=0.05, redirect=True
        ),
    ]
    FailoverController(cluster, crashes, oracle=oracle).start()
    env.run(until=AllOf(env, writers))
    finished = env.now
    env.run()  # drain migrations, replication sessions, watchdogs
    oracle.check("final")
    oracle.check_divergence("quiesce")
    summary = engine.summary()
    violations.extend(f"storm seed {seed}: {v}" for v in oracle.violations)
    if summary["completed"] != len(plans):
        violations.append(
            f"storm seed {seed}: {summary['completed']}/{len(plans)} migrations completed"
        )
    totals.add(probe.take_systems())
    return finished


def fleet_storm(seed: int, probe: Probe) -> Outcome:
    totals = Totals()
    violations: List[str] = []
    sim_seconds = 0.0
    for storm in range(FLEET_STORMS):
        sim_seconds += _storm(seed * FLEET_STORMS + storm, probe, totals, violations)
    ops = probe.take_ops()
    sim = client_metrics(ops, sim_seconds, totals.disk_writes)
    return outcome(sim, ops, totals, violations)


WORKLOADS: Dict[str, Callable[[int, Probe], Outcome]] = {
    "seqwrite": seqwrite,
    "sfs_mix": sfs_mix,
    "crash_campaign": crash_campaign,
    "fleet_storm": fleet_storm,
}
