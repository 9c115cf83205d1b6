"""System lifetime: a dropped Testbed or Cluster dies by refcount.

A root owns its Environment, and nothing built under it holds it
strongly, so dropping the last reference runs the root's finalizer: every
suspended process ends and the back-edges that remain are cut.  Each test
runs with the cycle collector off, keeps only what a driver returns, and
then asserts that the environment, every server and every segment are
gone, and that a full collection finds no ``repro`` object left in a
cycle.  A component that re-introduces a cycle fails here by name.
"""

import gc
import weakref

import pytest

from repro.cluster.failover import FailoverController, ShardCrash
from repro.cluster.fleet import Cluster, ClusterConfig
from repro.cluster.oracle import ClusterOracle
from repro.commit.experiment import CommitConfig
from repro.experiments import run
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.faults.campaign import ChaosCampaign, run_plan
from repro.faults.events import AtTime, FaultPlan, ServerCrash
from repro.integrity.experiment import ScrubConfig
from repro.lease.experiment import CacheConfig
from repro.overload.experiment import OverloadConfig
from repro.sim import AllOf
from repro.tiering.engine import MigrationEngine, MigrationPlan
from repro.tiering.experiment import TieringConfig
from repro.tiering.placement import HotFirstPlacement
from repro.workload.zipf import tenant_file_name, zipf_tenant


@pytest.fixture
def built(monkeypatch):
    """Weak references to every root built, its env, servers and segments."""
    refs = []

    def recording(cls, servers, segments):
        original = cls.__init__

        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            parts = [self, self.env, *servers(self), *segments(self)]
            refs.extend(weakref.ref(part) for part in parts)

        monkeypatch.setattr(cls, "__init__", __init__)

    recording(Testbed, lambda tb: [tb.server], lambda tb: [tb.segment])
    recording(
        Cluster,
        lambda cluster: [s.server for shard in cluster.stacks for s in shard],
        lambda cluster: cluster.segments,
    )
    return refs


def freed_by_refcount(build, refs):
    """Run ``build`` with the collector off; return its result after
    asserting that every system it built died without a collection."""
    gc.collect()
    gc.disable()
    try:
        result = build()
        assert refs, "the run built no system"
        alive = [ref() for ref in refs if ref() is not None]
        assert alive == []
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sorted(
            {
                f"{type(obj).__module__}.{type(obj).__qualname__}"
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro")
            }
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []
    return result


@pytest.mark.parametrize("presto", [False, True], ids=["no-presto", "presto"])
@pytest.mark.parametrize("write_path", ["standard", "gather", "siva", "async_commit"])
def test_crashed_testbed_is_freed_by_refcount(built, write_path, presto):
    """Oracle + FaultController + one crash, through the chaos driver."""
    config = TestbedConfig(
        write_path=write_path, presto_bytes=(1 << 20) if presto else None, seed=3
    )
    plan = FaultPlan(name="lifetime", events=(ServerCrash(AtTime(0.02)),))
    result = freed_by_refcount(lambda: run_plan(config, plan, file_kb=32), built)
    assert result.crashes == 1 and result.violations == []


def test_cluster_without_replicas_is_freed_by_refcount(built):
    report = freed_by_refcount(
        lambda: run(
            "cluster", ClusterConfig(servers=2, seed=1), clients=2, file_kb=16
        ),
        built,
    )
    assert report.violations == []


def _tiered_storm():
    """A K=1 hot/cold fleet: ClusterOracle, hot-first placement, a live
    migration, and a crash that promotes its destination's backup."""
    config = TieringConfig(seed=2, tenants=2, ops_per_tenant=12)
    cluster = Cluster(
        ClusterConfig(tiers=config.mixed_tiers(), seed=config.seed, replicas=1)
    )
    env = cluster.env
    oracle = ClusterOracle(cluster)
    cluster.router.set_placement(HotFirstPlacement(cluster))
    writers = []
    for tenant in range(config.tenants):
        client = cluster.add_client()
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
                    seed=config.seed,
                )
            )
        )
    engine = MigrationEngine(cluster, oracle=oracle, chunk_bytes=8192, copy_pace=0.003)
    engine.start([MigrationPlan(at=0.02, name=tenant_file_name(0, 0), dest="server-2")])
    controller = FailoverController(
        cluster, [ShardCrash(at=0.03, shard=2, promote=True)], oracle=oracle
    ).start()
    env.run(until=AllOf(env, writers))
    env.run()
    oracle.check("final")
    oracle.check_divergence("quiesce")
    return {
        "summary": engine.summary(),
        "promotions": controller.promotions,
        "violations": list(oracle.violations),
    }


def test_tiered_replicated_cluster_is_freed_by_refcount(built):
    outcome = freed_by_refcount(_tiered_storm, built)
    assert outcome["promotions"] == 1
    assert outcome["violations"] == []


#: Every default kind, at a size that runs in well under a second.  Each
#: driver's report must hold no root or component: the systems it built
#: are dead while the test still holds the report.
KIND_RUNS = {
    "copy": lambda: run("copy", file_mb=0.125),
    "table": lambda: run("table", 1, file_mb=0.125),
    "curve": lambda: run("curve", "gather", loads=(300,), duration=0.3, warmup=0.1),
    "trace": lambda: run("trace"),
    "bench": lambda: run("bench", file_mb=0.125),
    "chaos": lambda: run("chaos", ChaosCampaign(seed=1, plans_per_combo=1, file_kb=96)),
    "cluster": lambda: run(
        "cluster",
        ClusterConfig(servers=2, seed=1),
        clients=2,
        file_kb=16,
        crashes=[ShardCrash(at=0.02, shard=1, outage=0.1, redirect=True)],
    ),
    "overload": lambda: run(
        "overload",
        OverloadConfig(
            loads=(8000, 160000),
            duration=0.5,
            write_paths=("gather",),
            presto_modes=(False,),
        ),
    ),
    "replica": lambda: run(
        "replica", replica_counts=(1,), clients=2, file_kb=16, storm_crashes=1
    ),
    "cache": lambda: run(
        "cache", CacheConfig(lease_ttls=(1.0,), sharing_ratios=(0.5,), ops_per_client=5)
    ),
    "commit": lambda: run("commit", CommitConfig(file_mb=0.125, presto_modes=(False,))),
    "scrub": lambda: run("scrub", ScrubConfig(scrub_bandwidths=(8 << 20,))),
    "tiering": lambda: run("tiering", TieringConfig(ops_per_tenant=8)),
}


@pytest.mark.parametrize("kind", sorted(KIND_RUNS))
def test_every_kind_keeps_no_system_alive(built, kind):
    freed_by_refcount(KIND_RUNS[kind], built)
