"""Heterogeneous tiers, placement, and crash-safe live migration
(repro.tiering).

The heart of the suite is the migration fault matrix: a file that is
*actively being written* migrates between shards while the source
crashes, the destination crashes, the network partitions, or a replica
promotion swaps the acting primary mid-flight — and in every case the
extended cluster oracle (acked ranges satisfiable at exactly one
authoritative location) must come out clean and the bytes must be
byte-identical at the final authority.
"""

import json

import pytest

from repro.cluster.failover import FailoverController, ShardCrash
from repro.cluster.fleet import Cluster, ClusterConfig
from repro.cluster.oracle import ClusterOracle
from repro.server.config import WritePath
from repro.tiering import (
    HotFirstPlacement,
    LeastLoadPlacement,
    MigrationEngine,
    MigrationPlan,
    MostFreePlacement,
    TierConfig,
    TieringConfig,
    make_policy,
    run_tiering,
)
from repro.workload.sequential import patterned_chunk
from repro.workload.zipf import tenant_file_name, zipf_tenant, zipf_weights

CHUNK = 4096


def mixed_config(hot=1, cold=2, seed=1, **kw) -> ClusterConfig:
    return ClusterConfig(
        tiers=[
            TierConfig(name="hot", shards=hot, presto_bytes=1 << 20, weight=2.0),
            TierConfig(name="cold", shards=cold),
        ],
        seed=seed,
        **kw,
    )


class TestTierConfig:
    def test_effective_weight_defaults_from_fs_bytes(self):
        from repro.tiering.tiers import DEFAULT_FS_BYTES

        tier = TierConfig(name="big", shards=1, fs_bytes=DEFAULT_FS_BYTES * 2)
        assert tier.effective_weight == pytest.approx(2.0)

    def test_explicit_weight_wins(self):
        tier = TierConfig(name="hot", shards=1, weight=3.0)
        assert tier.effective_weight == 3.0

    def test_accelerated_means_presto(self):
        assert TierConfig(name="hot", shards=1, presto_bytes=1 << 20).accelerated
        assert not TierConfig(name="cold", shards=1).accelerated

    def test_validation(self):
        with pytest.raises(ValueError):
            TierConfig(name="", shards=1)
        with pytest.raises(ValueError):
            TierConfig(name="x", shards=0)
        with pytest.raises(ValueError):
            TierConfig(name="x", shards=1, weight=-1.0)


class TestFleetTiers:
    def test_servers_derived_from_tiers(self):
        cluster = Cluster(mixed_config(hot=2, cold=3))
        assert len(cluster.servers) == 5
        assert cluster.tier_of["server-0"] == "hot"
        assert cluster.tier_of["server-1"] == "hot"
        assert cluster.tier_of["server-4"] == "cold"

    def test_hot_shards_get_presto_cold_do_not(self):
        from repro.nvram.presto import PrestoCache

        cluster = Cluster(mixed_config(hot=1, cold=1))
        assert isinstance(cluster.servers[0].storage, PrestoCache)
        assert not isinstance(cluster.servers[1].storage, PrestoCache)

    def test_ring_is_capacity_weighted(self):
        cluster = Cluster(mixed_config(hot=1, cold=2))
        assert cluster.shard_map.weight_of("server-0") == 2.0
        assert cluster.shard_map.weight_of("server-1") == 1.0

    def test_duplicate_tier_names_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(
                tiers=[TierConfig(name="t", shards=1), TierConfig(name="t", shards=1)]
            )

    def test_backups_mirror_their_tier(self):
        from repro.nvram.presto import PrestoCache

        cluster = Cluster(mixed_config(hot=1, cold=1, replicas=1))
        backup = cluster.groups[0].members[1]
        assert cluster.tier_of[backup.host] == "hot"
        assert isinstance(backup.storage, PrestoCache)

    def test_homogeneous_fleet_unchanged(self):
        # No tiers: the ring is unweighted and tier_of reads "default".
        cluster = Cluster(ClusterConfig(servers=2, seed=1))
        assert cluster.tier_of["server-0"] == "default"
        assert cluster.shard_map.weight_of("server-0") == 1.0


class TestZipfWorkload:
    def test_weights_normalized_and_skewed(self):
        weights = zipf_weights(4, 1.2)
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] > weights[1] > weights[3]

    def test_zero_skew_is_uniform(self):
        assert zipf_weights(5, 0.0) == pytest.approx([0.2] * 5)

    def test_tenant_appends_are_deterministic(self):
        def total(seed):
            cluster = Cluster(ClusterConfig(servers=2, seed=3))
            env = cluster.env
            client = cluster.add_client()
            proc = env.process(
                zipf_tenant(env, client, tenant=0, files=2, ops=8, seed=seed),
                name="tenant",
            )
            env.run(until=proc)
            env.run()
            sizes = []
            for server in cluster.servers:
                for name, ino in sorted(server.ufs.root.entries.items()):
                    sizes.append((name, server.ufs.inodes[ino].size))
            return sizes

        assert total(5) == total(5)

    def test_distinct_tenants_hammer_distinct_files(self):
        # Rank-0 of tenant t rotates to file index t % files.
        assert tenant_file_name(0, 0) == "t0-f0"
        assert tenant_file_name(1, 1) == "t1-f1"


class TestPlacementPolicies:
    def test_most_free_prefers_emptiest_shard(self):
        cluster = Cluster(ClusterConfig(servers=2, seed=1))
        policy = MostFreePlacement(cluster)
        # Consume space on server-0 by marking blocks allocated.
        cluster.servers[0].ufs.allocator._allocated.update(range(64))
        assert policy.place("anything") == "server-1"

    def test_least_load_prefers_idle_shard(self):
        cluster = Cluster(ClusterConfig(servers=2, seed=1))
        policy = LeastLoadPlacement(cluster)
        cluster.servers[0].endpoint.inbox.items.append(object())
        assert policy.place("anything") == "server-1"

    def test_hot_first_prefers_hot_tier(self):
        cluster = Cluster(mixed_config(hot=1, cold=2))
        policy = HotFirstPlacement(cluster)
        assert policy.place("f") == "server-0"
        assert policy.spills == 0

    def test_hot_first_spills_when_reserve_breached(self):
        cluster = Cluster(mixed_config(hot=1, cold=2))
        policy = HotFirstPlacement(cluster, reserve_fraction=0.5)
        server = cluster.servers[0]
        blocks = server.config.fs_bytes // server.ufs.block_size
        server.ufs.allocator._allocated.update(range(blocks // 2 + 1))
        chosen = policy.place("f")
        assert cluster.tier_of[chosen] == "cold"
        assert policy.spills == 1

    def test_make_policy_registry(self):
        cluster = Cluster(ClusterConfig(servers=2, seed=1))
        assert make_policy("hash", cluster) is None
        assert isinstance(make_policy("mfs", cluster), MostFreePlacement)
        with pytest.raises(ValueError):
            make_policy("nope", cluster)

    def test_router_pins_placement_choice(self):
        # A placed name keeps routing to its shard even though the pure
        # hash would send it elsewhere.
        cluster = Cluster(mixed_config(hot=1, cold=2))
        cluster.router.set_placement(HotFirstPlacement(cluster))
        env = cluster.env
        client = cluster.add_client()

        def create():
            open_file = yield from client.create("pinned-name")
            yield from client.close(open_file)

        proc = env.process(create(), name="create")
        env.run(until=proc)
        env.run()
        assert cluster.router.server_for_name("pinned-name") == "server-0"


def run_migration(
    crash_picks=None,
    replicas=0,
    promote=False,
    outage=0.0,
    chunks=50,
    lease_ttl=None,
    write_path=None,
    close_after=True,
    crash_at=0.05,
    max_retries=4,
    racks=1,
):
    """Drive one live migration under an active writer, optionally with a
    fault injected mid-copy.  Returns (cluster, oracle, engine, state)."""
    kw = {"replicas": replicas, "racks": racks}
    if lease_ttl is not None:
        kw["lease_ttl"] = lease_ttl
    if write_path is not None:
        kw["write_path"] = write_path
    config = ClusterConfig(servers=3, seed=1, **kw)
    cluster = Cluster(config)
    oracle = ClusterOracle(cluster)
    env = cluster.env
    client = cluster.add_client()
    oracle.attach(client)

    def writer():
        open_file = yield from client.create("victim")
        for index in range(chunks):
            yield env.timeout(0.002)
            yield from client.write_stream(open_file, patterned_chunk(index, CHUNK))
        if close_after:
            yield from client.close(open_file)
        return open_file

    proc = env.process(writer(), name="writer")
    engine = MigrationEngine(
        cluster, oracle=oracle, copy_pace=0.002, max_retries=max_retries
    )
    source = cluster.shard_map.server_for("victim")
    dest = next(h for h in cluster.shard_map.servers if h != source)
    engine.start([MigrationPlan(at=0.02, name="victim", dest=dest)])
    if crash_picks is not None:
        shard = int(crash_picks(source, dest).split("-")[1])
        crashes = [
            ShardCrash(
                at=crash_at,
                shard=shard,
                promote=promote,
                outage=outage,
                redirect=bool(outage),
            )
        ]
        FailoverController(cluster, crashes, oracle=oracle).start()
    env.run(until=proc)
    env.run(until=env.now + 5.0)
    env.run()
    oracle.check("final")
    if replicas:
        oracle.check_divergence("quiesce")
    return cluster, oracle, engine, proc.value


def assert_migrated_clean(cluster, oracle, engine, chunks=50):
    record = engine.records[0]
    assert record["outcome"] == "done"
    assert oracle.clean, oracle.violations
    state = engine.active["victim"]
    authority = cluster.server_by_host(cluster.router.resolve(state["authority"]))
    want = b"".join(patterned_chunk(index, CHUNK) for index in range(chunks))
    assert authority.ufs.durable_read(state["ino"], 0, len(want)) == want
    assert cluster.router.server_for_name("victim") == state["authority"]


class TestLiveMigration:
    def test_migration_under_active_writer(self):
        cluster, oracle, engine, _ = run_migration()
        assert_migrated_clean(cluster, oracle, engine)
        assert engine.records[0]["attempts"] == 1
        # Single-copy: the source no longer holds the inode.
        state = engine.active["victim"]
        source = cluster.server_by_host(state["source"])
        assert state["ino"] not in source.ufs.inodes

    def test_source_crash_mid_copy(self):
        cluster, oracle, engine, _ = run_migration(crash_picks=lambda s, d: s)
        assert_migrated_clean(cluster, oracle, engine)
        # The crash wiped the migration session: the engine must have
        # aborted and retried rather than cutting over on a dead fence.
        assert engine.records[0]["attempts"] >= 2

    def test_dest_crash_mid_copy(self):
        cluster, oracle, engine, _ = run_migration(crash_picks=lambda s, d: d)
        assert_migrated_clean(cluster, oracle, engine)

    def test_partition_mid_copy(self):
        cluster, oracle, engine, _ = run_migration(
            crash_picks=lambda s, d: s, outage=0.08
        )
        assert_migrated_clean(cluster, oracle, engine)

    def test_source_promotion_mid_copy(self):
        cluster, oracle, engine, _ = run_migration(
            crash_picks=lambda s, d: s, replicas=1, promote=True
        )
        assert_migrated_clean(cluster, oracle, engine)

    def test_dest_promotion_mid_copy(self):
        cluster, oracle, engine, _ = run_migration(
            crash_picks=lambda s, d: d, replicas=1, promote=True
        )
        assert_migrated_clean(cluster, oracle, engine)

    def test_aborted_last_attempt_gives_up_and_purges_the_dest_copy(self):
        # One attempt, aborted by the source crash mid-copy: the engine
        # gives up and purges the partial copy it left on the destination.
        cluster, oracle, engine, _ = run_migration(
            crash_picks=lambda s, d: s, max_retries=1
        )
        record = engine.records[0]
        assert record["outcome"] == "gave-up"
        assert record["attempts"] == 1 and len(record["aborts"]) == 1
        state = engine.active["victim"]
        assert state["phase"] == "failed"
        assert state["authority"] == state["source"]
        # The attempt had adopted the file on the destination before the
        # abort; the give-up purge removed it.
        dest = cluster.server_by_host(state["dest"])
        assert "victim" not in dest.ufs.root.entries
        assert state["ino"] not in dest.ufs.inodes
        assert state["ino"] not in dest.ufs.cache.durable.inodes
        assert engine.check_contract() == []
        assert oracle.clean, oracle.violations
        assert cluster.router.server_for_name("victim") == state["source"]

    def test_migration_of_absent_name_is_gone(self):
        cluster = Cluster(ClusterConfig(servers=2, seed=1))
        oracle = ClusterOracle(cluster)
        engine = MigrationEngine(cluster, oracle=oracle)
        engine.start([MigrationPlan(at=0.01, name="ghost", dest="server-1")])
        cluster.env.run()
        assert engine.records[0]["outcome"] == "gone"

    def test_migration_to_source_is_noop(self):
        cluster = Cluster(ClusterConfig(servers=2, seed=1))
        oracle = ClusterOracle(cluster)
        env = cluster.env
        client = cluster.add_client()
        oracle.attach(client)

        def writer():
            open_file = yield from client.create("stay")
            yield from client.write_stream(open_file, patterned_chunk(0, CHUNK))
            yield from client.close(open_file)

        proc = env.process(writer(), name="writer")
        env.run(until=proc)
        home = cluster.router.server_for_name("stay")
        engine = MigrationEngine(cluster, oracle=oracle)
        engine.start([MigrationPlan(at=env.now + 0.01, name="stay", dest=home)])
        env.run()
        assert engine.records[0]["outcome"] == "noop"

    def test_contract_checked_at_every_oracle_check(self):
        # The engine registers its contract with the oracle: a poisoned
        # pin (authority disagreeing with the router) must surface.
        cluster, oracle, engine, _ = run_migration()
        state = engine.active["victim"]
        state["authority"] = state["source"]  # lie about authority
        oracle.check("poisoned")
        assert any("migration" in v for v in oracle.violations)


class TestRepointRaces:
    """Satellite: router repoints racing in-flight client machinery."""

    def test_reroute_resolves_before_every_attempt(self):
        # A write parked at the source is abandoned (never acked there);
        # the client's retransmission must re-resolve the route and land
        # on the new authority without manual refresh — no lost ack.
        cluster, oracle, engine, _ = run_migration(chunks=80)
        assert_migrated_clean(cluster, oracle, engine, chunks=80)
        assert oracle.acked_writes == 40  # every 8K block acked somewhere

    def test_repoint_races_pending_commit_verifier(self):
        # async WRITE + COMMIT: unstable writes land at the source, the
        # file migrates, then close() COMMITs against the destination.
        # The shipped verifier state (or the client's replay_stale path)
        # must make every acked range durable at the new authority.
        cluster, oracle, engine, _ = run_migration(
            write_path=WritePath.ASYNC_COMMIT, chunks=60
        )
        assert_migrated_clean(cluster, oracle, engine, chunks=60)

    def test_repoint_races_lease_recalls(self):
        # With leases on, the migrating writer holds cached state the
        # server may recall mid-migration; the repoint must not strand
        # the recall or the cached dirty data.
        cluster, oracle, engine, _ = run_migration(lease_ttl=0.2, chunks=60)
        assert_migrated_clean(cluster, oracle, engine, chunks=60)

    def test_cutover_to_another_rack_restarts_calls_on_its_transport(self):
        # One shard per rack: a write in flight at the cutover re-resolves
        # to a shard its rack's transport cannot reach, so the router
        # restarts the call on the destination rack's endpoint.
        cluster, oracle, engine, _ = run_migration(racks=3)
        state = engine.active["victim"]
        racks = cluster._rack_of_server
        assert racks[state["source"]] != racks[state["dest"]]
        assert_migrated_clean(cluster, oracle, engine)


class TestTieringExperiment:
    @pytest.fixture(scope="class")
    def quick(self):
        return TieringConfig(
            seed=11,
            tenants=3,
            files_per_tenant=2,
            ops_per_tenant=12,
            policies=("hash", "hot-first"),
            storm_migrations=2,
        )

    @pytest.fixture(scope="class")
    def result(self, quick):
        return run_tiering(quick)

    def test_experiment_clean(self, result):
        assert result.clean
        for arm in result.arms:
            assert arm.clean, arm.violations

    def test_storm_migrations_complete_under_faults(self, result):
        storm = result.storm
        assert storm["crashes"] >= 1
        assert storm["completed"] == storm["started"]
        for record in storm["migrations"]:
            assert record["outcome"] in ("done", "noop")

    def test_json_byte_identical_across_reruns(self, quick, result):
        again = run_tiering(quick)
        assert result.to_json() == again.to_json()
        json.loads(result.to_json())  # well-formed

    def test_mixed_fleet_beats_all_cold_p99(self):
        result = run_tiering(
            TieringConfig(seed=7, policies=("hot-first",), storm_migrations=1)
        )
        assert result.hot_beats_cold
        baseline = result.baseline
        steered = next(a for a in result.arms if a.policy == "hot-first")
        assert (
            steered.write_latency_ms["p99"] < baseline.write_latency_ms["p99"]
        )

    def test_runner_facade_dispatches_tiering(self, quick):
        from repro.experiments import run

        result = run("tiering", quick)
        assert result.to_dict()["schema"] == "repro.tiering/1"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TieringConfig(policies=("warm-ish",))
        with pytest.raises(ValueError):
            TieringConfig(tenants=0)
        with pytest.raises(ValueError):
            TieringConfig(storm_replicas=0)
