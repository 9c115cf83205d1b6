"""Integration tests for repro.cluster: fleet, router, failover, experiments."""

import random

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterOracle,
    ShardCrash,
)
from repro.cluster.fleet import INO_STRIDE, Cluster
from repro.cluster.experiment import run_scaling_sweep
from repro.experiments import run
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.workload.sequential import write_file

KB = 1024


def _write(cluster, client, name, nbytes=8 * KB):
    env = cluster.env
    proc = env.process(write_file(env, client, name, nbytes), name=f"w:{name}")
    env.run(until=proc)


class TestFleetConstruction:
    def test_shards_share_nothing_but_the_wire(self):
        cluster = Cluster(ClusterConfig(servers=3))
        assert len(cluster.servers) == 3
        assert len({id(s.ufs) for s in cluster.servers}) == 3
        assert len({d.name for shard in cluster.disks for d in shard}) == 3
        assert len(cluster.segments) == 1

    def test_disjoint_inode_ranges(self):
        cluster = Cluster(ClusterConfig(servers=3))
        client = cluster.add_client()
        for index in range(9):
            _write(cluster, client, f"f{index}")
        pins = cluster.router.pins()
        assert pins  # every created file pinned its handle
        for (ino, _generation), host in pins.items():
            shard = int(host.split("-")[1])
            base = (shard + 1) * INO_STRIDE
            assert base <= ino < base + INO_STRIDE

    def test_racks_split_the_wire(self):
        cluster = Cluster(ClusterConfig(servers=4, racks=2))
        cluster.add_client()
        assert len(cluster.segments) == 2
        assert {cluster.segment_of(f"server-{i}").name for i in range(4)} == {
            "fddi.rack0",
            "fddi.rack1",
        }
        client = cluster.clients[0]
        for index in range(8):
            _write(cluster, client, f"f{index}")
        oracle = ClusterOracle(cluster)
        assert oracle.check("racks") == []


class TestRouting:
    def test_files_land_where_the_map_says(self):
        cluster = Cluster(ClusterConfig(servers=3, seed=1))
        client = cluster.add_client()
        names = [f"routed-{index}" for index in range(12)]
        for name in names:
            _write(cluster, client, name)
        rollup = {shard["host"]: shard["files_created"] for shard in cluster.per_shard_rollup()}
        expected = cluster.shard_map.load(names)
        assert rollup == expected
        assert sum(rollup.values()) == len(names)

    def test_unpinned_handle_is_an_error(self):
        cluster = Cluster(ClusterConfig(servers=2))
        with pytest.raises(KeyError, match="not pinned"):
            cluster.router.server_for_fhandle((INO_STRIDE + 1, 0))

    def test_root_handle_routes_home(self):
        cluster = Cluster(ClusterConfig(servers=4))
        assert cluster.router.server_for_fhandle((2, 0)) == cluster.router.home
        assert cluster.router.home in cluster.shard_map.servers


class TestGrow:
    def test_grow_routes_new_files_without_moving_old_pins(self):
        cluster = Cluster(ClusterConfig(servers=2, seed=0))
        client = cluster.add_client()
        old_names = [f"old-{index}" for index in range(6)]
        for name in old_names:
            _write(cluster, client, name)
        pins_before = cluster.router.pins()
        placement_before = {n: cluster.shard_map.server_for(n) for n in old_names}

        newcomer = cluster.grow()
        assert newcomer.host == "server-2"
        assert len(cluster.shard_map) == 3
        # Existing pins are untouched — growth redirects future placement.
        assert cluster.router.pins() == pins_before

        moved = [
            n for n in old_names
            if cluster.shard_map.server_for(n) != placement_before[n]
        ]
        for name in moved:
            assert cluster.shard_map.server_for(name) == "server-2"

        # A name that now maps to the newcomer is actually served there.
        target = next(
            f"new-{index}"
            for index in range(1000)
            if cluster.shard_map.server_for(f"new-{index}") == "server-2"
        )
        _write(cluster, client, target)
        rollup = cluster.per_shard_rollup()
        assert rollup[2]["host"] == "server-2"
        assert rollup[2]["files_created"] == 1


class TestRunCluster:
    def test_basic_run_is_clean_and_accounted(self):
        result = run("cluster", ClusterConfig(servers=2, seed=0), clients=4)
        assert result.clean
        assert result.acked_writes == 4 * 2 * (64 // 8)
        assert sum(result.placement.values()) == 4 * 2
        assert result.aggregate["files_created"] == 4 * 2
        assert result.total_bytes == 4 * 2 * 64 * KB

    def test_json_is_byte_identical_across_reruns(self):
        config = ClusterConfig(servers=4, seed=3)
        first = run("cluster", config, clients=8).to_json()
        second = run("cluster", config, clients=8).to_json()
        assert first == second

    def test_different_seeds_change_placement(self):
        a = run("cluster", ClusterConfig(servers=4, seed=0))
        b = run("cluster", ClusterConfig(servers=4, seed=9))
        assert a.placement != b.placement

    def test_shard_crash_holds_the_contract(self):
        crash = ShardCrash(at=0.05, shard=1, outage=0.3, redirect=True)
        result = run("cluster", ClusterConfig(servers=3, seed=0), clients=6, crashes=[crash])
        assert result.clean
        assert result.crashes == 1
        assert result.faults[0]["host"] == "server-1"
        assert result.faults[0]["redirected"]
        assert result.retransmissions > 0
        # The shard rejoined: the map ends at full strength.
        assert result.servers == 3

    def test_crash_without_outage(self):
        crash = ShardCrash(at=0.02, shard=0)
        result = run("cluster", ClusterConfig(servers=2, seed=0), clients=2, crashes=[crash])
        assert result.clean
        assert result.crashes == 1
        assert not result.faults[0]["redirected"]

    def test_crash_shard_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="names shard 5"):
            run(
                "cluster",
                ClusterConfig(servers=2),
                clients=1,
                crashes=[ShardCrash(at=0.01, shard=5)],
            )


class TestScaling:
    def test_sweep_shows_dilution_and_monotonic_throughput(self):
        # The headline trade: sharding multiplies spindles (throughput up)
        # but thins each server's request stream (gather ratio down).
        # Every cell runs at the cluster think time.
        sweep = run_scaling_sweep(
            ClusterConfig(servers=1, write_path="gather", seed=0),
            server_counts=[1, 4],
            client_counts=[8],
        )
        assert sweep.clean
        one, four = sweep.rows
        assert four.aggregate_kb_per_sec > one.aggregate_kb_per_sec
        assert four.mean_gather_ratio() <= one.mean_gather_ratio()
        table = sweep.table()
        assert table[0]["scaling_efficiency"] == 1.0
        assert 0 < table[1]["scaling_efficiency"] < 1.0

    def test_sweep_json_round_trips(self):
        import json

        sweep = run_scaling_sweep(
            ClusterConfig(servers=1, seed=0),
            server_counts=[1, 2],
            client_counts=[2],
            files_per_client=1,
            file_kb=16,
        )
        payload = json.loads(sweep.to_json())
        assert payload["server_counts"] == [1, 2]
        assert len(payload["rows"]) == 2
        assert len(payload["table"]) == 2


def _oracle_fleet(servers, replicas=0):
    """A seeded fleet with one oracle-watched client and one durable
    16 KB file; returns (cluster, oracle, client, fhandle, host)."""
    cluster = Cluster(ClusterConfig(servers=servers, replicas=replicas, seed=0))
    oracle = ClusterOracle(cluster)
    client = cluster.add_client()
    oracle.attach(client)
    _write(cluster, client, "pinned", 16 * KB)
    cluster.env.run()
    ((fhandle, host),) = cluster.router.pins().items()
    return cluster, oracle, client, fhandle, host


def _rot_backup(cluster, fhandle):
    """Flip one bit of the file's first block on shard 0's first backup."""
    durable = cluster.groups[0].members[1].ufs.cache.durable
    assert durable.rot_block(durable.inodes[fhandle[0]].direct[0], random.Random(5))


class TestFleetOracle:
    """The fleet oracle's message text and check counts, pinned."""

    def test_single_image_message(self):
        _cluster, oracle, client, fhandle, host = _oracle_fleet(servers=2)
        assert (fhandle, host) == ((2000000, 0), "server-1")
        client.on_write_acked(fhandle, 16 * KB, b"x" * 100)  # past EOF
        expected = [
            "server-1: [final t=1.148076] ino 2000000 bytes [0,16484): "
            "acked but not durably readable [shard=server-1, role=primary]"
        ]
        assert oracle.check("final") == expected
        assert oracle.violations == expected
        assert not oracle.clean

    def test_group_message_with_backup_fsck(self):
        cluster, oracle, client, fhandle, _host = _oracle_fleet(servers=1, replicas=1)
        _rot_backup(cluster, fhandle)
        client.on_write_acked(fhandle, 16 * KB, b"x" * 100)
        assert oracle.check("crash") == [
            "server-0: [crash t=1.233278] ino 1000000 bytes [0,16484): "
            "acked but missing from every surviving replica "
            "[shard=server-0, role=primary]",
            "server-0: [crash t=1.233278] fsck(server-0.b1): ino 1000000 "
            "block 0: checksum mismatch at 0x10020000 (silent corruption) "
            "[shard=server-0, role=primary]",
        ]

    def test_divergence_message(self):
        cluster, oracle, _client, fhandle, _host = _oracle_fleet(servers=1, replicas=1)
        _rot_backup(cluster, fhandle)
        assert oracle.check_divergence("quiesce") == [
            "server-0: [quiesce t=1.233278] ino 1000000: durable bytes "
            "diverge between server-0 and server-0.b1"
        ]

    def test_transfer_moves_the_holder(self):
        _cluster, oracle, _client, fhandle, host = _oracle_fleet(servers=2)
        assert oracle.holders_of(fhandle[0]) == [host]
        oracle.transfer_ino(fhandle[0], host, "server-0")
        assert oracle.holders_of(fhandle[0]) == ["server-0"]

    def test_checks_count_shards_and_compared_groups(self):
        _cluster, oracle, _client, _fhandle, _host = _oracle_fleet(servers=2, replicas=1)
        assert oracle.checks == 0
        assert oracle.check("final") == []
        assert oracle.checks == 2
        assert oracle.check_divergence("quiesce") == []
        assert oracle.checks == 4
        assert oracle.acked_writes > 0 and oracle.clean


class TestTestbedAddClient:
    def test_auto_hosts_never_collide_with_explicit_names(self):
        testbed = Testbed(TestbedConfig())
        testbed.add_client(host="client-0")
        auto = testbed.add_client()  # must skip the taken name
        assert auto.rpc.endpoint.host == "client-1"
        assert testbed.add_client().rpc.endpoint.host == "client-2"

    def test_repeated_auto_hosts_are_unique(self):
        testbed = Testbed(TestbedConfig())
        hosts = [testbed.add_client().rpc.endpoint.host for _ in range(4)]
        assert len(set(hosts)) == 4
