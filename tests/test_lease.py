"""Tests for repro.lease: grants, caching, recalls, failover, the oracle."""

import pytest

from repro.experiments.testbed import Testbed, TestbedConfig
from repro.lease import LEASE_WRITE, StalenessOracle
from repro.nfs.cache import NEGATIVE
from repro.nfs.client import NfsError
from repro.sim import Environment
from repro.workload.sequential import patterned_chunk

CHUNK = 8192


def _testbed(ttl=30.0, clients=2, **kw):
    testbed = Testbed(TestbedConfig(lease_ttl=ttl, seed=0, **kw))
    for _ in range(clients):
        testbed.add_client()
    return testbed


def _run(env, gen, name="t"):
    proc = env.process(gen, name=name)
    env.run(until=proc)
    return proc.value


def _rpcs(client) -> float:
    return client.rpcs_per_op.numerator.value


class TestGrants:
    def test_create_grants_write_lease(self):
        testbed = _testbed()
        client = testbed.clients[0]

        def go():
            open_file = yield from client.create("f")
            return open_file

        open_file = _run(testbed.env, go())
        assert client.cache.lease_valid(open_file.fhandle, LEASE_WRITE)

    def test_repeat_lookup_served_from_cache(self):
        testbed = _testbed()
        client = testbed.clients[0]

        def go():
            open_file = yield from client.create("f")
            yield from client.close(open_file)
            yield from client.lookup("f")
            before = _rpcs(client)
            yield from client.lookup("f")
            yield from client.lookup("f")
            return before

        before = _run(testbed.env, go())
        assert _rpcs(client) == before  # no wire traffic for the repeats
        assert client.cache.dirent_hits.value == 2

    def test_negative_lookup_cached_under_dir_lease(self):
        testbed = _testbed()
        client = testbed.clients[0]

        def go():
            with pytest.raises(NfsError):
                yield from client.lookup("missing")
            before = _rpcs(client)
            with pytest.raises(NfsError):
                yield from client.lookup("missing")
            return before

        before = _run(testbed.env, go())
        assert _rpcs(client) == before
        assert client.cache.negative_hits.value == 1

    def test_own_rename_drops_both_cached_names(self):
        testbed = _testbed()
        client = testbed.clients[0]

        def go():
            open_file = yield from client.create("old")
            yield from client.close(open_file)
            yield from client.lookup("old")  # a cached positive entry
            with pytest.raises(NfsError):
                yield from client.lookup("new")  # a cached negative entry
            yield from client.rename("old", "new")
            with pytest.raises(NfsError):
                yield from client.lookup("old")
            fhandle, _fattr = yield from client.lookup("new")
            return open_file.fhandle, fhandle

        created, renamed = _run(testbed.env, go())
        assert renamed == created

    def test_getattr_and_read_served_from_cache(self):
        testbed = _testbed()
        client = testbed.clients[0]

        def go():
            open_file = yield from client.create("f")
            yield from client.write_stream(open_file, patterned_chunk(0, CHUNK))
            yield from client.close(open_file)
            open_file = yield from client.open("f")
            yield from client.read(open_file, 0, CHUNK)
            before = _rpcs(client)
            yield from client.getattr(open_file.fhandle)
            fattr, data = yield from client.read(open_file, 0, CHUNK)
            return before, data

        before, data = _run(testbed.env, go())
        assert _rpcs(client) == before
        assert client.cache.attr_hits.value >= 1
        assert client.cache.data_hits.value >= 1
        assert data == patterned_chunk(0, CHUNK)

    def test_grants_ride_error_replies(self):
        # An ENOENT lookup still grants the directory lease (it is what
        # makes the negative entry servable at all).
        testbed = _testbed()
        client = testbed.clients[0]

        def go():
            with pytest.raises(NfsError):
                yield from client.lookup("nope")

        _run(testbed.env, go())
        assert client.cache.held_leases()  # the dir read lease arrived


class TestWriteBack:
    def test_full_blocks_deferred_then_flushed_at_close(self):
        testbed = _testbed()
        client = testbed.clients[0]
        env = testbed.env

        def go():
            open_file = yield from client.create("f")
            yield from client.write_stream(open_file, patterned_chunk(0, CHUNK))
            yield from client.write_stream(open_file, patterned_chunk(1, CHUNK))
            deferred = client.cache.deferred_writes.value
            server_writes = testbed.server.ops_completed["write"].value
            yield from client.close(open_file)
            return deferred, server_writes

        deferred, server_writes_before_close = _run(env, go())
        assert deferred == 2
        assert server_writes_before_close == 0  # nothing hit the wire yet
        env.run()
        assert testbed.server.ops_completed["write"].value == 2
        assert client.cache.flushed_blocks.value == 2

    def test_no_write_lease_means_write_through(self):
        # Opening an existing file grants only a read lease: writes must
        # not be absorbed.
        testbed = _testbed()
        c0, c1 = testbed.clients

        def setup():
            open_file = yield from c0.create("f")
            yield from c0.close(open_file)

        def go():
            open_file = yield from c1.open("f")
            yield from c1.write_stream(open_file, patterned_chunk(0, CHUNK))
            yield from c1.close(open_file)

        _run(testbed.env, setup())
        _run(testbed.env, go())
        assert c1.cache.deferred_writes.value == 0
        assert testbed.server.ops_completed["write"].value == 1


class TestRecall:
    def test_conflicting_write_recalls_and_flushes_holder(self):
        testbed = _testbed()
        c0, c1 = testbed.clients
        env = testbed.env
        oracle = StalenessOracle(env)
        oracle.attach_testbed(testbed)

        def holder():
            open_file = yield from c0.create("hot")
            yield from c0.write_stream(open_file, patterned_chunk(0, CHUNK))
            yield from c0.write_stream(open_file, patterned_chunk(1, CHUNK))
            yield env.timeout(1.0)
            yield from c0.close(open_file)
            return open_file

        def writer():
            yield env.timeout(0.1)
            open_file = yield from c1.open("hot")
            yield from c1.write_stream(open_file, patterned_chunk(9, CHUNK))
            yield from c1.close(open_file)

        hold = env.process(holder(), name="holder")
        write = env.process(writer(), name="writer")
        env.run(until=write)
        env.run(until=hold)
        env.run()
        manager = testbed.server.leases
        assert manager.recalls_sent.value >= 1
        assert manager.recall_acks.value >= 1
        assert c0.cache.recalls_served.value >= 1
        # The recall flushed the holder's dirty set before the writer ran.
        assert c0.cache.flushed_blocks.value == 2
        assert oracle.clean, oracle.violations

    def test_negative_dirent_invalidated_by_remote_create(self):
        # c0 caches "newfile does not exist"; c1 then creates it.  The
        # create must recall c0's dir lease so c0's next lookup sees it.
        testbed = _testbed()
        c0, c1 = testbed.clients
        env = testbed.env
        oracle = StalenessOracle(env)
        oracle.attach_testbed(testbed)

        def go():
            with pytest.raises(NfsError):
                yield from c0.lookup("newfile")
            assert c0.cache.dirent_hit(c0.root_fhandle, "newfile") is NEGATIVE
            open_file = yield from c1.create("newfile")
            yield from c1.close(open_file)
            # The negative entry is gone with the recalled dir lease...
            assert c0.cache.dirent_hit(c0.root_fhandle, "newfile") is None
            # ...and the lookup now goes to the server and succeeds.
            fhandle, fattr = yield from c0.lookup("newfile")
            return fhandle

        fhandle = _run(env, go())
        assert fhandle is not None
        assert oracle.clean, oracle.violations

    def test_ttl_expiry_during_partition_unblocks_writer(self):
        # The recall can never reach the partitioned holder: the writer
        # must proceed at lease expiry, not hang, and the holder must not
        # serve another hit once its lease lapses.
        ttl = 2.0
        testbed = _testbed(ttl=ttl)
        c0, c1 = testbed.clients
        env = testbed.env
        oracle = StalenessOracle(env)
        oracle.attach_testbed(testbed)

        def holder():
            open_file = yield from c0.create("hot")
            yield from c0.write_stream(open_file, patterned_chunk(0, CHUNK))
            testbed.segment.partition("client-0")
            yield env.timeout(4.0)
            testbed.segment.heal("client-0")
            yield from c0.close(open_file)

        def writer():
            yield env.timeout(0.2)
            open_file = yield from c1.open("hot")
            yield from c1.write_stream(open_file, patterned_chunk(9, CHUNK))
            yield from c1.close(open_file)
            return env.now

        hold = env.process(holder(), name="holder")
        write = env.process(writer(), name="writer")
        env.run(until=write)
        done_at = write.value
        env.run(until=hold)
        env.run()
        manager = testbed.server.leases
        assert manager.recall_expirations.value == 1
        # Blocked until the holder's lease (granted ~t=0) expired.
        assert ttl <= done_at < ttl + 1.0
        assert oracle.clean, oracle.violations

    def test_recall_racing_retransmitted_write_hits_dup_cache(self):
        # The writer's WRITE stalls on a recall that must wait out the
        # partitioned holder's TTL (2 s) — past the client's RTO — so the
        # same xid is retransmitted into the server's dup-cache while the
        # original is still executing.  Exactly one write may apply.
        ttl = 2.0
        testbed = _testbed(ttl=ttl)
        c0, c1 = testbed.clients
        env = testbed.env
        oracle = StalenessOracle(env)
        oracle.attach_testbed(testbed)

        def holder():
            open_file = yield from c0.create("hot")
            yield from c0.write_stream(open_file, patterned_chunk(0, CHUNK))
            testbed.segment.partition("client-0")
            yield env.timeout(4.0)
            testbed.segment.heal("client-0")
            yield from c0.close(open_file)

        def writer():
            yield env.timeout(0.2)
            open_file = yield from c1.open("hot")
            yield from c1.write_stream(open_file, patterned_chunk(9, CHUNK))
            yield from c1.close(open_file)

        hold = env.process(holder(), name="holder")
        write = env.process(writer(), name="writer")
        env.run(until=write)
        env.run(until=hold)
        env.run()
        svc = testbed.server.svc
        assert c1.rpc.retransmissions.value >= 1
        assert (
            svc.duplicates_dropped.value + svc.duplicates_replayed.value >= 1
        )
        # One application write (plus the healed holder's late flush).
        assert testbed.server.ops_completed["write"].value == 2
        assert oracle.clean, oracle.violations


class TestCoverageGap:
    def test_entry_from_expired_lease_not_served_under_new_lease(self):
        # c0's dir lease lapses; c1 removes a file (no recall needed); a
        # later lookup of a *different* name re-grants c0 the dir lease.
        # The pre-gap positive dirent must not ride back in under it.
        ttl = 1.0
        testbed = _testbed(ttl=ttl)
        c0, c1 = testbed.clients
        env = testbed.env
        oracle = StalenessOracle(env)
        oracle.attach_testbed(testbed)

        def go():
            for name in ("a", "b"):
                open_file = yield from c1.create(name)
                yield from c1.close(open_file)
            yield from c0.lookup("a")  # cached under the dir lease
            yield env.timeout(1.5)  # the lease lapses
            yield from c1.remove("a")  # no conflict: c0's lease expired
            yield from c0.lookup("b")  # fresh dir lease, coverage gap behind it
            with pytest.raises(NfsError):
                yield from c0.lookup("a")

        _run(env, go())
        env.run()
        assert oracle.clean, oracle.violations


class TestClusterFailover:
    def test_promotion_reregisters_leases_via_reroute(self):
        # A call in flight during the promotion repoint discovers the new
        # primary via re-resolve; the cache stack must re-register its
        # leases with it (whose table started empty).
        from repro.cluster import Cluster, ClusterConfig, ShardCrash
        from repro.cluster.failover import FailoverController

        config = ClusterConfig(
            servers=2, replicas=1, quorum=1, lease_ttl=30.0, seed=1
        )
        cluster = Cluster(config)
        client = cluster.add_client()
        env = cluster.env
        victim = cluster.servers[0].host
        name = next(
            f"file-{i}"
            for i in range(32)
            if cluster.shard_map.server_for(f"file-{i}") == victim
        )

        def setup():
            open_file = yield from client.create(name)
            yield from client.write_stream(open_file, patterned_chunk(0, CHUNK))
            yield from client.close(open_file)

        _run(env, setup())
        held_before = dict(client.cache.held_leases())
        assert held_before  # the write lease from create is still live

        def probe():
            yield env.timeout(4.5 - env.now)
            yield from client.lookup(name)

        FailoverController(
            cluster, [ShardCrash(at=4.5002, shard=0, promote=True)]
        ).start()
        proc = env.process(probe(), name="probe")
        env.run(until=proc)
        env.run()
        assert client.cache.reregistrations.value >= 1
        promoted = cluster.groups[0].primary
        assert promoted.host != victim
        assert promoted.leases.granted.value >= 1

    def test_promoted_backup_opens_grace_window(self):
        from repro.cluster import Cluster, ClusterConfig, ShardCrash
        from repro.cluster.failover import FailoverController

        config = ClusterConfig(
            servers=2, replicas=1, quorum=1, lease_ttl=5.0, seed=1
        )
        cluster = Cluster(config)
        cluster.add_client()
        env = cluster.env
        FailoverController(
            cluster, [ShardCrash(at=1.0, shard=0, promote=True)]
        ).start()
        env.run(until=env.timeout(2.0))
        promoted = cluster.groups[0].primary
        assert promoted.leases.grace_until == pytest.approx(1.0 + 5.0)


class TestOracleUnit:
    def test_flags_stale_hit_by_other_client(self):
        env = Environment()
        oracle = StalenessOracle(env)
        key = (7, 0)
        oracle._on_mutate(key, "client-1")
        oracle._on_hit("client-0", "attr", key, fetched_at=-1.0, dirty=False)
        assert not oracle.clean
        assert "stale attr hit" in oracle.violations[0]

    def test_ignores_own_mutations_and_dirty_hits(self):
        env = Environment()
        oracle = StalenessOracle(env)
        key = (7, 0)
        oracle._on_mutate(key, "client-0")
        oracle._on_hit("client-0", "attr", key, fetched_at=-1.0, dirty=False)
        oracle._on_hit("client-1", "data", key, fetched_at=-1.0, dirty=True)
        assert oracle.clean

    def test_check_returns_each_violation_once(self):
        oracle = StalenessOracle(Environment())
        assert oracle.check("crash#1") == []
        oracle.violations.append("one")
        assert oracle.check("crash#2") == ["one"]
        assert oracle.check("final") == []
        oracle.violations.append("two")
        assert oracle.check("final") == ["two"]
        assert oracle.violations == ["one", "two"]

    def test_crash_check_reports_instead_of_raising(self):
        """A fault controller checks its oracle at every server crash; a
        recorded staleness violation must not abort the run."""
        from repro.faults import AtTime, FaultController, FaultPlan, ServerCrash

        testbed = _testbed()
        oracle = StalenessOracle(testbed.env)
        oracle.attach_testbed(testbed)
        key = (7, 0)
        oracle._on_mutate(key, "client-1")
        oracle._on_hit("client-0", "attr", key, fetched_at=-1.0, dirty=False)
        plan = FaultPlan("crash", events=(ServerCrash(trigger=AtTime(0.01)),))
        controller = FaultController(testbed, plan, oracle=oracle).start()
        testbed.env.run(until=0.1)
        assert controller.crashes == 1
        assert len(oracle.violations) == 1
        assert "stale attr hit" in oracle.violations[0]


class TestExperiment:
    @staticmethod
    def _tiny(chaos=False, **kw):
        from repro.lease.experiment import CacheConfig

        return CacheConfig(
            lease_ttls=(1.0,),
            sharing_ratios=(0.9,),
            clients=2,
            ops_per_client=8,
            workloads=("copy",),
            chaos=chaos,
            **kw,
        )

    def test_seeded_rerun_is_byte_identical(self):
        from repro.lease.experiment import run_cache

        first = run_cache(self._tiny(seed=3))
        second = run_cache(self._tiny(seed=3))
        assert first.to_json() == second.to_json()

    def test_leases_reduce_rpcs_on_shared_reads(self):
        from repro.lease.experiment import run_cache

        report = run_cache(self._tiny())
        cell = report.headline
        assert cell is not None
        assert cell["reduction"] > 1.0
        assert report.clean, report.violations

    def test_chaos_probes_are_clean(self):
        from repro.lease.experiment import CacheConfig, run_cache

        config = CacheConfig(
            lease_ttls=(1.0,),
            sharing_ratios=(0.9,),
            clients=2,
            ops_per_client=4,
            workloads=(),
            chaos=True,
        )
        report = run_cache(config)
        assert len(report.probes) == 3
        for probe in report.probes:
            assert probe["clean"], (probe["name"], probe)
        # Each probe proves its adversity actually happened.
        by_name = {probe["name"]: probe for probe in report.probes}
        assert by_name["crash_mid_recall"]["leases"]["grace_delays"] >= 1
        assert by_name["lost_callback"]["leases"]["recall_expirations"] >= 1
        assert by_name["partition_expiry"]["leases"]["recall_expirations"] >= 1

    def test_headline_defaults_to_axis_top(self):
        from repro.lease.experiment import CacheConfig

        config = CacheConfig(lease_ttls=(2.0, 8.0), sharing_ratios=(0.1, 0.7))
        assert config.headline_ttl == 8.0
        assert config.headline_sharing == 0.7

    def test_cli_smoke(self, capsys):
        import json

        from repro.cli import main

        status = main(
            [
                "cache",
                "--ttls",
                "30",
                "--sharing",
                "0.9",
                "--clients",
                "3",
                "--ops",
                "20",
                "--no-chaos",
                "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert status == 0
        assert report["clean"] is True
        assert report["headline"]["meets_target"] is True
        assert report["grid"]
