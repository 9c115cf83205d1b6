"""Integration tests for repro.overload against the full stack.

Soft/hard mount semantics end to end, the AIMD write window reacting to
real loss, gather's parked-queue cap forcing flushes, the RetransmitStorm
chaos event, and the cluster's per-shard failover budget.
"""

from repro.cluster import Cluster, ClusterConfig
from repro.core.policy import GatherPolicy
from repro.experiments import Testbed, TestbedConfig
from repro.faults import AtTime, FaultController, FaultPlan, RetransmitStorm
from repro.net import FDDI
from repro.nfs.protocol import NfsError
from repro.overload import AdaptiveRetryPolicy, WriteWindow
from repro.workload import write_file

KB = 1024


def gather_testbed(**config_kwargs):
    config = TestbedConfig(netspec=FDDI, write_path="gather", **config_kwargs)
    return Testbed(config)


class TestMountSemantics:
    def test_soft_mount_surfaces_etimedout(self):
        """A soft mount (finite retry budget) against an unreachable server
        fails the NFS operation with ETIMEDOUT instead of hanging."""
        testbed = gather_testbed()
        policy = AdaptiveRetryPolicy(
            initial_rto=0.01, min_rto=0.001, jitter=0.0, max_attempts=3
        )
        client = testbed.add_client(policy=policy)
        testbed.segment.partition(testbed.server.host)
        env = testbed.env
        outcome = {}

        def driver(env):
            try:
                yield from client.create("f")
            except NfsError as err:
                outcome["code"] = err.code

        env.run(until=env.process(driver(env)))
        env.run()
        assert outcome["code"] == "ETIMEDOUT"
        # The budget bounds transmissions exactly: 3 sends, 3 expiries.
        assert client.rpc.timeouts.value == 3
        assert client.rpc.completed.value == 0

    def test_hard_mount_rides_out_an_outage(self):
        """A hard mount (no budget) retries through a partition and the
        write completes once the network heals — no error ever surfaces."""
        testbed = gather_testbed()
        policy = AdaptiveRetryPolicy(initial_rto=0.05, min_rto=0.01, jitter=0.0)
        client = testbed.add_client(policy=policy)
        env = testbed.env
        testbed.segment.partition(testbed.server.host)

        def healer(env):
            yield env.timeout(0.5)
            testbed.segment.heal(testbed.server.host)

        env.process(healer(env), name="healer")
        proc = env.process(write_file(env, client, "f", 32 * KB))
        env.run(until=proc)
        env.run()

        assert client.rpc.retransmissions.value >= 1
        assert testbed.server.stable_violations == []
        ino = testbed.server.ufs.root.entries["f"]
        assert len(testbed.server.ufs.durable_read(ino, 0, 32 * KB)) == 32 * KB


class TestWriteWindowIntegration:
    def test_window_halves_under_loss_and_regrows_after(self):
        testbed = gather_testbed()
        window = WriteWindow(initial=8, maximum=16)
        policy = AdaptiveRetryPolicy(initial_rto=0.05, min_rto=0.01, jitter=0.0)
        client = testbed.add_client(policy=policy, write_window=window)
        env = testbed.env

        testbed.segment.set_loss_rate(0.5)
        proc = env.process(write_file(env, client, "lossy", 64 * KB))
        env.run(until=proc)
        env.run()
        assert window.halvings >= 1  # write timeouts shrank the window

        testbed.segment.set_loss_rate(0.0)
        ramps_before = window.ramps
        proc = env.process(write_file(env, client, "clean", 64 * KB))
        env.run(until=proc)
        env.run()
        assert window.ramps > ramps_before  # clean completions regrow it
        assert 1 <= window.slots <= window.maximum


class TestGatherParkedCap:
    def test_max_parked_forces_a_flush(self):
        """Bounding the parked queue is backpressure on the gather path:
        once ``max_parked`` writes sit waiting for evidence, the batch is
        flushed instead of parking more."""
        testbed = gather_testbed(gather_policy=GatherPolicy(max_parked=2))
        client = testbed.add_client()
        env = testbed.env
        proc = env.process(write_file(env, client, "f", 64 * KB, think_time=0.0))
        env.run(until=proc)
        env.run()

        assert testbed.server.write_path.stats.forced_flushes.value >= 1
        assert testbed.server.stable_violations == []
        ino = testbed.server.ufs.root.entries["f"]
        assert len(testbed.server.ufs.durable_read(ino, 0, 64 * KB)) == 64 * KB


class TestRetransmitStormEvent:
    def test_storm_clamps_buffer_and_loss_then_reverts(self):
        testbed = gather_testbed()
        client = testbed.add_client()
        env = testbed.env
        inbox = testbed.server.endpoint.inbox
        original_capacity = inbox.capacity_bytes
        plan = FaultPlan(
            "storm",
            (
                RetransmitStorm(
                    AtTime(0.02),
                    loss_rate=0.25,
                    capacity_bytes=24 * KB,
                    duration=0.05,
                ),
            ),
        )
        controller = FaultController(testbed, plan).start()
        samples = {}

        def prober(env):
            yield env.timeout(0.04)  # mid-storm
            samples["loss"] = testbed.segment.loss_rate
            samples["capacity"] = inbox.capacity_bytes

        env.process(prober(env), name="probe")
        proc = env.process(write_file(env, client, "f", 64 * KB))
        env.run(until=proc)
        env.run()

        assert samples["loss"] == 0.25
        assert samples["capacity"] == 24 * KB
        assert testbed.segment.loss_rate == 0.0
        assert inbox.capacity_bytes == original_capacity
        assert controller.log and controller.log[0]["kind"] == "retransmit_storm"
        # The copy still converged through the storm (hard-mount retries).
        ino = testbed.server.ufs.root.entries["f"]
        assert len(testbed.server.ufs.durable_read(ino, 0, 64 * KB)) == 64 * KB


class TestClusterFailoverBudget:
    def test_budget_is_terminal_when_the_route_does_not_change(self):
        """A pinned file's shard dies and the mount map never redirects:
        the per-shard budget turns the stranded write into ETIMEDOUT."""
        cluster = Cluster(ClusterConfig(servers=2, seed=0, failover_attempts=2))
        client = cluster.add_client()
        env = cluster.env
        outcome = {}

        def driver(env):
            open_file = yield from client.create("victim")
            yield from client.write_stream(open_file, b"\xaa" * (8 * KB))
            # The fhandle is now pinned to its shard; kill that shard's
            # network presence and try again.
            shard = cluster.router.server_for_fhandle(open_file.fhandle)
            cluster.segment_of(shard).partition(shard)
            try:
                # Write-behind captures the asynchronous failure; the
                # sync-on-close is where it surfaces to the application.
                yield from client.write_stream(open_file, b"\xbb" * (8 * KB))
                yield from client.close(open_file)
            except NfsError as err:
                outcome["code"] = err.code

        env.run(until=env.process(driver(env)))
        env.run()
        assert outcome["code"] == "ETIMEDOUT"

    def test_budget_redirects_once_the_map_moves_the_name(self):
        """The shard dies mid-call but failover removes it from the mount
        map: exhausting the budget re-resolves the route and the call
        lands on the surviving shard instead of failing."""
        cluster = Cluster(ClusterConfig(servers=2, seed=0, failover_attempts=2))
        client = cluster.add_client()
        env = cluster.env
        dead = cluster.servers[0].host
        live = cluster.servers[1].host
        # A name the map currently places on the doomed shard.
        name = next(
            f"f{i}" for i in range(200) if cluster.shard_map.server_for(f"f{i}") == dead
        )
        cluster.segment_of(dead).partition(dead)

        def failover(env):
            # Default RTO schedule: attempt 1 expires at 1.1 s, attempt 2
            # at 3.3 s — remove the shard between the two.
            yield env.timeout(2.0)
            cluster.shard_map.remove_server(dead)

        env.process(failover(env), name="failover")
        proc = env.process(write_file(env, client, name, 16 * KB))
        env.run(until=proc)
        env.run()

        survivor = cluster.server_by_host(live)
        assert name in survivor.ufs.root.entries
        ino = survivor.ufs.root.entries[name]
        assert len(survivor.ufs.durable_read(ino, 0, 16 * KB)) == 16 * KB
        assert cluster.stable_violations_total() == 0
