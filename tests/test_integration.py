"""End-to-end integration tests: full client/server stack over the network.

These exercise the paper's correctness claims: the crash-recovery contract
(stable storage before reply), exactly-one-reply semantics under duplicates
and gathering, shared mtimes within a gathered batch, FIFO reply order, and
data integrity through every server variant.
"""

import pytest

from repro.experiments import Testbed, TestbedConfig
from repro.core import GatherPolicy
from repro.net import ETHERNET, FDDI
from repro.nfs import NfsError, WriteArgs, call_size, reply_size
from repro.workload import patterned_chunk, write_file, write_random

KB = 1024
MB = 1024 * 1024


def run_copy(config, file_kb=256, **kwargs):
    testbed = Testbed(config)
    client = testbed.add_client()
    env = testbed.env
    proc = env.process(write_file(env, client, "f", file_kb * KB, **kwargs))
    env.run(until=proc)
    return testbed, client, proc.value


class TestDataIntegrity:
    @pytest.mark.parametrize("write_path", ["standard", "gather", "siva"])
    def test_file_contents_survive_the_stack(self, write_path):
        config = TestbedConfig(netspec=FDDI, write_path=write_path, nbiods=4)
        testbed, client, _elapsed = run_copy(config, file_kb=128)
        env = testbed.env

        def reader(env):
            handle = yield from client.open("f")
            collected = b""
            offset = 0
            while offset < 128 * KB:
                _fattr, data = yield from client.read(handle, offset, 8 * KB)
                collected += data
                offset += 8 * KB
            return collected

        proc = env.process(reader(env))
        env.run(until=proc)
        expected = b"".join(patterned_chunk(i, 8 * KB) for i in range(16))
        assert proc.value == expected

    @pytest.mark.parametrize("presto", [False, True])
    def test_gathered_file_is_durable_after_close(self, presto):
        config = TestbedConfig(
            netspec=FDDI,
            write_path="gather",
            nbiods=7,
            presto_bytes=1 * MB if presto else None,
        )
        testbed, _client, _elapsed = run_copy(config, file_kb=256)
        ufs = testbed.server.ufs
        ino = ufs.root.entries["f"]
        durable = ufs.durable_read(ino, 0, 256 * KB)
        expected = b"".join(patterned_chunk(i, 8 * KB) for i in range(32))
        assert durable == expected


class TestStableStorageInvariant:
    @pytest.mark.parametrize("write_path", ["standard", "gather", "siva"])
    @pytest.mark.parametrize("presto", [False, True])
    def test_no_reply_before_stable_commit(self, write_path, presto):
        """The paper's core contract: every replied byte range (and its
        covering metadata) is on stable storage at reply time."""
        config = TestbedConfig(
            netspec=ETHERNET,
            write_path=write_path,
            nbiods=7,
            presto_bytes=1 * MB if presto else None,
            verify_stable=True,
        )
        testbed, _client, _elapsed = run_copy(config, file_kb=256)
        assert testbed.server.stable_violations == []

    def test_invariant_holds_under_random_access(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7, verify_stable=True)
        testbed = Testbed(config)
        client = testbed.add_client()
        env = testbed.env
        proc = env.process(write_random(env, client, "r", 512 * KB, writes=64))
        env.run(until=proc)
        assert testbed.server.stable_violations == []


class TestGatheringSemantics:
    def drive_concurrent_writes(self, config, nwrites=8):
        """Issue nwrites concurrent WRITE RPCs for the same new file and
        return (testbed, list of (reply_order_index, offset, Fattr))."""
        testbed = Testbed(config)
        client = testbed.add_client()
        env = testbed.env
        results = []

        def one_write(open_file, index):
            args = WriteArgs(open_file.fhandle, index * 8 * KB, patterned_chunk(index))
            reply = yield from client.rpc.call(
                "write",
                args,
                size=call_size("write", args),
                reply_size=reply_size("write", args),
                weight="heavy",
            )
            results.append((index, reply.result))

        def driver(env):
            open_file = yield from client.create("burst")
            procs = [
                env.process(one_write(open_file, i)) for i in range(nwrites)
            ]
            for proc in procs:
                yield proc

        env.run(until=env.process(driver(env)))
        return testbed, results

    def test_gathered_replies_share_one_mtime(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=8)
        testbed, results = self.drive_concurrent_writes(config)
        stats = testbed.server.write_path.stats
        assert stats.batches.value >= 1
        # All writes flushed in one batch carry the same file modify time;
        # with a simultaneous burst we expect a single batch.
        mtimes = {fattr.mtime for _index, fattr in results}
        if stats.batches.value == 1:
            assert len(mtimes) == 1
        assert len(mtimes) <= stats.batches.value

    def test_replies_fifo_by_arrival(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=8)
        testbed, results = self.drive_concurrent_writes(config)
        # results appended in reply-arrival order; requests were sent in
        # index order over one NIC, so FIFO means ascending indices within
        # each batch.  With one batch the whole sequence is ascending.
        indices = [index for index, _fattr in results]
        if testbed.server.write_path.stats.batches.value == 1:
            assert indices == sorted(indices)

    def test_lifo_policy_reverses_batch_order(self):
        config = TestbedConfig(
            netspec=FDDI,
            write_path="gather",
            nbiods=8,
            gather_policy=GatherPolicy(reply_order="lifo"),
        )
        testbed, results = self.drive_concurrent_writes(config)
        indices = [index for index, _fattr in results]
        if testbed.server.write_path.stats.batches.value == 1:
            assert indices == sorted(indices, reverse=True)

    def test_exactly_one_reply_per_request(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=8)
        testbed, results = self.drive_concurrent_writes(config, nwrites=12)
        svc = testbed.server.svc
        assert len(results) == 12
        assert svc.replies_sent.value == svc.requests_received.value

    def test_no_descriptors_left_behind(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=8)
        testbed, _results = self.drive_concurrent_writes(config)
        assert testbed.server.write_path.queues.pending_total() == 0

    def test_single_writer_procrastinates_once_then_flushes(self):
        config = TestbedConfig(netspec=ETHERNET, write_path="gather", nbiods=0)
        testbed, _client, _elapsed = run_copy(config, file_kb=64)
        stats = testbed.server.write_path.stats
        assert stats.procrastinations.value >= 8  # one per lonely write
        assert stats.mean_batch_size() == pytest.approx(1.0)
        assert stats.gather_success_rate() == 0.0

    def test_burst_gathers_into_few_batches(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=15)
        testbed, _client, _elapsed = run_copy(config, file_kb=512)
        stats = testbed.server.write_path.stats
        assert stats.mean_batch_size() > 4
        assert stats.gather_success_rate() > 0.8


class TestFaults:
    def test_stale_handle_rejected_with_estale(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather")
        testbed = Testbed(config)
        client = testbed.add_client()
        env = testbed.env

        def driver(env):
            open_file = yield from client.create("doomed")
            yield from client.write_stream(open_file, b"x" * 8192)
            yield from client.close(open_file)
            yield from client.remove("doomed")
            try:
                # The write is handed to a biod; sync-on-close surfaces the
                # asynchronous ESTALE (the same path that captures ENOSPC).
                yield from client.write_at(open_file, 0, b"y" * 8192)
                yield from client.close(open_file)
            except NfsError as exc:
                return exc.code
            return None

        proc = env.process(driver(env))
        env.run(until=proc)
        assert proc.value == "ESTALE"

    def test_enospc_surfaces_at_close(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=4)
        testbed = Testbed(config)
        testbed.server.ufs.allocator = type(testbed.server.ufs.allocator)(
            2 * MB, testbed.server.ufs.block_size
        )
        client = testbed.add_client()
        env = testbed.env

        def driver(env):
            try:
                yield from write_file(env, client, "huge", 8 * MB)
            except NfsError as exc:
                return exc.code
            return None

        proc = env.process(driver(env))
        env.run(until=proc)
        assert proc.value == "ENOSPC"

    def test_lossy_network_completes_without_orphans(self):
        """Frame loss causes retransmissions and duplicates; §6.9 demands
        no orphaned writes and exactly one effective reply per request."""
        config = TestbedConfig(
            netspec=ETHERNET, write_path="gather", nbiods=7, verify_stable=True, seed=3
        )
        testbed = Testbed(config)
        testbed.segment.loss_rate = 0.05
        client = testbed.add_client()
        env = testbed.env
        proc = env.process(write_file(env, client, "lossy", 256 * KB))
        env.run(until=proc)
        assert client.rpc.retransmissions.value > 0
        assert testbed.server.write_path.queues.pending_total() == 0
        assert testbed.server.stable_violations == []
        ufs = testbed.server.ufs
        ino = ufs.root.entries["lossy"]
        expected = b"".join(patterned_chunk(i, 8 * KB) for i in range(32))
        assert ufs.durable_read(ino, 0, 256 * KB) == expected


class TestMultipleClients:
    def test_concurrent_clients_separate_files(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=4, verify_stable=True)
        testbed = Testbed(config)
        clients = [testbed.add_client() for _ in range(3)]
        env = testbed.env
        procs = [
            env.process(write_file(env, client, f"file-{i}", 128 * KB))
            for i, client in enumerate(clients)
        ]

        def waiter(env):
            for proc in procs:
                yield proc

        env.run(until=env.process(waiter(env)))
        assert testbed.server.stable_violations == []
        ufs = testbed.server.ufs
        for i in range(3):
            ino = ufs.root.entries[f"file-{i}"]
            assert ufs.durable_read(ino, 0, 128 * KB) is not None
