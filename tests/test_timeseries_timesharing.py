"""Tests for the §5 traffic cycles and the timesharing multiprocess client
workload."""

import statistics

import pytest

from repro.experiments import Testbed, TestbedConfig
from repro.net import ETHERNET, FDDI
from repro.rpc.messages import RpcCall
from repro.workload import run_timesharing

KB = 1024


class TestTrafficCycles:
    def test_standard_server_traffic_oscillates(self):
        """§5: 'A cycle of these uni-directional traffic shifts continues'
        — client write emissions come in trains separated by reply waits,
        so the per-10ms write rate is strongly bursty."""
        config = TestbedConfig(netspec=ETHERNET, write_path="standard", nbiods=4)
        testbed = Testbed(config)
        client = testbed.add_client()
        env = testbed.env
        start = env.now
        writes = []  # WRITE calls sent per 10 ms bucket
        endpoint = client.rpc.endpoint
        original_send = endpoint.send

        def counting_send(dst, payload, size):
            if isinstance(payload, RpcCall) and payload.proc == "write":
                index = int((env.now - start) / 0.01)
                writes.extend([0] * (index + 1 - len(writes)))
                writes[index] += 1
            original_send(dst, payload, size)

        endpoint.send = counting_send
        from repro.workload import write_file

        proc = env.process(write_file(env, client, "osc", 512 * KB))
        env.run(until=proc)
        rates = [count / 0.01 for count in writes]
        # Coefficient of variation of the per-bucket rates, and the share
        # of buckets with no WRITE at all (the silent half of a cycle).
        assert statistics.pstdev(rates) / statistics.mean(rates) > 1.0
        assert writes.count(0) / len(writes) > 0.4


class TestTimesharing:
    def run_host(self, write_path, processes=3, nbiods=4):
        config = TestbedConfig(netspec=FDDI, write_path=write_path, nbiods=nbiods)
        testbed = Testbed(config)
        client = testbed.add_client()
        env = testbed.env
        proc = env.process(
            run_timesharing(env, client, processes, 128 * KB), name="timesharing"
        )
        env.run(until=proc)
        return testbed, proc.value, env.now

    def test_all_processes_complete(self):
        testbed, elapsed, _total = self.run_host("gather")
        assert len(elapsed) == 3
        ufs = testbed.server.ufs
        for index in range(3):
            assert ufs.inodes[ufs.root.entries[f"ts.{index:02d}"]].size == 128 * KB

    def test_gathering_helps_the_timesharing_host(self):
        _tb1, _e1, std_total = self.run_host("standard")
        _tb2, _e2, gat_total = self.run_host("gather")
        assert gat_total < 0.8 * std_total

    def test_rough_fairness_across_processes(self):
        _testbed, elapsed, _total = self.run_host("gather")
        assert max(elapsed) < 3.0 * min(elapsed)

    def test_requires_a_process(self):
        config = TestbedConfig(netspec=FDDI)
        testbed = Testbed(config)
        client = testbed.add_client()
        with pytest.raises(ValueError):
            next(run_timesharing(testbed.env, client, 0, KB))
