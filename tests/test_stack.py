"""One server-stack builder: a testbed and every cluster member are the
same stack, built from the same shared config fields.

One fixture stands up each system shape — a Testbed, a one-server
Cluster without backups, and one with a backup — under two hardware and
protocol setups, and one test body checks them all.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.cluster.fleet import Cluster, ClusterConfig
from repro.disk.device import DiskDevice
from repro.disk.stripe import StripeSet
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.fs.ufs import CostModel
from repro.nfs.cache import CacheStack
from repro.nvram.presto import PrestoCache
from repro.server.config import ServerConfig, WritePath

MB = 1024 * 1024

#: Shared fields, each off its default so a dropped field shows.
SETUPS = {
    "plain": dict(
        write_path="gather", nfsds=5, cpu_scale=0.75, verify_stable=False
    ),
    "loaded": dict(
        write_path="async_commit",
        nfsds=3,
        cpu_scale=0.5,
        verify_stable=True,
        lease_ttl=2.0,
        unstable_limit_bytes=128 * 1024,
        presto_bytes=1 * MB,
        stripes=2,
    ),
}

#: Expected member hosts and spindle names per system shape (two spindles
#: when striped: the ``{k}`` suffix runs over the stripe).
SHAPES = {
    "testbed": [("server", "RZ26{}")],
    "cluster-k0": [("server-0", "RZ26-s0{}")],
    "cluster-k1": [("server-0", "RZ26-s0{}"), ("server-0.b1", "RZ26-s0b1{}")],
}


@pytest.fixture(params=[(s, h) for s in SHAPES for h in SETUPS], ids="-".join)
def system(request):
    """A built system, its member stacks, and what each should look like."""
    shape, setup = request.param
    fields = SETUPS[setup]
    if shape == "testbed":
        built = Testbed(TestbedConfig(**fields))
        stacks = [built]
    else:
        replicas = 1 if shape == "cluster-k1" else 0
        built = Cluster(ClusterConfig(servers=1, replicas=replicas, **fields))
        stacks = built.stacks[0]
    yield SimpleNamespace(
        built=built, stacks=stacks, fields=fields, expected=SHAPES[shape]
    )


def test_every_stack_is_built_from_the_shared_fields(system):
    fields = system.fields
    stripes = fields.get("stripes", 1)
    default = ServerConfig()
    assert [stack.server.host for stack in system.stacks] == [
        host for host, _ in system.expected
    ]
    for stack, (host, disk_pattern) in zip(system.stacks, system.expected):
        server = stack.server
        assert stack.env is system.built.env
        assert server.segment is stack.segment
        assert server.storage is stack.storage
        # Each shared field reaches the server's ServerConfig.
        config = server.config
        assert config.nfsds == fields["nfsds"]
        assert config.write_path == WritePath.coerce(fields["write_path"])
        assert config.cpu_scale == fields["cpu_scale"]
        assert config.verify_stable == fields["verify_stable"]
        assert config.lease_ttl == fields.get("lease_ttl")
        assert config.unstable_limit_bytes == fields.get(
            "unstable_limit_bytes", default.unstable_limit_bytes
        )
        # cpu_scale reaches every filesystem cost, Presto's trip included.
        for cost in dataclasses.fields(CostModel):
            assert getattr(server.ufs.costs, cost.name) == (
                cost.default * fields["cpu_scale"]
            ), cost.name
        # Hardware: one spindle per stripe, pinned names, Presto iff asked.
        assert [disk.name for disk in stack.disks] == [
            disk_pattern.format(f"-{k}") for k in range(stripes)
        ]
        presto = fields.get("presto_bytes")
        assert isinstance(stack.storage, PrestoCache) == bool(presto)
        if presto:
            assert stack.storage.capacity == presto
            below = stack.storage.backing
        else:
            below = stack.storage
        if stripes > 1:
            assert isinstance(below, StripeSet)
        else:
            assert below is stack.disks[0]


def test_every_client_matches_the_config(system):
    fields = system.fields
    client = system.built.add_client()
    is_async = fields["write_path"] == "async_commit"
    assert client.nfs_version == (3 if is_async else 2)
    assert (client.write_window is not None) == is_async
    leased = fields.get("lease_ttl") is not None
    assert isinstance(client.cache, CacheStack) == leased
    assert client.nbiods == system.built.config.nbiods


def test_testbed_keeps_the_shape_perfbench_reads(monkeypatch):
    # perfbench wraps Testbed.__init__ and Cluster.__init__ (only a
    # function the class itself defines), counts every system a wrapped
    # constructor builds, and tells the two apart by ``groups``.
    assert "__init__" in vars(Testbed)
    built = []
    original = Cluster.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Cluster, "__init__", counting)
    testbed = Testbed(TestbedConfig(stripes=2))
    assert built == []
    assert not hasattr(testbed, "groups")
    assert isinstance(testbed.disks, list)
    assert [type(disk) for disk in testbed.disks] == [DiskDevice, DiskDevice]
