"""Copy-on-write buffer cache: cached blocks share immutable bytes (the
zero block, the durable image, flush snapshots) until a real write lands,
and a write never reaches bytes that someone else still holds."""

import tracemalloc

from repro.disk import RZ26, DiskDevice
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.fs import IO_DELAYDATA, IO_SYNC, Ufs
from repro.fs import buffer_cache
from repro.fs.buffer_cache import _zero_block
from repro.net.spec import FDDI
from repro.payload import PAYLOAD_FLYWEIGHT, Extent
from repro.sim import Environment
from repro.workload.sequential import write_file

MB = 1024 * 1024
BLOCK = 8192


def make_fs(env):
    return Ufs(env, DiskDevice(env, RZ26), fs_bytes=256 * MB)


def run(env, generator):
    def wrapper():
        return (yield from generator)

    proc = env.process(wrapper())
    env.run(until=proc)
    return proc.value


def test_write_to_faulted_buffer_leaves_image_bytes_alone():
    env = Environment()
    ufs = make_fs(env)
    inode = run(env, ufs.create(ufs.root, "f"))
    run(env, ufs.write(inode, 0, b"a" * BLOCK, IO_SYNC))
    addr = inode.block_addr(0)
    durable = ufs.cache.durable
    committed = durable.blocks[addr]
    ufs.cache.drop_clean()

    buffer = ufs.cache.get(addr)
    assert buffer.data is committed  # the fault shares, it does not copy
    run(env, ufs.write(inode, 100, b"b" * 10, IO_DELAYDATA))

    assert durable.blocks[addr] is committed
    assert committed == b"a" * BLOCK
    assert isinstance(buffer.data, bytearray)
    assert bytes(buffer.data) == b"a" * 100 + b"b" * 10 + b"a" * (BLOCK - 110)


def test_write_after_flush_submit_keeps_snapshot_and_buffer_dirty():
    env = Environment()
    ufs = make_fs(env)
    inode = run(env, ufs.create(ufs.root, "f"))
    # Two half-block writes leave the buffer private (a bytearray).
    run(env, ufs.write(inode, 0, b"1" * (BLOCK // 2), IO_DELAYDATA))
    run(env, ufs.write(inode, BLOCK // 2, b"1" * (BLOCK // 2), IO_DELAYDATA))
    addr = inode.block_addr(0)
    assert isinstance(ufs.cache.lookup(addr).data, bytearray)
    runs = ufs.cache.plan_runs([addr])
    (done,) = ufs.cache.flush_runs_async(runs)
    (buffer, snapshot, snap_version), = runs[0].snapshots
    assert type(snapshot) is bytes
    assert buffer.data is snapshot  # the buffer keeps the one snapshot

    run(env, ufs.write(inode, 0, b"2" * 100, IO_DELAYDATA))
    assert not done.triggered
    assert snapshot == b"1" * BLOCK
    env.run(until=done)

    assert ufs.cache.durable.blocks[addr] is snapshot
    assert snapshot == b"1" * BLOCK
    assert buffer.version > snap_version
    assert buffer.dirty  # the later write still needs flushing
    assert bytes(buffer.data) == b"2" * 100 + b"1" * (BLOCK - 100)


def test_full_block_write_replaces_shared_bytes_without_touching_them():
    env = Environment()
    ufs = make_fs(env)
    inode = run(env, ufs.create(ufs.root, "f"))
    run(env, ufs.write(inode, 0, b"x" * BLOCK, IO_SYNC))
    addr = inode.block_addr(0)
    committed = ufs.cache.durable.blocks[addr]
    buffer = ufs.cache.lookup(addr)
    assert buffer.data is committed

    run(env, ufs.write(inode, 0, b"y" * BLOCK, IO_DELAYDATA))
    assert committed == b"x" * BLOCK
    assert buffer.data == b"y" * BLOCK
    assert buffer.dirty


def test_flyweight_buffers_share_the_zero_block_and_its_digest(monkeypatch):
    calls = []
    real_digest = buffer_cache.block_digest

    def counting_digest(data):
        calls.append(len(data))
        return real_digest(data)

    monkeypatch.setattr(buffer_cache, "block_digest", counting_digest)
    monkeypatch.setattr(buffer_cache, "_ZERO_DIGESTS", {})
    env = Environment()
    ufs = make_fs(env)
    inode = run(env, ufs.create(ufs.root, "f"))
    run(env, ufs.write(inode, 0, Extent(3 * BLOCK, seed=1), IO_SYNC))
    run(env, ufs.write(inode, 0, Extent(BLOCK, seed=2), IO_SYNC))

    zero = _zero_block(BLOCK)
    for fblock in range(3):
        addr = inode.block_addr(fblock)
        assert ufs.cache.lookup(addr).data is zero
        assert ufs.cache.durable.blocks[addr] is zero
    # Four flushed blocks, one digest computation: the memo hit the rest.
    assert calls == [BLOCK]


def test_flyweight_32mb_write_keeps_no_private_buffer_bytes():
    testbed = Testbed(TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7, seed=0))
    client = testbed.add_client()
    env = testbed.env
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        writer = env.process(
            write_file(env, client, "big", 32 * MB, payload=PAYLOAD_FLYWEIGHT)
        )
        env.run(until=writer)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert testbed.server.ufs.cache.durable.inodes
    assert peak - before < 4 * MB, f"traced peak rose {(peak - before) / MB:.1f} MB"


def test_whole_block_bytes_write_is_adopted_not_copied():
    env = Environment()
    ufs = make_fs(env)
    inode = run(env, ufs.create(ufs.root, "f"))
    data = bytes(range(256)) * (BLOCK // 256)
    run(env, ufs.write(inode, 0, data, IO_SYNC))
    addr = inode.block_addr(0)

    assert ufs.cache.lookup(addr).data is data
    assert ufs.cache.durable.blocks[addr] is data


def test_mutating_a_bytearray_payload_after_the_write_changes_nothing():
    env = Environment()
    ufs = make_fs(env)
    inode = run(env, ufs.create(ufs.root, "f"))
    data = bytearray(b"m" * BLOCK)
    run(env, ufs.write(inode, 0, data, IO_DELAYDATA))
    addr = inode.block_addr(0)
    data[:] = b"z" * BLOCK
    assert ufs.cache.lookup(addr).data == b"m" * BLOCK

    run(env, ufs.fsync(inode))
    assert ufs.cache.durable.blocks[addr] == b"m" * BLOCK


def test_partial_block_write_gets_a_private_copy():
    env = Environment()
    ufs = make_fs(env)
    inode = run(env, ufs.create(ufs.root, "f"))
    half = b"h" * (BLOCK // 2)
    run(env, ufs.write(inode, 0, half, IO_DELAYDATA))
    buffer = ufs.cache.lookup(inode.block_addr(0))

    assert isinstance(buffer.data, bytearray)
    run(env, ufs.write(inode, BLOCK // 2, b"t" * (BLOCK // 2), IO_DELAYDATA))
    assert bytes(buffer.data) == half + b"t" * (BLOCK // 2)
