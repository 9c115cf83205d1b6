"""Tests for the UFS write paths, clustering, fsync semantics, namespace,
and crash-consistency (durable image) behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import RZ26, DiskDevice
from repro.fs import (
    IO_DATAONLY,
    IO_DELAYDATA,
    IO_SYNC,
    NDIRECT,
    FileType,
    FsError,
    Ufs,
    VnodeTable,
)
from repro.fs.fsck import fsck
from repro.nvram import PrestoCache
from repro.sim import Environment

KB = 1024
MB = 1024 * 1024


def make_fs(env, presto=False, **kwargs):
    disk = DiskDevice(env, RZ26)
    storage = PrestoCache(env, disk) if presto else disk
    ufs = Ufs(env, storage, fs_bytes=256 * MB, **kwargs)
    return ufs, disk


def run(env, generator):
    """Drive a UFS generator inside a process and return its value."""

    def wrapper():
        result = yield from generator
        return result

    proc = env.process(wrapper())
    env.run(until=proc)
    return proc.value


def make_file(env, ufs, name="f"):
    return run(env, ufs.create(ufs.root, name))


class TestStandardWrite:
    def test_new_block_costs_data_plus_inode(self):
        env = Environment()
        ufs, disk = make_fs(env)
        inode = make_file(env, ufs)
        disk.stats.reset()
        result = run(env, ufs.write(inode, 0, b"x" * 8192, IO_SYNC))
        # data block + inode block, both synchronous; file still in direct
        # blocks so no indirect write.
        assert result.sync_transactions == 2
        assert disk.stats.by_kind == {"data": 1.0, "inode": 1.0}
        assert not result.metadata_dirty

    def test_indirect_block_written_past_direct_range(self):
        env = Environment()
        ufs, disk = make_fs(env)
        inode = make_file(env, ufs)
        offset = NDIRECT * 8192  # first indirect-mapped block
        disk.stats.reset()
        result = run(env, ufs.write(inode, offset, b"y" * 8192, IO_SYNC))
        assert result.sync_transactions == 3
        assert disk.stats.by_kind == {"data": 1.0, "inode": 1.0, "indirect": 1.0}

    def test_rewrite_is_mtime_only_async_inode(self):
        """The reference port's special case: a write to an allocated block
        changes only mtime, and that inode update is asynchronous."""
        env = Environment()
        ufs, disk = make_fs(env)
        inode = make_file(env, ufs)
        run(env, ufs.write(inode, 0, b"x" * 8192, IO_SYNC))
        disk.stats.reset()
        result = run(env, ufs.write(inode, 0, b"z" * 8192, IO_SYNC))
        assert result.sync_transactions == 1  # data only
        assert result.mtime_only
        assert disk.stats.by_kind == {"data": 1.0}
        assert inode.only_mtime_dirty

    def test_sequential_file_write_costs_about_3n(self):
        """§5: a new N-block file in the indirect range costs ~3N disk ops."""
        env = Environment()
        ufs, disk = make_fs(env)
        inode = make_file(env, ufs)
        nblocks = 30
        disk.stats.reset()

        def driver():
            for i in range(nblocks):
                yield from ufs.write(inode, i * 8192, b"a" * 8192, IO_SYNC)

        run(env, driver())
        total = disk.stats.transactions.value
        assert 2 * nblocks <= total <= 3 * nblocks + 2

    def test_write_validation(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs)
        with pytest.raises(FsError):
            run(env, ufs.write(inode, -1, b"x"))
        with pytest.raises(FsError):
            run(env, ufs.write(inode, 0, b""))
        with pytest.raises(FsError):
            run(env, ufs.write(ufs.root, 0, b"x"))

    def test_enospc_when_volume_full(self):
        env = Environment()
        disk = DiskDevice(env, RZ26)
        ufs = Ufs(env, disk, fs_bytes=1 * MB)
        inode = make_file(env, ufs)

        def driver():
            for i in range(1000):
                yield from ufs.write(inode, i * 8192, b"f" * 8192, IO_SYNC)

        with pytest.raises(FsError) as excinfo:
            run(env, driver())
        assert excinfo.value.code == "ENOSPC"


class TestDataOnlyAndDelayed:
    def test_dataonly_leaves_metadata_dirty(self):
        env = Environment()
        ufs, disk = make_fs(env, presto=True)
        inode = make_file(env, ufs)
        disk.stats.reset()
        result = run(env, ufs.write(inode, 0, b"x" * 8192, IO_SYNC | IO_DATAONLY))
        assert result.metadata_dirty
        assert inode.inode_dirty
        # Data accepted by NVRAM: durable without any disk data transaction yet.
        assert ufs.cache.durable.blocks  # committed via presto accept

    def test_delaydata_defers_everything(self):
        env = Environment()
        ufs, disk = make_fs(env)
        inode = make_file(env, ufs)
        disk.stats.reset()
        result = run(env, ufs.write(inode, 0, b"x" * 8192, IO_DELAYDATA))
        assert result.sync_transactions == 0
        assert disk.stats.transactions.value == 0
        assert ufs.cache.dirty_addrs()

    def test_delaydata_kicks_async_cluster_write(self):
        """Filling a full 64K cluster window starts an async clustered write."""
        env = Environment()
        ufs, disk = make_fs(env)
        inode = make_file(env, ufs)
        disk.stats.reset()

        def driver():
            for i in range(16):  # 128K: two full windows
                yield from ufs.write(inode, i * 8192, bytes([i]) * 8192, IO_DELAYDATA)

        run(env, driver())
        env.run()  # let async flushes complete
        assert disk.stats.transactions.value >= 1
        data_transfers = [k for k in disk.stats.by_kind if k == "data"]
        assert data_transfers
        # Clustered: far fewer transactions than 16 blocks.
        assert disk.stats.transactions.value <= 4

    def test_syncdata_flushes_range_clustered(self):
        env = Environment()
        ufs, disk = make_fs(env)
        inode = make_file(env, ufs)

        def driver():
            for i in range(8):  # 64K contiguous
                yield from ufs.write(inode, i * 8192, b"q" * 8192, IO_DELAYDATA)
            transactions = yield from ufs.sync_data(inode, 0, 8 * 8192)
            return transactions

        disk.stats.reset()
        result = run(env, driver())
        assert result <= 1 or disk.stats.transactions.value <= 2
        assert not ufs.cache.dirty_addrs()

    def test_fsync_metadata_only_skips_data(self):
        env = Environment()
        ufs, disk = make_fs(env)
        inode = make_file(env, ufs)
        run(env, ufs.write(inode, 0, b"x" * 8192, IO_DELAYDATA))
        disk.stats.reset()
        run(env, ufs.fsync(inode, metadata_only=True))
        assert "inode" in disk.stats.by_kind
        assert "data" not in disk.stats.by_kind
        assert ufs.cache.dirty_addrs()  # data still delayed

    def test_full_fsync_flushes_data_and_metadata(self):
        env = Environment()
        ufs, disk = make_fs(env)
        inode = make_file(env, ufs)
        run(env, ufs.write(inode, 0, b"x" * 8192, IO_DELAYDATA))
        disk.stats.reset()
        run(env, ufs.fsync(inode))
        assert "inode" in disk.stats.by_kind
        assert "data" in disk.stats.by_kind
        assert not ufs.cache.dirty_addrs()
        assert not inode.inode_dirty


class TestReadback:
    def test_write_then_read_roundtrip(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs)
        payload = bytes(range(256)) * 64  # 16K
        run(env, ufs.write(inode, 0, payload, IO_SYNC))
        assert run(env, ufs.read(inode, 0, len(payload))) == payload

    def test_read_hole_returns_zeros(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs)
        run(env, ufs.write(inode, 16384, b"x" * 8192, IO_SYNC))
        data = run(env, ufs.read(inode, 0, 8192))
        assert data == b"\x00" * 8192

    def test_read_past_eof_truncates(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs)
        run(env, ufs.write(inode, 0, b"abc", IO_SYNC))
        assert run(env, ufs.read(inode, 0, 100)) == b"abc"
        assert run(env, ufs.read(inode, 50, 10)) == b""

    def test_unaligned_write_and_read(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs)
        run(env, ufs.write(inode, 5000, b"hello world", IO_SYNC))
        assert run(env, ufs.read(inode, 5000, 11)) == b"hello world"

    def test_read_after_cache_drop_faults_from_durable(self):
        env = Environment()
        ufs, disk = make_fs(env)
        inode = make_file(env, ufs)
        payload = b"\xab" * 8192
        run(env, ufs.write(inode, 0, payload, IO_SYNC))
        ufs.cache.drop_clean()
        disk.stats.reset()
        assert run(env, ufs.read(inode, 0, 8192)) == payload
        assert disk.stats.reads.value == 1


class TestNamespace:
    def test_create_lookup(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs, "hello.txt")
        found = run(env, ufs.lookup(ufs.root, "hello.txt"))
        assert found is inode

    def test_create_duplicate_rejected(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        make_file(env, ufs, "dup")
        with pytest.raises(FsError) as excinfo:
            make_file(env, ufs, "dup")
        assert excinfo.value.code == "EEXIST"

    def test_lookup_missing_enoent(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        with pytest.raises(FsError) as excinfo:
            run(env, ufs.lookup(ufs.root, "ghost"))
        assert excinfo.value.code == "ENOENT"

    def test_remove_frees_blocks_and_stales_handles(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs, "victim")
        run(env, ufs.write(inode, 0, b"x" * 8192, IO_SYNC))
        ino = inode.ino
        before = ufs.allocator.allocated_count
        run(env, ufs.remove(ufs.root, "victim"))
        assert ufs.allocator.allocated_count < before
        with pytest.raises(FsError) as excinfo:
            ufs.get_inode(ino)
        assert excinfo.value.code == "ESTALE"

    def test_readdir_sorted(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        for name in ["zeta", "alpha", "mid"]:
            make_file(env, ufs, name)
        assert run(env, ufs.readdir(ufs.root)) == ["alpha", "mid", "zeta"]

    def test_subdirectory(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        subdir = run(env, ufs.create(ufs.root, "sub", FileType.DIRECTORY))
        inner = run(env, ufs.create(subdir, "inner"))
        assert run(env, ufs.lookup(subdir, "inner")) is inner

    def test_nondir_operations_rejected(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs)
        for generator in (
            ufs.lookup(inode, "x"),
            ufs.create(inode, "x"),
            ufs.remove(inode, "x"),
            ufs.readdir(inode),
        ):
            with pytest.raises(FsError):
                run(env, generator)


class TestDurability:
    def test_sync_write_is_durable_immediately(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs)
        payload = b"\x5a" * 8192
        run(env, ufs.write(inode, 0, payload, IO_SYNC))
        assert ufs.durable_read(inode.ino, 0, 8192) == payload

    def test_delayed_write_not_durable_until_fsync(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs)
        run(env, ufs.write(inode, 0, b"d" * 8192, IO_DELAYDATA))
        assert ufs.durable_read(inode.ino, 0, 8192) is None
        run(env, ufs.fsync(inode))
        assert ufs.durable_read(inode.ino, 0, 8192) == b"d" * 8192

    def test_dataonly_write_not_recoverable_without_metadata(self):
        """Data in stable storage is unreachable after a crash until the
        block pointers (inode) are also committed — the §6.3/§6.4 ordering."""
        env = Environment()
        ufs, _disk = make_fs(env, presto=True)
        inode = make_file(env, ufs)
        offset = NDIRECT * 8192  # indirect range: needs indirect block too
        run(env, ufs.write(inode, offset, b"p" * 8192, IO_SYNC | IO_DATAONLY))
        assert ufs.durable_read(inode.ino, offset, 8192) is None
        run(env, ufs.fsync(inode, metadata_only=True))
        assert ufs.durable_read(inode.ino, offset, 8192) == b"p" * 8192

    def test_removed_inode_leaves_image_before_its_blocks_are_reused(self):
        env = Environment()
        # One cylinder group, so the next file reuses the freed blocks.
        ufs = Ufs(env, DiskDevice(env, RZ26), fs_bytes=32 * MB)
        victim = make_file(env, ufs, "victim")
        run(env, ufs.write(victim, 0, b"v" * 16384, IO_DELAYDATA))
        run(env, ufs.fsync(victim))
        freed = {victim.block_addr(0), victim.block_addr(1)}
        run(env, ufs.remove(ufs.root, "victim"))
        assert victim.ino not in ufs.cache.durable.inodes
        heir = make_file(env, ufs, "heir")
        run(env, ufs.write(heir, 0, b"h" * 16384, IO_SYNC))
        assert {heir.block_addr(0), heir.block_addr(1)} == freed
        report = fsck(ufs, strict=True)
        assert report.clean, report.errors

    def test_late_inode_write_does_not_resurrect_removed_inode(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        victim = make_file(env, ufs, "victim")
        run(env, ufs.write(victim, 0, b"w" * (NDIRECT + 1) * 8192, IO_DELAYDATA))
        assert victim.inode_dirty and victim.indirect_dirty
        env.process(ufs.remove(ufs.root, "victim"))
        # An nfsd that resolved the file before the remove still syncs it;
        # its indirect and inode writes land after the unlink has committed.
        env.process(ufs.fsync(victim, metadata_only=True))
        env.run()
        assert victim.ino not in ufs.cache.durable.inodes
        assert victim.ino not in ufs.cache.durable.indirects
        assert fsck(ufs, strict=True).clean

    def test_crash_before_unlink_commits_keeps_removed_inode_durable(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        victim = make_file(env, ufs, "victim")
        payload = b"k" * 8192
        run(env, ufs.write(victim, 0, payload, IO_SYNC))
        remover = env.process(ufs.remove(ufs.root, "victim"))
        env.run(until=env.now + 0.0001)  # directory write submitted, not done
        assert not remover.triggered
        ufs.reset_volatile()
        assert victim.ino in ufs.cache.durable.inodes
        assert ufs.durable_read(victim.ino, 0, 8192) == payload
        assert fsck(ufs, strict=True).clean

    def test_sync_all_flushes_everything(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        inode = make_file(env, ufs)
        run(env, ufs.write(inode, 0, b"s" * 8192, IO_DELAYDATA))
        run(env, ufs.sync_all())
        assert not ufs.cache.dirty_addrs()
        assert ufs.durable_read(inode.ino, 0, 8192) == b"s" * 8192


class TestVnodeLayer:
    def test_vnode_table_resolves_fhandle(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        table = VnodeTable(env, ufs)
        inode = make_file(env, ufs)
        vnode = table.vnode_for(inode)
        assert table.by_fhandle(vnode.fhandle) is vnode

    def test_stale_fhandle_rejected(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        table = VnodeTable(env, ufs)
        inode = make_file(env, ufs, "gone")
        fhandle = table.vnode_for(inode).fhandle
        run(env, ufs.remove(ufs.root, "gone"))
        with pytest.raises(FsError):
            table.by_fhandle(fhandle)

    def test_vnode_lock_waiters_visible(self):
        env = Environment()
        ufs, _disk = make_fs(env)
        table = VnodeTable(env, ufs)
        inode = make_file(env, ufs)
        vnode = table.vnode_for(inode)
        observations = []

        def holder(env):
            with vnode.lock.request() as req:
                yield req
                yield env.timeout(5)

        def waiter(env):
            yield env.timeout(1)
            with vnode.lock.request() as req:
                yield req

        def observer(env):
            yield env.timeout(2)
            observations.append((vnode.locked(), vnode.waiters()))

        env.process(holder(env))
        env.process(waiter(env))
        env.process(observer(env))
        env.run()
        assert observations == [(True, 1)]


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 3), st.integers(0, 255)),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_readback_matches_reference_model(writes):
    """Arbitrary block-ish writes read back exactly like a flat bytearray."""
    env = Environment()
    disk = DiskDevice(env, RZ26)
    ufs = Ufs(env, disk, fs_bytes=256 * MB)
    inode = run(env, ufs.create(ufs.root, "prop"))
    reference = bytearray()

    def apply(offset, data):
        if len(reference) < offset + len(data):
            reference.extend(b"\x00" * (offset + len(data) - len(reference)))
        reference[offset : offset + len(data)] = data

    def driver():
        for block, nblocks, fill in writes:
            offset = block * 4096
            data = bytes([fill]) * (nblocks * 4096)
            apply(offset, data)
            yield from ufs.write(inode, offset, data, IO_SYNC)

    run(env, driver())
    readback = run(env, ufs.read(inode, 0, len(reference)))
    assert readback == bytes(reference)


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 255)), min_size=1, max_size=20
    )
)
@settings(max_examples=40, deadline=None)
def test_property_durable_after_fsync_matches_cache(writes):
    """After fsync, the durable image equals the live file content."""
    env = Environment()
    disk = DiskDevice(env, RZ26)
    ufs = Ufs(env, disk, fs_bytes=256 * MB)
    inode = run(env, ufs.create(ufs.root, "prop2"))

    def driver():
        for block, fill in writes:
            yield from ufs.write(inode, block * 8192, bytes([fill]) * 8192, IO_DELAYDATA)
        yield from ufs.fsync(inode)

    run(env, driver())
    live = run(env, ufs.read(inode, 0, inode.size))
    durable = ufs.durable_read(inode.ino, 0, inode.size)
    assert durable == live
