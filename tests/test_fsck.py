"""Tests for the durable-image fsck, including crash scenarios across all
server write paths."""

import pytest

from repro.experiments import Testbed, TestbedConfig
from repro.fs.fsck import fsck
from repro.fs.inode import InodeSnapshot
from repro.net import FDDI
from repro.workload import write_file

KB = 1024


def written_testbed(write_path="gather", file_kb=256, presto=False):
    config = TestbedConfig(
        netspec=FDDI,
        write_path=write_path,
        nbiods=7,
        presto_bytes=(1 << 20) if presto else None,
    )
    testbed = Testbed(config)
    client = testbed.add_client()
    env = testbed.env
    proc = env.process(write_file(env, client, "f", file_kb * KB))
    env.run(until=proc)
    return testbed


class TestCleanImages:
    @pytest.mark.parametrize("write_path", ["standard", "gather", "siva"])
    def test_clean_after_file_copy(self, write_path):
        testbed = written_testbed(write_path)
        report = fsck(testbed.server.ufs, strict=True)
        assert report.clean, report.errors
        assert report.files_checked >= 2  # root dir + file
        assert report.blocks_referenced >= 32

    def test_clean_with_presto(self):
        testbed = written_testbed(presto=True)
        report = fsck(testbed.server.ufs, strict=True)
        assert report.clean, report.errors

    def test_summary_format(self):
        testbed = written_testbed()
        report = fsck(testbed.server.ufs)
        assert "CLEAN" in report.summary()


class TestCrashScenarios:
    def test_crash_image_structurally_sound(self):
        """A crash may lose data but must never corrupt structure: fsck in
        crash mode finds no errors mid-copy on any write path."""
        for write_path in ("standard", "gather", "siva"):
            config = TestbedConfig(netspec=FDDI, write_path=write_path, nbiods=7)
            testbed = Testbed(config)
            client = testbed.add_client()
            env = testbed.env
            env.process(write_file(env, client, "f", 512 * KB))
            # Stop mid-flight at several points and check each image.
            for stop_at in (0.05, 0.2, 0.5):
                env.run(until=stop_at)
                report = fsck(testbed.server.ufs, strict=False)
                assert report.clean, (write_path, stop_at, report.errors)

    def test_crash_then_recovery_is_strict_clean(self):
        testbed = written_testbed("gather")
        testbed.server.simulate_crash()
        report = fsck(testbed.server.ufs, strict=False)
        assert report.clean, report.errors


class TestCorruptionDetection:
    def make_ufs(self):
        return written_testbed("standard", file_kb=64).server.ufs

    def corrupt_snapshot(self, ufs, **overrides):
        ino = ufs.root.entries["f"]
        snapshot = ufs.cache.durable.inodes[ino]
        fields = dict(
            size=snapshot.size,
            mtime=snapshot.mtime,
            direct=snapshot.direct,
            indirect_addr=snapshot.indirect_addr,
            generation=snapshot.generation,
        )
        fields.update(overrides)
        ufs.cache.durable.inodes[ino] = InodeSnapshot(**fields)
        return ino

    def test_detects_unaligned_pointer(self):
        ufs = self.make_ufs()
        ino = ufs.root.entries["f"]
        snapshot = ufs.cache.durable.inodes[ino]
        bad = list(snapshot.direct)
        bad[0] = bad[0] + 1  # unaligned
        self.corrupt_snapshot(ufs, direct=tuple(bad))
        report = fsck(ufs)
        assert not report.clean
        assert any("unaligned" in error for error in report.errors)

    def test_detects_out_of_bounds_pointer(self):
        ufs = self.make_ufs()
        ino = ufs.root.entries["f"]
        snapshot = ufs.cache.durable.inodes[ino]
        bad = list(snapshot.direct)
        bad[0] = 1 << 60
        self.corrupt_snapshot(ufs, direct=tuple(bad))
        report = fsck(ufs)
        assert any("out of bounds" in error for error in report.errors)

    def pointer_errors(self, ufs, addr):
        """fsck's errors once the file's first block points at ``addr``."""
        ino = ufs.root.entries["f"]
        bad = list(ufs.cache.durable.inodes[ino].direct)
        bad[0] = addr
        self.corrupt_snapshot(ufs, direct=tuple(bad))
        return fsck(ufs).errors

    def test_detects_pointer_into_inode_table(self):
        ufs = self.make_ufs()
        errors = self.pointer_errors(ufs, ufs.allocator.groups[0].inode_table_start)
        assert any("inode table" in error for error in errors)

    @pytest.mark.parametrize("table_block", ["first", "last"])
    def test_detects_pointer_into_last_group_inode_table(self, table_block):
        ufs = self.make_ufs()
        assert len(ufs.allocator.groups) > 1
        group = ufs.allocator.groups[-1]
        if table_block == "first":
            addr = group.inode_table_start
        else:
            addr = group.data_start - ufs.block_size
        errors = self.pointer_errors(ufs, addr)
        assert any("inode table" in error for error in errors)

    @pytest.mark.parametrize("group_index", [0, -1])
    def test_first_data_block_is_outside_the_inode_table(self, group_index):
        ufs = self.make_ufs()
        errors = self.pointer_errors(ufs, ufs.allocator.groups[group_index].data_start)
        assert not any("inode table" in error for error in errors)

    def test_detects_double_allocation(self):
        ufs = self.make_ufs()
        ino = ufs.root.entries["f"]
        snapshot = ufs.cache.durable.inodes[ino]
        bad = list(snapshot.direct)
        bad[1] = bad[0]  # two file blocks, one disk block
        self.corrupt_snapshot(ufs, direct=tuple(bad))
        report = fsck(ufs)
        assert any("claimed by both" in error for error in report.errors) or any(
            "claimed" in error for error in report.errors
        )

    def test_detects_missing_backing_in_strict_mode(self):
        ufs = self.make_ufs()
        ino = ufs.root.entries["f"]
        snapshot = ufs.cache.durable.inodes[ino]
        victim_addr = snapshot.direct[0]
        del ufs.cache.durable.blocks[victim_addr]
        strict = fsck(ufs, strict=True)
        relaxed = fsck(ufs, strict=False)
        assert any("no durable content" in error for error in strict.errors)
        assert relaxed.clean
        assert relaxed.warnings

    def test_detects_negative_size(self):
        ufs = self.make_ufs()
        self.corrupt_snapshot(ufs, size=-1)
        report = fsck(ufs)
        assert any("negative" in error for error in report.errors)
