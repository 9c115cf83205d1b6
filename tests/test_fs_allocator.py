"""Tests for cylinder-group block/inode allocation."""

import pytest

from repro.fs import Allocator, NoSpace

KB = 1024
MB = 1024 * 1024


def test_groups_partition_capacity():
    alloc = Allocator(capacity_bytes=256 * MB, group_size=32 * MB)
    assert len(alloc.groups) == 8


def test_sequential_allocations_are_contiguous():
    alloc = Allocator(capacity_bytes=256 * MB)
    first = alloc.allocate_near(ino=2)
    second = alloc.allocate_near(ino=2)
    third = alloc.allocate_near(ino=2)
    assert second == first + alloc.block_size
    assert third == second + alloc.block_size


def test_inode_and_data_share_cylinder_group():
    """The inode<->data seek distance must be intra-group (locality)."""
    alloc = Allocator(capacity_bytes=256 * MB, group_size=32 * MB)
    ino = 10
    inode_addr = alloc.inode_block_addr(ino)
    data_addr = alloc.allocate_near(ino)
    assert abs(data_addr - inode_addr) < 32 * MB


def test_different_inos_map_to_different_groups():
    alloc = Allocator(capacity_bytes=256 * MB, group_size=32 * MB)
    addrs = {alloc.group_for_inode(ino) for ino in range(8)}
    assert len(addrs) == 8


def test_free_and_reuse():
    alloc = Allocator(capacity_bytes=64 * MB)
    addr = alloc.allocate_near(2)
    count = alloc.allocated_count
    alloc.free(addr)
    assert alloc.allocated_count == count - 1
    again = alloc.allocate_near(2)
    assert again == addr  # free list reuse


def test_double_free_rejected():
    alloc = Allocator(capacity_bytes=64 * MB)
    addr = alloc.allocate_near(2)
    alloc.free(addr)
    with pytest.raises(ValueError):
        alloc.free(addr)


def test_spill_into_next_group():
    alloc = Allocator(capacity_bytes=2 * MB, group_size=1 * MB, inode_table_blocks=4)
    # group data area: 1MB - 4*8K = 96 blocks usable after 32K inode table
    seen_groups = set()
    for _ in range(200):
        try:
            addr = alloc.allocate_near(0)
        except NoSpace:
            break
        seen_groups.add(addr // (1 * MB))
    assert seen_groups == {0, 1}


def test_exhaustion_raises_nospace():
    alloc = Allocator(capacity_bytes=1 * MB, group_size=1 * MB, inode_table_blocks=4)
    with pytest.raises(NoSpace):
        for _ in range(10_000):
            alloc.allocate_near(0)


def test_too_small_capacity_rejected():
    with pytest.raises(ValueError):
        Allocator(capacity_bytes=8 * KB, group_size=8 * KB, inode_table_blocks=4)


def test_inode_block_addr_stable():
    alloc = Allocator(capacity_bytes=256 * MB)
    assert alloc.inode_block_addr(7) == alloc.inode_block_addr(7)
