"""Tests for the Prestoserve NVRAM model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import RZ26, DiskDevice
from repro.nvram import PrestoCache
from repro.sim import Environment

KB = 1024


def make_presto(env, **kwargs):
    disk = DiskDevice(env, RZ26)
    return PrestoCache(env, disk, **kwargs), disk


def test_small_write_completes_at_nvram_speed():
    env = Environment()
    presto, _disk = make_presto(env)

    def driver(env):
        yield presto.submit(0, 8 * KB)
        return env.now

    proc = env.process(driver(env))
    env.run(until=proc)
    # NVRAM copy: ~0.2ms overhead + 8K/40MB/s = ~0.4ms, far below any
    # spindle's ~13ms.  Allow slack for queueing noise.
    assert proc.value < 0.002


def test_large_write_declined_and_runs_at_disk_speed():
    env = Environment()
    presto, disk = make_presto(env)

    def driver(env):
        yield presto.submit(0, 64 * KB)
        return env.now

    proc = env.process(driver(env))
    env.run(until=proc)
    assert proc.value > 0.02  # spindle territory
    assert disk.stats.transactions.value == 1


def test_drain_eventually_flushes_to_disk():
    env = Environment()
    presto, disk = make_presto(env)

    def driver(env):
        for i in range(4):
            yield presto.submit(i * 8 * KB, 8 * KB)

    env.process(driver(env))
    env.run()
    assert presto.dirty_extents == []
    assert disk.stats.bytes.value == 32 * KB
    flushed_kinds = set(disk.stats.by_kind)
    assert flushed_kinds == {"presto-flush"}


def test_drain_clusters_adjacent_writes():
    """Presto does its own clustering: 8 adjacent 8K writes drain in far
    fewer than 8 disk transactions."""
    env = Environment()
    presto, disk = make_presto(env)

    def driver(env):
        events = [presto.submit(i * 8 * KB, 8 * KB) for i in range(8)]
        for event in events:
            yield event

    env.process(driver(env))
    env.run()
    assert disk.stats.bytes.value == 64 * KB
    assert disk.stats.transactions.value <= 3


def test_full_nvram_applies_backpressure():
    env = Environment()
    presto, _disk = make_presto(env, capacity=16 * KB)
    finish_times = []

    def driver(env):
        for i in range(6):
            yield presto.submit(i * 100 * 8 * KB, 8 * KB)  # non-adjacent
            finish_times.append(env.now)

    env.process(driver(env))
    env.run()
    # First two writes fit instantly; later ones must wait for disk drains.
    assert finish_times[1] < 0.005
    assert finish_times[3] > 0.005


def test_overwrite_does_not_leak_space():
    env = Environment()
    presto, _disk = make_presto(env, capacity=16 * KB)

    def driver(env):
        for _ in range(50):
            yield presto.submit(0, 8 * KB)  # same extent over and over

    proc = env.process(driver(env))
    env.run(until=proc)
    assert sum(end - start for start, end in presto.dirty_extents) <= 8 * KB


def test_reads_pass_through():
    env = Environment()
    presto, disk = make_presto(env)

    def driver(env):
        yield presto.submit(0, 8 * KB, is_write=False)

    env.run(until=env.process(driver(env)))
    assert disk.stats.reads.value == 1
    assert presto.stats.transactions.value == 0


def test_crash_recover_reports_unflushed_extents():
    env = Environment()
    # Huge flush size never triggers... drain still runs; so instead check
    # immediately after the copy completes, before the drain's disk write.
    presto, disk = make_presto(env)
    snapshots = []

    def driver(env):
        yield presto.submit(0, 8 * KB)
        snapshots.append(presto.dirty_extents)

    env.process(driver(env))
    env.run()
    assert snapshots[0] == [(0, 8 * KB)]
    assert presto.dirty_extents == []  # drained by end of run


def test_invalid_configs_rejected():
    env = Environment()
    disk = DiskDevice(env, RZ26)
    with pytest.raises(ValueError):
        PrestoCache(env, disk, capacity=0)
    with pytest.raises(ValueError):
        PrestoCache(env, disk, accept_limit=0)
    with pytest.raises(ValueError):
        PrestoCache(env, disk, capacity=8 * KB, accept_limit=16 * KB)
    with pytest.raises(ValueError):
        PrestoCache(env, disk, max_flush=0)
    presto = PrestoCache(env, disk)
    with pytest.raises(ValueError):
        presto.submit(0, 0)


def test_is_accelerated_flag():
    env = Environment()
    presto, disk = make_presto(env)
    assert presto.is_accelerated
    assert not getattr(disk, "is_accelerated", False)


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 100), st.integers(1, 8)), min_size=1, max_size=40
    )
)
@settings(max_examples=50, deadline=None)
def test_property_everything_accepted_is_eventually_on_disk(writes):
    """All bytes accepted into NVRAM reach the backing disk by quiescence,
    and dirty extents never overlap."""
    env = Environment()
    presto, disk = make_presto(env, capacity=1 << 20)
    covered = set()

    def driver(env):
        for block, length_kb in writes:
            offset = block * 8 * KB
            nbytes = length_kb * KB
            covered.update(range(offset, offset + nbytes, KB))
            yield presto.submit(offset, nbytes)
            extents = presto.dirty_extents
            for (s1, e1), (s2, e2) in zip(extents, extents[1:]):
                assert e1 < s2  # sorted and non-overlapping

    env.process(driver(env))
    env.run()
    assert presto.dirty_extents == []
    assert disk.stats.bytes.value >= len(covered) * KB


# -- dirty-extent bookkeeping against the linear reference ---------------------


def linear_insert(dirty, start, end):
    """The reference merge: one pass over every extent, merging the ones
    that overlap or touch ``[start, end)``."""
    merged = []
    placed = False
    for extent_start, extent_end in dirty:
        if extent_end < start or extent_start > end:
            if not placed and extent_start > end:
                merged.append((start, end))
                placed = True
            merged.append((extent_start, extent_end))
        else:
            start = min(start, extent_start)
            end = max(end, extent_end)
    if not placed:
        merged.append((start, end))
    return sorted(merged)


def linear_chunk(dirty, cursor, max_flush):
    """The reference drain step: a scan for the first extent at or past
    the cursor (wrapping to the lowest); returns (chunk, remaining)."""
    index = next((i for i, (start, _end) in enumerate(dirty) if start >= cursor), 0)
    start, end = dirty[index]
    chunk_end = start + min(end - start, max_flush)
    rest = dirty[:index] + ([(chunk_end, end)] if chunk_end < end else []) + dirty[index + 1 :]
    return (start, chunk_end), rest


_steps = st.lists(
    st.one_of(
        # Coarse units make touching and overlapping accepts common.
        st.tuples(st.just("accept"), st.integers(0, 24), st.integers(1, 6)),
        st.tuples(st.just("drain")),
        st.tuples(st.just("degrade"), st.floats(0, 1), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=60,
)


@given(steps=_steps)
@settings(max_examples=200, deadline=None)
def test_property_dirty_bookkeeping_matches_linear_merge(steps):
    """Accepts (overlapping, touching, disjoint), drain chunks and battery
    losses keep ``_dirty`` equal to the linear merge and ``_dirty_bytes``
    equal to the bytes it covers."""
    env = Environment()
    presto, _disk = make_presto(env, capacity=1 << 20, max_flush=512)
    reference = []
    cursor = 0
    for step in steps:
        if step[0] == "accept":
            start, end = step[1] * 64, (step[1] + step[2]) * 64
            before = sum(e - s for s, e in reference)
            reference = linear_insert(reference, start, end)
            grown = sum(e - s for s, e in reference) - before
            assert presto._insert_extent(start, end) == grown
        elif step[0] == "drain":
            if not reference:
                continue
            chunk, reference = linear_chunk(reference, cursor, presto.max_flush)
            cursor = chunk[1]
            assert presto._take_chunk() == chunk
        else:
            presto.arm_degrade(step[1], step[2])
            lost = presto.take_degraded()
            assert set(lost) <= set(reference)
            reference = [extent for extent in reference if extent not in lost]
        assert presto._dirty == reference
        assert presto._dirty_bytes == sum(end - start for start, end in reference)
