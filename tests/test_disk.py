"""Tests for the disk model, device, and stripe set — including calibration
checks against the paper's RZ26 throughput anchors."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import RZ26, DiskDevice, DiskModel, IoRequest, StripeSet
from repro.sim import Environment

KB = 1024


def run_back_to_back(env, device, offsets_lengths):
    """Submit requests one at a time (synchronously) and return total time."""

    def driver(env):
        for offset, nbytes in offsets_lengths:
            yield device.submit(offset, nbytes)

    proc = env.process(driver(env))
    env.run(until=proc)
    return env.now


class TestDiskModel:
    def test_seek_time_monotonic_in_distance(self):
        model = DiskModel(RZ26)
        d1 = model.seek_time(1 * KB)
        d2 = model.seek_time(100_000 * KB)
        d3 = model.seek_time(RZ26.capacity_bytes)
        assert 0 < d1 < d2 < d3 <= RZ26.seek_max + 1e-9

    def test_zero_distance_no_seek(self):
        model = DiskModel(RZ26)
        assert model.seek_time(0) == 0.0

    def test_contiguous_request_costs_one_revolution(self):
        model = DiskModel(RZ26)
        model.service_time(0, 8 * KB)
        t = model.service_time(8 * KB, 8 * KB)
        expected = RZ26.overhead + RZ26.revolution_time + 8 * KB / RZ26.media_rate
        assert t == pytest.approx(expected)

    def test_seeking_request_costs_seek_plus_half_rev(self):
        model = DiskModel(RZ26)
        model.service_time(0, 8 * KB)
        far = RZ26.capacity_bytes // 2
        t = model.service_time(far, 8 * KB)
        assert t > RZ26.overhead + RZ26.rotational_latency
        assert t < RZ26.overhead + RZ26.seek_max + RZ26.rotational_latency + 0.01

    def test_invalid_requests_rejected(self):
        model = DiskModel(RZ26)
        with pytest.raises(ValueError):
            model.service_time(0, 0)
        with pytest.raises(ValueError):
            model.service_time(-1, 8 * KB)

    def test_reset_forgets_head(self):
        model = DiskModel(RZ26)
        model.service_time(0, 8 * KB)
        model.reset()
        assert model._head is None

    def test_calibration_sequential_64k_near_paper_raw_rate(self):
        """Paper: RZ26 raw device write bandwidth limit ~1.9 MB/s at 64K."""
        model = DiskModel(RZ26)
        total = 0.0
        offset = 0
        for _ in range(100):
            total += model.service_time(offset, 64 * KB)
            offset += 64 * KB
        rate_kbs = (100 * 64 * KB / total) / KB
        assert 1600 <= rate_kbs <= 2100

    def test_calibration_8k_with_seeks_near_paper_small_write_rate(self):
        """Paper Table 1: ~60-75 transactions/s for 8K data+inode traffic."""
        model = DiskModel(RZ26)
        # FFS keeps a file's inode in the same cylinder group as its data,
        # so the inode<->data seek is short (tens of MB), not full-stroke.
        inode_area = 1 * KB * KB
        data_area = 17 * KB * KB
        total = 0.0
        count = 0
        for i in range(100):
            total += model.service_time(data_area + i * 8 * KB, 8 * KB)
            total += model.service_time(inode_area, 8 * KB)
            count += 2
        tps = count / total
        assert 58 <= tps <= 85


class TestDiskDevice:
    def test_serves_fifo_one_at_a_time(self):
        env = Environment()
        device = DiskDevice(env, RZ26)
        done_order = []

        def submit_all(env):
            events = [device.submit(i * 8 * KB, 8 * KB) for i in range(3)]
            for i, event in enumerate(events):
                event.callbacks.append(lambda _ev, i=i: done_order.append(i))
            yield env.timeout(0)

        env.process(submit_all(env))
        env.run()
        assert done_order == [0, 1, 2]

    def test_stats_accumulate(self):
        env = Environment()
        device = DiskDevice(env, RZ26)
        run_back_to_back(env, device, [(0, 8 * KB), (8 * KB, 8 * KB)])
        assert device.stats.transactions.value == 2
        assert device.stats.bytes.value == 16 * KB
        assert device.stats.writes.value == 2
        assert device.stats.busy.utilization() > 0.9  # back-to-back

    def test_queue_depth_tracks_outstanding(self):
        env = Environment()
        device = DiskDevice(env, RZ26)
        depths = []

        def submit_all(env):
            for i in range(4):
                device.submit(i * 8 * KB, 8 * KB)
            depths.append(device.queue_depth())
            yield env.timeout(0)

        env.process(submit_all(env))
        env.run()
        assert depths == [4]
        assert device.queue_depth() == 0

    def test_kind_accounting(self):
        env = Environment()
        device = DiskDevice(env, RZ26)

        def driver(env):
            yield device.submit(0, 8 * KB, kind="data")
            yield device.submit(99 * KB, 8 * KB, kind="inode")
            yield device.submit(0, 8 * KB, is_write=False, kind="data")

        env.run(until=env.process(driver(env)))
        assert device.stats.by_kind == {"data": 2.0, "inode": 1.0}
        assert device.stats.reads.value == 1

    def test_io_request_validation(self):
        with pytest.raises(ValueError):
            IoRequest(offset=0, nbytes=0)
        with pytest.raises(ValueError):
            IoRequest(offset=-5, nbytes=8)


class TestStripeSet:
    def make(self, env, ndisks=3, unit=8 * KB):
        members = [DiskDevice(env, RZ26, name=f"rz26-{i}") for i in range(ndisks)]
        return StripeSet(env, members, stripe_unit=unit), members

    def test_requires_members(self):
        env = Environment()
        with pytest.raises(ValueError):
            StripeSet(env, [])

    def test_single_unit_maps_round_robin(self):
        env = Environment()
        stripe, _members = self.make(env)
        assert stripe.map_extent(0, 8 * KB) == [(0, 0, 8 * KB)]
        assert stripe.map_extent(8 * KB, 8 * KB) == [(1, 0, 8 * KB)]
        assert stripe.map_extent(16 * KB, 8 * KB) == [(2, 0, 8 * KB)]
        assert stripe.map_extent(24 * KB, 8 * KB) == [(0, 8 * KB, 8 * KB)]

    def test_large_extent_coalesces_per_member(self):
        env = Environment()
        stripe, _members = self.make(env)
        extents = stripe.map_extent(0, 64 * KB)  # 8 units over 3 disks
        # units 0,3,6 -> member 0; 1,4,7 -> member 1; 2,5 -> member 2
        assert extents == [
            (0, 0, 24 * KB),
            (1, 0, 24 * KB),
            (2, 0, 16 * KB),
        ]
        assert sum(e[2] for e in extents) == 64 * KB

    def test_unaligned_extent(self):
        env = Environment()
        stripe, _members = self.make(env)
        extents = stripe.map_extent(4 * KB, 8 * KB)  # spans units 0 and 1
        assert extents == [(0, 4 * KB, 4 * KB), (1, 0, 4 * KB)]

    def test_parallel_submit_faster_than_serial(self):
        env = Environment()
        stripe, members = self.make(env)

        def driver(env):
            yield stripe.submit(0, 64 * KB)

        env.run(until=env.process(driver(env)))
        striped_time = env.now

        env2 = Environment()
        single = DiskDevice(env2, RZ26)

        def driver2(env2):
            yield single.submit(0, 64 * KB)

        env2.run(until=env2.process(driver2(env2)))
        assert striped_time < env2.now

    def test_reset_stats_clears_members(self):
        env = Environment()
        stripe, members = self.make(env)

        def driver(env):
            yield stripe.submit(0, 64 * KB)

        env.run(until=env.process(driver(env)))
        assert sum(member.stats.transactions.value for member in members) == 3
        stripe.reset_stats()
        assert all(member.stats.transactions.value == 0 for member in members)


@given(
    offset=st.integers(0, 10_000_000),
    nbytes=st.integers(1, 1_000_000),
    ndisks=st.integers(1, 5),
    unit=st.sampled_from([4 * KB, 8 * KB, 64 * KB]),
)
@settings(max_examples=200, deadline=None)
def test_property_stripe_mapping_covers_request(offset, nbytes, ndisks, unit):
    """Every mapped byte range is within members and covers >= the request."""
    env = Environment()
    members = [DiskDevice(env, RZ26, name=f"d{i}") for i in range(ndisks)]
    stripe = StripeSet(env, members, stripe_unit=unit)
    extents = stripe.map_extent(offset, nbytes)
    assert all(0 <= member < ndisks for member, _o, _l in extents)
    assert all(length > 0 for _m, _o, length in extents)
    total = sum(length for _m, _o, length in extents)
    assert total >= nbytes
    members_seen = [member for member, _o, _l in extents]
    assert members_seen == sorted(set(members_seen))  # one extent per member


@given(
    lengths=st.lists(st.integers(1, 16), min_size=1, max_size=20),
)
@settings(max_examples=50, deadline=None)
def test_property_device_time_positive_and_additive(lengths):
    """Serial submissions take the sum of their service times (no overlap)."""
    env = Environment()
    device = DiskDevice(env, RZ26)
    pairs = []
    offset = 0
    for length in lengths:
        pairs.append((offset, length * KB))
        offset += length * KB
    total = run_back_to_back(env, device, pairs)
    assert total > 0
    assert device.stats.transactions.value == len(lengths)
    assert device.stats.busy.busy_time == pytest.approx(total, rel=1e-9)


def test_completed_io_request_is_freed_by_refcount():
    """A completed I/O is not a reference cycle (its event carries no
    value and the request drops the event), with the cycle collector off."""
    env = Environment()
    disk = DiskDevice(env, RZ26)
    gc.disable()
    try:
        first = disk.submit(0, 8192)
        ref = weakref.ref(disk._pending[-1])
        env.run(until=first)
        # The serve loop holds its last request until it picks the next.
        env.run(until=disk.submit(8192, 8192))
        assert first.value is None
        assert ref() is None
    finally:
        gc.enable()
