"""Tests for the network substrate: specs, segments, socket buffers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ETHERNET, FDDI, Datagram, Segment, SocketBuffer
from repro.sim import Environment

KB = 1024


class TestNetSpec:
    def test_ethernet_fragments_8k_write_into_six(self):
        assert ETHERNET.frames_for(8 * KB + 160) == 6

    def test_fddi_fragments_8k_write_into_two(self):
        assert FDDI.frames_for(8 * KB + 160) == 2

    def test_small_request_single_frame(self):
        assert ETHERNET.frames_for(120) == 1

    def test_wire_time_scales_with_size(self):
        assert ETHERNET.wire_time(8 * KB) > 10 * ETHERNET.wire_time(512)

    def test_fddi_is_faster(self):
        assert FDDI.wire_time(8 * KB) < ETHERNET.wire_time(8 * KB) / 5

    def test_gather_intervals_match_paper(self):
        assert ETHERNET.gather_interval == pytest.approx(0.008)
        assert FDDI.gather_interval == pytest.approx(0.005)

    def test_zero_payload_rejected(self):
        with pytest.raises(ValueError):
            ETHERNET.frames_for(0)


class TestSegment:
    def test_delivery(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        segment.attach("client")
        server = segment.attach("server")
        received = []

        def receiver(env):
            datagram = yield server.recv()
            received.append((env.now, datagram.payload))

        def sender(env):
            yield env.timeout(0)
            segment.endpoint("client").send("server", "hello", 200)

        env.process(receiver(env))
        env.process(sender(env))
        env.run()
        assert len(received) == 1
        when, payload = received[0]
        assert payload == "hello"
        # one frame: (200+42)*8/10Mb = ~0.19ms, plus latency 0.4ms
        assert when == pytest.approx((200 + 42) * 8 / 10e6 + ETHERNET.latency)

    def test_unknown_destination_rejected(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        client = segment.attach("client")
        with pytest.raises(ValueError):
            client.send("nobody", "x", 100)

    def test_duplicate_attach_rejected(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        segment.attach("host")
        with pytest.raises(ValueError):
            segment.attach("host")

    def test_shared_medium_serializes_senders(self):
        """Two hosts sending big datagrams at once: total time ~ sum."""
        env = Environment()
        segment = Segment(env, ETHERNET)
        a = segment.attach("a")
        b = segment.attach("b")
        sink = segment.attach("sink")
        done = []

        def receiver(env):
            for _ in range(2):
                datagram = yield sink.recv()
                done.append((env.now, datagram.src))

        def sender(env, endpoint):
            yield env.timeout(0)
            endpoint.send("sink", "bulk", 8 * KB)

        env.process(receiver(env))
        env.process(sender(env, a))
        env.process(sender(env, b))
        env.run()
        assert len(done) == 2
        single = ETHERNET.wire_time(8 * KB)
        assert done[-1][0] >= 2 * single * 0.9

    def test_full_socket_buffer_drops(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        client = segment.attach("client")
        segment.attach("server", buffer_bytes=10 * KB)

        def sender(env):
            yield env.timeout(0)
            for _ in range(5):
                client.send("server", "w", 4 * KB)

        env.process(sender(env))
        env.run()
        assert segment.dropped.value >= 1
        assert segment.delivered.value <= 3

    def test_loss_rate_loses_frames(self):
        env = Environment()
        segment = Segment(env, ETHERNET, loss_rate=0.5, seed=42)
        client = segment.attach("client")
        segment.attach("server")

        def sender(env):
            yield env.timeout(0)
            for _ in range(40):
                client.send("server", "w", 2 * KB)

        env.process(sender(env))
        env.run()
        assert segment.lost.value > 0
        assert segment.delivered.value > 0
        assert segment.lost.value + segment.delivered.value == 40

    def test_bad_loss_rate_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Segment(env, ETHERNET, loss_rate=1.5)

    def test_wire_utilization_measured(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        client = segment.attach("client")
        segment.attach("server")

        def sender(env):
            yield env.timeout(0)
            client.send("server", "bulk", 8 * KB)

        env.process(sender(env))
        env.run()
        assert 0.5 < segment.medium.utilization() <= 1.0


class TestSocketBuffer:
    def test_byte_capacity(self):
        env = Environment()
        buffer = SocketBuffer(env, capacity_bytes=10 * KB)
        assert buffer.try_put(Datagram("a", "b", 1, 6 * KB))
        assert not buffer.try_put(Datagram("a", "b", 2, 6 * KB))
        assert buffer.try_put(Datagram("a", "b", 3, 4 * KB))
        assert buffer.used_bytes == 10 * KB

    def test_steal_and_scan(self):
        env = Environment()
        buffer = SocketBuffer(env, capacity_bytes=100 * KB)
        for i in range(5):
            buffer.try_put(Datagram("c", "s", {"op": "write" if i % 2 else "read", "i": i}, KB))
        writes = buffer.scan(lambda d: d.payload["op"] == "write")
        assert [d.payload["i"] for d in writes] == [1, 3]
        # A scan leaves every datagram queued.
        assert buffer.used_bytes == 5 * KB
        assert len(buffer) == 5

    def test_get_blocks_until_put(self):
        env = Environment()
        buffer = SocketBuffer(env, capacity_bytes=10 * KB)
        times = []

        def getter(env):
            datagram = yield buffer.get()
            times.append((env.now, datagram.payload))

        def putter(env):
            yield env.timeout(3)
            buffer.try_put(Datagram("a", "b", "late", KB))

        env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert times == [(3, "late")]

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            SocketBuffer(env, capacity_bytes=0)


@given(
    sizes=st.lists(st.integers(100, 9000), min_size=1, max_size=30),
    spec=st.sampled_from([ETHERNET, FDDI]),
)
@settings(max_examples=40, deadline=None)
def test_property_all_sent_datagrams_arrive_in_order(sizes, spec):
    """Lossless segment: every datagram arrives, FIFO per sender."""
    env = Environment()
    segment = Segment(env, spec)
    client = segment.attach("client")
    server = segment.attach("server", buffer_bytes=100_000_000)
    got = []

    def sender(env):
        yield env.timeout(0)
        for i, size in enumerate(sizes):
            client.send("server", i, size)

    def receiver(env):
        for _ in sizes:
            datagram = yield server.recv()
            got.append(datagram.payload)

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert got == list(range(len(sizes)))
