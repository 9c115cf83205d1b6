"""Unit tests for the write-gathering building blocks: state table, write
queue, policy, learned-client db, mbuf hunter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    REPLY_FIFO,
    REPLY_LIFO,
    STAGE_FLUSHING,
    STAGE_GATHER_WAIT,
    STAGE_IDLE,
    STAGE_WRITING,
    ActiveWriteQueue,
    GatherPolicy,
    LearnedClientDb,
    NfsdStateTable,
    WriteDescriptor,
    WriteQueueRegistry,
    hunt,
)
from repro.net import Datagram, SocketBuffer
from repro.nfs import WriteArgs
from repro.rpc import RpcCall
from repro.sim import Environment


class TestStateTable:
    def test_initial_state_idle(self):
        table = NfsdStateTable(4)
        assert len(table) == 4
        assert all(table.slot(i).stage == STAGE_IDLE for i in range(4))

    def test_set_and_clear(self):
        table = NfsdStateTable(2)
        table.set(0, STAGE_WRITING, ino=5, offset=8192, length=8192)
        slot = table.slot(0)
        assert (slot.stage, slot.ino, slot.offset, slot.length) == (
            STAGE_WRITING,
            5,
            8192,
            8192,
        )
        table.clear(0)
        assert table.slot(0).stage == STAGE_IDLE

    def test_another_write_incoming_only_early_stages(self):
        table = NfsdStateTable(3)
        table.set(0, STAGE_WRITING, ino=5)
        assert table.another_write_incoming(5, exclude=1)
        assert not table.another_write_incoming(5, exclude=0)  # it's us
        assert not table.another_write_incoming(9, exclude=1)  # other file
        # A waiting or flushing nfsd is NOT "incoming": it will not enqueue
        # another descriptor, so it is not evidence for a handoff.
        table.set(0, STAGE_GATHER_WAIT, ino=5)
        assert not table.another_write_incoming(5, exclude=1)
        table.set(0, STAGE_FLUSHING, ino=5)
        assert not table.another_write_incoming(5, exclude=1)

    def test_any_responsible_covers_all_active_stages(self):
        table = NfsdStateTable(2)
        assert not table.any_responsible(5)
        for stage in (STAGE_WRITING, STAGE_GATHER_WAIT, STAGE_FLUSHING):
            table.set(0, stage, ino=5)
            assert table.any_responsible(5)
        table.clear(0)
        assert not table.any_responsible(5)

    def test_needs_at_least_one_nfsd(self):
        with pytest.raises(ValueError):
            NfsdStateTable(0)

    def test_snapshot_is_a_copy(self):
        table = NfsdStateTable(1)
        snap = table.snapshot()
        table.set(0, STAGE_WRITING, ino=1)
        assert snap[0].stage == STAGE_IDLE


def make_descriptor(offset=0, length=8192, client="c"):
    return WriteDescriptor(
        handle=object(),
        offset=offset,
        length=length,
        client=client,
        enqueued_at=0.0,
        data=b"x" * length,
    )


class TestWriteQueue:
    def test_fifo_take_all(self):
        queue = ActiveWriteQueue(vnode=None)
        descriptors = [make_descriptor(offset=i * 8192) for i in range(4)]
        for d in descriptors:
            queue.append(d)
        assert len(queue) == 4
        taken = queue.take_all()
        assert taken == descriptors
        assert len(queue) == 0
        assert queue.take_all() == []  # exclusive: second taker gets nothing

    def test_extent(self):
        queue = ActiveWriteQueue(vnode=None)
        assert queue.extent() is None
        queue.append(make_descriptor(offset=16384))
        queue.append(make_descriptor(offset=0))
        assert queue.extent() == (0, 16384 + 8192)

    def test_registry_per_inode(self):
        class FakeVnode:
            def __init__(self, ino):
                self.ino = ino

        registry = WriteQueueRegistry()
        v1, v2 = FakeVnode(1), FakeVnode(2)
        q1 = registry.for_vnode(v1)
        assert registry.for_vnode(v1) is q1
        assert registry.for_vnode(v2) is not q1
        q1.append(make_descriptor())
        assert registry.pending_total() == 1
        assert registry.get(1) is q1
        assert registry.get(99) is None

    def test_registry_replaces_queue_for_recycled_vnode(self):
        class FakeVnode:
            def __init__(self, ino):
                self.ino = ino

        registry = WriteQueueRegistry()
        old = registry.for_vnode(FakeVnode(1))
        new = registry.for_vnode(FakeVnode(1))  # different vnode object
        assert new is not old


class TestGatherPolicy:
    def test_defaults_match_paper(self):
        policy = GatherPolicy()
        assert policy.max_procrastinations == 1
        assert policy.reply_order == REPLY_FIFO
        assert policy.use_mbuf_hunter
        assert policy.interval is None  # transport-dependent

    def test_validation(self):
        with pytest.raises(ValueError):
            GatherPolicy(max_procrastinations=-1)
        with pytest.raises(ValueError):
            GatherPolicy(reply_order="random")
        with pytest.raises(ValueError):
            GatherPolicy(watchdog_factor=0)
        with pytest.raises(ValueError):
            GatherPolicy(interval=-1)

    def test_lifo_accepted(self):
        assert GatherPolicy(reply_order=REPLY_LIFO).reply_order == REPLY_LIFO


class TestLearnedClients:
    def test_new_client_gets_benefit_of_doubt(self):
        db = LearnedClientDb(threshold=4)
        assert db.should_procrastinate("pc")

    def test_persistent_singleton_client_loses_procrastination(self):
        db = LearnedClientDb(window=8, threshold=4)
        for _ in range(8):
            db.observe_batch("pc", 1)
        assert not db.should_procrastinate("pc")

    def test_gathering_client_keeps_procrastination(self):
        db = LearnedClientDb(window=8, threshold=4)
        for _ in range(8):
            db.observe_batch("ws", 8)
        assert db.should_procrastinate("ws")

    def test_client_is_relearned_when_behaviour_changes(self):
        db = LearnedClientDb(window=8, threshold=5)
        for _ in range(8):
            db.observe_batch("host", 1)
        assert not db.should_procrastinate("host")
        for _ in range(8):
            db.observe_batch("host", 6)  # starts running biods
        assert db.should_procrastinate("host")

    def test_validation(self):
        with pytest.raises(ValueError):
            LearnedClientDb(window=0)


class TestMbufHunter:
    def make_buffer(self, env):
        return SocketBuffer(env, capacity_bytes=1 << 20)

    def write_datagram(self, fhandle, xid=1):
        call = RpcCall(
            xid=xid,
            proc="write",
            args=WriteArgs(fhandle, 0, b"x" * 8192),
            size=8352,
            client="c",
        )
        return Datagram("c", "s", call, call.size)

    def read_datagram(self, fhandle):
        call = RpcCall(xid=99, proc="read", args=None, size=160, client="c")
        return Datagram("c", "s", call, call.size)

    def test_finds_write_for_file(self):
        env = Environment()
        buffer = self.make_buffer(env)
        buffer.try_put(self.write_datagram((7, 0)))
        assert hunt(buffer, (7, 0))

    def test_ignores_other_files_and_procs(self):
        env = Environment()
        buffer = self.make_buffer(env)
        buffer.try_put(self.write_datagram((8, 0)))
        buffer.try_put(self.read_datagram((7, 0)))
        assert not hunt(buffer, (7, 0))

    def test_empty_buffer(self):
        env = Environment()
        assert not hunt(self.make_buffer(env), (7, 0))

    def test_does_not_remove_the_request(self):
        env = Environment()
        buffer = self.make_buffer(env)
        buffer.try_put(self.write_datagram((7, 0)))
        hunt(buffer, (7, 0))
        assert len(buffer) == 1


# -- the follower checks against a brute-force scan ------------------------------

_INOS = st.sampled_from([5, 6, 7])
_STAGES = st.sampled_from([STAGE_IDLE, STAGE_WRITING, STAGE_GATHER_WAIT, STAGE_FLUSHING])


@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("set"), st.integers(0, 3), _STAGES, _INOS),
            st.tuples(st.just("clear"), st.integers(0, 3)),
        ),
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_property_another_write_incoming_matches_a_scan(steps):
    table = NfsdStateTable(4)
    for step in steps:
        if step[0] == "set":
            _, nfsd_id, stage, ino = step
            table.set(nfsd_id, stage, ino)
        else:
            table.clear(step[1])
        for ino in (5, 6, 7):
            for exclude in range(4):
                expected = any(
                    slot.ino == ino and slot.nfsd_id != exclude and slot.stage == STAGE_WRITING
                    for slot in table.snapshot()
                )
                assert table.another_write_incoming(ino, exclude) == expected


_FHANDLES = st.sampled_from([(7, 0), (8, 0), (7, 1)])
#: What a socket buffer may hold: WRITEs, a WRITE whose args carry no file
#: handle, other procedures, and payloads that are not calls at all.
_DATAGRAMS = st.one_of(
    st.builds(lambda fh: RpcCall(1, "write", WriteArgs(fh, 0, b"x"), 200, "c"), _FHANDLES),
    st.just(RpcCall(2, "write", None, 200, "c")),
    st.just(RpcCall(3, "write", ("not", "args"), 200, "c")),
    st.builds(lambda fh: RpcCall(4, "read", WriteArgs(fh, 0, b"x"), 200, "c"), _FHANDLES),
    st.just({"op": "write"}),
)


@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("put"), _DATAGRAMS),
            st.tuples(st.just("get"), st.none()),
            st.tuples(st.just("evict"), st.none()),
            st.tuples(st.just("reset"), st.none()),
        ),
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_property_hunt_matches_a_scan(steps):
    env = Environment()
    buffer = SocketBuffer(env, capacity_bytes=2000)
    for op, payload in steps:
        if op == "put":
            buffer.try_put(Datagram("c", "s", payload, 200))
        elif op == "get":
            buffer.get()
        elif op == "evict":
            buffer.evict_oldest()
        else:
            buffer.reset_volatile()
        for fhandle in ((7, 0), (8, 0), (7, 1), (9, 0)):
            expected = any(
                isinstance(datagram.payload, RpcCall)
                and datagram.payload.proc == "write"
                and getattr(datagram.payload.args, "fhandle", None) == fhandle
                for datagram in buffer.items
            )
            assert hunt(buffer, fhandle) == expected
