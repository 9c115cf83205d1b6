"""Tests for the RPC layer: client retransmission, svc server, dup cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ETHERNET, Segment
from repro.rpc import (
    CLASS_HEAVY,
    DuplicateRequestCache,
    HandleCache,
    RpcCall,
    RpcClient,
    RpcReply,
    RpcTimeoutPolicy,
    SvcServer,
)
from repro.rpc.client import RpcTimeoutError
from repro.sim import Environment, Interrupt


def make_pair(env, loss_rate=0.0, seed=0):
    segment = Segment(env, ETHERNET, loss_rate=loss_rate, seed=seed)
    client_ep = segment.attach("client")
    server_ep = segment.attach("server")
    client = RpcClient(env, client_ep, "server")
    svc = SvcServer(env, server_ep)
    return client, svc, segment


def echo_server(env, svc, delay=0.0, count=None):
    """A trivial server process answering every request with its args."""

    def serve():
        served = 0
        while count is None or served < count:
            handle = yield from svc.next_request()
            if delay:
                yield env.timeout(delay)
            svc.send_reply(handle, "ok", handle.call.args)
            served += 1

    return env.process(serve(), name="echo")


class TestRoundTrip:
    def test_call_reply(self):
        env = Environment()
        client, svc, _segment = make_pair(env)
        echo_server(env, svc, count=1)

        def caller(env):
            reply = yield from client.call("lookup", {"name": "f"}, size=150)
            return reply

        proc = env.process(caller(env))
        env.run(until=proc)
        assert proc.value.ok
        assert proc.value.result == {"name": "f"}
        assert client.retransmissions.value == 0

    def test_concurrent_calls_matched_by_xid(self):
        env = Environment()
        client, svc, _segment = make_pair(env)
        echo_server(env, svc, count=5)
        results = []

        def caller(env, tag):
            reply = yield from client.call("read", {"tag": tag}, size=200)
            results.append(reply.result["tag"])

        for tag in range(5):
            env.process(caller(env, tag))
        env.run()
        assert sorted(results) == [0, 1, 2, 3, 4]

    def test_latency_recorded(self):
        env = Environment()
        client, svc, _segment = make_pair(env)
        echo_server(env, svc, delay=0.01, count=1)

        def caller(env):
            yield from client.call("write", b"x" * 100, size=260, weight=CLASS_HEAVY)

        env.run(until=env.process(caller(env)))
        assert client.latency.count == 1
        assert client.latency.mean > 0.01


class TestRetransmission:
    def test_lost_request_retransmitted(self):
        env = Environment()
        # 30% frame loss: some requests/replies vanish, client must retry.
        client, svc, segment = make_pair(env, loss_rate=0.3, seed=7)
        echo_server(env, svc, count=None)
        done = []

        def caller(env):
            for i in range(10):
                reply = yield from client.call("write", i, size=8352, weight=CLASS_HEAVY)
                done.append(reply.result)

        proc = env.process(caller(env))
        env.run(until=proc)
        assert done == list(range(10))
        assert client.retransmissions.value > 0

    def test_timeout_policy_starts_at_reference_default(self):
        policy = RpcTimeoutPolicy()
        assert policy.timeout_for(CLASS_HEAVY, attempt=1) == pytest.approx(1.1)
        assert policy.timeout_for(CLASS_HEAVY, attempt=2) == pytest.approx(2.2)

    def test_timeout_policy_adapts_upward_for_slow_server(self):
        policy = RpcTimeoutPolicy()
        for _ in range(100):
            policy.observe(CLASS_HEAVY, latency=2.0)
        assert policy.base(CLASS_HEAVY) > 5.0

    def test_timeout_policy_floors_at_initial(self):
        policy = RpcTimeoutPolicy()
        for _ in range(100):
            policy.observe(CLASS_HEAVY, latency=0.001)
        assert policy.base(CLASS_HEAVY) >= 1.1

    def test_timeout_policy_ceiling(self):
        policy = RpcTimeoutPolicy(ceiling=10.0)
        for _ in range(200):
            policy.observe(CLASS_HEAVY, latency=100.0)
        assert policy.base(CLASS_HEAVY) <= 10.0
        assert policy.timeout_for(CLASS_HEAVY, attempt=10) <= 10.0


def raw_server(env, endpoint, delay):
    """Answer every call that reaches ``endpoint`` after ``delay``, each in
    its own process (no dup cache): every transmission gets its reply."""

    def answer(call):
        yield env.timeout(delay)
        endpoint.send(call.client, RpcReply(xid=call.xid, status="ok", result=call.args), 100)

    def serve():
        while True:
            datagram = yield endpoint.recv()
            env.process(answer(datagram.payload))

    env.process(serve(), name="raw-server")


def make_raw_pair(env, delay):
    segment = Segment(env, ETHERNET)
    client = RpcClient(env, segment.attach("client"), "server")
    raw_server(env, segment.attach("server"), delay)
    return client


class TestReplyMatching:
    """One waiter per transmission, filed under the call's xid."""

    def test_late_reply_to_first_transmission_completes_the_call(self):
        env = Environment()
        # The server answers 1.5 s after each request: the first reply
        # lands after the 1.1 s timer has already retransmitted.
        client = make_raw_pair(env, delay=1.5)

        def caller(env):
            reply = yield from client.call("write", "first", size=200)
            return reply, env.now

        proc = env.process(caller(env))
        env.run(until=proc)
        reply, finished = proc.value
        assert reply.result == "first"
        assert 1.5 < finished < 2.2
        assert client.retransmissions.value == 1
        assert client.completed.value == 1
        assert client.duplicate_replies.value == 0

    def test_second_copy_of_the_reply_counts_as_duplicate(self):
        env = Environment()
        client = make_raw_pair(env, delay=1.5)

        def caller(env):
            yield from client.call("write", "first", size=200)

        env.process(caller(env))
        env.run(until=5.0)
        # The retransmission's reply arrives about 1.1 s after the first.
        assert client.duplicate_replies.value == 1
        assert client.completed.value == 1

    def test_pending_empty_after_success(self):
        env = Environment()
        client = make_raw_pair(env, delay=0.01)

        def caller(env):
            yield from client.call("read", 1, size=200)

        env.run(until=env.process(caller(env)))
        assert client._pending == {}

    def test_pending_empty_after_timeout_error(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        client = RpcClient(env, segment.attach("client"), "server")
        segment.attach("server")  # never answers

        def caller(env):
            with pytest.raises(RpcTimeoutError):
                yield from client.call("read", 1, size=200, max_attempts=2)

        env.run(until=env.process(caller(env)))
        assert client.timeouts.value == 2
        assert client._pending == {}

    def test_interrupted_caller_leaves_nothing_pending_and_timer_wakes_nobody(self):
        env = Environment()
        segment = Segment(env, ETHERNET)
        client = RpcClient(env, segment.attach("client"), "server")
        segment.attach("server")  # never answers
        log = []

        def caller(env):
            # The Replicator.halt pattern: a session interrupted mid-call.
            try:
                yield from client.call("write", 1, size=200)
            except Interrupt:
                log.append(("interrupted", env.now))
            yield env.timeout(10.0)
            log.append(("woke", env.now))

        def halt(env, victim):
            yield env.timeout(0.5)
            victim.interrupt("halt")

        victim = env.process(caller(env))
        env.process(halt(env, victim))
        env.run(until=victim)
        # The 1.1 s retransmit timer fired in between and resumed nobody.
        assert log == [("interrupted", 0.5), ("woke", 10.5)]
        assert client._pending == {}
        assert client.timeouts.value == 0

    def test_timer_after_success_wakes_nobody(self):
        env = Environment()
        client = make_raw_pair(env, delay=0.01)
        log = []

        def caller(env):
            yield from client.call("read", 1, size=200)
            log.append(("replied", round(env.now, 6)))
            yield env.timeout(5.0)
            log.append(("woke", round(env.now, 6)))

        proc = env.process(caller(env))
        env.run(until=proc)
        replied = log[0][1]
        assert log == [("replied", replied), ("woke", round(replied + 5.0, 6))]
        assert client.timeouts.value == 0
        assert client.retransmissions.value == 0


class TestDuplicateCache:
    def make_call(self, xid=1, proc="write"):
        return RpcCall(xid=xid, proc=proc, args=None, size=100, client="c")

    def test_new_request_registers(self):
        env = Environment()
        cache = DuplicateRequestCache(env)
        assert cache.check(self.make_call()) == ("new", None)

    def test_duplicate_in_progress_dropped(self):
        env = Environment()
        cache = DuplicateRequestCache(env)
        cache.check(self.make_call())
        assert cache.check(self.make_call()) == ("drop", None)
        assert cache.hits_in_progress == 1

    def test_recent_nonidempotent_replayed(self):
        env = Environment()
        cache = DuplicateRequestCache(env)
        call = self.make_call()
        cache.check(call)
        reply = RpcReply(xid=1, status="ok", result="saved")
        cache.record_done(call, reply)
        disposition, cached = cache.check(self.make_call())
        assert disposition == "replay"
        assert cached.result == "saved"

    def test_idempotent_duplicate_reexecuted(self):
        env = Environment()
        cache = DuplicateRequestCache(env)
        call = self.make_call(proc="read")
        cache.check(call)
        cache.record_done(call, RpcReply(xid=1, status="ok", result="r"))
        assert cache.check(self.make_call(proc="read")) == ("execute", None)

    def test_stale_done_entry_reexecuted(self):
        env = Environment()
        cache = DuplicateRequestCache(env, reply_window=1.0)
        call = self.make_call()
        cache.check(call)
        cache.record_done(call, RpcReply(xid=1, status="ok", result="old"))

        def later(env):
            yield env.timeout(5.0)

        env.run(until=env.process(later(env)))
        assert cache.check(self.make_call()) == ("execute", None)

    def test_lru_trimming(self):
        env = Environment()
        cache = DuplicateRequestCache(env, max_entries=3)
        for xid in range(10):
            cache.check(self.make_call(xid=xid))
        assert len(cache) == 3

    def test_forget(self):
        env = Environment()
        cache = DuplicateRequestCache(env)
        call = self.make_call()
        cache.check(call)
        cache.forget(call)
        assert cache.check(self.make_call()) == ("new", None)


class TestSvcServer:
    def test_duplicate_write_not_reexecuted_end_to_end(self):
        """A client retransmission of a completed write gets the cached
        reply; the server executes the write only once."""
        env = Environment()
        segment = Segment(env, ETHERNET)
        client_ep = segment.attach("client")
        server_ep = segment.attach("server")
        svc = SvcServer(env, server_ep)
        executions = []

        def serve():
            for _ in range(2):
                handle = yield from svc.next_request()
                executions.append(handle.call.xid)
                svc.send_reply(handle, "ok", "done")

        env.process(serve(), name="server")
        replies = []

        def caller(env):
            call = RpcCall(xid=99, proc="write", args=None, size=8352, client="client")
            client_ep.send("server", call, call.size)
            yield env.timeout(0.5)
            retransmit = RpcCall(
                xid=99, proc="write", args=None, size=8352, client="client", attempt=2
            )
            client_ep.send("server", retransmit, retransmit.size)
            for _ in range(2):
                datagram = yield client_ep.recv()
                replies.append(datagram.payload)

        env.process(caller(env))
        env.run(until=env.timeout(5))
        assert executions == [99]  # executed once
        assert len(replies) == 2  # but answered twice (replay)
        assert svc.duplicates_replayed.value == 1

    def test_handle_cache_reuse(self):
        cache = HandleCache(initial=2)
        a = cache.acquire()
        b = cache.acquire()
        c = cache.acquire()  # beyond initial: allocates
        assert cache.allocated == 1
        assert cache.in_use == 3
        cache.release(a)
        d = cache.acquire()
        assert d is a
        assert cache.peak_in_use == 3
        cache.release(b)
        cache.release(c)
        cache.release(d)
        assert cache.in_use == 0

    def test_double_reply_rejected(self):
        env = Environment()
        _client, svc, _segment = make_pair(env)
        handles = []

        def serve():
            handle = yield from svc.next_request()
            svc.send_reply(handle, "ok", None)
            handles.append(handle)

        env.process(serve())

        def caller(env):
            call = RpcCall(xid=1, proc="read", args=None, size=100, client="client")
            svc.endpoint.segment.endpoint("client").send("server", call, 100)
            yield env.timeout(1)

        env.process(caller(env))
        env.run()
        with pytest.raises(ValueError):
            svc.send_reply(handles[0], "ok", None)


@given(
    latencies=st.lists(st.floats(0.001, 5.0), min_size=1, max_size=50),
)
@settings(max_examples=50, deadline=None)
def test_property_policy_base_stays_bounded(latencies):
    policy = RpcTimeoutPolicy()
    for latency in latencies:
        policy.observe(CLASS_HEAVY, latency)
        base = policy.base(CLASS_HEAVY)
        assert policy.floor <= base <= policy.ceiling
