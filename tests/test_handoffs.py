"""Datagram hand-offs: each hop happens in the instant that causes it.

An idle NIC claims the medium when a datagram is sent, a reply reaches
its caller when it is delivered, and a request reaches a parked nfsd when
it is delivered.  None of these hops takes a relay event through the
kernel queue.
"""

import pytest

from repro.net import FDDI, Datagram, Segment
from repro.obs import PHASE_WIRE, RecordingCollector, Trace, install
from repro.rpc import RpcCall, RpcClient, RpcReply, SvcServer
from repro.sim import Environment, SimError

KB = 1024


class Traced:
    """A datagram payload carrying a trace, so the wire emits its spans."""

    def __init__(self, trace_id):
        self.trace = Trace(trace_id=trace_id, proc="write", client="test")


def traced_segment(*hosts):
    env = Environment()
    collector = install(env, RecordingCollector())
    segment = Segment(env, FDDI)
    for host in hosts:
        segment.attach(host)
    return env, collector, segment


class TestNic:
    def test_idle_nic_starts_in_send_instant(self):
        env, collector, segment = traced_segment("a", "b")

        def sender(env):
            yield env.timeout(1.0)
            segment.endpoint("a").send("b", Traced(1), 1000)
            next_events.append(env.peek())

        next_events = []
        env.process(sender(env))
        env.run()
        (span,) = collector.by_name(PHASE_WIRE)
        assert span.start == 1.0 < span.end
        # The frame's end is the first event the send queued: no wake.
        assert next_events == [span.end]
        assert span.attrs["src"] == "a"

    def test_two_nics_alternate_frames_and_keep_fifo(self):
        env, collector, segment = traced_segment("a", "b", "c")
        size = 8 * KB + 160
        assert FDDI.frames_for(size) == 2
        for trace_id, src in ((1, "a"), (2, "b"), (3, "a"), (4, "b")):
            segment.endpoint(src).send("c", Traced(trace_id), size)
        arrivals = []

        def sink(env):
            while True:
                datagram = yield segment.endpoint("c").recv()
                arrivals.append(datagram.payload.trace.trace_id)

        env.process(sink(env))
        env.run()
        wire = [(span.attrs["src"], span.trace_id, span.attrs["frame"])
                for span in collector.by_name(PHASE_WIRE)]
        assert wire == [
            ("a", 1, 0), ("b", 2, 0), ("a", 1, 1), ("b", 2, 1),
            ("a", 3, 0), ("b", 4, 0), ("a", 3, 1), ("b", 4, 1),
        ]
        assert arrivals == [1, 2, 3, 4]


class TestRpcClient:
    def test_client_starts_no_process(self):
        env = Environment()
        segment = Segment(env, FDDI)
        before = len(env._live)
        RpcClient(env, segment.attach("client"), "server")
        assert len(env._live) == before

    def test_endpoint_takes_one_client(self):
        env = Environment()
        segment = Segment(env, FDDI)
        endpoint = segment.attach("client")
        RpcClient(env, endpoint, "server")
        with pytest.raises(ValueError):
            RpcClient(env, endpoint, "server")

    def test_reply_resumes_its_caller_on_delivery(self):
        env = Environment()
        segment = Segment(env, FDDI)
        client_ep = segment.attach("client")
        client = RpcClient(env, client_ep, "server")
        server_ep = segment.attach("server")
        replies = []

        def caller(env):
            reply = yield from client.call("null", None, size=128)
            replies.append((reply.result, env.now))

        env.process(caller(env))
        env.run(until=0.1)  # the call waits in the server's socket buffer
        (request,) = server_ep.inbox.items
        reply = RpcReply(xid=request.payload.xid, status="ok", result="done")
        assert client_ep.deliver(Datagram("server", "client", reply, 160))
        assert replies == [("done", 0.1)]  # before the delivery returned

    def test_server_initiated_call_is_served_and_answered(self):
        env = Environment()
        segment = Segment(env, FDDI)
        client = RpcClient(env, segment.attach("client"), "server")
        server_ep = segment.attach("server")
        served = []

        def on_call(call):
            served.append(call.args)
            yield env.timeout(0.01)
            return "recalled"

        client.on_call = on_call
        replies = []

        def server(env):
            call = RpcCall(xid=7, proc="cb_recall", args="fh", size=128, client="server")
            server_ep.send("client", call, call.size)
            datagram = yield server_ep.recv()
            replies.append(datagram.payload)

        env.process(server(env))
        env.run()
        assert served == ["fh"]
        (reply,) = replies
        assert isinstance(reply, RpcReply)
        assert (reply.xid, reply.result) == (7, "recalled")


class TestParkedNfsd:
    def request(self, xid):
        call = RpcCall(xid=xid, proc="write", args=None, size=1024, client="client")
        return Datagram(src="client", dst="server", payload=call, size=call.size)

    def test_request_reaches_parked_nfsds_on_delivery_oldest_first(self):
        env = Environment()
        segment = Segment(env, FDDI)
        segment.attach("client")
        server_ep = segment.attach("server")
        svc = SvcServer(env, server_ep)
        taken = []

        def nfsd(nfsd_id):
            handle = yield from svc.next_request()
            taken.append((nfsd_id, handle.call.xid, env.now))
            yield env.timeout(1.0)  # busy: it does not park again

        for nfsd_id in range(3):
            env.process(nfsd(nfsd_id))
        env.run(until=0.5)  # every nfsd parks on the empty socket buffer
        for xid in (1, 2, 3):
            assert server_ep.deliver(self.request(xid))
            # Dispatched before the delivery returns, in its instant.
            assert taken[-1][1:] == (xid, 0.5)
        assert [nfsd_id for nfsd_id, _, _ in taken] == [0, 1, 2]
        assert len(server_ep.inbox) == 0


class TestSucceedNow:
    def test_runs_waiters_before_returning(self):
        env = Environment()
        event = env.event()
        woken = []

        def waiter(env):
            woken.append((yield event))
            yield env.event()  # park again, so no process exit is queued

        env.process(waiter(env))
        env.run()
        eid = env._eid
        event.succeed_now("value")
        assert woken == ["value"]
        assert event.processed
        assert env._eid == eid  # no wake was queued

    def test_rejects_a_triggered_event(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimError):
            event.succeed_now()
