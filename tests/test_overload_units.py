"""Unit tests for the repro.overload policy pieces.

Covers the client half (Van Jacobson RTO estimation, Karn's rule, seeded
jitter, the soft-mount retry budget, the AIMD write window), the fixed
policy's backoff ceiling clamp, and the server half (the bounded
admission queue and its three shed policies) — all without standing up a
full testbed.
"""

import pytest

from repro.net.packet import Datagram
from repro.net.segment import Segment
from repro.net.spec import FDDI
from repro.overload import (
    SHED_POLICIES,
    AdaptiveRetryPolicy,
    AdmissionQueue,
    RtoEstimator,
    WriteWindow,
    retransmit_jitter,
)
from repro.rpc.client import RpcTimeoutPolicy
from repro.rpc.dupcache import DuplicateRequestCache
from repro.rpc.messages import CLASS_HEAVY, CLASS_LIGHT, CLASS_MEDIUM, RpcCall, RpcReply
from repro.sim import Environment


class TestRtoEstimator:
    def test_first_sample_seeds_srtt_and_rttvar(self):
        est = RtoEstimator(initial_rto=1.1, min_rto=0.02, max_rto=60.0)
        est.observe(0.2)
        assert est.srtt == pytest.approx(0.2)
        assert est.rttvar == pytest.approx(0.1)
        assert est.rto == pytest.approx(0.2 + 4 * 0.1)

    def test_vj_update_math(self):
        est = RtoEstimator(min_rto=0.001)
        est.observe(0.2)
        est.observe(0.4)
        # error = 0.2; rttvar = 0.75*0.1 + 0.25*0.2; srtt = 0.2 + 0.125*0.2
        assert est.rttvar == pytest.approx(0.125)
        assert est.srtt == pytest.approx(0.225)
        assert est.rto == pytest.approx(0.225 + 4 * 0.125)
        assert est.samples == 2

    def test_rto_clamped_to_floor_and_ceiling(self):
        est = RtoEstimator(min_rto=0.5, max_rto=2.0)
        est.observe(0.001)  # SRTT + 4*RTTVAR far below the floor
        assert est.rto == 0.5
        est.observe(100.0)
        assert est.rto == 2.0

    def test_backoff_doubles_and_never_exceeds_ceiling(self):
        est = RtoEstimator(initial_rto=1.0, max_rto=8.0)
        est.backoff()
        assert est.rto == pytest.approx(2.0)
        est.backoff()
        assert est.rto == pytest.approx(4.0)
        # Satellite: no unbounded growth — dozens of backoffs stay clamped.
        for _ in range(50):
            est.backoff()
        assert est.rto == 8.0

    def test_clean_sample_clears_retained_backoff(self):
        est = RtoEstimator(initial_rto=1.0, min_rto=0.02, max_rto=60.0)
        est.backoff()
        est.backoff()
        assert est.backoff_level == 2
        est.observe(0.1)
        assert est.backoff_level == 0
        assert est.rto == pytest.approx(0.1 + 4 * 0.05)

    def test_rejects_bad_bounds_and_negative_rtt(self):
        with pytest.raises(ValueError):
            RtoEstimator(min_rto=0.0)
        with pytest.raises(ValueError):
            RtoEstimator(min_rto=1.0, max_rto=0.5)
        est = RtoEstimator()
        with pytest.raises(ValueError):
            est.observe(-0.1)


class TestRetransmitJitter:
    def test_deterministic_for_same_key(self):
        a = retransmit_jitter(7, "client-3", 41, 2, 0.1)
        b = retransmit_jitter(7, "client-3", 41, 2, 0.1)
        assert a == b

    def test_decorrelates_hosts_xids_and_attempts(self):
        base = retransmit_jitter(0, "client-0", 10, 1, 0.1)
        assert retransmit_jitter(0, "client-1", 10, 1, 0.1) != base
        assert retransmit_jitter(0, "client-0", 11, 1, 0.1) != base
        assert retransmit_jitter(0, "client-0", 10, 2, 0.1) != base
        assert retransmit_jitter(1, "client-0", 10, 1, 0.1) != base

    def test_bounded_by_spread(self):
        for xid in range(200):
            factor = retransmit_jitter(0, "client-0", xid, 1, 0.25)
            assert 0.75 <= factor <= 1.25

    def test_zero_spread_is_exactly_one(self):
        assert retransmit_jitter(0, "client-0", 1, 1, 0.0) == 1.0


class TestAdaptiveRetryPolicy:
    def test_per_class_estimators_are_independent(self):
        policy = AdaptiveRetryPolicy(min_rto=0.001)
        policy.observe(CLASS_HEAVY, 2.0)
        policy.observe(CLASS_LIGHT, 0.01)
        assert policy.base(CLASS_HEAVY) > policy.base(CLASS_LIGHT)
        assert policy.base(CLASS_MEDIUM) == pytest.approx(1.1)  # untouched

    def test_timeout_for_doubles_per_attempt_capped_at_max_rto(self):
        policy = AdaptiveRetryPolicy(initial_rto=1.0, max_rto=4.0)
        assert policy.timeout_for(CLASS_HEAVY, 1) == pytest.approx(1.0)
        assert policy.timeout_for(CLASS_HEAVY, 2) == pytest.approx(2.0)
        assert policy.timeout_for(CLASS_HEAVY, 3) == pytest.approx(4.0)
        assert policy.timeout_for(CLASS_HEAVY, 40) == 4.0

    def test_interval_for_applies_seeded_jitter(self):
        policy = AdaptiveRetryPolicy(initial_rto=1.0, jitter=0.1, jitter_seed=3)
        expected = policy.timeout_for(CLASS_HEAVY, 1) * retransmit_jitter(
            3, "client-0", 17, 1, 0.1
        )
        assert policy.interval_for(CLASS_HEAVY, 1, "client-0", 17) == pytest.approx(
            expected
        )

    def test_karn_suppresses_retransmitted_samples(self):
        policy = AdaptiveRetryPolicy()
        policy.observe(CLASS_HEAVY, 0.5, retransmitted=True)
        assert policy.karn_suppressed == 1
        assert policy.estimator(CLASS_HEAVY).samples == 0
        policy.observe(CLASS_HEAVY, 0.5, retransmitted=False)
        assert policy.estimator(CLASS_HEAVY).samples == 1

    def test_on_timeout_backs_off_only_that_class(self):
        policy = AdaptiveRetryPolicy(initial_rto=1.0)
        policy.on_timeout(CLASS_HEAVY)
        assert policy.estimator(CLASS_HEAVY).backoff_level == 1
        assert policy.estimator(CLASS_LIGHT).backoff_level == 0
        assert policy.base(CLASS_HEAVY) == pytest.approx(2.0)

    def test_validates_jitter_and_budget(self):
        with pytest.raises(ValueError):
            AdaptiveRetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            AdaptiveRetryPolicy(max_attempts=0)
        assert AdaptiveRetryPolicy(max_attempts=3).max_attempts == 3
        assert AdaptiveRetryPolicy().max_attempts is None  # hard mount


class TestRpcTimeoutPolicyClamp:
    """Satellite: the fixed reference policy no longer grows without bound."""

    def test_backoff_exponent_is_clamped(self):
        policy = RpcTimeoutPolicy(ceiling=30.0)
        # Before the clamp, attempt 1000 would compute 1.1 * 2**999.
        assert policy.timeout_for(CLASS_HEAVY, 1000) == 30.0
        assert policy.timeout_for(CLASS_HEAVY, 5) == pytest.approx(1.1 * 16)

    def test_max_attempts_budget_is_validated(self):
        with pytest.raises(ValueError):
            RpcTimeoutPolicy(max_attempts=0)
        assert RpcTimeoutPolicy(max_attempts=4).max_attempts == 4
        assert RpcTimeoutPolicy().max_attempts is None

    def test_jittered_interval_matches_schedule(self):
        policy = RpcTimeoutPolicy(jitter=0.2, jitter_seed=5)
        expected = policy.timeout_for(CLASS_HEAVY, 2) * retransmit_jitter(
            5, "client-9", 33, 2, 0.2
        )
        assert policy.interval_for(CLASS_HEAVY, 2, "client-9", 33) == pytest.approx(
            expected
        )
        plain = RpcTimeoutPolicy()  # jitter defaults to 0
        assert plain.interval_for(CLASS_HEAVY, 2, "client-9", 33) == pytest.approx(
            plain.timeout_for(CLASS_HEAVY, 2)
        )


class TestWriteWindow:
    def test_heavy_timeout_halves_down_to_one(self):
        window = WriteWindow(initial=8, maximum=64)
        window.on_timeout(CLASS_HEAVY)
        assert window.cwnd == pytest.approx(4.0)
        for _ in range(10):
            window.on_timeout(CLASS_HEAVY)
        assert window.cwnd == 1.0
        assert window.slots == 1
        assert window.halvings == 11

    def test_light_timeouts_do_not_shrink(self):
        window = WriteWindow(initial=8)
        window.on_timeout(CLASS_LIGHT)
        window.on_timeout(CLASS_MEDIUM)
        assert window.cwnd == 8.0
        assert window.halvings == 0

    def test_clean_heavy_success_ramps_additively(self):
        window = WriteWindow(initial=4, maximum=64, ramp=1.0)
        window.on_success(CLASS_HEAVY, attempts=1)
        assert window.cwnd == pytest.approx(4.25)
        assert window.ramps == 1

    def test_retransmitted_success_proves_nothing(self):
        window = WriteWindow(initial=4)
        window.on_success(CLASS_HEAVY, attempts=2)
        window.on_success(CLASS_LIGHT, attempts=1)
        assert window.cwnd == 4.0
        assert window.ramps == 0

    def test_growth_capped_at_maximum(self):
        window = WriteWindow(initial=4, maximum=5)
        for _ in range(100):
            window.on_success(CLASS_HEAVY, attempts=1)
        assert window.cwnd == 5.0
        assert window.slots == 5

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            WriteWindow(initial=0)
        with pytest.raises(ValueError):
            WriteWindow(initial=8, maximum=4)


def make_admission(policy, max_requests=2):
    """A segment with a server endpoint whose inbox is admission-gated."""
    env = Environment()
    segment = Segment(env, FDDI)
    server_ep = segment.attach("server")
    client_ep = segment.attach("raw")
    dup_cache = DuplicateRequestCache(env)
    admission = AdmissionQueue(
        env, server_ep, dup_cache, max_requests=max_requests, policy=policy
    )
    server_ep.inbox.admission = admission
    return env, server_ep, client_ep, dup_cache, admission


def call_datagram(xid, attempt=1):
    call = RpcCall(
        xid=xid,
        proc="write",
        args=None,
        size=1024,
        client="raw",
        weight=CLASS_HEAVY,
        attempt=attempt,
    )
    return Datagram(src="raw", dst="server", payload=call, size=call.size)


class TestAdmissionQueue:
    def test_under_cap_admits(self):
        env, server_ep, _, _, admission = make_admission("drop-newest")
        assert server_ep.inbox.try_put(call_datagram(1))
        assert server_ep.inbox.try_put(call_datagram(2))
        assert admission.admitted.value == 2
        assert admission.shed.value == 0

    def test_non_rpc_traffic_is_not_policed(self):
        env, server_ep, _, _, admission = make_admission("drop-newest", max_requests=1)
        server_ep.inbox.try_put(call_datagram(1))
        stray = Datagram(src="raw", dst="server", payload="ping", size=64)
        assert server_ep.inbox.try_put(stray)
        assert admission.shed.value == 0

    def test_drop_newest_refuses_at_cap(self):
        env, server_ep, _, _, admission = make_admission("drop-newest", max_requests=2)
        server_ep.inbox.try_put(call_datagram(1))
        server_ep.inbox.try_put(call_datagram(2))
        assert not server_ep.inbox.try_put(call_datagram(3))
        assert admission.shed.value == 1
        assert [d.payload.xid for d in server_ep.inbox.items] == [1, 2]

    def test_drop_oldest_evicts_head_for_newcomer(self):
        env, server_ep, _, _, admission = make_admission("drop-oldest", max_requests=2)
        server_ep.inbox.try_put(call_datagram(1))
        server_ep.inbox.try_put(call_datagram(2))
        assert server_ep.inbox.try_put(call_datagram(3))
        assert admission.evicted.value == 1
        assert [d.payload.xid for d in server_ep.inbox.items] == [2, 3]

    def test_early_reply_sheds_in_progress_duplicate(self):
        env, server_ep, _, dup_cache, admission = make_admission(
            "early-reply", max_requests=1
        )
        original = call_datagram(7)
        dup_cache.check(original.payload)  # now registered IN_PROGRESS
        server_ep.inbox.try_put(call_datagram(8))  # fills the queue
        assert not server_ep.inbox.try_put(call_datagram(7, attempt=2))
        assert admission.dup_sheds.value == 1
        assert admission.evicted.value == 0

    def test_early_reply_replays_done_duplicate_without_queueing(self):
        env, server_ep, client_ep, dup_cache, admission = make_admission(
            "early-reply", max_requests=1
        )
        original = call_datagram(7)
        dup_cache.check(original.payload)
        reply = RpcReply(xid=7, status="ok", result=None)
        dup_cache.record_done(original.payload, reply)
        server_ep.inbox.try_put(call_datagram(8))
        assert not server_ep.inbox.try_put(call_datagram(7, attempt=2))
        assert admission.early_replies.value == 1
        env.run()  # let the replayed reply cross the wire
        (got,) = client_ep.inbox.items
        assert got.payload.xid == 7
        assert len(server_ep.inbox) == 1  # only the unrelated request queued

    def test_early_reply_falls_back_to_drop_oldest_for_fresh_work(self):
        env, server_ep, _, _, admission = make_admission("early-reply", max_requests=1)
        server_ep.inbox.try_put(call_datagram(1))
        assert server_ep.inbox.try_put(call_datagram(2))
        assert admission.evicted.value == 1
        assert [d.payload.xid for d in server_ep.inbox.items] == [2]

    def test_validates_policy_and_cap(self):
        env = Environment()
        segment = Segment(env, FDDI)
        ep = segment.attach("server")
        cache = DuplicateRequestCache(env)
        with pytest.raises(ValueError):
            AdmissionQueue(env, ep, cache, max_requests=0)
        with pytest.raises(ValueError):
            AdmissionQueue(env, ep, cache, max_requests=1, policy="lifo")
        assert set(SHED_POLICIES) == {"drop-newest", "drop-oldest", "early-reply"}
