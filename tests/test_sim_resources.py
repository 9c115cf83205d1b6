"""Tests for Resource / HoldQueue / Store / Container."""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (
    Container,
    Environment,
    HoldQueue,
    Interrupt,
    Resource,
    SimError,
    Store,
    UtilizationMeter,
)
from repro.sim import resources


def test_resource_serializes_access():
    env = Environment()
    resource = Resource(env, capacity=1)
    trace = []

    def user(env, resource, name, hold):
        with resource.request() as req:
            yield req
            trace.append(("start", name, env.now))
            yield env.timeout(hold)
            trace.append(("end", name, env.now))

    env.process(user(env, resource, "a", 2))
    env.process(user(env, resource, "b", 3))
    env.run()
    assert trace == [
        ("start", "a", 0),
        ("end", "a", 2),
        ("start", "b", 2),
        ("end", "b", 5),
    ]


def test_resource_capacity_two_overlaps():
    env = Environment()
    resource = Resource(env, capacity=2)
    ends = []

    def user(env):
        with resource.request() as req:
            yield req
            yield env.timeout(4)
            ends.append(env.now)

    for _ in range(3):
        env.process(user(env))
    env.run()
    assert ends == [4, 4, 8]


def test_resource_bad_capacity():
    env = Environment()
    with pytest.raises(SimError):
        Resource(env, capacity=0)


def test_resource_release_ungranted_request_withdraws():
    env = Environment()
    resource = Resource(env, capacity=1)
    holder = resource.request()
    env.run()
    assert holder.triggered
    waiter = resource.request()
    assert not waiter.triggered
    resource.release(waiter)  # withdraw from queue
    resource.release(holder)
    assert len(resource.queue) == 0
    assert resource.count == 0


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(5):
            yield env.timeout(1)
            store.put(i)

    def consumer(env):
        for _ in range(5):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]


def test_store_blocking_put_waits_for_space():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env):
        yield store.put("x")
        times.append(("x-in", env.now))
        yield store.put("y")
        times.append(("y-in", env.now))

    def consumer(env):
        yield env.timeout(5)
        item = yield store.get()
        times.append((item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("x-in", 0) in times
    assert ("y-in", 5) in times


def test_container_levels():
    env = Environment()
    tank = Container(env, capacity=100, init=50)
    assert tank.try_get(30)
    assert tank.level == 20
    assert not tank.try_get(30)


def test_container_blocking_get_waits_for_put():
    env = Environment()
    tank = Container(env, capacity=100)
    log = []

    def getter(env):
        yield tank.get(10)
        log.append(("got", env.now))

    def putter(env):
        yield env.timeout(7)
        yield tank.put(10)

    env.process(getter(env))
    env.process(putter(env))
    env.run()
    assert log == [("got", 7)]


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=8)
    log = []

    def putter(env):
        yield tank.put(5)
        log.append(("put-done", env.now))

    def drainer(env):
        yield env.timeout(3)
        assert tank.try_get(4)

    env.process(putter(env))
    env.process(drainer(env))
    env.run()
    assert log == [("put-done", 3)]
    assert tank.level == 9


@given(ops=st.lists(st.integers(1, 20), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_property_store_conserves_items(ops):
    """Everything put into a store is eventually got, in FIFO order."""
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i, gap in enumerate(ops):
            yield env.timeout(gap)
            store.put(i)

    def consumer(env):
        for _ in ops:
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == list(range(len(ops)))


@given(
    capacity=st.integers(1, 4),
    holds=st.lists(st.integers(1, 9), min_size=1, max_size=25),
)
@settings(max_examples=50, deadline=None)
def test_property_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    max_seen = [0]
    active = [0]

    def user(env, hold):
        with resource.request() as req:
            yield req
            active[0] += 1
            max_seen[0] = max(max_seen[0], active[0])
            yield env.timeout(hold)
            active[0] -= 1

    for hold in holds:
        env.process(user(env, hold))
    env.run()
    assert max_seen[0] <= capacity
    assert active[0] == 0


class _TrackedRequest(resources.Request):
    __slots__ = ("__weakref__",)


def test_grants_are_freed_by_refcount(monkeypatch):
    """A granted-and-released claim is not a reference cycle: it dies with
    its last reference, with the cycle collector off."""
    monkeypatch.setattr(resources, "Request", _TrackedRequest)
    env = Environment()
    resource = Resource(env, capacity=1)
    refs = []

    def user(env):
        with resource.request() as grant:
            refs.append(weakref.ref(grant))
            yield grant
            yield env.timeout(1)

    gc.disable()
    try:
        env.process(user(env))  # uncontended: granted synchronously
        env.process(user(env))  # queued: granted on the first release
        env.run()
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# -- HoldQueue ------------------------------------------------------------------


def _hold_queue(env, capacity=1):
    meter = UtilizationMeter(env)
    return HoldQueue(env, capacity, meter), meter


def _holder(env, slots, log, name, seconds, arrive=0):
    if arrive:
        yield env.timeout(arrive)
    claim = slots.hold(seconds)
    yield claim
    slots.release()
    log.append((name, claim.started, env.now))


def test_hold_queue_is_fifo_and_stamps_started():
    env = Environment()
    slots, _meter = _hold_queue(env)
    log = []
    for name, seconds in (("a", 2), ("b", 3), ("c", 1)):
        env.process(_holder(env, slots, log, name, seconds))
    env.run()
    assert log == [("a", 0, 2), ("b", 2, 5), ("c", 5, 6)]
    assert slots.count == 0 and not slots.queue


def test_hold_queue_capacity_two_overlaps():
    env = Environment()
    slots, meter = _hold_queue(env, capacity=2)
    log = []
    for name in "abc":
        env.process(_holder(env, slots, log, name, 4))
    env.run()
    assert log == [("a", 0, 4), ("b", 0, 4), ("c", 4, 8)]
    assert meter.busy_time == 8
    assert meter.mean_concurrency() == pytest.approx(12 / 8)


def test_hold_queue_meter_counts_held_time_only():
    env = Environment()
    slots, meter = _hold_queue(env)
    log = []
    env.process(_holder(env, slots, log, "a", 2))
    env.process(_holder(env, slots, log, "b", 1, arrive=5))
    env.run()
    assert env.now == 6
    assert meter.busy_time == 3
    assert meter.utilization() == pytest.approx(0.5)


def test_hold_queue_abandon_queued_claim():
    env = Environment()
    slots, meter = _hold_queue(env)
    first = slots.hold(2)
    second = slots.hold(3)
    assert first.started == 0 and second.started is None
    slots.abandon(second)
    assert not slots.queue
    env.run()
    slots.release()
    assert slots.count == 0
    assert second.started is None and not second.triggered
    assert meter.busy_time == 2


def test_hold_queue_abandon_held_claim_hands_over():
    env = Environment()
    slots, meter = _hold_queue(env)
    log = []

    def victim(env):
        claim = slots.hold(10)
        try:
            yield claim
        except Interrupt:
            slots.abandon(claim)
            log.append(("abandoned", env.now))

    def interrupter(env, process):
        yield env.timeout(4)
        process.interrupt()

    process = env.process(victim(env))
    env.process(_holder(env, slots, log, "next", 1, arrive=1))
    env.process(interrupter(env, process))
    env.run()
    assert log == [("abandoned", 4), ("next", 4, 5)]
    assert meter.busy_time == 5
    assert slots.count == 0


def test_hold_queue_rejects_bad_arguments():
    env = Environment()
    with pytest.raises(SimError):
        _hold_queue(env, capacity=0)
    slots, _meter = _hold_queue(env)
    with pytest.raises(SimError):
        slots.hold(-1)


def test_handed_over_hold_keeps_its_grant_place():
    """A queued hold that starts at a release completes with the sequence
    number its grant event would have had.  So among holds ending in one
    instant, it sorts before an uncontended hold begun later in the
    instant it started; in the ``request()`` + ``timeout`` form the waiter
    only took its timer after that instant's earlier events."""
    env = Environment()
    slots, _meter = _hold_queue(env, capacity=2)
    log = []
    env.process(_holder(env, slots, log, "a", 1))
    env.process(_holder(env, slots, log, "x", 1))
    env.process(_holder(env, slots, log, "b", 2))  # queued; starts at 1

    def late(env):
        # Arrives at 1 on a timer set at 0.5, so it runs after a and x
        # release, and finds x's slot free.
        yield env.timeout(0.5)
        yield from _holder(env, slots, log, "c", 2, arrive=0.5)

    env.process(late(env))
    env.run()
    assert log[2:] == [("b", 1, 3), ("c", 1, 3)]


def _resource_form(capacity, users):
    """The ``request()`` + ``timeout`` form a HoldQueue replaces."""
    env = Environment()
    meter = UtilizationMeter(env)
    resource = Resource(env, capacity=capacity)
    trace = []
    held = [0] * len(users)

    def user(name, steps):
        for gap, seconds in steps:
            yield env.timeout(gap)
            with resource.request() as grant:
                yield grant
                granted = env.now
                meter.begin()
                yield env.timeout(seconds)
                meter.end()
            held[name] += env.now - granted
            trace.append((env.now, name))

    for name, steps in enumerate(users):
        env.process(user(name, steps))
    env.run()
    return trace, meter.busy_time, meter.mean_concurrency(), held


def _hold_form(capacity, users):
    env = Environment()
    slots, meter = _hold_queue(env, capacity)
    trace = []
    held = [0] * len(users)

    def user(name, steps):
        for gap, seconds in steps:
            yield env.timeout(gap)
            claim = slots.hold(seconds)
            yield claim
            slots.release()
            held[name] += env.now - claim.started
            trace.append((env.now, name))

    for name, steps in enumerate(users):
        env.process(user(name, steps))
    env.run()
    return trace, meter.busy_time, meter.mean_concurrency(), held


@given(
    capacity=st.integers(1, 3),
    users=st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    ),
)
@example(
    # Users 2 and 4 swap in the instant t=12, so each starts its next hold
    # from the other's place in the queue and their last holds end at 15
    # and 16 the other way round.
    capacity=3,
    users=[
        [(0, 1), (1, 4), (0, 2)],
        [(0, 4), (3, 2), (0, 1), (0, 2)],
        [(2, 4), (0, 2), (2, 2), (2, 1)],
        [(2, 4), (0, 3), (0, 3)],
        [(2, 3), (0, 2), (2, 1)],
    ],
)
@example(
    # Users 4 and 5 swap in the instant t=7; two holds that ended at 10
    # and 10 then end at 9 and 11.
    capacity=3,
    users=[
        [(3, 3)],
        [(2, 4)],
        [(3, 1), (2, 2), (1, 1), (2, 4)],
        [(3, 1), (2, 4), (0, 2)],
        [(1, 1), (1, 1), (1, 1)],
        [(2, 2), (2, 1), (1, 2)],
    ],
)
@settings(max_examples=100, deadline=None)
def test_property_hold_queue_matches_resource_form(capacity, users):
    """A HoldQueue runs the same schedule as the ``request()`` +
    ``timeout`` form up to the first same-instant swap.

    A handed-over hold's completion sorts ahead of events scheduled later
    in the instant it started (``test_handed_over_hold_keeps_its_grant_place``),
    so two holds ending in one instant may complete in the other order.
    The traces agree up to the first place they differ, and in that
    instant the same users complete.  A swapped user then queues its next
    hold from the other's place, so later completions, their times and
    the meter may all differ; without a swap the meter integrates the same
    busy time and concurrency.  Swap or not, every user completes each of
    its holds once, holding for exactly the seconds it asked.  When each
    user holds once nobody queues again, and everything matches."""
    expected_trace, expected_busy, expected_concurrency, expected_held = _resource_form(
        capacity, users
    )
    trace, busy, concurrency, held = _hold_form(capacity, users)
    assert Counter(name for _, name in trace) == Counter(name for _, name in expected_trace)
    asked = [sum(seconds for _, seconds in steps) for steps in users]
    assert held == expected_held == asked
    for got, want in zip(trace, expected_trace):
        if got != want:
            instant = got[0]
            assert want[0] == instant
            assert sorted(name for at, name in trace if at == instant) == sorted(
                name for at, name in expected_trace if at == instant
            )
            break
    else:
        assert busy == expected_busy
        assert concurrency == expected_concurrency
    single = [steps[:1] for steps in users]
    assert _hold_form(capacity, single) == _resource_form(capacity, single)


class _TrackedHold(resources.Hold):
    __slots__ = ("__weakref__",)


def test_holds_are_freed_by_refcount(monkeypatch):
    """A finished hold is not a reference cycle: it dies with its last
    reference, with the cycle collector off."""
    monkeypatch.setattr(resources, "Hold", _TrackedHold)
    env = Environment()
    slots, _meter = _hold_queue(env)
    refs = []

    def user(env):
        claim = slots.hold(1)
        refs.append(weakref.ref(claim))
        yield claim
        slots.release()

    gc.disable()
    try:
        env.process(user(env))  # starts at once
        env.process(user(env))  # queued: started by the first release
        env.run()
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
