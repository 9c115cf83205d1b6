"""Tests for Resource / HoldQueue / Store / Container."""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
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


def _holder(env, slots, log, name, seconds, arrive=0):
    if arrive:
        yield env.timeout(arrive)
    claim = slots.hold(seconds)
    yield claim
    slots.release()
    log.append((name, claim.started, env.now))


def test_hold_queue_is_fifo_and_stamps_started():
    env = Environment()
    slots = HoldQueue(env)
    log = []
    for name, seconds in (("a", 2), ("b", 3), ("c", 1)):
        env.process(_holder(env, slots, log, name, seconds))
    env.run()
    assert log == [("a", 0, 2), ("b", 2, 5), ("c", 5, 6)]
    assert not slots.busy and not slots.queue
    assert slots.busy_time == 6


def test_hold_queue_meter_counts_held_time_only():
    env = Environment()
    slots = HoldQueue(env)
    log = []
    env.process(_holder(env, slots, log, "a", 2))
    env.process(_holder(env, slots, log, "b", 1, arrive=5))
    env.run()
    assert env.now == 6
    assert slots.busy_time == 3
    assert slots.utilization() == pytest.approx(0.5)


def test_hold_queue_abandon_queued_claim():
    env = Environment()
    slots = HoldQueue(env)
    first = slots.hold(2)
    second = slots.hold(3)
    assert first.started == 0 and second.started is None
    slots.abandon(second)
    assert not slots.queue
    env.run()
    slots.release()
    assert not slots.busy
    assert second.started is None and not second.triggered
    assert slots.busy_time == 2


def test_hold_queue_abandon_held_claim_hands_over():
    env = Environment()
    slots = HoldQueue(env)
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
    assert slots.busy_time == 5
    assert not slots.busy


def test_hold_queue_rejects_bad_arguments():
    slots = HoldQueue(Environment())
    with pytest.raises(SimError):
        slots.hold(-1)


def test_handed_over_hold_keeps_its_grant_place():
    """A queued hold that starts at a release completes with the sequence
    number its grant event would have had.  So among events due in one
    instant, it sorts before a timer set later in the instant it started;
    in the ``request()`` + ``timeout`` form the waiter only took its
    timer after that instant's earlier events, so the timer came first."""
    env = Environment()
    slots = HoldQueue(env)
    log = []
    env.process(_holder(env, slots, log, "a", 1))
    env.process(_holder(env, slots, log, "b", 2))  # queued; starts at 1

    def late(env):
        # Wakes at 1 on a timer set at 0.5, so after a's release has
        # started b, then sets a timer due when b's hold ends.
        yield env.timeout(0.5)
        yield env.timeout(0.5)
        yield env.timeout(2)
        log.append(("late", 1, env.now))

    env.process(late(env))
    env.run()
    assert log == [("a", 0, 1), ("b", 1, 3), ("late", 1, 3)]


class _ReferenceMeter:
    """The busy meter a HoldQueue used to drive, as it was: ``begin``
    when a hold starts, ``end`` when it is released."""

    def __init__(self, env):
        self.env = env
        self._active = 0
        self._busy_since = 0.0
        self._busy_time = 0.0
        self._start = env.now

    def begin(self):
        if self._active == 0:
            self._busy_since = self.env.now
        self._active += 1

    def end(self):
        self._active -= 1
        if self._active == 0:
            self._busy_time += self.env.now - self._busy_since

    @property
    def busy_time(self):
        extra = self.env.now - self._busy_since if self._active else 0.0
        return self._busy_time + extra

    def utilization(self):
        elapsed = self.env.now - self._start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def reset(self):
        self._busy_time = 0.0
        self._start = self.env.now
        if self._active:
            self._busy_since = self.env.now


_HOLD_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("hold"), st.floats(0.0, 5.0)),
        st.tuples(st.just("release"), st.just(0)),
        st.tuples(st.just("abandon"), st.integers(0, 7)),
        st.tuples(st.just("reset"), st.just(0)),
        st.tuples(st.just("advance"), st.floats(0.0, 3.0)),
    ),
    max_size=40,
)


@given(steps=_HOLD_STEPS)
@settings(max_examples=200, deadline=None)
def test_property_hold_queue_busy_clock_matches_meter(steps):
    """The one-slot queue's own busy clock reads, bit for bit, what the
    meter it replaces read, over any order of holds, releases, abandons
    and resets at any times."""
    env = Environment()
    slots = HoldQueue(env)
    meter = _ReferenceMeter(env)
    holder = None  # the claim with the slot
    queued = []  # claims waiting, in order
    for op, arg in steps:
        if op == "hold":
            claim = slots.hold(arg)
            if holder is None:
                holder = claim
                meter.begin()
            else:
                queued.append(claim)
        elif op == "advance":
            env.run(until=env.now + arg)
        elif op == "reset":
            slots.reset()
            meter.reset()
        elif holder is not None:
            if op == "abandon" and arg < len(queued):
                # Give up a waiting claim: the slot is untouched.
                slots.abandon(queued.pop(arg))
            else:
                # Release, or abandon the claim that has the slot.
                if op == "release":
                    slots.release()
                else:
                    slots.abandon(holder)
                meter.end()
                holder = queued.pop(0) if queued else None
                if holder is not None:
                    meter.begin()
        assert (holder is not None) == slots.busy
        assert list(slots.queue) == queued
        assert slots.busy_time == meter.busy_time
        assert slots.utilization() == meter.utilization()


def _resource_form(users):
    """The one-slot ``request()`` + ``timeout`` form a HoldQueue replaces."""
    env = Environment()
    meter = UtilizationMeter(env)
    resource = Resource(env, capacity=1)
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
    return trace, meter.busy_time, held


def _hold_form(users):
    env = Environment()
    slots = HoldQueue(env)
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
    return trace, slots.busy_time, held


@given(
    users=st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=100, deadline=None)
def test_property_hold_queue_matches_resource_form(users):
    """A HoldQueue runs the same schedule as the one-slot ``request()`` +
    ``timeout`` form up to the first same-instant swap.

    A handed-over hold's completion sorts ahead of events scheduled later
    in the instant it started (``test_handed_over_hold_keeps_its_grant_place``),
    so a hold's end and another user's timer due in one instant may run
    in the other order.  The traces agree up to the first place they
    differ, and in that instant the same users complete.  A swapped user
    then queues its next hold from the other's place, so later
    completions, their times and the busy time may all differ; without a
    swap the busy time is the same.  Swap or not, every user completes
    each of its holds once, holding for exactly the seconds it asked.
    When each user holds once nobody queues again, and everything
    matches."""
    expected_trace, expected_busy, expected_held = _resource_form(users)
    trace, busy, held = _hold_form(users)
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
    single = [steps[:1] for steps in users]
    assert _hold_form(single) == _resource_form(single)


class _TrackedHold(resources.Hold):
    __slots__ = ("__weakref__",)


def test_holds_are_freed_by_refcount(monkeypatch):
    """A finished hold is not a reference cycle: it dies with its last
    reference, with the cycle collector off."""
    monkeypatch.setattr(resources, "Hold", _TrackedHold)
    env = Environment()
    slots = HoldQueue(env)
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
