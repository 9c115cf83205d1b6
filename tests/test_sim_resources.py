"""Tests for Resource / PriorityResource / Store / Container."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Container, Environment, PriorityResource, Resource, SimError, Store
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


def test_priority_resource_grants_lowest_priority_first():
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    order = []

    def user(env, name, priority, arrive):
        yield env.timeout(arrive)
        with resource.request(priority=priority) as req:
            yield req
            order.append(name)
            yield env.timeout(10)

    env.process(user(env, "low", 5, 0))  # grabs first (resource idle)
    env.process(user(env, "urgent", 0, 1))
    env.process(user(env, "medium", 3, 1))
    env.process(user(env, "slow", 9, 1))
    env.run()
    assert order == ["low", "urgent", "medium", "slow"]


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


def test_store_bounded_try_put_drops():
    env = Environment()
    store = Store(env, capacity=2)
    assert store.try_put("a")
    assert store.try_put("b")
    assert not store.try_put("c")  # full: dropped, like a full socket buffer
    assert len(store) == 2


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


def test_store_steal_removes_matching_item():
    env = Environment()
    store = Store(env)
    for i in range(5):
        store.try_put({"id": i})
    stolen = store.steal(lambda item: item["id"] == 3)
    assert stolen == {"id": 3}
    assert store.steal(lambda item: item["id"] == 3) is None
    remaining = [item["id"] for item in store.items]
    assert remaining == [0, 1, 2, 4]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.try_put("a")
    assert store.try_get() == "a"
    assert store.try_get() is None


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
