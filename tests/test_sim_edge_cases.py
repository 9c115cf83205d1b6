"""Edge-case coverage for the simulation kernel: condition failures,
interrupts interacting with resources, store/bounded semantics."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Container,
    Environment,
    Interrupt,
    Resource,
    SimError,
    Store,
)


class TestConditionEdges:
    def test_all_of_fails_fast_when_member_fails(self):
        env = Environment()
        good = env.timeout(10, value="late")
        bad = env.event()
        caught = []

        def waiter(env):
            try:
                yield AllOf(env, [good, bad])
            except RuntimeError as exc:
                caught.append((env.now, str(exc)))

        env.process(waiter(env))
        bad.fail(RuntimeError("member died"))
        env.run()
        assert caught == [(0, "member died")]

    def test_any_of_with_already_processed_member(self):
        env = Environment()

        def proc(env):
            first = env.timeout(1, value="early")
            yield env.timeout(5)
            result = yield AnyOf(env, [first, env.timeout(100)])
            return list(result.values())

        p = env.process(proc(env))
        env.run(until=p)
        assert p.value == ["early"]

    def test_all_of_empty_fires_immediately(self):
        env = Environment()

        def proc(env):
            result = yield AllOf(env, [])
            return result

        p = env.process(proc(env))
        env.run()
        assert p.value == {}

    def test_cross_environment_events_rejected(self):
        env_a, env_b = Environment(), Environment()
        with pytest.raises(SimError):
            AllOf(env_a, [env_b.timeout(1)])

    def test_sibling_failure_after_anyof_fired_is_defused(self):
        env = Environment()
        fast = env.timeout(1, value="fast")
        slow = env.event()

        def proc(env):
            yield AnyOf(env, [fast, slow])
            return "done"

        p = env.process(proc(env))

        def failer(env):
            yield env.timeout(2)
            slow.fail(RuntimeError("too late to matter"))

        env.process(failer(env))
        env.run()  # must not raise
        assert p.value == "done"


class TestInterruptsAndResources:
    def test_interrupt_while_waiting_for_resource(self):
        env = Environment()
        resource = Resource(env)
        log = []

        def holder(env):
            with resource.request() as req:
                yield req
                yield env.timeout(100)

        def waiter(env):
            request = resource.request()
            try:
                yield request
            except Interrupt:
                resource.release(request)  # withdraw from the queue
                log.append(("interrupted", env.now))

        def interrupter(env, victim):
            yield env.timeout(5)
            victim.interrupt()

        env.process(holder(env))
        victim = env.process(waiter(env))
        env.process(interrupter(env, victim))
        env.run(until=20)
        assert log == [("interrupted", 5)]
        assert len(resource.queue) == 0

    def test_double_release_of_withdrawn_request_is_noop(self):
        env = Environment()
        resource = Resource(env)
        holder = resource.request()
        env.run()
        waiter = resource.request()
        resource.release(waiter)
        resource.release(waiter)  # idempotent withdraw
        resource.release(holder)
        assert resource.count == 0


class TestStoreAndContainerEdges:
    def test_store_getter_waits_even_with_pending_putter(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.put("a")
        put_event = store.put("b")  # blocked: full
        assert not put_event.triggered

        def consumer(env):
            first = yield store.get()
            second = yield store.get()
            return [first, second]

        p = env.process(consumer(env))
        env.run(until=p)
        assert p.value == ["a", "b"]
        assert put_event.triggered

    def test_container_try_get_respects_waiting_getters(self):
        env = Environment()
        tank = Container(env, capacity=100, init=10)
        blocked = tank.get(50)  # waits for level >= 50
        assert not blocked.triggered
        # A try_get must not starve the queued getter out of order.
        assert not tank.try_get(5)

    def test_container_validation(self):
        env = Environment()
        with pytest.raises(SimError):
            Container(env, capacity=0)
        with pytest.raises(SimError):
            Container(env, capacity=10, init=20)
        tank = Container(env, capacity=10)
        with pytest.raises(SimError):
            tank.put(0)
        with pytest.raises(SimError):
            tank.get(-1)

    def test_store_validation(self):
        env = Environment()
        with pytest.raises(SimError):
            Store(env, capacity=0)


class TestRunSemantics:
    def test_step_on_empty_queue_raises(self):
        with pytest.raises(SimError):
            Environment().step()

    def test_peek_empty_is_infinity(self):
        assert Environment().peek() == float("inf")

    def test_run_until_event_already_processed(self):
        env = Environment()
        timeout = env.timeout(1, value="v")
        env.run()
        assert env.run(until=timeout) == "v"

    def test_resource_context_manager_releases_on_exception(self):
        env = Environment()
        resource = Resource(env)

        def crasher(env):
            with resource.request() as req:
                yield req
                raise ValueError("boom")

        def waiter(env):
            with resource.request() as req:
                yield req
                return env.now

        crash_proc = env.process(crasher(env))
        wait_proc = env.process(waiter(env))
        with pytest.raises(ValueError):
            env.run()
        # The slot was released despite the crash; the waiter can finish.
        env.run()
        assert wait_proc.value == 0
