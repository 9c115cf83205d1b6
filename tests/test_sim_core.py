"""Unit and property tests for the simulation kernel (events, processes)."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import RecordingCollector, install, registry_for
from repro.sim import AllOf, AnyOf, Environment, Interrupt, SimError


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(3.5)
    assert p.value == "done"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimError):
        env.timeout(-1)


def test_processes_interleave_in_time_order():
    env = Environment()
    trace = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        trace.append((env.now, name))

    env.process(proc(env, "b", 2.0))
    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "c", 3.0))
    env.run()
    assert trace == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_same_time_events_fire_in_insertion_order():
    env = Environment()
    trace = []

    def proc(env, name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in ["first", "second", "third"]:
        env.process(proc(env, name))
    env.run()
    assert trace == ["first", "second", "third"]


def test_process_waits_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(5)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return result * 2

    p = env.process(parent(env))
    env.run()
    assert p.value == 84


def test_run_until_time_stops_early():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(10)
        fired.append(True)

    env.process(proc(env))
    env.run(until=5)
    assert env.now == 5
    assert not fired
    env.run()
    assert fired


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "payload"

    p = env.process(proc(env))
    assert env.run(until=p) == "payload"
    assert env.now == 2


def test_run_until_past_time_rejected():
    env = Environment()

    def noop(env):
        yield env.timeout(1)

    env.process(noop(env))
    env.run()
    with pytest.raises(SimError):
        env.run(until=env.now - 1)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimError):
        env.process(iter([]))  # a plain iterator is not a generator


def test_event_succeed_and_value():
    env = Environment()
    ev = env.event()
    results = []

    def waiter(env, ev):
        value = yield ev
        results.append(value)

    env.process(waiter(env, ev))
    ev.succeed("hello")
    env.run()
    assert results == ["hello"]
    assert ev.ok and ev.processed


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)
    with pytest.raises(SimError):
        ev.fail(ValueError("x"))


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env, ev))
    ev.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_crashes_the_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError):
        env.run()


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise KeyError("oops")

    def parent(env):
        try:
            yield env.process(bad(env))
        except KeyError:
            return "handled"

    p = env.process(parent(env))
    env.run()
    assert p.value == "handled"


def test_yield_non_event_fails_the_process():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimError):
        env.run()
    assert not p.ok


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(3, "wake up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimError):
        p.interrupt()


def test_interrupted_process_can_resume_waiting():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            yield env.timeout(5)
            log.append(env.now)

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [7]


def test_second_interrupt_before_resume_rejected():
    """An interrupted process waits on nothing until the interrupt lands,
    so a second interrupt in that instant is refused instead of resuming
    it twice."""
    env = Environment()
    log = []

    def sleeper(env):
        for _ in range(2):
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                log.append((env.now, interrupt.cause))

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt("first")
        assert victim.target is None
        with pytest.raises(SimError):
            victim.interrupt("second")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(2, "first")]
    assert env.now == 102


def test_interrupt_from_a_sibling_waiter_lands_at_the_next_yield():
    """Two processes wait on one event; the first to resume interrupts the
    other, which the event's callbacks then resume too.  The interrupt
    lands at its next yield, once."""
    env = Environment()
    log = []
    done = env.event()
    env.timeout(1).callbacks.append(lambda _timer: done.succeed())

    def first(env):
        yield done
        second.interrupt("late")

    def waiter(env):
        yield done
        try:
            yield env.timeout(5)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))
        return "once"

    env.process(first(env))
    second = env.process(waiter(env))
    env.run()
    assert log == [(1, "late")]
    assert second.value == "once"


def test_all_of_collects_values():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        results = yield AllOf(env, [t1, t2])
        return sorted(results.values())

    p = env.process(proc(env))
    env.run()
    assert p.value == ["a", "b"]
    assert env.now == 2


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(10, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return list(results.values())

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == ["fast"]
    assert env.now == 1


def test_any_of_empty_rejected():
    env = Environment()
    with pytest.raises(SimError):
        AnyOf(env, [])


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()

    def proc(env):
        t = env.timeout(1, value="x")
        yield env.timeout(5)
        value = yield t  # t fired long ago
        return (env.now, value)

    p = env.process(proc(env))
    env.run()
    assert p.value == (5, "x")


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_property_clock_is_monotonic_and_ends_at_max(delays):
    env = Environment()
    seen = []

    def proc(env, delay):
        yield env.timeout(delay)
        seen.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert seen == sorted(seen)
    assert env.now == pytest.approx(max(delays))
    assert len(seen) == len(delays)


@given(
    delays=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=30
    )
)
@settings(max_examples=50, deadline=None)
def test_property_sequential_delays_sum(delays):
    """A chain of timeouts inside one process ends at the sum of its delays."""
    env = Environment()

    def proc(env, pair):
        a, b = pair
        yield env.timeout(a)
        yield env.timeout(b)
        return env.now

    procs = [env.process(proc(env, pair)) for pair in delays]
    env.run()
    for pair, p in zip(delays, procs):
        assert p.value == pytest.approx(sum(pair))


def test_determinism_same_structure_same_trace():
    """Two identical runs produce identical event traces."""

    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, name, period, count):
            for i in range(count):
                yield env.timeout(period)
                trace.append((env.now, name, i))

        env.process(worker(env, "x", 1.5, 5))
        env.process(worker(env, "y", 2.0, 4))
        env.process(worker(env, "z", 1.5, 5))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


# -- Environment.close() ---------------------------------------------------------


def test_close_runs_a_suspended_finally_exactly_once():
    env = Environment()
    ran = []

    def proc(env):
        try:
            yield env.timeout(10)
        finally:
            ran.append(env.now)

    env.process(proc(env))
    env.run(until=1)
    env.close()
    env.close()
    assert ran == [1.0]


def test_close_ends_a_process_started_by_a_finally():
    env = Environment()
    spawned = []

    def child(env):
        yield env.timeout(1)

    def parent(env):
        try:
            yield env.event()
        finally:
            spawned.append(env.process(child(env)))

    env.process(parent(env))
    env.run(until=1)
    env.close()
    (process,) = spawned
    assert inspect.getgeneratorstate(process._generator) == inspect.GEN_CLOSED
    assert env._live == {}


def test_short_processes_leave_the_live_table_empty():
    """10,000 processes, half of them failing, all leave the table."""
    env = Environment()

    def failing(env):
        yield env.timeout(0.001)
        raise ValueError("expected")

    def waiter(env):
        try:
            yield env.process(failing(env))
        except ValueError:
            pass

    for _ in range(5_000):
        env.process(waiter(env))
    env.run(until=0.0005)
    assert len(env._live) == 10_000
    env.run()
    assert env._live == {}


def test_close_schedules_no_event_and_drops_the_obs_state():
    env = Environment()
    collector = RecordingCollector()
    install(env, collector)
    registry_for(env).counter("kept").add(1)

    def waiter(env, event):
        yield event

    def sleeper(env):
        yield env.timeout(5)

    pending = env.event()
    env.process(waiter(env, pending))
    env.process(sleeper(env))
    env.run(until=1)
    env.deadline(2, pending)
    scheduled = env._eid
    env.close()
    env.close()
    assert env._eid == scheduled
    assert env._queue == [] and env._live == {}
    assert env._deadlines == [] and env._last_deadline is None
    assert collector.spans == []
    assert "_obs_registry" not in vars(env) and "_obs_collector" not in vars(env)


def test_run_after_close_returns_at_once():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1)

    env.process(ticker(env))
    env.run(until=2.5)
    env.close()
    stop = env.event()
    assert env.run() is None
    assert env.run(until=10) is None
    assert env.run(until=stop) is None
    assert env.now == 2.5
