"""The kernel runs every event at its ``(time, seq)`` place.

``Environment`` arms deadlines lazily.  ``HeapOnlyEnvironment`` below is
the kernel without that: every deadline is a ``Timeout`` with a callback,
so it goes on the heap, the way ``run`` worked before.  Random programs must
produce the same callbacks, in the same order and at the same ``now``, on
both, and end at the same ``now``.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    PRIORITY_URGENT,
    Environment,
    Event,
    HoldQueue,
    Interrupt,
    SimError,
    StopSimulation,
    UtilizationMeter,
)

INF = float("inf")


class HeapOnlyEnvironment(Environment):
    """The reference kernel: one heap of ``(time, seq, event)``.

    Its loop is a frozen copy of the kernel's, so a later change to how
    ``Environment`` picks the next event is checked against it too."""

    def deadline(self, delay, event, value=None):
        def expire(_timer):
            if not event.triggered:
                event.succeed(value)

        self.timeout(delay).callbacks.append(expire)

    def peek(self):
        return self._queue[0][0] if self._queue else INF

    def step(self):
        if not self._queue:
            raise SimError("step() on an empty event queue")
        self._now, _seq, event = heapq.heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until=None):
        if until is not None and not isinstance(until, Event):
            stop = Event(self)
            stop._ok, stop._value = True, None
            self._schedule(stop, PRIORITY_URGENT, float(until) - self._now)
            until = stop
        if until is not None:
            if until.processed:
                return until._value
            until.callbacks.append(self._stop_on)
        try:
            while self._queue:
                self.step()
        except StopSimulation as stop:
            return stop.value
        if until is not None and not until.processed:
            raise SimError("run() ended before the `until` event fired")
        return None


# -- random programs --------------------------------------------------------------

_DELAYS = st.sampled_from([0, 0.5, 1, 2])
_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("signal"), st.integers(0, 2), st.booleans()),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("urgent"), st.sampled_from([0, 0.5])),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
    # child: waited for, its delay (None: returns at once), fails
    st.tuples(st.just("child"), st.booleans(), st.sampled_from([None, 0, 1]), st.booleans()),
    # deadline: delay, answer delay (None: answered at once), answer armed first
    st.tuples(
        st.just("deadline"), _DELAYS, st.sampled_from([None, 0, 0.5, 1, 2, 3]), st.booleans()
    ),
    st.tuples(st.just("hold"), st.sampled_from([0, 0.5, 1])),
    st.tuples(st.just("join"), st.integers(0, 3)),
)
_PROGRAMS = st.lists(st.lists(_OPS, max_size=6), min_size=1, max_size=4)
_MODES = st.one_of(
    st.just(("drain",)),
    st.tuples(st.just("until"), st.sampled_from([0, 0.5, 1, 1.5, 2.5])),
    st.just(("event",)),
    st.just(("step",)),
)


def _execute(env, program, mode):
    """Run ``program`` on ``env``; return its log, final ``now`` and error."""
    log = []
    signals = []
    procs = []
    slots = HoldQueue(env, 1, UtilizationMeter(env))

    def logged(tag):
        def callback(event):
            event.defused = True
            log.append((tag, event._ok, env.now))

        return callback

    def signal(k):
        event = Event(env)
        event.callbacks.append(logged(("signal", k)))
        return event

    signals.extend(signal(k) for k in range(3))

    def child(delay, fails):
        if delay is not None:
            yield env.timeout(delay)
        if fails:
            raise ValueError("child failed")
        return "child"

    def answer(wait, value):
        def callback(_timer):
            if not wait.triggered:
                wait.succeed(value)

        return callback

    def script(pid, ops):
        me = procs[pid]
        for step, op in enumerate(ops):
            kind = op[0]
            claim = None
            try:
                if kind == "timeout":
                    yield env.timeout(op[1])
                elif kind == "signal":
                    _, k, ok = op
                    if signals[k].triggered:
                        signals[k] = signal(k)
                    if ok:
                        signals[k].succeed(pid)
                    else:
                        signals[k].fail(ValueError(pid))
                elif kind == "wait":
                    yield signals[op[1]]
                elif kind == "urgent":
                    event = Event(env)
                    event._ok, event._value = True, None
                    event.callbacks.append(logged(("urgent", pid, step)))
                    env._schedule(event, PRIORITY_URGENT, op[1])
                elif kind == "interrupt":
                    target = procs[op[1] % len(procs)]
                    if target is not me and target.is_alive and target.target is not None:
                        target.interrupt((pid, step))
                elif kind == "child":
                    _, waited, delay, fails = op
                    spawned = env.process(child(delay, fails and waited))
                    if waited:
                        yield spawned
                elif kind == "deadline":
                    _, delay, answer_at, answer_first = op
                    wait = Event(env)
                    if answer_at is None:
                        wait.succeed("early")
                    elif answer_first:
                        env.timeout(answer_at).callbacks.append(answer(wait, "early"))
                    env.deadline(delay, wait, "late")
                    if answer_at is not None and not answer_first:
                        env.timeout(answer_at).callbacks.append(answer(wait, "early"))
                    log.append((pid, step, "got", (yield wait), env.now))
                elif kind == "hold":
                    claim = slots.hold(op[1])
                    yield claim
                    claim = None
                    slots.release()
                elif kind == "join":
                    other = procs[op[1] % len(procs)]
                    if other is not me:
                        yield other
            except Interrupt as interrupt:
                if claim is not None:
                    slots.abandon(claim)
                log.append((pid, step, "interrupted", interrupt.cause, env.now))
            except ValueError as error:
                log.append((pid, step, "failed", str(error), env.now))
            log.append((pid, step, env.now))
        return pid

    for pid, ops in enumerate(program):
        procs.append(env.process(script(pid, ops)))
    error = None
    try:
        if mode[0] == "until":
            env.run(until=mode[1])
            log.append(("paused", env.now))
        elif mode[0] == "event":
            log.append(("joined", env.run(until=procs[0]), env.now))
        if mode[0] == "step":
            while env.peek() != INF:
                env.step()
        else:
            env.run()
    except (SimError, ValueError) as exc:
        error = repr(exc)
    return log, env.now, error


@given(program=_PROGRAMS, mode=_MODES)
@settings(max_examples=300, deadline=None)
def test_property_kernel_matches_heap_only_reference(program, mode):
    expected = _execute(HeapOnlyEnvironment(), program, mode)
    assert _execute(Environment(), program, mode) == expected


def test_reference_covers_same_instant_ties():
    """An event triggered at ``now`` and a timer landing in the same
    instant: the older seq runs first on both kernels."""
    program = [[("timeout", 1), ("signal", 0, True)], [("timeout", 0.5), ("timeout", 0.5)]]
    expected = _execute(HeapOnlyEnvironment(), program, ("drain",))
    assert _execute(Environment(), program, ("drain",)) == expected
    assert expected[1] == 1


def test_drain_ends_at_the_latest_deadline():
    """Every deadline answered at once: none fires, yet a drain still ends
    at the latest one, as if each had been a queued timer."""
    env = Environment()
    for i in range(50):
        wait = env.event()
        env.deadline(1.0 + i / 100, wait, "late")
        wait.succeed("early")
    steps = 0
    while env.peek() != INF:
        env.step()
        steps += 1
    # 50 answers, the first deadline (armed when set) and the drain's
    # no-op at the latest one; the other 48 never reach the heap.
    assert steps == 52
    assert env.now == 1.49
    assert env._eid == 100
