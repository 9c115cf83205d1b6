"""Tests for the measurement helpers (Tally, Counter, meters)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, Environment, SimError, Tally, UtilizationMeter


def test_tally_basic_stats():
    tally = Tally()
    for value in [1.0, 2.0, 3.0, 4.0]:
        tally.observe(value)
    assert tally.count == 4
    assert tally.mean == pytest.approx(2.5)
    assert tally.min == 1.0
    assert tally.max == 4.0
    assert tally.total == 10.0
    assert tally.variance == pytest.approx(1.25)


def test_tally_empty_mean_is_zero():
    assert Tally().mean == 0.0


def test_tally_percentiles():
    tally = Tally(keep_samples=True)
    for value in range(1, 101):
        tally.observe(float(value))
    assert tally.percentile(0.5) == 50.0
    assert tally.percentile(0.99) == 99.0
    assert tally.percentile(1.0) == 100.0
    assert tally.percentile(0.0) == 1.0


def test_tally_percentile_requires_samples():
    tally = Tally()
    tally.observe(1.0)
    with pytest.raises(SimError):
        tally.percentile(0.5)


@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_tally_mean_matches_naive(values):
    tally = Tally()
    for value in values:
        tally.observe(value)
    assert tally.mean == pytest.approx(sum(values) / len(values), abs=1e-6, rel=1e-9)


def test_counter_rate():
    env = Environment()
    counter = Counter(env)

    def proc(env):
        for _ in range(10):
            yield env.timeout(1)
            counter.add(5)

    env.process(proc(env))
    env.run()
    assert counter.value == 50
    assert counter.rate() == pytest.approx(5.0)


def test_counter_reset():
    env = Environment()
    counter = Counter(env)
    counter.add(10)

    def proc(env):
        yield env.timeout(2)
        counter.reset()
        yield env.timeout(4)
        counter.add(8)

    env.process(proc(env))
    env.run()
    assert counter.rate() == pytest.approx(2.0)


def test_counter_rejects_negative():
    env = Environment()
    with pytest.raises(SimError):
        Counter(env).add(-1)


def test_utilization_meter_simple():
    env = Environment()
    meter = UtilizationMeter(env)

    def proc(env):
        meter.begin()
        yield env.timeout(3)
        meter.end()
        yield env.timeout(7)

    env.process(proc(env))
    env.run()
    assert env.now == 10
    assert meter.utilization() == pytest.approx(0.3)


def test_utilization_meter_overlapping_intervals():
    """Two overlapping busy intervals count wall-clock busy time once."""
    env = Environment()
    meter = UtilizationMeter(env)

    def user(env, start, duration):
        yield env.timeout(start)
        meter.begin()
        yield env.timeout(duration)
        meter.end()

    env.process(user(env, 0, 6))
    env.process(user(env, 4, 6))  # overlaps [4, 6]

    def tail(env):
        yield env.timeout(20)

    env.process(tail(env))
    env.run()
    assert meter.busy_time == pytest.approx(10.0)  # [0,10]
    assert meter.utilization() == pytest.approx(0.5)
    assert meter.mean_concurrency() == pytest.approx(12.0 / 20.0)


def test_utilization_meter_add_busy_and_reset():
    env = Environment()
    meter = UtilizationMeter(env)

    def proc(env):
        meter.add_busy(2.0)
        yield env.timeout(10)
        meter.reset()
        meter.add_busy(1.0)
        yield env.timeout(10)

    env.process(proc(env))
    env.run()
    assert meter.utilization() == pytest.approx(0.1)


def test_utilization_meter_end_without_begin():
    env = Environment()
    meter = UtilizationMeter(env)
    with pytest.raises(SimError):
        meter.end()


def test_utilization_open_interval_counts_to_now():
    env = Environment()
    meter = UtilizationMeter(env)

    def proc(env):
        yield env.timeout(5)
        meter.begin()
        yield env.timeout(5)
        # never ends

    env.process(proc(env))
    env.run()
    assert meter.utilization() == pytest.approx(0.5)
