"""scripts/count_work.py counts the interpreter work of a run.

The counts are exact, so they are checked here on tiny programs: they
repeat, and one more Python call or one more simulated tick adds the
same work each time.
"""

import importlib.util
import sys
from pathlib import Path

from repro.sim import Environment

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("count_work", REPO / "scripts" / "count_work.py")
count_work = importlib.util.module_from_spec(_spec)
sys.modules["count_work"] = count_work
_spec.loader.exec_module(count_work)


def _ticks(n):
    env = Environment()

    def ticker(env):
        for _ in range(n):
            yield env.timeout(1)

    env.process(ticker(env))
    env.run()
    assert env.now == n


def _one():
    return 1


def _calls_one(times):
    for _ in range(times):
        _one()


def test_counts_repeat():
    first = count_work.count(lambda: _ticks(3))
    assert first == count_work.count(lambda: _ticks(3))
    assert all(value > 0 for value in first.values())


def test_each_tick_adds_the_same_work():
    counts = [count_work.count(lambda n=n: _ticks(n)) for n in (3, 4, 5)]
    for key in ("bytecodes", "python_calls", "c_calls"):
        step = counts[1][key] - counts[0][key]
        assert step > 0
        assert counts[2][key] - counts[1][key] == step


def test_a_python_call_counts_once():
    once = count_work.count(lambda: _calls_one(1))
    twice = count_work.count(lambda: _calls_one(2))
    assert twice["python_calls"] - once["python_calls"] == 1
    assert twice["c_calls"] == once["c_calls"]
    assert twice["bytecodes"] > once["bytecodes"]


def test_restores_the_tracers_it_found():
    before = (sys.gettrace(), sys.getprofile())
    count_work.count(lambda: None)
    assert (sys.gettrace(), sys.getprofile()) == before
