"""Kernel event budget: how many events fixed runs cost.

The simulator's wall time is mostly its event loop, so an extra relay
event per CPU charge, wire frame or RPC reply shows up here as a changed
count before it hides in a slower benchmark.  Each test runs a real
experiment driver and pins two counts:

* ``env._eid``, the last sequence number handed out.  It counts every
  event the kernel queued *and* every seq a deadline reserved, armed or
  not, so it stays where it was when each retransmit timer was a queued
  ``Timeout``: the pin proves every event kept its ``(time, seq)`` place.
  Before CPU and wire holds handed over at release and RPC replies woke
  their callers directly, it was 3,027 (copy) and 17,363 (LADDIS).
  Before each datagram hop was delivered in the instant that causes it,
  it was 2,866 (copy) and 15,969 (LADDIS).  Four relays went then: an
  idle NIC woken through its transmit queue, a reply woken into the RPC
  client's receiver process and then its caller woken by that process,
  and a parked nfsd woken through the socket buffer.
* the events the kernel processed, counted here through a ``step()``
  loop.  While every retransmit timer was queued, including those whose
  reply came first, they were 2,754 (copy) and 15,798 (LADDIS); with
  those four relays, 2,738 and 15,257.

A change that moves a count on purpose updates it here and says why.
"""

import pytest

import repro.experiments.filecopy as filecopy
import repro.experiments.laddis_curves as laddis_curves
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.net import FDDI
from repro.sim import Environment, Event, SimError, StopSimulation


@pytest.fixture
def testbeds(monkeypatch):
    """Every Testbed the drivers build, in order."""
    built = []

    class Recording(Testbed):
        def __init__(self, config):
            super().__init__(config)
            built.append(self)

    monkeypatch.setattr(filecopy, "Testbed", Recording)
    monkeypatch.setattr(laddis_curves, "Testbed", Recording)
    return built


@pytest.fixture
def processed(monkeypatch):
    """Events each environment processes: ``run`` becomes a ``step()``
    loop with the same stopping rules, counting each step."""
    counts = {}

    def run(env, until=None):
        assert until is None or isinstance(until, Event)
        if until is not None:
            if until.processed:
                return until.value
            until.callbacks.append(env._stop_on)
        try:
            while env.peek() != float("inf"):
                counts[env] = counts.get(env, 0) + 1
                env.step()
        except StopSimulation as stop:
            return stop.value
        if until is not None and not until.processed:
            raise SimError("run() ended before the `until` event fired")
        return None

    monkeypatch.setattr(Environment, "run", run)
    return counts


def test_gather_copy_event_budget(testbeds, processed):
    """A 1 MB FDDI copy through the gather path, 7 biods, seed 0."""
    config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7, seed=0)
    filecopy.run_filecopy(config, file_mb=1)
    (testbed,) = testbeds
    assert testbed.env._eid == 2218
    assert processed[testbed.env] == 2090


def test_laddis_point_event_budget(testbeds, processed):
    """One 300 ops/s gather LADDIS point (0.25 s warm-up, 0.5 s measured):
    20 load processes on 5 clients share the server CPU and the wire."""
    curve = laddis_curves.run_curve("gather", loads=(300,), duration=0.5, warmup=0.25)
    (testbed,) = testbeds
    assert curve.points[0].achieved == 304.0
    assert testbed.env._eid == 12706
    assert processed[testbed.env] == 11994
