"""Kernel event budget: how many events fixed runs schedule.

The simulator's wall time is mostly its event loop, so an extra relay
event per CPU charge, wire frame or RPC reply shows up here as a changed
count before it hides in a slower benchmark.  Each test runs a real
experiment driver and pins ``env._eid``, the number of events the kernel
scheduled.  Before CPU and wire holds handed over at release and RPC
replies woke their callers directly, the counts were 3,027 (copy) and
17,363 (LADDIS).

A change that moves a count on purpose updates it here and says why.
"""

import pytest

import repro.experiments.filecopy as filecopy
import repro.experiments.laddis_curves as laddis_curves
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.net import FDDI


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


def test_gather_copy_event_budget(testbeds):
    """A 1 MB FDDI copy through the gather path, 7 biods, seed 0."""
    config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7, seed=0)
    filecopy.run_filecopy(config, file_mb=1)
    (testbed,) = testbeds
    assert testbed.env._eid == 2866


def test_laddis_point_event_budget(testbeds):
    """One 300 ops/s gather LADDIS point (0.25 s warm-up, 0.5 s measured):
    20 load processes on 5 clients share the server CPU and the wire."""
    curve = laddis_curves.run_curve("gather", loads=(300,), duration=0.5, warmup=0.25)
    (testbed,) = testbeds
    assert curve.points[0].achieved == 304.0
    assert testbed.env._eid == 15969
