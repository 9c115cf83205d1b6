#!/usr/bin/env python3
"""Count the interpreter work of one perfbench iteration.

Usage::

    python scripts/count_work.py --workload sfs_mix --seed 1

Runs one untraced warm-up iteration on ``seed + 1``, then one measured
iteration on ``seed`` under ``sys.settrace`` and ``sys.setprofile``, and
prints three counts for the measured iteration:

* ``bytecodes``: opcodes executed (``opcode`` trace events);
* ``python_calls``: Python frames entered (``call`` trace events; each
  resume of a generator counts, as it enters its frame again);
* ``c_calls``: calls into builtins and C methods (``c_call`` profile
  events).

Set-up and correctness checks the benchmark keeps out of its measured
time (``Probe.phase`` blocks) are left out of the counts too.  Unlike
wall time, the counts are deterministic on one Python version, so two
checkouts can be compared with one run each.  A traced iteration takes
tens of times longer than an untraced one (a few minutes for
``sfs_mix``).  The script imports ``perfbench`` and ``repro`` from the
checkout it sits in and changes neither.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class WorkCounter:
    """Counts bytecodes, Python calls and C calls while active."""

    def __init__(self) -> None:
        self.bytecodes = 0
        self.python_calls = 0
        self.c_calls = 0
        self.active = False

    def set_active(self, active: bool) -> None:
        self.active = active

    def counts(self) -> Dict[str, int]:
        return {
            "bytecodes": self.bytecodes,
            "python_calls": self.python_calls,
            "c_calls": self.c_calls,
        }

    def _call(self, frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        if self.active:
            self.python_calls += 1
        return self._opcode

    def _opcode(self, frame, event, arg):
        if event == "opcode" and self.active:
            self.bytecodes += 1
        return self._opcode

    def _profile(self, frame, event, arg):
        if event == "c_call" and self.active:
            self.c_calls += 1

    def install(self) -> None:
        self._previous = (sys.gettrace(), sys.getprofile())
        sys.settrace(self._call)
        sys.setprofile(self._profile)

    def uninstall(self) -> None:
        trace, profile = self._previous
        sys.setprofile(profile)
        sys.settrace(trace)


def count(run: Callable[[], object]) -> Dict[str, int]:
    """The work ``run()`` does, counted from its first to its last line."""
    counter = WorkCounter()
    counter.install()
    try:
        counter.set_active(True)
        run()
        counter.set_active(False)
    finally:
        counter.uninstall()
    return counter.counts()


def count_iteration(workload: str, seed: int) -> Dict[str, int]:
    """The work of one measured perfbench iteration of ``workload``."""
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.harness import run_iteration
    from perfbench.probe import Probe

    probe = Probe().install()
    counter = WorkCounter()
    try:
        run_iteration(workload, seed + 1, probe)
        probe.on_measure = counter.set_active
        counter.install()
        try:
            # run_iteration switches its tracer on after its gc.collect()
            # and off before it reads the probe's phases.
            run_iteration(workload, seed, probe, tracer=counter)
        finally:
            counter.uninstall()
    finally:
        probe.on_measure = None
        probe.uninstall()
    return counter.counts()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for name, value in count_iteration(args.workload, args.seed).items():
        print(f"{name:>13} {value:>13,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
