"""The per-metric verdict of scripts/paired_bench.py.

``verdict`` is a pure function of the paired values, so it is tested
here without running any benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "paired_bench", REPO / "scripts" / "paired_bench.py"
)
paired_bench = importlib.util.module_from_spec(_spec)
sys.modules["paired_bench"] = paired_bench
_spec.loader.exec_module(paired_bench)

verdict = paired_bench.verdict

#: Ten parent runs: median 1.0, quartiles 0.9825 and 1.0175 (IQR 0.035).
PARENT = [0.96, 0.98, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.02, 1.04]


def shifted(values, delta):
    return [value + delta for value in values]


def test_gain_when_nine_of_ten_pairs_win_by_more_than_the_iqr():
    change = shifted(PARENT, -0.1)
    change[0] = PARENT[0] + 0.01  # one lost pair
    assert verdict(PARENT, change, "lower", 0.25) == "gain"


def test_eight_wins_of_ten_are_no_gain():
    change = shifted(PARENT, -0.1)
    change[0] = PARENT[0] + 0.01
    change[1] = PARENT[1]  # a tie counts for neither side
    assert verdict(PARENT, change, "lower", 0.25) == "unchanged"


def test_a_gap_inside_the_parent_iqr_is_no_gain():
    assert verdict(PARENT, shifted(PARENT, -0.03), "lower", 0.25) == "unchanged"


def test_higher_is_better_flips_the_direction():
    assert verdict(PARENT, shifted(PARENT, 0.1), "higher", 0.25) == "gain"
    assert verdict(PARENT, shifted(PARENT, -0.1), "higher", 0.25) == "unchanged"
    assert verdict(PARENT, shifted(PARENT, -0.1), "lower", 0.25) == "gain"


@pytest.mark.parametrize("better, delta", [("lower", 0.3), ("higher", -0.3)])
def test_regression_past_the_bound(better, delta):
    assert verdict(PARENT, shifted(PARENT, delta), better, 0.25) == "regression"
    assert verdict(PARENT, shifted(PARENT, delta / 2), better, 0.25) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    wide = [0.5, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.5]
    assert verdict(wide, list(reversed(wide)), "lower", 0.1) == "unresolved"
    # The change's spread counts as well as the parent's.
    assert verdict(PARENT, wide, "lower", 0.1) == "unresolved"


def test_wide_spread_is_not_unresolved_when_every_change_run_is_better():
    # A slow tail widens the parent's IQR to 0.75.  Every change run beats
    # every parent run, by less than that IQR: no gain, but not unresolved.
    parent = [1.0] * 7 + [2.0] * 3
    assert verdict(parent, [0.9] * 10, "lower", 0.1) == "unchanged"
    assert verdict(parent, [1.0] * 10, "lower", 0.1) == "unresolved"


def test_identical_values_are_unchanged():
    assert verdict([2.0] * 10, [2.0] * 10, "lower", 0.15) == "unchanged"
