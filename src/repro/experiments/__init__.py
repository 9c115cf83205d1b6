"""Experiment harness: testbeds, table drivers, traces, LADDIS curves."""

from repro.experiments.filecopy import run_filecopy
from repro.experiments.laddis_curves import CurvePoint, LaddisCurve, run_curve
from repro.experiments.results import score_series, table_to_dict
from repro.experiments.runner import EXPERIMENT_KINDS, resolve, run
from repro.experiments.sweep import sweep, sweepable_fields
from repro.experiments.tables import PAPER, TABLES, TableResult, TableSpec, run_table
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.experiments.trace import (
    TraceEvent,
    events_from_spans,
    figure1,
    render_timeline,
    trace_filecopy,
)

__all__ = [
    "TestbedConfig",
    "Testbed",
    "run",
    "resolve",
    "EXPERIMENT_KINDS",
    "run_filecopy",
    "events_from_spans",
    "TableSpec",
    "TableResult",
    "TABLES",
    "PAPER",
    "run_table",
    "TraceEvent",
    "trace_filecopy",
    "render_timeline",
    "figure1",
    "run_curve",
    "LaddisCurve",
    "CurvePoint",
    "sweep",
    "sweepable_fields",
    "score_series",
    "table_to_dict",
]
