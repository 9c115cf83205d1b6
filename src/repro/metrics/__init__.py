"""Experiment metrics and paper-style report rendering."""

from repro.metrics.collect import FileCopyMetrics, latency_summary_ms
from repro.metrics.report import ExperimentReport, format_comparison, format_paper_table
from repro.metrics.svg import LineChart

__all__ = [
    "ExperimentReport",
    "FileCopyMetrics",
    "latency_summary_ms",
    "format_paper_table",
    "format_comparison",
    "LineChart",
]
