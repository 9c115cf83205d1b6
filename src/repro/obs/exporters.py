"""Exporters: pluggable consumers of the span stream.

Each exporter subscribes to a :class:`~repro.obs.collector.RecordingCollector`
and turns the deterministic span stream into a different artifact:

* :class:`JsonlExporter` — one JSON object per span, machine-readable;
* :class:`PercentileSummary` — per-phase latency distributions (p50/p95/p99),
  the numbers that distinguish stable-storage policies.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Optional, Sequence, TextIO

from repro.obs.span import RPC_PHASES, Span
from repro.sim.monitor import Tally

__all__ = ["JsonlExporter", "PercentileSummary"]


class JsonlExporter:
    """Streams each span as one JSON line to ``stream``."""

    def __init__(self, stream: TextIO) -> None:
        self.stream = stream
        self.count = 0

    def __call__(self, span: Span) -> None:
        self.stream.write(json.dumps(span.to_dict(), sort_keys=True))
        self.stream.write("\n")
        self.count += 1


class PercentileSummary:
    """Aggregates span durations into per-phase latency distributions.

    Subscribe it to a collector (``collector.subscribe(summary)``) or feed
    it a finished span list (``summary.consume(spans)``).  ``phases=None``
    aggregates every phase seen; a sequence restricts to those names.
    """

    def __init__(self, phases: Optional[Sequence[str]] = RPC_PHASES) -> None:
        self._phases = None if phases is None else set(phases)
        self._tallies: Dict[str, Tally] = {}

    def __call__(self, span: Span) -> None:
        if self._phases is not None and span.name not in self._phases:
            return
        tally = self._tallies.get(span.name)
        if tally is None:
            tally = self._tallies[span.name] = Tally(span.name, keep_samples=True)
        tally.observe(span.duration)

    def consume(self, spans: Iterable[Span]) -> "PercentileSummary":
        for span in spans:
            self(span)
        return self

    def table(self) -> Dict[str, Dict[str, float]]:
        """{phase: {count, mean, p50, p95, p99, max}} in seconds, sorted."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._tallies):
            tally = self._tallies[name]
            out[name] = {
                "count": tally.count,
                "mean": tally.mean,
                "p50": tally.percentile(0.50),
                "p95": tally.percentile(0.95),
                "p99": tally.percentile(0.99),
                "max": tally.max,
            }
        return out

    def render(self) -> str:
        """Human-readable per-phase table (latencies in milliseconds)."""
        lines = [
            f"{'phase':<22} {'count':>7} {'mean ms':>9} {'p50 ms':>9} "
            f"{'p95 ms':>9} {'p99 ms':>9}"
        ]
        for name, row in self.table().items():
            lines.append(
                f"{name:<22} {row['count']:>7.0f} {row['mean'] * 1e3:>9.3f} "
                f"{row['p50'] * 1e3:>9.3f} {row['p95'] * 1e3:>9.3f} "
                f"{row['p99'] * 1e3:>9.3f}"
            )
        return "\n".join(lines)
