"""Plain-text rendering of results in the paper's table layout, and the
base every experiment report shares."""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

__all__ = ["ExperimentReport", "format_paper_table", "format_comparison"]


class ExperimentReport:
    """Base of the experiment reports: canonical JSON and the exit verdict.

    A subclass provides ``to_dict()`` and a ``clean`` property (no oracle
    violation anywhere).  ``ok`` is what ``repro <kind>`` exits 0 on;
    reports with a performance gate on top of the contract override it.
    """

    @property
    def ok(self) -> bool:
        return self.clean

    def to_json(self) -> str:
        """Canonical (byte-stable under a fixed seed) JSON form."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

_ROWS = [
    "client write speed (KB/sec.)",
    "server cpu util. (%)",
    "server disk (KB/sec)",
    "server disk (trans/sec)",
]


def format_paper_table(
    title: str,
    biods: Sequence[int],
    without: List[Dict[str, float]],
    with_gathering: List[Dict[str, float]],
) -> str:
    """Render measured cells in the layout of the paper's Tables 1-6."""
    width = max(7, max(len(str(b)) for b in biods) + 2)
    header = "# of Client Biods".ljust(30) + "".join(
        str(b).rjust(width) for b in biods
    )
    lines = [title, header]
    for section_name, cells in [
        ("Without Write Gathering", without),
        ("With Write Gathering", with_gathering),
    ]:
        lines.append(section_name)
        for row_name in _ROWS:
            values = "".join(
                str(round(cell[row_name])).rjust(width) for cell in cells
            )
            lines.append(row_name.ljust(30) + values)
    return "\n".join(lines)


def format_comparison(
    title: str,
    biods: Sequence[int],
    measured: Sequence[float],
    paper: Optional[Sequence[float]],
    unit: str = "KB/s",
) -> str:
    """Side-by-side measured-vs-paper line for EXPERIMENTS.md."""
    lines = [title]
    for index, b in enumerate(biods):
        measured_value = round(measured[index])
        if paper is not None:
            paper_value = paper[index]
            ratio = measured[index] / paper_value if paper_value else float("nan")
            lines.append(
                f"  biods={b:>2}: measured {measured_value:>6} {unit}, "
                f"paper {paper_value:>6} {unit} (x{ratio:0.2f})"
            )
        else:
            lines.append(f"  biods={b:>2}: measured {measured_value:>6} {unit}")
    return "\n".join(lines)
