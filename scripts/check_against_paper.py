#!/usr/bin/env python
"""Fidelity scorecard: run every table and grade each row against the
published values.

Run:  python scripts/check_against_paper.py [--file-mb 10] [--json results.json]

Verdicts per (table, variant, row):
  match      within ~25% on (geometric) average
  shape      within ~2x with ordering preserved
  deviation  worse — listed explicitly at the end

Exit status is 1 when any row's verdict is ``deviation`` (the JSON dump is
still written), 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import PAPER, TABLES, run_table
from repro.experiments.results import save_json, score_series, table_to_dict

ROWS = ("speed", "cpu", "disk_kbs", "disk_tps")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--file-mb", type=float, default=10.0)
    parser.add_argument("--json", help="also dump raw results to this path")
    args = parser.parse_args()

    scores = []
    raw = []
    for number in sorted(TABLES):
        print(f"running table {number}...", file=sys.stderr)
        result = run_table(number, file_mb=args.file_mb)
        raw.append(table_to_dict(result))
        for variant in ("std", "gather"):
            for row in ROWS:
                label = f"T{number}/{variant}/{row}"
                fidelity = score_series(
                    label, result.series(variant, row), PAPER[number][variant][row]
                )
                scores.append(fidelity)

    print(f"\n{'series':<22} {'geo ratio':>10} {'|log2|':>8} {'order':>6}  verdict")
    for fidelity in scores:
        print(
            f"{fidelity.label:<22} {fidelity.geometric_mean_ratio:>10.2f} "
            f"{fidelity.mean_abs_log2_ratio:>8.2f} "
            f"{'yes' if fidelity.ordering_preserved else 'NO':>6}  {fidelity.verdict}"
        )
    counts = {verdict: 0 for verdict in ("match", "shape", "deviation")}
    for fidelity in scores:
        counts[fidelity.verdict] += 1
    total = len(scores)
    print(
        f"\nscorecard: {counts['match']}/{total} match, "
        f"{counts['shape']}/{total} shape, {counts['deviation']}/{total} deviation"
    )
    deviations = [f.label for f in scores if f.verdict == "deviation"]
    if deviations:
        print("deviations: " + ", ".join(deviations))

    if args.json:
        save_json(args.json, {"tables": raw, "scores": [s.to_dict() for s in scores]})
        print(f"wrote {args.json}", file=sys.stderr)
    return 1 if deviations else 0


if __name__ == "__main__":
    raise SystemExit(main())
