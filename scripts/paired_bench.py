#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload, in alternating pairs.

Usage::

    python scripts/paired_bench.py PARENT_DIR CHANGE_DIR \\
        --workload seqwrite --seed 1 --pairs 10

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one after the other; which side runs
first alternates from pair to pair, so drift on the machine (thermal,
neighbours) falls on both sides alike.  ``T`` defaults to the
``run_seconds`` that CHANGE_DIR's ``BENCHMARK.json`` sets, so the runs
have the benchmark's own length.  For every end-to-end metric that
``BENCHMARK.json`` declares, it prints each side's median and quartiles,
the change's median gap, in how many pairs the change was better, and a
verdict (see :func:`verdict`): ``gain``, ``regression``, ``unresolved``
or ``unchanged``.  Then it says whether every ``sim_*`` value was
identical in every run: the simulated numbers are deterministic, so any
difference is a change in the model, not noise.  ``sim_ops_per_s`` is
left out of that check, since it divides simulated operations by wall
time.

Exit status: 0 when every run succeeded and the ``sim_*`` values all
matched, 1 otherwise.  The script reads the checkouts' files but imports
nothing from them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run; its result object."""
    command = [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"paired_bench: {checkout}: exit {done.returncode}\n{done.stderr.strip()}"
        )
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit(f"paired_bench: {checkout}: run not correct: {lines[-1]}")
    return result


def quartiles(values: list) -> tuple:
    """(Q1, median, Q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """One metric's verdict over paired runs.

    ``parent`` and ``change`` hold one value per pair, in pair order;
    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the fraction
    of the parent's median by which the change may worsen.

    * ``gain``: the change is better in at least 9/10 of the pairs (ties
      count for neither side) and its median beats the parent's by more
      than the parent's interquartile range;
    * ``regression``: the change's median is worse than the parent's by
      more than ``bound``;
    * ``unresolved``: either side's interquartile range is wider than
      ``bound``, and not every change run beats every parent run;
    * ``unchanged``: none of these.
    """
    if better == "lower":
        # Negate, so that higher is better on both sides from here on.
        parent = [-value for value in parent]
        change = [-value for value in change]
    wins = sum(c > p for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if 10 * wins >= 9 * len(parent) and c_med - p_med > p_q3 - p_q1:
        return "gain"
    allowed = bound * abs(p_med)
    if p_med - c_med > allowed:
        return "regression"
    if max(p_q3 - p_q1, c_q3 - c_q1) > allowed and min(change) <= max(parent):
        return "unresolved"
    return "unchanged"


def load_benchmark(change_dir: str) -> dict:
    with open(os.path.join(change_dir, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)"
    )
    args = parser.parse_args(argv)
    benchmark = load_benchmark(args.change_dir)
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])

    sides = {"parent": args.parent_dir, "change": args.change_dir}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(
                run_once(sides[side], args.workload, args.seed, args.seconds)["metrics"]
            )
        print(
            f"pair {pair + 1}/{args.pairs} ({order[0]} first): wall_s "
            f"{runs['parent'][-1]['wall_s']['value']:.4f} -> "
            f"{runs['change'][-1]['wall_s']['value']:.4f}",
            file=sys.stderr,
        )

    print(
        f"{args.workload} seed {args.seed}, {args.pairs} pairs at "
        f"--seconds {args.seconds:g} --trace 0"
    )
    print(f"{'metric':<24} {'side':<7} {'median':>12} {'Q1':>12} {'Q3':>12}  gap, wins, verdict")
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        parent = [metrics[name]["value"] for metrics in runs["parent"] if name in metrics]
        change = [metrics[name]["value"] for metrics in runs["change"] if name in metrics]
        if len(parent) != args.pairs or len(change) != args.pairs:
            print(f"{name:<24} (not reported by every run)")
            continue
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        gap = (c_med - p_med) / p_med if p_med else 0.0
        print(f"{name:<24} {'parent':<7} {p_med:>12.6g} {p_q1:>12.6g} {p_q3:>12.6g}")
        print(
            f"{'':<24} {'change':<7} {c_med:>12.6g} {c_q1:>12.6g} {c_q3:>12.6g}"
            f"  {gap:+.1%}, {wins}/{args.pairs}"
            f" (|gap| {abs(c_med - p_med):.6g} vs parent IQR {p_q3 - p_q1:.6g}),"
            f" {verdict(parent, change, spec['better'], spec['bound'])}"
        )

    sim_values = {
        json.dumps(
            {
                name: value
                for name, value in metrics.items()
                if name.startswith("sim_") and name != "sim_ops_per_s"
            },
            sort_keys=True,
        )
        for side in runs.values()
        for metrics in side
    }
    identical = len(sim_values) == 1
    print(f"sim_* values identical in all {2 * args.pairs} runs: {'yes' if identical else 'NO'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
