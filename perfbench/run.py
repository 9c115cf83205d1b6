"""Benchmark command for the repro NFS simulator.

Run from the repository root::

    python3 perfbench/run.py --workload seqwrite --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (and writes its spans under ``.perfbench_out/``).
The last line of standard output is the result object; the line before it
records the run's details and environment.  Exit status is 0 when every
correctness check passed, 1 when one failed, 2 when the sources to
benchmark are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    spans_path = None
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, spans_path)
    print(json.dumps(result.details, sort_keys=True))
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
