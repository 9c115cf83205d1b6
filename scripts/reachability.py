#!/usr/bin/env python3
"""Which functions under ``src/repro`` does any run of the repo reach?

Usage::

    python scripts/reachability.py [--phases tier1 benchmarks ...]

Every phase runs in a child process with a generated ``sitecustomize.py``
first on ``PYTHONPATH``.  It installs a ``sys.setprofile`` and
``threading.setprofile`` hook that records each code object a process
calls; at exit the process writes the ``(file, first line, name)`` of
every one under ``src/repro``.  Subprocesses inherit the hook, so a test
that shells out is counted too.  The phases:

* ``tier1``: ``pytest`` over ``tests/``;
* ``benchmarks``: ``pytest benchmarks`` with ``--benchmark-disable``;
* ``perfbench``: ``pytest perfbench/tests``;
* ``defaults``: the 15 default ``repro`` commands, run bare;
* ``ci``: every ``python -m repro.cli`` command in
  ``.github/workflows/ci.yml`` that ``defaults`` has not run;
* ``examples``: every ``examples/*.py``;
* ``scorecard``: ``scripts/check_against_paper.py``.

Then it lists every function (``def``, with its decorators) under
``src/repro`` that no phase reached, and every function that only
``tier1`` reached, each with its line count.  A phase's own exit status
does not stop the scan (``repro replica`` exits 1 today); it is printed
on stderr.  Commands run in a temporary directory, so their ``--out``
files land there.  The whole scan takes several minutes: the hook slows
every call.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import shlex
import subprocess
import sys
import tempfile
from collections import defaultdict
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: The bare commands, as CI's paper-kinds job types them, plus ``replica``.
DEFAULT_COMMANDS = [
    ["table", "1"], ["copy"], ["trace"], ["laddis"], ["claims"], ["chaos"],
    ["sweep", "nbiods", "0", "7"], ["cluster"], ["overload"], ["bench"],
    ["cache"], ["commit"], ["scrub"], ["tiering"], ["replica"],
]

HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def _record(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = sorted(
        {{(c.co_filename, c.co_firstlineno, c.co_name) for c in _seen
          if c.co_filename.startswith({package!r})}}
    )
    with open(os.path.join({out!r}, f"{{os.getpid()}}.tsv"), "w") as handle:
        handle.writelines(f"{{f}}\\t{{line}}\\t{{name}}\\n" for f, line, name in rows)


atexit.register(_dump)
sys.setprofile(_record)
threading.setprofile(_record)
'''

Key = Tuple[str, int, str]


def ci_commands() -> List[List[str]]:
    """The ``repro`` argv of every ``python -m repro.cli`` line in ci.yml.

    A ``run: >`` block is one folded command; a ``run: |`` block is one
    command per line; shell redirections are dropped.
    """
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as handle:
        lines = handle.read().splitlines()
    commands: List[str] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if not line.strip().startswith("run:"):
            continue
        value = line.strip()[len("run:"):].strip()
        if value not in (">", "|"):
            commands.append(value)
            continue
        indent = len(line) - len(line.lstrip())
        block = []
        while index < len(lines) and (
            not lines[index].strip() or len(lines[index]) - len(lines[index].lstrip()) > indent
        ):
            block.append(lines[index].strip())
            index += 1
        commands.extend([" ".join(block)] if value == ">" else block)
    argvs = []
    for command in commands:
        if "-m repro.cli" in command:
            argvs.append(shlex.split(command.split(">")[0].split("-m repro.cli", 1)[1]))
    return argvs


def phases() -> Dict[str, List[List[str]]]:
    """Each phase's commands, as argv lists run from the repo root."""
    python = sys.executable
    cli = [python, "-m", "repro.cli"]
    ci = [argv for argv in ci_commands() if argv not in DEFAULT_COMMANDS]
    unique_ci = [argv for index, argv in enumerate(ci) if argv not in ci[:index]]
    return {
        "tier1": [[python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]],
        "benchmarks": [
            [python, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
             "--benchmark-disable"]
        ],
        "perfbench": [[python, "-m", "pytest", "perfbench/tests", "-q", "-p", "no:cacheprovider"]],
        "defaults": [cli + argv for argv in DEFAULT_COMMANDS],
        "ci": [cli + argv for argv in unique_ci],
        "examples": [
            [python, path] for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
        ],
        "scorecard": [[python, os.path.join(ROOT, "scripts", "check_against_paper.py")]],
    }


def run_phase(name: str, commands: List[List[str]], tmpdir: str) -> Set[Key]:
    """Run one phase under the hook; the functions its processes reached."""
    hook_dir = os.path.join(tmpdir, name, "hook")
    out = os.path.join(tmpdir, name, "reached")
    work = os.path.join(tmpdir, name, "work")
    for path in (hook_dir, out, work):
        os.makedirs(path)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
        handle.write(HOOK.format(package=PACKAGE + os.sep, out=out))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([hook_dir, SRC, ROOT]))
    for argv in commands:
        # pytest collects from the repo root; everything else runs where
        # its output files cannot land in the checkout.
        cwd = ROOT if "pytest" in argv else work
        print(f"[{name}] {' '.join(argv[1:])}", file=sys.stderr, flush=True)
        done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
        if done.returncode:
            print(f"[{name}]   exit {done.returncode}", file=sys.stderr, flush=True)
    reached: Set[Key] = set()
    for path in glob.glob(os.path.join(out, "*.tsv")):
        with open(path) as handle:
            for row in handle:
                filename, line, function = row.rstrip("\n").split("\t")
                reached.add((filename, int(line), function))
    return reached


def functions() -> Dict[Key, Tuple[str, int]]:
    """Every ``def`` under ``src/repro``: key -> (qualified name, lines)."""
    found: Dict[Key, Tuple[str, int]] = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first, child.name)] = (
                        prefix + child.name,
                        child.end_lineno - first + 1,
                    )
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def report(title: str, keys: List[Key], defined: Dict[Key, Tuple[str, int]]) -> None:
    lines = sum(defined[key][1] for key in keys)
    print(f"\n{title} ({len(keys)} functions, {lines} lines):")
    for key in sorted(keys):
        name, count = defined[key]
        print(f"  {os.path.relpath(key[0], ROOT)}:{key[1]} {name} ({count} lines)")


def main() -> int:
    table = phases()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--phases", nargs="+", choices=list(table), default=list(table),
        help="phases to run (default: all)",
    )
    args = parser.parse_args()
    reached_by: Dict[str, Set[Key]] = defaultdict(set)
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmpdir:
        for name in args.phases:
            reached_by[name] = run_phase(name, table[name], tmpdir)
    defined = functions()
    reached = set().union(*reached_by.values())
    print(
        f"{len(defined)} functions under src/repro; phases: {' '.join(args.phases)}; "
        f"{len(reached & defined.keys())} reached"
    )
    report("unreached", [key for key in defined if key not in reached], defined)
    if "tier1" in reached_by and len(args.phases) > 1:
        others = set().union(*(keys for name, keys in reached_by.items() if name != "tier1"))
        only = [key for key in defined if key in reached_by["tier1"] and key not in others]
        report("reached only by tier1", only, defined)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
