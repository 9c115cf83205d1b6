"""Golden-output determinism: seeded CLI runs are byte-stable.

The fixtures under ``tests/goldens/`` pin the ``--json`` output of one
seeded invocation per experiment family.  ``chaos_seed.json``,
``overload_seed.json``, and ``replica_seed.json`` were captured *before*
the flyweight-payload hot-path work landed, so matching them proves the
optimization changed no simulated number.  ``bench_seed.json`` carries
the newer schema (``sim_ops``/``sim_ops_per_sec``/``payload``); its one
wall-clock-derived field is stripped before comparison.
``commit_seed.json`` pins the async WRITE+COMMIT three-way report; its
bench cells already strip ``sim_ops_per_sec`` at the source, so it
compares byte-for-byte like the others.  ``laddis_seed.json`` pins a short
gather LADDIS curve at full float precision (``repro laddis`` prints only
rounded numbers); it was captured while the generator still wrote real
bytes, so matching it proves flyweight LADDIS payloads moved nothing.
``cache_seed.json`` pins the lease-cache sweep and its chaos probes; it
was captured while lease recalls still raced a queued expiry ``Timeout``,
before the kernel armed deadlines lazily.

Any timing-affecting change to the simulator kernel, the network stack,
or the server paths shows up here as a byte diff.  If the change is an
*intentional* model change, regenerate the fixture with the invocation in
``_CASES`` and say so in the commit; if it is meant to be an optimization,
the diff is a bug.
"""

import dataclasses
import io
import json
import pathlib
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.experiments.laddis_curves import run_curve

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

_CASES = {
    "bench": ["bench", "--file-mb", "1", "--json"],
    "chaos": ["chaos", "--plans", "2", "--file-kb", "64", "--json"],
    "overload": [
        "overload",
        "--write-paths",
        "standard",
        "--presto",
        "off",
        "--loads",
        "15.6",
        "46.9",
        "--clients",
        "4",
        "--duration",
        "1",
        "--json",
    ],
    "commit": ["commit", "--file-mb", "0.25", "--json"],
    "cache": ["cache", "--seed", "0", "--json"],
    "replica": [
        "replica",
        "--servers",
        "2",
        "--clients",
        "3",
        "--replicas",
        "0",
        "1",
        "--files",
        "1",
        "--file-kb",
        "32",
        "--crashes",
        "2",
        "--json",
    ],
}


def _capture(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    assert status == 0
    return buffer.getvalue()


@pytest.mark.parametrize("name", ["chaos", "commit", "overload", "replica", "cache"])
def test_seeded_json_matches_golden_byte_for_byte(name):
    golden = (GOLDEN_DIR / f"{name}_seed.json").read_text()
    assert _capture(_CASES[name]) == golden


def test_bench_matches_golden_modulo_wall_clock():
    golden = json.loads((GOLDEN_DIR / "bench_seed.json").read_text())
    got = json.loads(_capture(_CASES["bench"]))

    def stable(report):
        for cell in report["cells"]:
            cell.pop("sim_ops_per_sec", None)
        return report

    assert stable(got) == stable(golden)


def test_laddis_curve_matches_golden_byte_for_byte():
    golden = (GOLDEN_DIR / "laddis_seed.json").read_text()
    curve = run_curve("gather", loads=(300, 600), duration=1.0)
    points = [dataclasses.asdict(point) for point in curve.points]
    assert json.dumps(points, indent=2) + "\n" == golden
