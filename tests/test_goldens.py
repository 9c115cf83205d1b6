"""Golden-output determinism: seeded CLI runs are byte-stable.

The fixtures under ``tests/goldens/`` pin one seeded invocation per
experiment family, both ways it can print: ``<name>_seed.json`` is its
``--json`` output and ``<name>_seed.txt`` the text-mode stdout (header,
progress lines and rendered report) of the same argv without ``--json``.
``chaos_seed.json``, ``overload_seed.json``, and ``replica_seed.json``
were captured *before* the flyweight-payload hot-path work landed, so
matching them proves the optimization changed no simulated number.
``bench_seed.json`` carries the newer schema
(``sim_ops``/``sim_ops_per_sec``/``payload``); its one wall-clock-derived
field is stripped before comparison.  ``commit_seed.json`` pins the async
WRITE+COMMIT three-way report; its bench cells already strip
``sim_ops_per_sec`` at the source, so it compares byte-for-byte like the
others.  ``laddis_seed.json`` pins a short gather LADDIS curve at full
float precision (``repro laddis`` prints only rounded numbers); it was
captured while the generator still wrote real bytes, so matching it
proves flyweight LADDIS payloads moved nothing.  ``cache_seed.json`` pins
the lease-cache sweep and its chaos probes; it was captured while lease
recalls still raced a queued expiry ``Timeout``, before the kernel armed
deadlines lazily.

Any timing-affecting change to the simulator kernel, the network stack,
or the server paths shows up here as a byte diff.  If the change is an
*intentional* model change, regenerate every fixture with
``PYTHONPATH=src python tests/test_goldens.py`` and say so in the commit;
if it is meant to be an optimization, the diff is a bug.
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

#: name -> the text-mode argv; ``--json`` appended gives the JSON case.
_CASES = {
    "bench": ["bench", "--file-mb", "1"],
    "chaos": ["chaos", "--plans", "2", "--file-kb", "64"],
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
    ],
    "commit": ["commit", "--file-mb", "0.25"],
    "cache": ["cache", "--seed", "0"],
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
    ],
    "scrub": [
        "scrub",
        "--seed",
        "0",
        "--rates",
        "0.25",
        "--bandwidths",
        "4194304",
        "--replicas",
        "0",
        "1",
    ],
    "tiering": ["tiering", "--tenants", "2", "--ops", "16"],
    "cluster": ["cluster", "--servers", "1", "2", "--clients", "2", "4"],
}


def _capture(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    assert status == 0
    return buffer.getvalue()


def _laddis_curve() -> str:
    curve = run_curve("gather", loads=(300, 600), duration=1.0)
    points = [dataclasses.asdict(point) for point in curve.points]
    return json.dumps(points, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(_CASES))
def test_seeded_text_matches_golden_byte_for_byte(name):
    golden = (GOLDEN_DIR / f"{name}_seed.txt").read_text()
    assert _capture(_CASES[name]) == golden


@pytest.mark.parametrize("name", sorted(set(_CASES) - {"bench"}))
def test_seeded_json_matches_golden_byte_for_byte(name):
    golden = (GOLDEN_DIR / f"{name}_seed.json").read_text()
    assert _capture(_CASES[name] + ["--json"]) == golden


def test_bench_matches_golden_modulo_wall_clock():
    golden = json.loads((GOLDEN_DIR / "bench_seed.json").read_text())
    got = json.loads(_capture(_CASES["bench"] + ["--json"]))

    def stable(report):
        for cell in report["cells"]:
            cell.pop("sim_ops_per_sec", None)
        return report

    assert stable(got) == stable(golden)


def test_laddis_curve_matches_golden_byte_for_byte():
    golden = (GOLDEN_DIR / "laddis_seed.json").read_text()
    assert _laddis_curve() == golden


def regenerate() -> None:
    """Rewrite every fixture from the current code."""
    for name, argv in _CASES.items():
        (GOLDEN_DIR / f"{name}_seed.txt").write_text(_capture(argv))
        (GOLDEN_DIR / f"{name}_seed.json").write_text(_capture(argv + ["--json"]))
    (GOLDEN_DIR / "laddis_seed.json").write_text(_laddis_curve())


if __name__ == "__main__":
    regenerate()
