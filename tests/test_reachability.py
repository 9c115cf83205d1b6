"""scripts/reachability.py: its ci.yml reader and its profile hook.

The full scan takes minutes, so these tests run one tiny phase.
"""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reachability", REPO / "scripts" / "reachability.py"
)
reachability = importlib.util.module_from_spec(_spec)
sys.modules["reachability"] = reachability
_spec.loader.exec_module(reachability)


def test_ci_commands_include_every_bare_command_but_replica():
    commands = reachability.ci_commands()
    assert ["chaos", "--seed", "7", "--plans", "3", "--json"] in commands
    # A folded ``run: >`` block is one command.
    [crash] = [argv for argv in commands if "--redirect" in argv]
    assert crash[:3] == ["cluster", "--servers", "3"]
    for argv in reachability.DEFAULT_COMMANDS:
        assert (argv in commands) == (argv != ["replica"]), argv


def test_hook_records_the_functions_a_process_calls(tmp_path):
    defined = reachability.functions()
    by_name = {name: key for key, (name, _) in defined.items()}
    code = "from repro.payload import Extent; repr(Extent(4))"
    reached = reachability.run_phase("probe", [[sys.executable, "-c", code]], str(tmp_path))
    assert by_name["Extent.__repr__"] in reached
    assert by_name["Timeout.__repr__"] not in reached
