"""Tests for the `repro` command-line interface."""

import inspect
import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments import resolve
from repro.net import FDDI
from repro.server.config import WritePath


class TestParser:
    def test_table_requires_valid_number(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table", "9"])
        args = parser.parse_args(["table", "3"])
        assert args.number == 3
        assert args.file_mb == 10.0

    def test_copy_defaults(self):
        args = build_parser().parse_args(["copy"])
        assert args.net == "fddi"
        assert args.biods == 7
        # Read from TestbedConfig's signature rather than left as None.
        assert WritePath.coerce(args.write_path) == WritePath.STANDARD

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_write_path_choices(self):
        args = build_parser().parse_args(["copy", "--write-path", "siva"])
        assert args.write_path == "siva"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["copy", "--write-path", "bogus"])

    def test_net_fault_flags(self):
        for command in ("copy", "laddis", "sweep"):
            prefix = [command] if command != "sweep" else ["sweep", "nbiods", "1"]
            args = build_parser().parse_args(
                prefix + ["--loss-rate", "0.05", "--net-seed", "9"]
            )
            assert args.loss_rate == 0.05
            assert args.net_seed == 9
            defaults = build_parser().parse_args(prefix)
            assert defaults.loss_rate == 0.0
            assert defaults.net_seed is None


class TestWritePathFlags:
    def test_new_flag_selects_path(self, capsys):
        assert (
            main(["copy", "--write-path", "gather", "--biods", "7", "--file-mb", "0.5"])
            == 0
        )
        captured = capsys.readouterr()
        assert "/gather" in captured.out
        assert "deprecated" not in captured.err

    def test_enum_round_trip(self):
        assert WritePath.coerce("gather") is WritePath.GATHER
        assert WritePath.coerce(WritePath.SIVA) is WritePath.SIVA
        assert str(WritePath.STANDARD) == "standard"
        assert f"{WritePath.GATHER}" == "gather"
        with pytest.raises(ValueError):
            WritePath.coerce("bogus")


class TestJsonOutput:
    def test_copy_json_includes_phase_percentiles(self, capsys):
        assert (
            main(
                [
                    "copy",
                    "--net",
                    "fddi",
                    "--biods",
                    "7",
                    "--write-path",
                    "gather",
                    "--json",
                    "--file-mb",
                    "0.5",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"].endswith("/gather")
        phases = payload["phases"]
        for phase in (
            "net.sockbuf",
            "server.vnode_wait",
            "gather.procrastinate",
            "storage.commit",
            "reply.delay",
        ):
            assert {"p50", "p95", "p99"} <= set(phases[phase]), phase

    def test_table_json(self, capsys):
        assert main(["table", "1", "--file-mb", "0.25", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"] == 1
        assert len(payload["standard"]) == len(payload["biods"])

    def test_sweep_json(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "nbiods",
                    "0",
                    "7",
                    "--write-path",
                    "gather",
                    "--file-mb",
                    "0.25",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["field"] == "nbiods"
        assert len(payload["results"]) == 2


class TestCommands:
    def test_copy_standard(self, capsys):
        assert main(["copy", "--net", "fddi", "--biods", "3", "--file-mb", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "client write speed" in out
        assert "fddi/standard" in out

    def test_copy_gather_shows_batch_stats(self, capsys):
        assert (
            main(
                [
                    "copy",
                    "--write-path",
                    "gather",
                    "--biods",
                    "7",
                    "--file-mb",
                    "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean gathered batch size" in out

    def test_copy_interval_override(self, capsys):
        assert (
            main(
                [
                    "copy",
                    "--write-path",
                    "gather",
                    "--interval-ms",
                    "2",
                    "--file-mb",
                    "0.5",
                ]
            )
            == 0
        )
        assert "gather" in capsys.readouterr().out

    def test_copy_rejects_removed_aliases(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["copy", "--gather", "--siva"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --gather --siva" in capsys.readouterr().err

    def test_copy_presto_stripes(self, capsys):
        assert (
            main(
                ["copy", "--presto", "--stripes", "3", "--file-mb", "0.5"]
            )
            == 0
        )
        assert "presto" in capsys.readouterr().out

    def test_table_small(self, capsys):
        assert main(["table", "1", "--file-mb", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "Without Write Gathering" in out
        assert "measured vs paper" in out

    def test_trace(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "standard server" in out
        assert "gathering server" in out

    def test_laddis_tiny(self, capsys):
        assert (
            main(["laddis", "--loads", "60", "--duration", "1.0"]) == 0
        )
        out = capsys.readouterr().out
        assert "capacity" in out

    def test_copy_with_injected_loss_still_converges(self, capsys):
        assert (
            main(
                [
                    "copy",
                    "--file-mb",
                    "0.5",
                    "--loss-rate",
                    "0.02",
                    "--net-seed",
                    "9",
                ]
            )
            == 0
        )
        assert "client write speed" in capsys.readouterr().out


class TestClusterCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.servers == [2]
        assert args.clients == [4]
        assert args.vnodes == 64
        assert args.crash_shard is None
        assert not args.presto

    def test_single_run_human_output(self, capsys):
        assert main(["cluster", "--servers", "2", "--clients", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 servers x 2 clients" in out
        assert "crash contract held" in out

    def test_json_shape(self, capsys):
        assert (
            main(["cluster", "--servers", "2", "--clients", "2", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["servers"] == 2
        assert payload["clients"] == 2
        assert payload["clean"] is True
        assert len(payload["per_shard"]) == 2
        assert sum(payload["placement"].values()) == 2 * payload["files_per_client"]

    def test_removed_gather_alias_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "--clients", "1", "--gather"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --gather" in capsys.readouterr().err

    def test_write_path_option_selects_siva(self, capsys):
        assert (
            main(
                ["cluster", "--clients", "1", "--write-path", "siva", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["write_path"] == str(WritePath.SIVA)

    def test_crash_run_exits_zero_when_contract_holds(self, capsys):
        assert (
            main(
                [
                    "cluster",
                    "--servers",
                    "3",
                    "--clients",
                    "3",
                    "--crash-shard",
                    "1",
                    "--crash-at",
                    "0.05",
                    "--outage",
                    "0.2",
                    "--redirect",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["crashes"] == 1
        assert payload["faults"][0]["redirected"] is True

    def test_sweep_mode_prints_efficiency_table(self, capsys):
        assert (
            main(["cluster", "--servers", "1", "2", "--clients", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "efficiency" in out
        assert "ok" in out

    def test_sweep_rejects_crash_flags(self, capsys):
        assert (
            main(["cluster", "--servers", "1", "2", "--crash-shard", "0"]) == 2
        )
        assert "single-cell" in capsys.readouterr().err


class TestBenchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.net == "fddi"
        assert args.file_mb == 2.0
        assert args.biods == 7
        assert args.out is None

    def test_json_shape(self, capsys):
        assert main(["bench", "--file-mb", "0.25", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.bench/1"
        assert len(payload["cells"]) == 8  # 4 write paths x presto off/on
        for cell in payload["cells"]:
            assert {"p50", "p99", "mean"} <= set(cell["write_latency_ms"])
            assert cell["client_kb_per_sec"] > 0
            assert cell["disk_writes_per_mb"] > 0
            assert cell["sim_ops"] > 0
            assert cell["sim_ops_per_sec"] > 0

    def test_out_file_written_and_deterministic(self, tmp_path, capsys):
        first = tmp_path / "BENCH_a.json"
        second = tmp_path / "BENCH_b.json"
        assert main(["bench", "--file-mb", "0.25", "--out", str(first)]) == 0
        assert main(["bench", "--file-mb", "0.25", "--out", str(second)]) == 0
        capsys.readouterr()

        def stable(path):
            # sim_ops_per_sec is wall-clock-derived — the one field allowed
            # to differ between same-seed reruns.
            payload = json.loads(path.read_text())
            for cell in payload["cells"]:
                cell.pop("sim_ops_per_sec", None)
            return payload

        assert stable(first) == stable(second)
        payload = json.loads(first.read_text())
        assert payload["file_mb"] == 0.25
        assert payload["payload"] == "flyweight"


@pytest.mark.parametrize(
    "argv",
    [
        ["overload", "--loads", "48", "8"],
        ["chaos", "--plans", "0"],
        ["cluster", "--clients", "0"],
        ["cache", "--clients", "1"],
        ["tiering", "--tenants", "0"],
        ["replica", "--clients", "0"],
        ["scrub", "--clients", "0"],
        ["copy", "--stripes", "0"],
        ["copy", "--biods", "-1"],
        ["copy", "--loss-rate", "1.5"],
        ["sweep", "stripes", "0"],
        ["cluster", "--vnodes", "0"],
        ["cluster", "--crash-shard", "9"],
        ["cluster", "--files", "0"],
        ["replica", "--replicas", "1", "--quorum", "5"],
        ["replica", "--replicas", "0", "--files", "0"],
        ["overload", "--loads", "0"],
        ["chaos", "--file-kb", "0"],
        ["commit", "--biods", "-1"],
        ["tiering", "--skew", "-1"],
        ["tiering", "--ops", "0"],
        ["copy", "--file-mb", "0"],
        ["table", "1", "--file-mb", "0"],
        ["sweep", "nbiods", "0", "7", "--file-mb", "0"],
        ["bench", "--file-mb", "0"],
        ["cluster", "--file-kb", "0"],
        ["cluster", "--servers", "1", "2", "--file-kb", "0"],
        ["replica", "--file-kb", "0"],
        ["scrub", "--file-kb", "0"],
        ["laddis", "--duration", "0"],
    ],
)
def test_bad_config_is_a_usage_error(argv, capsys):
    # Rejected while the flags become driver arguments, before any run.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{argv[0]}: ")
    assert "Traceback" not in captured.err


#: The positionals a bare subcommand needs, and what they build.
_POSITIONALS = {
    "table": (["1"], {"number": 1}),
    "sweep": (["nbiods", "0", "7"], {"field": "nbiods", "values": [0, 7]}),
}

#: The CLI's deliberate departures from its drivers' defaults, by driver
#: argument (a dict: the fields of the config that argument carries).
_CLI_DEFAULTS = {
    "copy": {"config": {"netspec": FDDI, "nbiods": 7}},
    "sweep": {"base": {"netspec": FDDI, "nbiods": 7}},
    "cluster": {"config": {"write_path": WritePath.STANDARD}},
    "replica": {"config": {"servers": 3}},
    "laddis": {"loads": (150.0, 300.0, 450.0, 550.0, 650.0), "duration": 3.0},
}


def _bare(command):
    args = build_parser().parse_args([command] + _POSITIONALS.get(command, ([], {}))[0])
    spec = cli._COMMANDS[command]
    return args, spec.arguments(args, cli._target_values(spec, args))


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_bare_command_builds_driver_defaults(command):
    _, kwargs = _bare(command)
    if command in ("trace", "claims"):
        assert kwargs == {}
        return
    driver = resolve({"laddis": "curve"}.get(command, command))
    expected = dict(_POSITIONALS.get(command, ([], {}))[1])
    overrides = _CLI_DEFAULTS.get(command, {})
    for name, value in kwargs.items():
        if name in expected:
            continue
        if name in ("config", "base"):
            # The config a bare run builds: the class's own defaults.
            assert vars(value) == vars(type(value)(**overrides.get(name, {}))), name
            expected[name] = value
        else:
            default = inspect.signature(driver).parameters[name].default
            expected[name] = overrides.get(name, default)
    assert kwargs == expected


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_shows_every_default(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # argparse wraps help at hyphens
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    shown = " ".join(capsys.readouterr().out.split())
    args, _ = _bare(command)
    for flag in cli._COMMANDS[command].flags:
        default = getattr(args, cli._dest(flag.spelling))
        if flag.target is None or not flag.spelling.startswith("--"):
            continue
        if default is None or default is False:
            continue
        if isinstance(default, (list, tuple)):
            default = " ".join(str(item) for item in default)
        assert f"(default: {default})" in shown, flag.spelling
