"""Command-line interface for running the paper's experiments.

Installed as the ``repro`` console script (also usable as
``python -m repro.cli``)::

    repro table 3                 # regenerate Table 3 (paper layout + ratios)
    repro table 1 --file-mb 2     # quick run at reduced scale
    repro copy --net fddi --biods 7 --write-path gather
    repro copy --net ethernet --presto --stripes 3
    repro copy --write-path gather --json   # machine-readable + span phases
    repro trace                   # Figure 1 timelines
    repro laddis --presto         # Figure 2/3 style curve
    repro claims                  # one-screen summary of headline results
    repro copy --loss-rate 0.01   # file copy over a lossy wire
    repro chaos --plans 5 --json  # seeded fault-injection campaign
    repro cluster --servers 4 --clients 8 --json   # sharded fleet run
    repro cluster --servers 1 2 4 --clients 8      # scaling sweep
    repro bench --out BENCH_1.json                 # perf baseline grid
    repro overload --json         # goodput-vs-load sweep past saturation
    repro overload --no-adapt     # the collapse curve alone
    repro replica --json          # K=0/1/2 replication cost + promote storm
    repro cache --json            # lease-cache TTL x sharing sweep + chaos probes

Each subcommand is one :class:`_Command`: its flags, how the flags become
the driver's arguments, and how its report reads as text.

Each flag is declared once, as a :class:`_Flag` record: its spelling, the
*target* it sets (a config class or a driver, named in :data:`_TARGETS`),
the target parameter's name, and its help text.  argparse's ``default``,
``type`` and ``nargs``, and the help's "(default: ...)" suffix, are read
from that parameter's default in ``inspect.signature(target)``, so each
default lives only in the driver or config it feeds.  A record states a
default of its own only where the CLI deliberately departs from the
target's, and a :class:`_Form` converts a value whose shape differs
between flag and target (``--net`` names a NetSpec, ``--presto
off|on|both`` names ``presto_modes``).  The same records build the
driver's arguments: ``Config(**flags aimed at Config)`` plus the flags
aimed at the driver.  A subcommand's targets are imported only when that
subcommand is parsed: :func:`main` reads the command name first.

:func:`main` runs every subcommand through the same loop: a
``ValueError`` while building the arguments is a usage error
(``<command>: <message>`` on stderr, exit 2); the run calls the
command's driver (its kind's, through :func:`repro.experiments.resolve`);
without ``--json`` the header prints first, and a driver that takes
``progress`` gets a printer that indents each of its lines by two spaces;
``--out`` and ``--json`` write the report's canonical JSON; and the exit
status is 1 when the report's ``ok`` verdict is false, 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import operator
import sys
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.policy import GatherPolicy
from repro.experiments import PAPER, TABLES, resolve, run, sweepable_fields, table_to_dict
from repro.experiments.sweep import sweep_config
from repro.experiments.testbed import TestbedConfig
from repro.metrics import format_comparison
from repro.net import ETHERNET, FDDI, NETWORKS
from repro.nvram.presto import PRESTO_BYTES
from repro.server.config import WritePath

__all__ = ["main", "build_parser"]

#: Each flag target by name: a config class or a driver, imported from its
#: module only when a subcommand that sets it is parsed.
_TARGETS = {
    "TestbedConfig": "repro.experiments.testbed",
    "ClusterConfig": "repro.cluster",
    "ShardCrash": "repro.cluster",
    "ChaosCampaign": "repro.faults.campaign",
    "OverloadConfig": "repro.overload.experiment",
    "CacheConfig": "repro.lease.experiment",
    "CommitConfig": "repro.commit.experiment",
    "ScrubConfig": "repro.integrity.experiment",
    "TieringConfig": "repro.tiering.experiment",
    "run_table": "repro.experiments.tables",
    "run_filecopy": "repro.experiments.filecopy",
    "sweep": "repro.experiments.sweep",
    "run_curve": "repro.experiments.laddis_curves",
    "run_bench": "repro.experiments.bench",
    "run_cluster": "repro.cluster.experiment",
    "run_replica": "repro.replica.experiment",
}


def _target(name: str):
    return getattr(importlib.import_module(_TARGETS[name]), name)


class _Form(NamedTuple):
    """How a flag's value differs in shape from its target parameter's."""

    #: The target's default -> the flag's default.
    to_flag: Callable
    #: The parsed value -> the target's argument.
    to_target: Callable
    #: The argparse options the flag's shape implies.
    options: dict = {}


class _Flag(NamedTuple):
    """One flag, declared once: see the module docstring."""

    spelling: str
    #: A key of :data:`_TARGETS`; None for a flag the loop or the
    #: subcommand's own code reads (``--json``, ``--no-adapt``).
    target: Optional[str]
    param: str
    help: Optional[str]
    form: Optional[_Form]
    #: What a default cannot say (choices, metavar, the type of a None
    #: default), and the CLI's deliberate departures from the target.
    options: dict


def _dest(spelling: str) -> str:
    return spelling.lstrip("-").replace("-", "_")


def _flag(spelling, target=None, param=None, help=None, form=None, **options) -> _Flag:
    """A flag record; ``param`` defaults to the flag's own name."""
    return _Flag(spelling, target, param or _dest(spelling), help, form, options)


def _argparse_options(flag: _Flag) -> dict:
    """argparse's options for ``flag``, read from its target's default."""
    options = {"help": flag.help, **(flag.form.options if flag.form else {}), **flag.options}
    if flag.target is not None and "default" not in options:
        default = inspect.signature(_target(flag.target)).parameters[flag.param].default
        if default is not inspect.Parameter.empty:
            options["default"] = flag.form.to_flag(default) if flag.form else default
    default = options.get("default")
    if default is False:
        return {"action": "store_true", **options}
    if isinstance(default, (list, tuple)):
        options = {"nargs": "+", "type": type(default[0]), **options}
        default = " ".join(map(str, default))
    elif default is not None:
        options = {"type": type(default), **options}
    if flag.target is not None and default is not None:
        options["help"] = f"{flag.help or ''} (default: {default})".lstrip()
    return options


def _target_values(command: "_Command", args) -> dict:
    """The parsed flags, grouped by target and in the target's shape."""
    groups: dict = {}
    for flag in command.flags:
        if flag.target is None:
            continue
        value = getattr(args, _dest(flag.spelling))
        if flag.form is not None:
            try:
                value = flag.form.to_target(value)
            except ValueError as exc:
                raise ValueError(f"{flag.param} {exc}") from None
        elif isinstance(value, list):
            value = tuple(value)
        groups.setdefault(flag.target, {})[flag.param] = value
    return groups


def _call(groups: dict, config: str = "config") -> dict:
    """The driver's arguments: each config class built from the flags
    aimed at it and passed as ``config``, plus the flags aimed at the
    driver itself."""
    kwargs = {}
    for name, values in groups.items():
        target = _target(name)
        if inspect.isclass(target):
            kwargs[config] = target(**values)
        else:
            kwargs.update(values)
    return kwargs


# -- forms and shared flags -----------------------------------------------------

_WRITE_PATHS = [member.value for member in WritePath]
#: ``--net``: a network by name.
_NET = _Form(lambda spec: spec.name, NETWORKS.__getitem__, {"choices": sorted(NETWORKS)})
#: The ``--presto`` switch: 1 MB of NVRAM, or none.
_PRESTO = _Form(lambda presto_bytes: presto_bytes is not None, lambda on: PRESTO_BYTES if on else None)
#: ``--presto off|on|both``: the NVRAM arms to run, as ``presto_modes``.
_PRESTO_MODES = {"off": (False,), "on": (True,), "both": (False, True)}
_PRESTO_ARMS = _Form(
    lambda modes: next(name for name, arm in _PRESTO_MODES.items() if arm == tuple(modes)),
    _PRESTO_MODES.__getitem__,
    {"choices": list(_PRESTO_MODES)},
)
#: ``--no-chaos`` and the like: a switch that turns a True field off.
_NEGATED = _Form(operator.not_, operator.not_)
#: ``--interval-ms``: a procrastination override, as a GatherPolicy.
_INTERVAL_MS = _Form(
    lambda policy: None,
    lambda ms: GatherPolicy() if ms is None else GatherPolicy(interval=ms / 1000.0),
    {"type": float},
)
#: ``overload --loads``: per-client offered rates in KB/s, kept in bytes/s.
_KBS = _Form(
    lambda rates: [rate / 1024 for rate in rates],
    lambda kbs: tuple(int(round(kb * 1024)) for kb in kbs),
)
#: ``cluster --servers/--clients``: several values run a scaling sweep;
#: one cell takes the first.
_ONE_OR_MORE = _Form(lambda value: [value], lambda values: values[0])


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


_SWEEP_VALUES = _Form(None, lambda texts: [_parse_value(text) for text in texts], {"nargs": "+"})


def _positive(value):
    if value <= 0:
        raise ValueError(f"must be positive, got {value}")
    return value


#: ``--file-mb``, ``--duration``: a size or a span no run can be built with
#: unless it is positive.
_POSITIVE = _Form(lambda default: default, _positive)

# copy and sweep run the paper's cell, FDDI with 7 biods, where
# TestbedConfig defaults to Ethernet with 4.
_PAPER_NET = _flag("--net", "TestbedConfig", "netspec", form=_NET, default="fddi")
_PAPER_BIODS = _flag("--biods", "TestbedConfig", "nbiods", default=7)


def _write_path(target: str, **options) -> _Flag:
    # A name, not a WritePath: argparse checks it against the choices, and
    # the config coerces it.
    return _flag(
        "--write-path", target, help="rfs_write implementation to run",
        type=str, choices=_WRITE_PATHS, **options,
    )


def _net_faults(target: str) -> Tuple[_Flag, ...]:
    return (
        _flag("--loss-rate", target, help="per-frame network loss probability in [0, 1)"),
        _flag(
            "--net-seed", target, type=int,
            help="seed for the network RNG (default: the testbed seed)",
        ),
    )


def _json(help: str = "emit the full report as JSON") -> _Flag:
    return _flag("--json", help=help, action="store_true")


_OUT = _flag("--out", help="also write the canonical JSON report to this file")


def _print_verdict(report, contract: str, indent: str = "") -> None:
    if report.clean:
        print(f"{indent}{contract} contract held: zero violations")
    else:
        print(f"{indent}{len(report.violations)} VIOLATIONS:")
        for violation in report.violations:
            print(f"{indent}  {violation}")


# -- the paper's kinds ----------------------------------------------------------


def _render_table(args, result) -> None:
    print(result.render())
    print()
    paper = PAPER[args.number]
    for variant, label in (("std", "Without gathering"), ("gather", "With gathering")):
        print(
            format_comparison(
                f"{label} — client write speed (measured vs paper)",
                result.spec.biods,
                result.series(variant, "speed"),
                paper[variant]["speed"],
            )
        )


def _render_copy(args, metrics) -> None:
    print(f"configuration: {metrics.label}, {args.biods} biods, {args.file_mb} MB copy")
    for name, value in metrics.row().items():
        print(f"  {name:<32} {value}")
    if metrics.mean_batch_size is not None:
        print(f"  {'mean gathered batch size':<32} {metrics.mean_batch_size:.1f}")
        print(f"  {'gather success rate':<32} {metrics.gather_success_rate:.0%}")
        print(f"  {'procrastinations':<32} {metrics.procrastinations:.0f}")


def _render_trace(args, sides) -> None:
    for name in ("standard", "gathering"):
        side = sides[name]
        print(f"=== {name} server — window from {side['window_start_ms']:.1f} ms ===")
        print(side["rendered"])
        print(
            f"--> {side['writes']} writes, {side['disk_transactions']} disk "
            f"transactions, {side['replies']} replies\n"
        )


def _run_laddis(**kwargs) -> dict:
    return {
        name: run("curve", path, **kwargs)
        for name, path in (("standard", "standard"), ("gathering", "gather"))
    }


def _render_laddis(args, curves) -> None:
    print(f"{'offered':>8} {'std ops/s':>10} {'std ms':>8} {'gat ops/s':>10} {'gat ms':>8}")
    for s_point, g_point in zip(curves["standard"].points, curves["gathering"].points):
        print(
            f"{s_point.offered:8.0f} {s_point.achieved:10.0f} {s_point.latency_ms:8.1f}"
            f" {g_point.achieved:10.0f} {g_point.latency_ms:8.1f}"
        )
    std_cap = curves["standard"].capacity()
    gat_cap = curves["gathering"].capacity()
    delta = 100 * (gat_cap / std_cap - 1) if std_cap else float("nan")
    print(f"capacity: standard {std_cap:.0f}, gathering {gat_cap:.0f} ({delta:+.0f}%)")


def _run_claims() -> list:
    rows = [
        ("FDDI @7 biods, standard", TestbedConfig(netspec=FDDI, write_path="standard", nbiods=7)),
        ("FDDI @7 biods, gathering", TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7)),
        ("Ethernet @0 biods, standard", TestbedConfig(netspec=ETHERNET, write_path="standard", nbiods=0)),
        ("Ethernet @0 biods, gathering", TestbedConfig(netspec=ETHERNET, write_path="gather", nbiods=0)),
        (
            "Eth+Presto @7 biods, standard",
            TestbedConfig(netspec=ETHERNET, write_path="standard", nbiods=7, presto_bytes=PRESTO_BYTES),
        ),
        (
            "Eth+Presto @7 biods, gathering",
            TestbedConfig(netspec=ETHERNET, write_path="gather", nbiods=7, presto_bytes=PRESTO_BYTES),
        ),
    ]
    return [(label, run("copy", config, file_mb=2)) for label, config in rows]


def _render_claims(args, rows) -> None:
    for label, metrics in rows:
        print(
            f"  {label:<32} {metrics.client_kb_per_sec:7.0f} KB/s  "
            f"cpu {metrics.server_cpu_pct:4.1f}%  disk {metrics.disk_trans_per_sec:5.1f} t/s"
        )


def _sweep_arguments(args, groups) -> dict:
    if args.field not in sweepable_fields():
        raise ValueError(
            f"unknown field {args.field!r}; choose from "
            f"{', '.join(sorted(sweepable_fields()))}"
        )
    kwargs = _call(groups, config="base")
    for value in kwargs["values"]:
        sweep_config(kwargs["base"], args.field, value)  # each point must build
    return kwargs


def _sweep_payload(args, results) -> dict:
    return {
        "field": args.field,
        "values": [_parse_value(v) for v in args.values],
        "results": [metrics.to_json() for metrics in results],
    }


def _render_sweep(args, results) -> None:
    print(f"{args.field:>14} {'KB/s':>8} {'cpu %':>7} {'disk t/s':>9} {'batch':>7}")
    for text, metrics in zip(args.values, results):
        batch = f"{metrics.mean_batch_size:6.1f}" if metrics.mean_batch_size else "     -"
        print(
            f"{str(_parse_value(text)):>14} {metrics.client_kb_per_sec:>8.0f} "
            f"{metrics.server_cpu_pct:>7.1f} {metrics.disk_trans_per_sec:>9.1f} {batch}"
        )


# -- the subsystem kinds --------------------------------------------------------


def _render_chaos(args, report) -> None:
    summary = report.to_dict()
    print(
        f"ran {summary['plans_run']} plans: "
        f"{summary['total_acked_writes']} acked writes, "
        f"{summary['total_crashes']} crashes, "
        f"{summary['total_retransmissions']} retransmissions"
    )
    _print_verdict(report, "crash")


def _overload_arguments(args, groups) -> dict:
    if args.no_adapt and args.adapt_only:
        raise ValueError("--no-adapt and --adapt-only are mutually exclusive")
    if args.no_adapt or args.adapt_only:
        groups["OverloadConfig"]["modes"] = ("static",) if args.no_adapt else ("adaptive",)
    return _call(groups)


def _overload_header(args, kwargs) -> str:
    config = kwargs["config"]
    loads_kbs = ", ".join(f"{rate / 1024:.1f}" for rate in config.loads)
    return (
        f"overload sweep: seed={config.seed}, {config.clients} clients, "
        f"loads [{loads_kbs}] KB/s each, modes {'+'.join(config.modes)}"
    )


def _render_overload(args, report) -> None:
    for combo in report.combos:
        tag = f"{combo['write_path']}/presto={'on' if combo['presto'] else 'off'}"
        for mode, curve in combo["curves"].items():
            shape = "COLLAPSE" if curve["collapse"] else (
                "plateau" if curve["monotone_nondecreasing"] else "noisy"
            )
            print(f"  {tag:<24} {mode:<8} top {curve['goodput_kbs'][-1]:7.1f} KB/s  {shape}")
        verdict = combo.get("verdict")
        if verdict is not None:
            outcome = "holds" if verdict["adaptation_wins"] else "FAILS"
            print(
                f"  {tag:<24} adaptation {outcome}: "
                f"{verdict['adaptive_top_goodput_kbs']:.1f} vs "
                f"{verdict['static_top_goodput_kbs']:.1f} KB/s at top load"
            )
    _print_verdict(report, "crash")


def _cluster_sweep_mode(args) -> bool:
    return len(args.servers) > 1 or len(args.clients) > 1


def _cluster_arguments(args, groups) -> dict:
    from repro.cluster import ClusterConfig, ShardCrash
    from repro.cluster.experiment import check_workload

    workload = groups["run_cluster"]
    for clients in args.clients:
        check_workload(clients, workload["files_per_client"], workload["file_kb"])
    config = ClusterConfig(**groups["ClusterConfig"])
    if _cluster_sweep_mode(args):
        if args.crash_shard is not None:
            raise ValueError("--crash-shard only applies to single-cell runs")
        workload.pop("clients")
        return {
            "base": config, "server_counts": args.servers, "client_counts": args.clients,
            **workload,
        }
    crashes = None
    if args.crash_shard is not None:
        if not 0 <= args.crash_shard < config.servers:
            raise ValueError(f"no shard {args.crash_shard} in a {config.servers}-shard fleet")
        crashes = [ShardCrash(**groups["ShardCrash"])]
    return {"config": config, "crashes": crashes, **workload}


def _cluster_driver(args) -> Callable:
    if _cluster_sweep_mode(args):
        from repro.cluster.experiment import run_scaling_sweep

        return run_scaling_sweep
    return resolve("cluster")


def _render_cluster(args, report) -> None:
    if not _cluster_sweep_mode(args):
        _render_cluster_cell(report)
        return
    print(
        f"{'servers':>8} {'clients':>8} {'KB/s':>9} {'gather':>7} "
        f"{'efficiency':>10} {'clean':>6}"
    )
    for row in report.table():
        gather = (
            f"{row['mean_gather_ratio']:7.3f}"
            if row["mean_gather_ratio"] is not None
            else "      -"
        )
        efficiency = (
            f"{row['scaling_efficiency']:10.3f}"
            if "scaling_efficiency" in row
            else "         -"
        )
        print(
            f"{row['servers']:>8} {row['clients']:>8} "
            f"{row['aggregate_kb_per_sec']:>9.0f} {gather} {efficiency} "
            f"{'ok' if row['clean'] else 'BAD':>6}"
        )


def _render_cluster_cell(result) -> None:
    print(
        f"cluster: {result.servers} servers x {result.clients} clients, "
        f"{result.write_path} path, seed {result.seed}"
    )
    print(
        f"  aggregate {result.aggregate_kb_per_sec:.0f} KB/s over "
        f"{result.total_bytes // 1024} KB in {result.elapsed * 1000:.1f} ms"
    )
    ratio = result.mean_gather_ratio()
    if ratio is not None:
        print(f"  mean gather ratio {ratio:.3f}")
    print(f"{'shard':<12} {'files':>5} {'writes':>7} {'disk KB':>8} {'cpu %':>6} {'gather':>7}")
    for shard in result.per_shard:
        host = shard["host"]
        gather = (
            f"{shard['gather_ratio']:7.3f}" if "gather_ratio" in shard else "      -"
        )
        print(
            f"{host:<12} {result.placement.get(host, 0):>5} "
            f"{shard['writes_completed']:>7} {shard['disk_bytes'] // 1024:>8} "
            f"{shard['cpu_pct']:>6.1f} {gather}"
        )
    for fault in result.faults:
        window = f"{fault['start'] * 1000:.1f}-{fault['end'] * 1000:.1f} ms"
        redirected = " (redirected)" if fault["redirected"] else ""
        print(f"  fault: {fault['host']} crashed at {window}{redirected}")
    print(
        f"  oracle: {result.acked_writes} acked writes, {result.oracle_checks} checks, "
        f"{result.crashes} crashes, {result.retransmissions} retransmissions"
    )
    _print_verdict(result, "crash", "  ")


def _replica_arguments(args, groups) -> dict:
    from repro.cluster.experiment import check_workload

    kwargs = _call(groups)
    check_workload(kwargs["clients"], kwargs["files_per_client"], kwargs["file_kb"])
    for replicas in kwargs["replica_counts"]:
        kwargs["config"].variant(replicas=replicas)  # each arm's config must build
    return kwargs


def _render_replica(args, result) -> None:
    for row in result.comparison():
        print(
            f"  K={row['replicas']} vs K=0: "
            f"p99 write latency x{row['p99_write_latency_vs_k0']}, "
            f"throughput x{row['throughput_vs_k0']}"
        )
    for arm in result.arms:
        for violation in arm.violations:
            print(f"  K={arm.replicas} VIOLATION: {violation}")
    if result.clean:
        print("  zero-acked-write-loss guarantee held across every arm")


def _cache_header(args, kwargs) -> str:
    config = kwargs["config"]
    ttls = ", ".join(f"{t:g}" for t in config.lease_ttls)
    ratios = ", ".join(f"{s:g}" for s in config.sharing_ratios)
    return (
        f"cache sweep: seed={config.seed}, {config.clients} clients, "
        f"TTLs [{ttls}] s x sharing [{ratios}]"
    )


def _render_cache(args, report) -> None:
    from repro.lease.experiment import MIN_REDUCTION

    config = report.config
    cell = report.headline
    if cell is not None:
        verdict = "meets" if report.meets_target else "MISSES"
        print(
            f"  headline (ttl={config.headline_ttl:g}s, "
            f"sharing={config.headline_sharing:g}): "
            f"x{cell['reduction']:g} reduction — {verdict} the "
            f"x{MIN_REDUCTION:g} target"
        )
    _print_verdict(report, "staleness", "  ")


def _commit_header(args, kwargs) -> str:
    config = kwargs["config"]
    return (
        f"commit: {config.file_mb} MB copy x "
        f"{'/'.join(config.write_paths)}, seed {config.seed}"
    )


def _render_commit(args, report) -> None:
    comparison = report.comparison
    if comparison is not None:
        verdict = "beats" if report.async_beats_standard else "DOES NOT BEAT"
        print(
            f"  async_commit {verdict} standard: "
            f"p50 x{comparison['p50_vs_standard']}, "
            f"throughput x{comparison['throughput_vs_standard']}"
        )
    _print_verdict(report, "commit", "  ")


def _scrub_header(args, kwargs) -> str:
    config = kwargs["config"]
    return (
        f"scrub: {config.clients} clients x {config.files_per_client} "
        f"files x {config.file_kb} KB, seed {config.seed}"
    )


def _render_scrub(args, report) -> None:
    if report.clean:
        print("  integrity contract held: nothing silent, all healed/surfaced")
        return
    for arm in report.arms:
        if arm.clean:
            continue
        print(
            f"  DIRTY arm K={arm.replicas} rate={arm.corruption_rate} "
            f"bw={arm.scrub_bandwidth}:"
        )
        for violation in arm.violations:
            print(f"    {violation}")


def _tiering_header(args, kwargs) -> str:
    config = kwargs["config"]
    return (
        f"tiering: {config.tenants} tenants x {config.files_per_tenant} "
        f"files x {config.ops_per_tenant} appends, skew {config.skew}, "
        f"seed {config.seed}"
    )


def _render_tiering(args, result) -> None:
    verdict = "beats" if result.hot_beats_cold else "DOES NOT BEAT"
    print(f"  mixed fleet {verdict} all-cold on p99 write latency")
    if result.clean:
        print("  migration contract held: zero violations")
        return
    for arm in result.arms:
        for violation in arm.violations:
            print(f"    {violation}")
    for violation in result.storm.get("violations", []):
        print(f"    {violation}")


# -- the loop -------------------------------------------------------------------


class _Command(NamedTuple):
    """One subcommand, as the loop in :func:`main` drives it."""

    #: The one-line help ``repro --help`` lists.
    help: str
    description: Optional[str] = None
    flags: Tuple[_Flag, ...] = ()
    #: (args, flags grouped by target) -> the driver's keyword arguments;
    #: a ValueError is a usage error.
    arguments: Callable = lambda args, groups: _call(groups)
    #: (args, report) -> None: the text-mode output after the run.
    render: Optional[Callable] = None
    #: (args, kwargs) -> the line printed before the run (text mode only).
    header: Optional[Callable] = None
    #: (args, report) -> the document ``--json`` prints and ``--out`` writes.
    payload: Callable = lambda args, report: report.to_dict()
    #: args -> the function the driver's keyword arguments are passed to:
    #: the command's kind, unless the subcommand is not one kind's run.
    driver: Callable = lambda args: resolve(args.command)


_COMMANDS = {
    "table": _Command(
        help="regenerate one of Tables 1-6",
        flags=(
            _flag("number", "run_table", type=int, choices=sorted(TABLES)),
            _flag("--file-mb", "run_table", help="copy size (paper: 10)", form=_POSITIVE),
            _json("emit the table as JSON"),
        ),
        render=_render_table,
        payload=lambda args, result: table_to_dict(result),
    ),
    "copy": _Command(
        help="run one file-copy cell",
        flags=(
            _PAPER_NET,
            _PAPER_BIODS,
            _write_path("TestbedConfig"),
            _flag("--presto", "TestbedConfig", "presto_bytes", "NVRAM accelerator", _PRESTO),
            _flag("--stripes", "TestbedConfig"),
            _flag("--nfsds", "TestbedConfig"),
            _flag("--file-mb", "run_filecopy", form=_POSITIVE),
            _flag(
                "--interval-ms", "TestbedConfig", "gather_policy",
                "procrastination override", _INTERVAL_MS,
            ),
            *_net_faults("TestbedConfig"),
            _flag(
                "--json", "TestbedConfig", "tracing",
                "emit JSON (runs traced: includes per-phase latency percentiles)",
            ),
        ),
        render=_render_copy,
        payload=lambda args, metrics: metrics.to_json(),
    ),
    "trace": _Command(help="print the Figure 1 timelines", render=_render_trace),
    "laddis": _Command(
        help="run a Figure 2/3 LADDIS curve",
        flags=(
            _flag("--presto", "run_curve"),
            # A quick 5-point, 3 s curve; run_curve defaults to Figure 2/3's
            # 7-point, 4 s axis.
            _flag("--loads", "run_curve", default=[150.0, 300.0, 450.0, 550.0, 650.0]),
            _flag("--duration", "run_curve", default=3.0, form=_POSITIVE),
            *_net_faults("run_curve"),
        ),
        driver=lambda args: _run_laddis,
        render=_render_laddis,
    ),
    "claims": _Command(
        help="one-screen summary of the headline results",
        header=lambda args, kwargs: (
            "Headline results (2 MB copies for speed; benches run full scale):"
        ),
        driver=lambda args: _run_claims,
        render=_render_claims,
    ),
    "chaos": _Command(
        help="run a seeded fault-injection campaign (repro.faults)",
        description=(
            "Generate and run randomized-but-reproducible fault plans "
            "(crashes, packet loss, partitions, duplication, reordering, "
            "slow disks, socket-buffer shrink) against every selected "
            "write path with Presto on and off, asserting the crash "
            "contract: every client-acked write is durable with correct "
            "content, and fsck finds no structural damage.  Exits 1 on "
            "any violation."
        ),
        flags=(
            _flag("--seed", "ChaosCampaign", help="campaign seed"),
            _flag(
                "--plans", "ChaosCampaign", "plans_per_combo",
                "plans per write path x presto combination",
            ),
            _flag(
                "--write-paths", "ChaosCampaign", choices=_WRITE_PATHS,
                help="write paths to campaign over",
            ),
            _flag(
                "--presto", "ChaosCampaign", "presto_modes",
                "NVRAM accelerator arms to run", _PRESTO_ARMS,
            ),
            _flag("--file-kb", "ChaosCampaign", help="per-file workload size"),
            _json(),
        ),
        header=lambda args, kwargs: (
            f"chaos campaign: seed={args.seed}, {args.plans} plans x "
            f"{len(kwargs['config'].combos())} combos, {args.file_kb} KB files"
        ),
        render=_render_chaos,
    ),
    "sweep": _Command(
        help="sweep one parameter of a file-copy",
        flags=(
            _flag("field", "sweep", help="TestbedConfig field, or interval_ms / presto_mb"),
            _flag("values", "sweep", help="values to sweep", form=_SWEEP_VALUES),
            _PAPER_NET,
            _write_path("TestbedConfig"),
            _PAPER_BIODS,
            _flag("--file-mb", "sweep", form=_POSITIVE),
            *_net_faults("TestbedConfig"),
            _json("emit results as JSON"),
        ),
        arguments=_sweep_arguments,
        render=_render_sweep,
        payload=_sweep_payload,
    ),
    "cluster": _Command(
        help="run the sharded server fleet (repro.cluster)",
        description=(
            "Stand up N independent NFS servers behind a consistent-hash "
            "shard map and a client-side mount router, run a seeded "
            "multi-client write workload, and verify the cluster-wide "
            "crash contract.  Multiple --servers or --clients values run "
            "a scaling sweep with a per-cell efficiency table.  Exits 1 "
            "on any oracle violation."
        ),
        flags=(
            _flag(
                "--servers", "ClusterConfig", form=_ONE_OR_MORE,
                help="fleet size(s); more than one value runs a sweep",
            ),
            _flag(
                "--clients", "run_cluster", form=_ONE_OR_MORE,
                help="client count(s); more than one value runs a sweep",
            ),
            _flag("--vnodes", "ClusterConfig", help="virtual nodes per server"),
            _flag("--racks", "ClusterConfig", help="network segments"),
            _flag("--net", "ClusterConfig", "netspec", form=_NET),
            # The standard path, where ClusterConfig defaults to gather.
            _write_path("ClusterConfig", default="standard"),
            _flag("--presto", "ClusterConfig", "presto_bytes", "NVRAM on every shard", _PRESTO),
            _flag("--biods", "ClusterConfig", "nbiods"),
            _flag("--nfsds", "ClusterConfig"),
            _flag("--file-kb", "run_cluster", help="size of each written file"),
            _flag("--files", "run_cluster", "files_per_client", "files written per client"),
            _flag("--seed", "ClusterConfig"),
            _flag(
                "--crash-shard", "ShardCrash", "shard", type=int,
                help="crash this shard index mid-run (single-cell runs only)",
            ),
            # ShardCrash.at has no default of its own.
            _flag("--crash-at", "ShardCrash", "at", "crash time in seconds", default=0.05),
            _flag("--outage", "ShardCrash", help="seconds the crashed shard stays partitioned"),
            _flag(
                "--redirect", "ShardCrash",
                help="drop the crashed shard from the mount map during the outage",
            ),
            _json("emit the result as JSON"),
        ),
        arguments=_cluster_arguments,
        driver=_cluster_driver,
        render=_render_cluster,
    ),
    "overload": _Command(
        help="goodput-vs-load sweep past saturation (repro.overload)",
        description=(
            "Drive a client fleet past server saturation through a "
            "mid-run retransmit storm, comparing the paper-era static "
            "1.1 s retransmission schedule against the adaptive stack "
            "(Van Jacobson RTO with Karn's rule and seeded jitter, an "
            "AIMD write window, and server admission control with "
            "dup-cache-aware shedding).  Each combo also crashes the "
            "server mid-storm and asserts that every client-acked write "
            "survived.  Exits 1 on any crash-contract violation, a "
            "non-monotone adaptive curve, or adaptive goodput below "
            "static at the top load."
        ),
        flags=(
            _flag("--seed", "OverloadConfig", help="sweep seed"),
            _flag(
                "--write-paths", "OverloadConfig", choices=_WRITE_PATHS, help="write paths to sweep"
            ),
            _flag(
                "--presto", "OverloadConfig", "presto_modes",
                "NVRAM accelerator arms to run", _PRESTO_ARMS,
            ),
            _flag(
                "--loads", "OverloadConfig", form=_KBS, metavar="KBS",
                help="per-client offered rates in KB/s, ascending",
            ),
            _flag("--clients", "OverloadConfig", help="fleet size"),
            _flag("--duration", "OverloadConfig", help="measured window per point, seconds"),
            _flag(
                "--no-adapt", help="run only the static (no-adaptation) curve", action="store_true"
            ),
            _flag("--adapt-only", help="run only the adaptive curve", action="store_true"),
            _json(),
        ),
        arguments=_overload_arguments,
        header=_overload_header,
        render=_render_overload,
    ),
    "bench": _Command(
        help="run the perf-baseline grid and emit BENCH_<n>.json",
        description=(
            "One seeded file copy per cell of standard/gather/siva x "
            "Presto off/on, reporting throughput, p50/p99 write latency, "
            "and disk writes per MB.  CI uploads the JSON as an artifact "
            "so perf-affecting PRs have a baseline to diff against."
        ),
        flags=(
            _flag("--net", "run_bench", "netspec", form=_NET),
            _flag("--file-mb", "run_bench", help="copy size", form=_POSITIVE),
            _flag("--biods", "run_bench"),
            _flag("--seed", "run_bench"),
            _flag(
                "--out", metavar="PATH",
                help="also write the canonical JSON to this file (e.g. BENCH_1.json)",
            ),
            _json("print the report as JSON"),
        ),
        header=lambda args, kwargs: (
            f"bench: {args.net}, {args.file_mb} MB copy, {args.biods} biods, "
            f"seed {args.seed}"
        ),
        payload=lambda args, report: report,
    ),
    "replica": _Command(
        help="replicated shards under a crash-and-promote storm (repro.replica)",
        description=(
            "Run the sharded write workload once per replication factor "
            "(default K=0, 1, 2) while a seeded storm kills acting "
            "primaries mid-run.  With K>0 each kill promotes the shard's "
            "freshest backup; the group oracle asserts that no acked "
            "write is ever missing from the surviving replica set, and a "
            "post-quiesce pass byte-compares the survivors.  The K=0 arm "
            "is the unreplicated baseline, so the report prices the "
            "guarantee: p99 write latency and throughput vs K=0.  Exits "
            "1 on any violation."
        ),
        flags=(
            # Three shards, so the default three-crash storm kills every
            # shard's primary once; ClusterConfig defaults to two.
            _flag("--servers", "ClusterConfig", help="shard count", default=3),
            _flag("--clients", "run_replica", help="client count"),
            _flag(
                "--replicas", "run_replica", "replica_counts", metavar="K",
                help="backups per shard; each value is one arm",
            ),
            _flag("--quorum", "ClusterConfig", help="backup acks required before a write is acked"),
            _flag("--files", "run_replica", "files_per_client", "files written per client"),
            _flag("--file-kb", "run_replica", help="size of each written file"),
            _flag(
                "--crashes", "run_replica", "storm_crashes",
                "primary kills in the storm, round-robin over shards",
            ),
            _flag("--net", "ClusterConfig", "netspec", form=_NET),
            _flag("--seed", "ClusterConfig"),
            _json("emit the result as JSON"),
        ),
        arguments=_replica_arguments,
        header=lambda args, kwargs: (
            f"replica: {args.servers} shards x {args.clients} clients, "
            f"{args.crashes}-crash storm, seed {args.seed}"
        ),
        render=_render_replica,
    ),
    "cache": _Command(
        help="lease-cache RPC-reduction sweep + staleness chaos probes (repro.lease)",
        description=(
            "Measure what client-side caching under server-granted "
            "leases buys: RPCs per user operation on a shared-read/"
            "private-write workload, swept over lease TTL x sharing "
            "ratio with leases on vs off, plus compact before/after "
            "profiles of the copy, LADDIS, cluster, and overload "
            "workloads.  Then probe the staleness contract under chaos "
            "(server crash mid-recall, a severed callback path, a "
            "holder partitioned past its TTL) with an omniscient "
            "oracle watching every served cache hit.  Exits 1 on any "
            "staleness violation or if the headline cell misses its "
            "required reduction."
        ),
        flags=(
            _flag("--seed", "CacheConfig", help="sweep seed"),
            _flag(
                "--ttls", "CacheConfig", "lease_ttls", metavar="SEC",
                help="lease TTL axis in seconds",
            ),
            _flag(
                "--sharing", "CacheConfig", "sharing_ratios", metavar="RATIO",
                help="shared-read fractions in [0,1]",
            ),
            _flag("--clients", "CacheConfig", help="fleet size"),
            _flag("--ops", "CacheConfig", "ops_per_client", "operations per client"),
            _flag(
                "--no-chaos", "CacheConfig", "chaos",
                "skip the chaos probes (sweep and workload profiles only)", _NEGATED,
            ),
            _json(),
        ),
        header=_cache_header,
        render=_render_cache,
    ),
    "commit": _Command(
        help="async WRITE+COMMIT three-way comparison + verifier probes (repro.commit)",
        description=(
            "Compare the async_commit write path (unstable WRITEs acked "
            "from volatile memory, boot verifiers, explicit COMMIT) "
            "against the standard and gather paths on the seeded bench "
            "copy, open both memory-pressure valves against a shrunken "
            "volatile ceiling, run the K=1 crash-and-promote storm on "
            "both paths, and probe the verifier lifecycle under chaos "
            "(crash mid-unstable-window, crash between WRITE and COMMIT, "
            "promotion mid-COMMIT).  Exits 1 on any oracle violation or "
            "if async_commit fails to beat the standard path on p50 "
            "write latency and throughput."
        ),
        flags=(
            _flag("--seed", "CommitConfig"),
            _flag("--file-mb", "CommitConfig", help="bench copy size in MB"),
            _flag("--biods", "CommitConfig", help="client write-behind depth"),
            _flag(
                "--no-chaos", "CommitConfig", "chaos",
                "skip the verifier-lifecycle chaos probes", _NEGATED,
            ),
            _OUT,
            _json(),
        ),
        header=_commit_header,
        render=_render_commit,
    ),
    "scrub": _Command(
        help="end-to-end integrity sweep: corruption x scrub bandwidth x K "
        "(repro.integrity)",
        description=(
            "Run the seeded write workload under a media-fault storm (bit "
            "rot, latent sector errors, a torn write and an NVRAM battery "
            "degrade cashed in by a mid-run crash) while a background "
            "scrubber walks the durable image verifying per-block "
            "checksums.  With replicas (K>=1) every defect must self-heal "
            "from a replica-group peer; standalone (K=0) every defect "
            "must surface as a quarantine + EIO.  In every arm, zero "
            "acked READs may return bytes differing from the acked write "
            "image.  Exits 1 on any silent corruption, missed "
            "convergence, or unhealed defect at K>=1."
        ),
        flags=(
            _flag("--seed", "ScrubConfig"),
            _flag("--clients", "ScrubConfig", help="client hosts"),
            _flag("--files-per-client", "ScrubConfig", help="files each"),
            _flag("--file-kb", "ScrubConfig", help="file size in KB"),
            _flag(
                "--rates", "ScrubConfig", "corruption_rates", metavar="R",
                help="corruption rates to sweep, fraction of durable blocks "
                "afflicted per media fault",
            ),
            # Rates in bytes/sec parse as floats, as ScrubConfig declares
            # them, though its defaults are whole numbers.
            _flag(
                "--bandwidths", "ScrubConfig", "scrub_bandwidths", metavar="BPS",
                type=float, help="scrub read bandwidths in bytes/sec",
            ),
            _flag(
                "--replicas", "ScrubConfig", "replica_counts", metavar="K",
                help="replication factors to sweep",
            ),
            _OUT,
            _json(),
        ),
        header=_scrub_header,
        render=_render_scrub,
    ),
    "tiering": _Command(
        help="heterogeneous-tier placement sweep + crash-safe migration "
        "storm (repro.tiering)",
        description=(
            "Run the Zipf-hot multi-tenant append workload against an "
            "all-cold fleet (the baseline) and against a mixed fleet "
            "whose hot tier carries Presto NVRAM, once per placement "
            "policy.  Then replay it with replication while a "
            "MigrationEngine live-demotes the hottest files hot->cold "
            "under injected shard crashes, a network partition, and "
            "replica promotions timed to land mid-copy.  The migration "
            "contract — every acked range satisfiable at exactly one "
            "authoritative location — is checked at every fault and at "
            "quiesce.  Exits 1 on any oracle violation."
        ),
        flags=(
            _flag("--seed", "TieringConfig"),
            _flag("--tenants", "TieringConfig", help="tenant clients"),
            _flag("--files-per-tenant", "TieringConfig", help="files each"),
            _flag("--ops", "TieringConfig", "ops_per_tenant", "appends per tenant"),
            _flag("--skew", "TieringConfig", help="per-tenant Zipf skew; 0 = uniform"),
            _flag(
                "--policies", "TieringConfig", metavar="POLICY", help="placement policies to sweep"
            ),
            _OUT,
            _json(),
        ),
        header=_tiering_header,
        render=_render_tiering,
    ),
}


def build_parser(commands: Optional[Iterable[str]] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser; only the subcommands in ``commands`` (default:
    all) get their flags, so only their targets are imported."""
    commands = _COMMANDS if commands is None else commands
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Improving the Write Performance of an NFS Server' (USENIX 1994).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        subparser = subparsers.add_parser(name, help=command.help, description=command.description)
        for flag in command.flags if name in commands else ():
            subparser.add_argument(flag.spelling, **_argparse_options(flag))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[:1]).parse_args(argv)
    command = _COMMANDS[args.command]
    as_json = getattr(args, "json", False)
    try:
        kwargs = command.arguments(args, _target_values(command, args))
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    driver = command.driver(args)
    if not as_json:
        if command.header is not None:
            print(command.header(args, kwargs))
        if "progress" in inspect.signature(driver).parameters:
            kwargs["progress"] = lambda line: print(f"  {line}")
    report = driver(**kwargs)
    out = getattr(args, "out", None)
    if out or as_json:
        document = json.dumps(command.payload(args, report), indent=2, sort_keys=True)
    if out:
        with open(out, "w") as handle:
            handle.write(document + "\n")
        if not as_json:
            print(f"wrote {out}")
    if as_json:
        print(document)
    elif command.render is not None:
        command.render(args, report)
    # The paper kinds' results carry no verdict: they always exit 0.
    return 0 if getattr(report, "ok", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
