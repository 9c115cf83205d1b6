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

Each subcommand is one :class:`_Command`: its flag declarations, how the
flags become the driver's arguments, and how its report reads as text.
:func:`main` runs every subcommand through the same loop: a
``ValueError`` while building the arguments is a usage error
(``<command>: <message>`` on stderr, exit 2); the header and progress
lines print only without ``--json``; the run goes through
:func:`repro.experiments.run`; ``--out`` and ``--json`` write the
report's canonical JSON; and the exit status is 1 when the report's
``ok`` verdict is false, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, NamedTuple, Optional

from repro.core.policy import GatherPolicy
from repro.experiments import PAPER, TABLES, run, sweepable_fields, table_to_dict
from repro.experiments.testbed import TestbedConfig
from repro.metrics import format_comparison
from repro.net import ETHERNET, FDDI, NETWORKS
from repro.server.config import WritePath

__all__ = ["main", "build_parser"]

#: ``--presto off|on|both`` as the drivers' ``presto_modes``.
_PRESTO_MODES = {"off": (False,), "on": (True,), "both": (False, True)}


def _add_write_path_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--write-path",
        choices=[member.value for member in WritePath],
        default=None,
        help="rfs_write implementation to run (default: standard)",
    )


def _add_net_fault_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        help="per-frame network loss probability in [0, 1) (default: 0)",
    )
    parser.add_argument(
        "--net-seed",
        type=int,
        default=None,
        help="seed for the network RNG (default: the testbed seed)",
    )


def _resolve_write_path(args) -> WritePath:
    """Resolve --write-path (default: standard)."""
    if args.write_path is not None:
        return WritePath.coerce(args.write_path)
    return WritePath.STANDARD


def _config_from_args(args, tracing: bool = False) -> TestbedConfig:
    """Build the TestbedConfig the copy/sweep subcommands share."""
    policy = GatherPolicy()
    if getattr(args, "interval_ms", None) is not None:
        policy = GatherPolicy(interval=args.interval_ms / 1000.0)
    return TestbedConfig(
        netspec=NETWORKS[args.net],
        write_path=_resolve_write_path(args),
        nbiods=args.biods,
        presto_bytes=(1 << 20) if getattr(args, "presto", False) else None,
        stripes=getattr(args, "stripes", 1),
        nfsds=getattr(args, "nfsds", 8),
        gather_policy=policy,
        tracing=tracing,
        loss_rate=args.loss_rate,
        net_seed=args.net_seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Improving the Write Performance of an NFS Server' (USENIX 1994).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table = subparsers.add_parser("table", help="regenerate one of Tables 1-6")
    table.add_argument("number", type=int, choices=sorted(TABLES))
    table.add_argument("--file-mb", type=float, default=10.0, help="copy size (paper: 10)")
    table.add_argument("--json", action="store_true", help="emit the table as JSON")

    copy = subparsers.add_parser("copy", help="run one file-copy cell")
    copy.add_argument("--net", choices=sorted(NETWORKS), default="fddi")
    copy.add_argument("--biods", type=int, default=7)
    _add_write_path_options(copy)
    copy.add_argument("--presto", action="store_true", help="NVRAM accelerator")
    copy.add_argument("--stripes", type=int, default=1)
    copy.add_argument("--nfsds", type=int, default=8)
    copy.add_argument("--file-mb", type=float, default=10.0)
    copy.add_argument("--interval-ms", type=float, default=None, help="procrastination override")
    _add_net_fault_options(copy)
    copy.add_argument(
        "--json",
        action="store_true",
        help="emit JSON (runs traced: includes per-phase latency percentiles)",
    )

    subparsers.add_parser("trace", help="print the Figure 1 timelines")

    laddis = subparsers.add_parser("laddis", help="run a Figure 2/3 LADDIS curve")
    laddis.add_argument("--presto", action="store_true")
    laddis.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=[150.0, 300.0, 450.0, 550.0, 650.0],
    )
    laddis.add_argument("--duration", type=float, default=3.0)
    _add_net_fault_options(laddis)

    subparsers.add_parser("claims", help="one-screen summary of the headline results")

    chaos = subparsers.add_parser(
        "chaos",
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
    )
    chaos.add_argument("--seed", type=int, default=0, help="campaign seed (default: 0)")
    chaos.add_argument(
        "--plans",
        type=int,
        default=5,
        help="plans per write path x presto combination (default: 5)",
    )
    chaos.add_argument(
        "--write-paths",
        nargs="+",
        choices=[member.value for member in WritePath],
        default=[member.value for member in WritePath],
        help="write paths to campaign over (default: all)",
    )
    chaos.add_argument(
        "--presto",
        choices=["off", "on", "both"],
        default="both",
        help="NVRAM accelerator arms to run (default: both)",
    )
    chaos.add_argument(
        "--file-kb", type=int, default=192, help="per-file workload size (default: 192)"
    )
    chaos.add_argument("--json", action="store_true", help="emit the full report as JSON")

    sweep_cmd = subparsers.add_parser("sweep", help="sweep one parameter of a file-copy")
    sweep_cmd.add_argument("field", help="TestbedConfig field, or interval_ms / presto_mb")
    sweep_cmd.add_argument("values", nargs="+", help="values to sweep")
    sweep_cmd.add_argument("--net", choices=sorted(NETWORKS), default="fddi")
    _add_write_path_options(sweep_cmd)
    sweep_cmd.add_argument("--biods", type=int, default=7)
    sweep_cmd.add_argument("--file-mb", type=float, default=4.0)
    _add_net_fault_options(sweep_cmd)
    sweep_cmd.add_argument("--json", action="store_true", help="emit results as JSON")

    cluster_cmd = subparsers.add_parser(
        "cluster",
        help="run the sharded server fleet (repro.cluster)",
        description=(
            "Stand up N independent NFS servers behind a consistent-hash "
            "shard map and a client-side mount router, run a seeded "
            "multi-client write workload, and verify the cluster-wide "
            "crash contract.  Multiple --servers or --clients values run "
            "a scaling sweep with a per-cell efficiency table.  Exits 1 "
            "on any oracle violation."
        ),
    )
    cluster_cmd.add_argument(
        "--servers",
        type=int,
        nargs="+",
        default=[2],
        help="fleet size(s); more than one value runs a sweep (default: 2)",
    )
    cluster_cmd.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=[4],
        help="client count(s); more than one value runs a sweep (default: 4)",
    )
    cluster_cmd.add_argument(
        "--vnodes", type=int, default=64, help="virtual nodes per server (default: 64)"
    )
    cluster_cmd.add_argument(
        "--racks", type=int, default=1, help="network segments (default: 1)"
    )
    cluster_cmd.add_argument("--net", choices=sorted(NETWORKS), default="fddi")
    _add_write_path_options(cluster_cmd)
    cluster_cmd.add_argument("--presto", action="store_true", help="NVRAM on every shard")
    cluster_cmd.add_argument("--biods", type=int, default=4)
    cluster_cmd.add_argument("--nfsds", type=int, default=8)
    cluster_cmd.add_argument(
        "--file-kb", type=int, default=64, help="size of each written file (default: 64)"
    )
    cluster_cmd.add_argument(
        "--files", type=int, default=2, help="files written per client (default: 2)"
    )
    cluster_cmd.add_argument("--seed", type=int, default=0)
    cluster_cmd.add_argument(
        "--crash-shard",
        type=int,
        default=None,
        help="crash this shard index mid-run (single-cell runs only)",
    )
    cluster_cmd.add_argument(
        "--crash-at", type=float, default=0.05, help="crash time in seconds (default: 0.05)"
    )
    cluster_cmd.add_argument(
        "--outage",
        type=float,
        default=0.0,
        help="seconds the crashed shard stays partitioned (default: 0)",
    )
    cluster_cmd.add_argument(
        "--redirect",
        action="store_true",
        help="drop the crashed shard from the mount map during the outage",
    )
    cluster_cmd.add_argument("--json", action="store_true", help="emit the result as JSON")

    overload = subparsers.add_parser(
        "overload",
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
    )
    overload.add_argument("--seed", type=int, default=0, help="sweep seed (default: 0)")
    overload.add_argument(
        "--write-paths",
        nargs="+",
        choices=[member.value for member in WritePath],
        default=[member.value for member in WritePath],
        help="write paths to sweep (default: all)",
    )
    overload.add_argument(
        "--presto",
        choices=["off", "on", "both"],
        default="both",
        help="NVRAM accelerator arms to run (default: both)",
    )
    overload.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        metavar="KBS",
        help="per-client offered rates in KB/s, ascending "
        "(default: 3.9 7.8 15.6 46.9 156.2 468.8)",
    )
    overload.add_argument(
        "--clients", type=int, default=12, help="fleet size (default: 12)"
    )
    overload.add_argument(
        "--duration",
        type=float,
        default=5.0,
        help="measured window per point, seconds (default: 5)",
    )
    overload.add_argument(
        "--no-adapt",
        action="store_true",
        help="run only the static (no-adaptation) curve",
    )
    overload.add_argument(
        "--adapt-only",
        action="store_true",
        help="run only the adaptive curve",
    )
    overload.add_argument("--json", action="store_true", help="emit the full report as JSON")

    bench = subparsers.add_parser(
        "bench",
        help="run the perf-baseline grid and emit BENCH_<n>.json",
        description=(
            "One seeded file copy per cell of standard/gather/siva x "
            "Presto off/on, reporting throughput, p50/p99 write latency, "
            "and disk writes per MB.  CI uploads the JSON as an artifact "
            "so perf-affecting PRs have a baseline to diff against."
        ),
    )
    bench.add_argument("--net", choices=sorted(NETWORKS), default="fddi")
    bench.add_argument("--file-mb", type=float, default=2.0, help="copy size (default: 2)")
    bench.add_argument("--biods", type=int, default=7)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the canonical JSON to this file (e.g. BENCH_1.json)",
    )
    bench.add_argument("--json", action="store_true", help="print the report as JSON")

    replica = subparsers.add_parser(
        "replica",
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
    )
    replica.add_argument(
        "--servers", type=int, default=3, help="shard count (default: 3)"
    )
    replica.add_argument(
        "--clients", type=int, default=6, help="client count (default: 6)"
    )
    replica.add_argument(
        "--replicas",
        type=int,
        nargs="+",
        default=[0, 1, 2],
        metavar="K",
        help="backups per shard; each value is one arm (default: 0 1 2)",
    )
    replica.add_argument(
        "--quorum",
        type=int,
        default=1,
        help="backup acks required before a write is acked (default: 1)",
    )
    replica.add_argument(
        "--files", type=int, default=2, help="files written per client (default: 2)"
    )
    replica.add_argument(
        "--file-kb", type=int, default=64, help="size of each written file (default: 64)"
    )
    replica.add_argument(
        "--crashes",
        type=int,
        default=3,
        help="primary kills in the storm, round-robin over shards (default: 3)",
    )
    replica.add_argument("--net", choices=sorted(NETWORKS), default="fddi")
    replica.add_argument("--seed", type=int, default=0)
    replica.add_argument("--json", action="store_true", help="emit the result as JSON")

    cache = subparsers.add_parser(
        "cache",
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
    )
    cache.add_argument("--seed", type=int, default=0, help="sweep seed (default: 0)")
    cache.add_argument(
        "--ttls",
        type=float,
        nargs="+",
        default=None,
        metavar="SEC",
        help="lease TTL axis in seconds (default: 1 5 30; must include "
        "the headline TTL)",
    )
    cache.add_argument(
        "--sharing",
        type=float,
        nargs="+",
        default=None,
        metavar="RATIO",
        help="shared-read fractions in [0,1] (default: 0.25 0.5 0.9; "
        "must include the headline ratio)",
    )
    cache.add_argument(
        "--clients", type=int, default=4, help="fleet size (default: 4)"
    )
    cache.add_argument(
        "--ops", type=int, default=30, help="operations per client (default: 30)"
    )
    cache.add_argument(
        "--no-chaos",
        action="store_true",
        help="skip the chaos probes (sweep and workload profiles only)",
    )
    cache.add_argument("--json", action="store_true", help="emit the full report as JSON")

    commit_cmd = subparsers.add_parser(
        "commit",
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
    )
    commit_cmd.add_argument("--seed", type=int, default=0)
    commit_cmd.add_argument(
        "--file-mb",
        type=float,
        default=1.0,
        help="bench copy size in MB (default: 1.0)",
    )
    commit_cmd.add_argument(
        "--biods", type=int, default=7, help="client write-behind depth (default: 7)"
    )
    commit_cmd.add_argument(
        "--no-chaos",
        action="store_true",
        help="skip the verifier-lifecycle chaos probes",
    )
    commit_cmd.add_argument(
        "--out", help="also write the canonical JSON report to this file"
    )
    commit_cmd.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )

    scrub_cmd = subparsers.add_parser(
        "scrub",
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
    )
    scrub_cmd.add_argument("--seed", type=int, default=0)
    scrub_cmd.add_argument(
        "--clients", type=int, default=3, help="client hosts (default: 3)"
    )
    scrub_cmd.add_argument(
        "--files-per-client", type=int, default=2, help="files each (default: 2)"
    )
    scrub_cmd.add_argument(
        "--file-kb", type=int, default=32, help="file size in KB (default: 32)"
    )
    scrub_cmd.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.25],
        metavar="R",
        help="corruption rates to sweep, fraction of durable blocks "
        "afflicted per media fault (default: 0.25)",
    )
    scrub_cmd.add_argument(
        "--bandwidths",
        type=float,
        nargs="+",
        default=[2 << 20, 8 << 20],
        metavar="BPS",
        help="scrub read bandwidths in bytes/sec (default: 2MiB 8MiB)",
    )
    scrub_cmd.add_argument(
        "--replicas",
        type=int,
        nargs="+",
        default=[0, 1],
        metavar="K",
        help="replication factors to sweep (default: 0 1)",
    )
    scrub_cmd.add_argument(
        "--out", help="also write the canonical JSON report to this file"
    )
    scrub_cmd.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )

    tiering_cmd = subparsers.add_parser(
        "tiering",
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
    )
    tiering_cmd.add_argument("--seed", type=int, default=0)
    tiering_cmd.add_argument(
        "--tenants", type=int, default=6, help="tenant clients (default: 6)"
    )
    tiering_cmd.add_argument(
        "--files-per-tenant", type=int, default=4, help="files each (default: 4)"
    )
    tiering_cmd.add_argument(
        "--ops", type=int, default=48, help="appends per tenant (default: 48)"
    )
    tiering_cmd.add_argument(
        "--skew",
        type=float,
        default=1.1,
        help="per-tenant Zipf skew; 0 = uniform (default: 1.1)",
    )
    tiering_cmd.add_argument(
        "--policies",
        nargs="+",
        default=None,
        metavar="POLICY",
        help="placement policies to sweep (default: hash mfs least-load "
        "hot-first)",
    )
    tiering_cmd.add_argument(
        "--out", help="also write the canonical JSON report to this file"
    )
    tiering_cmd.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    return parser


def _print_line(line: str) -> None:
    print(f"  {line}")


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


def _run_laddis(args, kwargs) -> dict:
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


def _run_claims(args, kwargs) -> list:
    rows = [
        ("FDDI @7 biods, standard", TestbedConfig(netspec=FDDI, write_path="standard", nbiods=7)),
        ("FDDI @7 biods, gathering", TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7)),
        ("Ethernet @0 biods, standard", TestbedConfig(netspec=ETHERNET, write_path="standard", nbiods=0)),
        ("Ethernet @0 biods, gathering", TestbedConfig(netspec=ETHERNET, write_path="gather", nbiods=0)),
        (
            "Eth+Presto @7 biods, standard",
            TestbedConfig(netspec=ETHERNET, write_path="standard", nbiods=7, presto_bytes=1 << 20),
        ),
        (
            "Eth+Presto @7 biods, gathering",
            TestbedConfig(netspec=ETHERNET, write_path="gather", nbiods=7, presto_bytes=1 << 20),
        ),
    ]
    return [(label, run("copy", config, file_mb=2)) for label, config in rows]


def _render_claims(args, rows) -> None:
    for label, metrics in rows:
        print(
            f"  {label:<32} {metrics.client_kb_per_sec:7.0f} KB/s  "
            f"cpu {metrics.server_cpu_pct:4.1f}%  disk {metrics.disk_trans_per_sec:5.1f} t/s"
        )


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _sweep_arguments(args) -> dict:
    if args.field not in sweepable_fields():
        raise ValueError(
            f"unknown field {args.field!r}; choose from "
            f"{', '.join(sorted(sweepable_fields()))}"
        )
    return {
        "base": _config_from_args(args),
        "field": args.field,
        "values": [_parse_value(v) for v in args.values],
        "file_mb": args.file_mb,
    }


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


def _bench_progress(cell) -> None:
    presto = "presto" if cell["presto"] else "plain "
    print(
        f"  {cell['write_path']:<8} {presto} "
        f"{cell['client_kb_per_sec']:>8.1f} KB/s  "
        f"p50 {cell['write_latency_ms']['p50']:>7.2f} ms  "
        f"p99 {cell['write_latency_ms']['p99']:>7.2f} ms  "
        f"{cell['disk_writes_per_mb']:>6.1f} dw/MB"
    )


# -- the subsystem kinds --------------------------------------------------------


def _chaos_arguments(args) -> dict:
    from repro.faults.campaign import ChaosCampaign

    return {
        "config": ChaosCampaign(
            seed=args.seed,
            plans_per_combo=args.plans,
            write_paths=args.write_paths,
            presto_modes=_PRESTO_MODES[args.presto],
            file_kb=args.file_kb,
        )
    }


def _chaos_progress(result) -> None:
    presto = "presto" if result.presto else "plain "
    status = "ok" if result.clean else "VIOLATION"
    print(
        f"  {result.plan.name:<24} {presto} "
        f"acked={result.acked_writes:<4} crashes={result.crashes} "
        f"retrans={result.retransmissions:<3} {status}"
    )


def _render_chaos(args, report) -> None:
    summary = report.to_dict()
    print(
        f"ran {summary['plans_run']} plans: "
        f"{summary['total_acked_writes']} acked writes, "
        f"{summary['total_crashes']} crashes, "
        f"{summary['total_retransmissions']} retransmissions"
    )
    _print_verdict(report, "crash")


def _overload_arguments(args) -> dict:
    from repro.overload import MODES, OverloadConfig

    if args.no_adapt and args.adapt_only:
        raise ValueError("--no-adapt and --adapt-only are mutually exclusive")
    modes = MODES
    if args.no_adapt:
        modes = ("static",)
    elif args.adapt_only:
        modes = ("adaptive",)
    loads = {}
    if args.loads is not None:
        loads["loads"] = tuple(int(round(kb * 1024)) for kb in args.loads)
    return {
        "config": OverloadConfig(
            seed=args.seed,
            write_paths=tuple(args.write_paths),
            presto_modes=_PRESTO_MODES[args.presto],
            modes=modes,
            clients=args.clients,
            duration=args.duration,
            **loads,
        )
    }


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


def _cluster_arguments(args) -> dict:
    from repro.cluster import ClusterConfig, ShardCrash
    from repro.cluster.experiment import check_clients

    write_path = _resolve_write_path(args)
    for clients in args.clients:
        check_clients(clients)
    config = ClusterConfig(
        servers=args.servers[0],
        vnodes=args.vnodes,
        racks=args.racks,
        netspec=NETWORKS[args.net],
        write_path=write_path,
        nbiods=args.biods,
        nfsds=args.nfsds,
        presto_bytes=(1 << 20) if args.presto else None,
        seed=args.seed,
    )
    workload = {"files_per_client": args.files, "file_kb": args.file_kb}
    if _cluster_sweep_mode(args):
        if args.crash_shard is not None:
            raise ValueError("--crash-shard only applies to single-cell runs")
        return {
            "base": config,
            "server_counts": args.servers,
            "client_counts": args.clients,
            **workload,
        }
    crashes = None
    if args.crash_shard is not None:
        crashes = [
            ShardCrash(
                at=args.crash_at,
                shard=args.crash_shard,
                outage=args.outage,
                redirect=args.redirect,
            )
        ]
    return {"config": config, "clients": args.clients[0], "crashes": crashes, **workload}


def _run_cluster(args, kwargs):
    if _cluster_sweep_mode(args):
        from repro.cluster.experiment import run_scaling_sweep

        return run_scaling_sweep(**kwargs)
    kwargs.pop("progress", None)  # one cell has no per-cell progress
    return run("cluster", **kwargs)


def _cluster_progress(row) -> None:
    print(
        f"  ran {row.servers} servers x {row.clients} clients: "
        f"{row.aggregate_kb_per_sec:.0f} KB/s"
    )


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


def _replica_arguments(args) -> dict:
    from repro.cluster import ClusterConfig
    from repro.cluster.experiment import check_clients

    check_clients(args.clients)
    return {
        "config": ClusterConfig(
            servers=args.servers,
            netspec=NETWORKS[args.net],
            write_path=WritePath.GATHER,
            quorum=args.quorum,
            seed=args.seed,
        ),
        "replica_counts": args.replicas,
        "clients": args.clients,
        "files_per_client": args.files,
        "file_kb": args.file_kb,
        "storm_crashes": args.crashes,
    }


def _replica_progress(arm) -> None:
    print(
        f"  K={arm.replicas} quorum={arm.quorum}: "
        f"{arm.aggregate_kb_per_sec:>8.0f} KB/s  "
        f"p50 {arm.write_latency_ms['p50']:>7.2f} ms  "
        f"p99 {arm.write_latency_ms['p99']:>7.2f} ms  "
        f"{arm.crashes} crashes, {arm.promotions} promotions, "
        f"{'clean' if arm.clean else 'VIOLATIONS'}"
    )


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


def _cache_arguments(args) -> dict:
    from repro.lease.experiment import CacheConfig

    axes = {}
    if args.ttls is not None:
        axes["lease_ttls"] = tuple(args.ttls)
    if args.sharing is not None:
        axes["sharing_ratios"] = tuple(args.sharing)
    return {
        "config": CacheConfig(
            seed=args.seed,
            clients=args.clients,
            ops_per_client=args.ops,
            chaos=not args.no_chaos,
            **axes,
        )
    }


def _cache_header(args, kwargs) -> str:
    config = kwargs["config"]
    ttls = ", ".join(f"{t:g}" for t in config.lease_ttls)
    ratios = ", ".join(f"{s:g}" for s in config.sharing_ratios)
    return (
        f"cache sweep: seed={config.seed}, {config.clients} clients, "
        f"TTLs [{ttls}] s x sharing [{ratios}]"
    )


def _render_cache(args, report) -> None:
    config = report.config
    cell = report.headline
    if cell is not None:
        verdict = "meets" if report.meets_target else "MISSES"
        print(
            f"  headline (ttl={config.headline_ttl:g}s, "
            f"sharing={config.headline_sharing:g}): "
            f"x{cell['reduction']:g} reduction — {verdict} the "
            f"x{config.min_reduction:g} target"
        )
    _print_verdict(report, "staleness", "  ")


def _commit_arguments(args) -> dict:
    from repro.commit.experiment import CommitConfig

    return {
        "config": CommitConfig(
            seed=args.seed,
            file_mb=args.file_mb,
            biods=args.biods,
            chaos=not args.no_chaos,
        )
    }


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


def _scrub_arguments(args) -> dict:
    from repro.integrity.experiment import ScrubConfig

    return {
        "config": ScrubConfig(
            seed=args.seed,
            clients=args.clients,
            files_per_client=args.files_per_client,
            file_kb=args.file_kb,
            corruption_rates=tuple(args.rates),
            scrub_bandwidths=tuple(args.bandwidths),
            replica_counts=tuple(args.replicas),
        )
    }


def _scrub_header(args, kwargs) -> str:
    config = kwargs["config"]
    return (
        f"scrub: {config.clients} clients x {config.files_per_client} "
        f"files x {config.file_kb} KB, seed {config.seed}"
    )


def _scrub_progress(arm) -> None:
    healed = (
        f"{arm.repairs} repaired"
        if arm.replicas
        else f"{arm.quarantines} quarantined, {arm.eio_reads} EIO"
    )
    print(
        f"  K={arm.replicas} rate={arm.corruption_rate} "
        f"bw={arm.scrub_bandwidth / (1 << 20):.0f}MiB/s: "
        f"{arm.detections} detected, {healed}, "
        f"{arm.silent_read_corruptions} silent "
        f"[{'clean' if arm.clean else 'DIRTY'}]"
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


def _tiering_arguments(args) -> dict:
    from repro.tiering.experiment import POLICY_NAMES, TieringConfig

    return {
        "config": TieringConfig(
            seed=args.seed,
            tenants=args.tenants,
            files_per_tenant=args.files_per_tenant,
            ops_per_tenant=args.ops,
            skew=args.skew,
            policies=tuple(args.policies) if args.policies else POLICY_NAMES,
        )
    }


def _tiering_header(args, kwargs) -> str:
    config = kwargs["config"]
    return (
        f"tiering: {config.tenants} tenants x {config.files_per_tenant} "
        f"files x {config.ops_per_tenant} appends, skew {config.skew}, "
        f"seed {config.seed}"
    )


def _tiering_progress(arm) -> None:
    if isinstance(arm, dict):  # the storm report
        print(
            f"  storm: {arm['completed']}/{arm['started']} migrations, "
            f"{arm['crashes']} crashes, {arm['promotions']} promotions "
            f"[{'clean' if arm['clean'] else 'DIRTY'}]"
        )
        return
    latency = arm.write_latency_ms
    print(
        f"  {arm.fleet:<8} {arm.policy:<10} "
        f"p50 {latency['p50']:>8.2f} ms  p99 {latency['p99']:>8.2f} ms  "
        f"{arm.placement['files_by_tier']} "
        f"[{'clean' if arm.clean else 'DIRTY'}]"
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

    #: args -> the driver's keyword arguments; a ValueError is a usage error.
    arguments: Callable = lambda args: {}
    #: (args, report) -> None: the text-mode output after the run.
    render: Optional[Callable] = None
    #: (args, kwargs) -> the line printed before the run (text mode only).
    header: Optional[Callable] = None
    #: Handed to the driver as ``progress`` (text mode only).
    progress: Optional[Callable] = None
    #: (args, report) -> the document ``--json`` prints and ``--out`` writes.
    payload: Callable = lambda args, report: report.to_dict()
    #: (args, kwargs) -> report, for subcommands that are not one
    #: ``run(<command>, **kwargs)`` call.
    execute: Optional[Callable] = None


_COMMANDS = {
    "table": _Command(
        arguments=lambda args: {"number": args.number, "file_mb": args.file_mb},
        render=_render_table,
        payload=lambda args, result: table_to_dict(result),
    ),
    "copy": _Command(
        arguments=lambda args: {
            "config": _config_from_args(args, tracing=args.json),
            "file_mb": args.file_mb,
        },
        render=_render_copy,
        payload=lambda args, metrics: metrics.to_json(),
    ),
    "trace": _Command(render=_render_trace),
    "laddis": _Command(
        arguments=lambda args: {
            "presto": args.presto,
            "loads": args.loads,
            "duration": args.duration,
            "loss_rate": args.loss_rate,
            "net_seed": args.net_seed,
        },
        execute=_run_laddis,
        render=_render_laddis,
    ),
    "claims": _Command(
        header=lambda args, kwargs: (
            "Headline results (2 MB copies for speed; benches run full scale):"
        ),
        execute=_run_claims,
        render=_render_claims,
    ),
    "chaos": _Command(
        arguments=_chaos_arguments,
        header=lambda args, kwargs: (
            f"chaos campaign: seed={args.seed}, {args.plans} plans x "
            f"{len(kwargs['config'].combos())} combos, {args.file_kb} KB files"
        ),
        progress=_chaos_progress,
        render=_render_chaos,
    ),
    "overload": _Command(
        arguments=_overload_arguments,
        header=_overload_header,
        progress=_print_line,
        render=_render_overload,
    ),
    "sweep": _Command(
        arguments=_sweep_arguments, render=_render_sweep, payload=_sweep_payload
    ),
    "cluster": _Command(
        arguments=_cluster_arguments,
        execute=_run_cluster,
        progress=_cluster_progress,
        render=_render_cluster,
    ),
    "replica": _Command(
        arguments=_replica_arguments,
        header=lambda args, kwargs: (
            f"replica: {args.servers} shards x {args.clients} clients, "
            f"{args.crashes}-crash storm, seed {args.seed}"
        ),
        progress=_replica_progress,
        render=_render_replica,
    ),
    "bench": _Command(
        arguments=lambda args: {
            "netspec": NETWORKS[args.net],
            "file_mb": args.file_mb,
            "biods": args.biods,
            "seed": args.seed,
        },
        header=lambda args, kwargs: (
            f"bench: {args.net}, {args.file_mb} MB copy, {args.biods} biods, "
            f"seed {args.seed}"
        ),
        progress=_bench_progress,
        payload=lambda args, report: report,
    ),
    "cache": _Command(
        arguments=_cache_arguments,
        header=_cache_header,
        progress=_print_line,
        render=_render_cache,
    ),
    "commit": _Command(
        arguments=_commit_arguments,
        header=_commit_header,
        progress=_print_line,
        render=_render_commit,
    ),
    "scrub": _Command(
        arguments=_scrub_arguments,
        header=_scrub_header,
        progress=_scrub_progress,
        render=_render_scrub,
    ),
    "tiering": _Command(
        arguments=_tiering_arguments,
        header=_tiering_header,
        progress=_tiering_progress,
        render=_render_tiering,
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    as_json = getattr(args, "json", False)
    try:
        kwargs = command.arguments(args)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    if not as_json:
        if command.header is not None:
            print(command.header(args, kwargs))
        if command.progress is not None:
            kwargs["progress"] = command.progress
    if command.execute is not None:
        report = command.execute(args, kwargs)
    else:
        report = run(args.command, **kwargs)
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
