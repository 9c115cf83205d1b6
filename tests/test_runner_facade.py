"""The ``run(kind, ...)`` front door: its kind table, and the CLI defaults
that must agree with the drivers' own."""

import importlib
import inspect
import pickle
import subprocess
import sys

import pytest

from repro.cli import build_parser
from repro.cluster.experiment import run_cluster, run_scaling_sweep
from repro.cluster.fleet import ClusterConfig
from repro.commit.experiment import CommitConfig
from repro.experiments import EXPERIMENT_KINDS, resolve, run
from repro.experiments.bench import run_bench
from repro.experiments.filecopy import run_filecopy
from repro.experiments.laddis_curves import run_curve
from repro.experiments.sweep import sweep
from repro.experiments.tables import run_table
from repro.experiments.trace import figure1
from repro.faults.campaign import ChaosCampaign
from repro.integrity.experiment import ScrubConfig
from repro.lease.experiment import CacheConfig
from repro.overload.experiment import OverloadConfig
from repro.payload import PAYLOAD_FLYWEIGHT
from repro.replica.experiment import run_replica
from repro.tiering.experiment import TieringConfig


def _default(target, name):
    return inspect.signature(target).parameters[name].default


class TestSpecValidation:
    """What ``run`` accepts: a known kind and its driver's own arguments."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run("bogus")

    def test_new_kinds_accepted(self):
        assert EXPERIMENT_KINDS == (
            "copy", "table", "curve", "sweep", "trace", "bench", "chaos",
            "cluster", "overload", "replica", "cache", "commit", "scrub", "tiering",
        )
        for kind in EXPERIMENT_KINDS:
            assert callable(resolve(kind)), kind

    def test_unexpected_keyword_raises_type_error(self):
        with pytest.raises(TypeError):
            run("copy", seed=5)
        with pytest.raises(TypeError):
            run("tiering", skew=9)

    def test_file_kb_defaults_per_kind(self):
        assert _default(figure1, "file_kb") == 256
        assert _default(ChaosCampaign, "file_kb") == 192
        assert _default(run_cluster, "file_kb") == 64
        assert _default(run_replica, "file_kb") == 64

    def test_config_drivers_build_their_default_config(self):
        for kind in ("copy", "chaos", "cluster", "overload", "replica", "cache",
                     "commit", "scrub", "tiering"):
            assert _default(resolve(kind), "config") is None, kind

    def test_copy_imports_no_subsystem_experiment(self):
        # repro.overload's retry and admission classes are part of the
        # rpc/server stack a copy runs; its experiment module is not.  Nor
        # are the cluster's experiment, failover and oracle modules: a
        # testbed is a one-shard fleet, so only the cluster's fleet,
        # router and shard map run.  The CLI imports a subcommand's flag
        # targets only when it parses it.
        for call in (
            "from repro.experiments import run; run('copy', file_mb=0.0625)",
            "import repro.cli; repro.cli.main(['copy', '--file-mb', '0.0625'])",
        ):
            code = (
                f"import sys\n{call}\n"
                "print(sorted(m for m in sys.modules if m.startswith(("
                "'repro.cluster.experiment', 'repro.cluster.failover', "
                "'repro.cluster.oracle', 'repro.tiering', 'repro.overload.experiment', "
                "'repro.replica', 'repro.lease', 'repro.commit', 'repro.faults'))))\n"
            )
            loaded = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True
            ).stdout.splitlines()[-1]
            assert loaded == "[]", call


class TestFacadeKinds:
    def test_bench_kind(self):
        report = run("bench", file_mb=0.125)
        assert report["schema"] == "repro.bench/1"
        assert report["net"] == "fddi"
        assert report["payload"] == PAYLOAD_FLYWEIGHT
        assert len(report["cells"]) == 8

    def test_chaos_kind(self):
        report = run(
            "chaos",
            ChaosCampaign(
                plans_per_combo=1, write_paths=("standard",),
                presto_modes=(False,), file_kb=64,
            ),
        )
        assert len(report.results) == 1
        assert report.clean, report.violations

    def test_cluster_kind_single_cell(self):
        result = run(
            "cluster", ClusterConfig(servers=2, seed=0),
            clients=2, files_per_client=1, file_kb=32,
        )
        assert result.servers == 2
        assert result.clean, result.violations

    def test_cluster_kind_sweep(self):
        # The scaling sweep is the CLI's pick, not a kind of its own.
        sweep_result = run_scaling_sweep(
            ClusterConfig(servers=1, seed=0),
            server_counts=[1, 2], client_counts=[2],
            files_per_client=1, file_kb=32,
        )
        assert [row.servers for row in sweep_result.rows] == [1, 2]
        assert sweep_result.clean

    def test_replica_kind(self):
        result = run(
            "replica", ClusterConfig(servers=2, seed=0),
            replica_counts=(0,), clients=2, files_per_client=1,
            file_kb=32, storm_crashes=1,
        )
        assert [arm.replicas for arm in result.arms] == [0]
        assert result.clean

    def test_overload_kind(self):
        report = run(
            "overload",
            OverloadConfig(
                write_paths=("standard",), presto_modes=(False,),
                modes=("adaptive",), clients=2, duration=0.5,
                loads=(16000, 48000),
            ),
        )
        assert len(report.combos) == 1


#: Every flag whose value passes straight into one driver parameter or one
#: experiment-config field: (subcommand, flag dest) -> (target, name).
#: Left out: flags that translate (--presto, --loads in KB/s, --no-chaos,
#: --no-adapt/--adapt-only, --crash-*), list-valued flags feeding a scalar
#: (cluster --servers/--clients), and TestbedConfig/ClusterConfig hardware
#: fields (--net, --biods, --servers...), where the CLI deliberately picks
#: the paper's FDDI, 7-biod cell over the configs' Ethernet, 4-biod one.
#: ``laddis --loads/--duration`` are a deliberately quick 5-point, 3 s axis;
#: ``run_curve`` defaults to Figure 2/3's 7-point, 4 s one.
_ONE_TO_ONE = {
    ("table", "file_mb"): (run_table, "file_mb"),
    ("copy", "file_mb"): (run_filecopy, "file_mb"),
    ("laddis", "presto"): (run_curve, "presto"),
    ("laddis", "loss_rate"): (run_curve, "loss_rate"),
    ("laddis", "net_seed"): (run_curve, "net_seed"),
    ("sweep", "file_mb"): (sweep, "file_mb"),
    ("bench", "file_mb"): (run_bench, "file_mb"),
    ("bench", "biods"): (run_bench, "biods"),
    ("bench", "seed"): (run_bench, "seed"),
    ("chaos", "seed"): (ChaosCampaign, "seed"),
    ("chaos", "plans"): (ChaosCampaign, "plans_per_combo"),
    ("chaos", "write_paths"): (ChaosCampaign, "write_paths"),
    ("chaos", "file_kb"): (ChaosCampaign, "file_kb"),
    ("cluster", "files"): (run_cluster, "files_per_client"),
    ("cluster", "file_kb"): (run_cluster, "file_kb"),
    ("overload", "seed"): (OverloadConfig, "seed"),
    ("overload", "write_paths"): (OverloadConfig, "write_paths"),
    ("overload", "clients"): (OverloadConfig, "clients"),
    ("overload", "duration"): (OverloadConfig, "duration"),
    ("replica", "clients"): (run_replica, "clients"),
    ("replica", "replicas"): (run_replica, "replica_counts"),
    ("replica", "files"): (run_replica, "files_per_client"),
    ("replica", "file_kb"): (run_replica, "file_kb"),
    ("replica", "crashes"): (run_replica, "storm_crashes"),
    ("cache", "seed"): (CacheConfig, "seed"),
    ("cache", "clients"): (CacheConfig, "clients"),
    ("cache", "ops"): (CacheConfig, "ops_per_client"),
    ("commit", "seed"): (CommitConfig, "seed"),
    ("commit", "file_mb"): (CommitConfig, "file_mb"),
    ("commit", "biods"): (CommitConfig, "biods"),
    ("scrub", "seed"): (ScrubConfig, "seed"),
    ("scrub", "clients"): (ScrubConfig, "clients"),
    ("scrub", "files_per_client"): (ScrubConfig, "files_per_client"),
    ("scrub", "file_kb"): (ScrubConfig, "file_kb"),
    ("scrub", "rates"): (ScrubConfig, "corruption_rates"),
    ("scrub", "bandwidths"): (ScrubConfig, "scrub_bandwidths"),
    ("scrub", "replicas"): (ScrubConfig, "replica_counts"),
    ("tiering", "seed"): (TieringConfig, "seed"),
    ("tiering", "tenants"): (TieringConfig, "tenants"),
    ("tiering", "files_per_tenant"): (TieringConfig, "files_per_tenant"),
    ("tiering", "ops"): (TieringConfig, "ops_per_tenant"),
    ("tiering", "skew"): (TieringConfig, "skew"),
}

_POSITIONALS = {"table": ["1"], "sweep": ["nbiods", "1"]}


def _same(value):
    return tuple(value) if isinstance(value, (list, tuple)) else value


@pytest.mark.parametrize("command,dest", sorted(_ONE_TO_ONE))
def test_cli_default_matches_driver(command, dest):
    args = build_parser().parse_args([command] + _POSITIONALS.get(command, []))
    target, name = _ONE_TO_ONE[(command, dest)]
    assert _same(getattr(args, dest)) == _same(_default(target, name))


#: Every driver module that runs arms, with a tiny run of its driver.
_ARM_DRIVERS = {
    "repro.experiments.tables": lambda: run_table(1, file_mb=0.125),
    "repro.experiments.bench": lambda: run("bench", file_mb=0.125),
    "repro.faults.campaign": lambda: run(
        "chaos", ChaosCampaign(seed=1, plans_per_combo=1, file_kb=64)
    ),
    "repro.cluster.experiment": lambda: run_scaling_sweep(
        ClusterConfig(servers=1, seed=0), server_counts=[1, 2], client_counts=[2],
        files_per_client=1, file_kb=16,
    ),
    "repro.overload.experiment": lambda: run(
        "overload",
        OverloadConfig(
            write_paths=("gather",), presto_modes=(False,), clients=2,
            duration=0.5, loads=(16000,),
        ),
    ),
    "repro.replica.experiment": lambda: run(
        "replica", replica_counts=(1,), clients=2, file_kb=16, storm_crashes=1
    ),
    "repro.lease.experiment": lambda: run(
        "cache", CacheConfig(lease_ttls=(1.0,), sharing_ratios=(0.5,), ops_per_client=5)
    ),
    "repro.commit.experiment": lambda: run(
        "commit", CommitConfig(file_mb=0.125, presto_modes=(False,))
    ),
    "repro.integrity.experiment": lambda: run(
        "scrub", ScrubConfig(scrub_bandwidths=(8 << 20,), replica_counts=(0,))
    ),
    "repro.tiering.experiment": lambda: run("tiering", TieringConfig(ops_per_tenant=8)),
}


@pytest.mark.parametrize("module", sorted(_ARM_DRIVERS))
def test_every_arm_pickles(monkeypatch, module):
    """Each arm's ``run_arm`` and its arms are plain picklable data (a
    module-level function bound with ``functools.partial``, not a
    closure), so the arms could run in worker processes."""
    driver = importlib.import_module(module)
    original = driver.run_arms
    calls = []

    def recording(arms, run_arm, progress=None):
        arms = list(arms)
        pickle.dumps((run_arm, arms))
        calls.append(len(arms))
        return original(arms, run_arm, progress)

    monkeypatch.setattr(driver, "run_arms", recording)
    _ARM_DRIVERS[module]()
    assert calls and all(calls), calls
