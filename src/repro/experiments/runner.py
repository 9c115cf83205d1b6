"""One front door for the experiment drivers: ``run(ExperimentSpec)``.

The individual drivers (:func:`~repro.experiments.filecopy.run_filecopy`,
:func:`~repro.experiments.tables.run_table`,
:func:`~repro.experiments.laddis_curves.run_curve`,
:func:`~repro.experiments.sweep.sweep`,
:func:`~repro.experiments.trace.figure1`) remain importable, but callers —
the CLI above all — describe *what* to run with an :class:`ExperimentSpec`
and let :func:`run` dispatch::

    from repro.experiments import ExperimentSpec, run
    metrics = run(ExperimentSpec(kind="copy",
                                 config=TestbedConfig(write_path="gather")))

Every experiment in the repo goes through this door.  The kinds:

======== ==================================================== =====================
kind     drives                                               returns
======== ==================================================== =====================
copy     one file-copy cell                                   FileCopyMetrics
table    one of the paper's Tables 1-6                        TableResult
curve    a Figure 2/3 LADDIS load curve                       LaddisCurve
sweep    one TestbedConfig field over several values          list of FileCopyMetrics
trace    the Figure 1 timelines                               dict
bench    the perf-baseline grid (BENCH_<n>.json)              dict
chaos    a seeded fault-injection campaign                    CampaignReport
cluster  the sharded fleet (single cell or scaling sweep)     ClusterRunResult /
                                                              ScalingSweepResult
overload the goodput-vs-load sweep past saturation            OverloadReport
replica  the K-replication cost + promote-storm sweep         ReplicaRunResult
cache    the lease-cache TTL × sharing sweep + chaos probes   CacheReport
commit   the async WRITE+COMMIT three-way comparison + probes CommitReport
scrub    the integrity sweep: corruption × bandwidth × K      ScrubRunResult
tiering  the placement-policy sweep + migration storm         TieringRunResult
======== ==================================================== =====================

This is the only entry point: the old per-subsystem ones are gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.experiments.filecopy import run_filecopy
from repro.experiments.laddis_curves import run_curve
from repro.experiments.sweep import sweep
from repro.experiments.tables import run_table
from repro.experiments.trace import figure1
from repro.payload import PAYLOAD_FLYWEIGHT, PAYLOAD_FULL, coerce_payload_mode
from repro.server.config import WritePath

__all__ = ["ExperimentSpec", "run", "EXPERIMENT_KINDS"]

EXPERIMENT_KINDS = (
    "copy",
    "table",
    "curve",
    "sweep",
    "trace",
    "bench",
    "chaos",
    "cluster",
    "overload",
    "replica",
    "cache",
    "commit",
    "scrub",
    "tiering",
)

#: Per-kind workload-size defaults for :attr:`ExperimentSpec.file_kb`.
_FILE_KB_DEFAULTS = {"chaos": 192, "cluster": 64, "replica": 64}

#: Per-kind payload-fidelity defaults (:mod:`repro.payload`): the bench
#: grid needs no byte fidelity, everything else keeps full bytes.
_PAYLOAD_DEFAULTS = {"bench": PAYLOAD_FLYWEIGHT}


@dataclass
class ExperimentSpec:
    """A declarative description of one experiment run.

    ``kind`` selects the driver; the other fields parameterize it.  Fields
    irrelevant to the chosen kind are ignored:

    * ``copy``     — ``config`` (required), ``file_mb``, ``think_time``
    * ``table``    — ``table`` (required, 1-6), ``file_mb``
    * ``curve``    — ``write_path``, ``presto``, ``loads``, ``duration``
    * ``sweep``    — ``config`` (required), ``sweep_field`` (required),
      ``values`` (required), ``file_mb``
    * ``trace``    — ``file_kb``
    * ``bench``    — ``net``, ``file_mb``, ``biods``, ``seed``,
      ``payload`` (default flyweight), ``progress``
    * ``chaos``    — ``seed``, ``plans``, ``write_paths``,
      ``presto_modes``, ``file_kb``, ``payload``, ``progress``
    * ``cluster``  — ``config`` (required, a
      :class:`~repro.cluster.fleet.ClusterConfig`), ``clients``,
      ``files_per_client``, ``file_kb``, ``crashes``, ``payload``;
      ``server_counts``/``client_counts`` switch to the scaling sweep
    * ``overload`` — ``config`` (an
      :class:`~repro.overload.experiment.OverloadConfig`; defaults to
      ``OverloadConfig(seed=spec.seed)``), ``progress``
    * ``replica``  — ``config`` (required, a ClusterConfig),
      ``replica_counts``, ``clients``, ``files_per_client``, ``file_kb``,
      ``storm_crashes``, ``payload``, ``progress``
    * ``cache``    — ``config`` (a
      :class:`~repro.lease.experiment.CacheConfig`; defaults to
      ``CacheConfig(seed=spec.seed)``), ``progress``
    * ``commit``   — ``config`` (a
      :class:`~repro.commit.experiment.CommitConfig`; defaults to
      ``CommitConfig(seed=spec.seed)``), ``progress``
    * ``scrub``    — ``config`` (a
      :class:`~repro.integrity.experiment.ScrubConfig`; defaults to
      ``ScrubConfig(seed=spec.seed)``), ``progress``
    * ``tiering``  — ``config`` (a
      :class:`~repro.tiering.experiment.TieringConfig`; defaults to
      ``TieringConfig(seed=spec.seed, skew=spec.skew)``), ``skew``,
      ``progress``
    """

    kind: str
    #: TestbedConfig for copy/sweep, ClusterConfig for cluster/replica,
    #: OverloadConfig for overload.
    config: Optional[object] = None
    file_mb: float = 10.0
    think_time: float = 0.0005
    table: Optional[int] = None
    write_path: Union[WritePath, str] = WritePath.STANDARD
    presto: bool = False
    loads: Sequence[float] = (150.0, 300.0, 450.0, 550.0, 650.0)
    duration: float = 3.0
    sweep_field: str = ""
    values: Sequence = field(default_factory=tuple)
    #: Workload size; None picks the kind's default (trace 256, chaos 192,
    #: cluster/replica 64).
    file_kb: Optional[int] = None
    #: Network fault knobs for kind="curve" (the other kinds carry them in
    #: ``config``): per-frame loss probability and segment RNG seed.
    loss_rate: float = 0.0
    net_seed: Optional[int] = None
    # -- fields for the bench/chaos/cluster/overload/replica kinds --------
    seed: int = 0
    net: str = "fddi"
    biods: int = 7
    #: Payload fidelity (:mod:`repro.payload`); None picks the kind's
    #: default ("flyweight" for bench, "full" everywhere else).
    payload: Optional[str] = None
    #: Optional per-result callback (CLI progress lines).
    progress: Optional[Callable] = None
    plans: int = 5
    write_paths: Optional[Sequence[str]] = None
    presto_modes: Sequence[bool] = (False, True)
    clients: int = 4
    files_per_client: int = 2
    #: ShardCrash list for a single-cell cluster run.
    crashes: Optional[Sequence] = None
    server_counts: Optional[Sequence[int]] = None
    client_counts: Optional[Sequence[int]] = None
    replica_counts: Sequence[int] = (0, 1, 2)
    storm_crashes: int = 3
    #: Per-tenant Zipf skew for kind="tiering" (ignored when a
    #: TieringConfig is passed explicitly).
    skew: float = 1.1

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; "
                f"expected one of {', '.join(EXPERIMENT_KINDS)}"
            )
        self.write_path = WritePath.coerce(self.write_path)
        if self.file_kb is None:
            self.file_kb = _FILE_KB_DEFAULTS.get(self.kind, 256)
        if self.payload is None:
            self.payload = _PAYLOAD_DEFAULTS.get(self.kind, PAYLOAD_FULL)
        self.payload = coerce_payload_mode(self.payload)


def _netspec(name: str):
    from repro.net import ETHERNET, FDDI

    networks = {"ethernet": ETHERNET, "fddi": FDDI}
    if name not in networks:
        raise ValueError(
            f"unknown network {name!r}; expected one of {', '.join(sorted(networks))}"
        )
    return networks[name]


def run(spec: ExperimentSpec):
    """Run the experiment ``spec`` describes; returns the driver's result.

    See the module docstring for the kind → driver → return-type table.
    Subsystem modules are imported lazily, so ``run(ExperimentSpec(
    kind="copy", ...))`` never pays for the cluster/overload stacks.
    """
    if spec.kind == "copy":
        if spec.config is None:
            raise ValueError("kind='copy' needs spec.config")
        return run_filecopy(spec.config, file_mb=spec.file_mb, think_time=spec.think_time)
    if spec.kind == "table":
        if spec.table is None:
            raise ValueError("kind='table' needs spec.table")
        return run_table(spec.table, file_mb=spec.file_mb)
    if spec.kind == "curve":
        return run_curve(
            str(spec.write_path),
            presto=spec.presto,
            loads=list(spec.loads),
            duration=spec.duration,
            loss_rate=spec.loss_rate,
            net_seed=spec.net_seed,
        )
    if spec.kind == "sweep":
        if spec.config is None or not spec.sweep_field or not spec.values:
            raise ValueError("kind='sweep' needs spec.config, sweep_field, values")
        return sweep(spec.config, spec.sweep_field, list(spec.values), file_mb=spec.file_mb)
    if spec.kind == "bench":
        from repro.experiments.bench import run_bench

        return run_bench(
            _netspec(spec.net),
            spec.net,
            file_mb=spec.file_mb,
            biods=spec.biods,
            seed=spec.seed,
            progress=spec.progress,
            payload=spec.payload,
        )
    if spec.kind == "chaos":
        from repro.faults.campaign import WRITE_PATHS, ChaosCampaign

        campaign = ChaosCampaign(
            seed=spec.seed,
            plans_per_combo=spec.plans,
            write_paths=spec.write_paths or WRITE_PATHS,
            presto_modes=spec.presto_modes,
            file_kb=spec.file_kb,
            progress=spec.progress,
            payload=spec.payload,
        )
        return campaign.execute()
    if spec.kind == "cluster":
        from repro.cluster.experiment import _run_cluster, _run_scaling_sweep

        if spec.config is None:
            raise ValueError("kind='cluster' needs spec.config (a ClusterConfig)")
        if spec.server_counts is not None or spec.client_counts is not None:
            return _run_scaling_sweep(
                spec.config,
                server_counts=spec.server_counts or [spec.config.servers],
                client_counts=spec.client_counts or [spec.clients],
                files_per_client=spec.files_per_client,
                file_kb=spec.file_kb,
                progress=spec.progress,
                payload=spec.payload,
            )
        return _run_cluster(
            spec.config,
            clients=spec.clients,
            files_per_client=spec.files_per_client,
            file_kb=spec.file_kb,
            crashes=spec.crashes,
            payload=spec.payload,
        )
    if spec.kind == "overload":
        from repro.overload.experiment import OverloadConfig, _run_overload

        config = spec.config if spec.config is not None else OverloadConfig(seed=spec.seed)
        return _run_overload(config, progress=spec.progress)
    if spec.kind == "cache":
        from repro.lease.experiment import CacheConfig, _run_cache

        config = spec.config if spec.config is not None else CacheConfig(seed=spec.seed)
        return _run_cache(config, progress=spec.progress)
    if spec.kind == "commit":
        from repro.commit.experiment import CommitConfig, _run_commit

        config = spec.config if spec.config is not None else CommitConfig(seed=spec.seed)
        return _run_commit(config, progress=spec.progress)
    if spec.kind == "scrub":
        from repro.integrity.experiment import ScrubConfig, run_scrub

        config = spec.config if spec.config is not None else ScrubConfig(seed=spec.seed)
        return run_scrub(config, progress=spec.progress)
    if spec.kind == "tiering":
        from repro.tiering.experiment import TieringConfig, run_tiering

        config = (
            spec.config
            if spec.config is not None
            else TieringConfig(seed=spec.seed, skew=spec.skew)
        )
        return run_tiering(config, progress=spec.progress)
    if spec.kind == "replica":
        from repro.replica.experiment import _run_replica

        if spec.config is None:
            raise ValueError("kind='replica' needs spec.config (a ClusterConfig)")
        return _run_replica(
            spec.config,
            replica_counts=spec.replica_counts,
            clients=spec.clients,
            files_per_client=spec.files_per_client,
            file_kb=spec.file_kb,
            storm_crashes=spec.storm_crashes,
            progress=spec.progress,
            payload=spec.payload,
        )
    return figure1(file_kb=spec.file_kb)
