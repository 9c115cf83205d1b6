"""The unified ``run(ExperimentSpec)`` front door and its deprecation shims."""

import pytest

from repro.cluster.fleet import ClusterConfig
from repro.experiments import ExperimentSpec, run
from repro.payload import PAYLOAD_FLYWEIGHT, PAYLOAD_FULL


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentSpec(kind="bogus")

    def test_new_kinds_accepted(self):
        for kind in ("bench", "chaos", "cluster", "overload", "replica"):
            spec = ExperimentSpec(kind=kind)
            assert spec.kind == kind

    def test_payload_defaults_per_kind(self):
        assert ExperimentSpec(kind="bench").payload == PAYLOAD_FLYWEIGHT
        assert ExperimentSpec(kind="chaos").payload == PAYLOAD_FULL
        assert ExperimentSpec(kind="replica").payload == PAYLOAD_FULL

    def test_file_kb_defaults_per_kind(self):
        assert ExperimentSpec(kind="trace").file_kb == 256
        assert ExperimentSpec(kind="chaos").file_kb == 192
        assert ExperimentSpec(kind="cluster").file_kb == 64
        assert ExperimentSpec(kind="cluster", file_kb=128).file_kb == 128

    def test_cluster_and_replica_require_config(self):
        with pytest.raises(ValueError, match="ClusterConfig"):
            run(ExperimentSpec(kind="cluster"))
        with pytest.raises(ValueError, match="ClusterConfig"):
            run(ExperimentSpec(kind="replica"))


class TestFacadeKinds:
    def test_bench_kind(self):
        report = run(ExperimentSpec(kind="bench", file_mb=0.125))
        assert report["schema"] == "repro.bench/1"
        assert report["payload"] == PAYLOAD_FLYWEIGHT
        assert len(report["cells"]) == 8

    def test_chaos_kind(self):
        report = run(
            ExperimentSpec(
                kind="chaos", plans=1, write_paths=("standard",),
                presto_modes=(False,), file_kb=64,
            )
        )
        assert len(report.results) == 1
        assert report.clean, report.violations

    def test_cluster_kind_single_cell(self):
        result = run(
            ExperimentSpec(
                kind="cluster", config=ClusterConfig(servers=2, seed=0),
                clients=2, files_per_client=1, file_kb=32,
            )
        )
        assert result.servers == 2
        assert result.clean, result.violations

    def test_cluster_kind_sweep(self):
        sweep = run(
            ExperimentSpec(
                kind="cluster", config=ClusterConfig(servers=1, seed=0),
                server_counts=[1, 2], client_counts=[2],
                files_per_client=1, file_kb=32,
            )
        )
        assert [row.servers for row in sweep.rows] == [1, 2]
        assert sweep.clean

    def test_replica_kind(self):
        result = run(
            ExperimentSpec(
                kind="replica", config=ClusterConfig(servers=2, seed=0),
                replica_counts=(0,), clients=2, files_per_client=1,
                file_kb=32, storm_crashes=1,
            )
        )
        assert [arm.replicas for arm in result.arms] == [0]
        assert result.clean

    def test_overload_kind(self):
        from repro.overload.experiment import OverloadConfig

        report = run(
            ExperimentSpec(
                kind="overload",
                config=OverloadConfig(
                    write_paths=("standard",), presto_modes=(False,),
                    modes=("adaptive",), clients=2, duration=0.5,
                    loads=(16000, 48000),
                ),
            )
        )
        assert len(report.combos) == 1
