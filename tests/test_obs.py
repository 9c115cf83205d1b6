"""Tests for the repro.obs observability layer: spans, registry, exporters."""

import io
import json

import pytest

from repro.experiments import TestbedConfig, run, run_filecopy
from repro.net import FDDI
from repro.obs import (
    NULL_COLLECTOR,
    PHASE_COMMIT,
    PHASE_DISK_IO,
    PHASE_PARKED,
    PHASE_PROCRASTINATE,
    PHASE_REPLY,
    PHASE_RPC,
    PHASE_SOCKBUF,
    PHASE_VNODE_WAIT,
    JsonlExporter,
    PercentileSummary,
    RecordingCollector,
    collector_for,
    install,
    registry_for,
)
from repro.sim import Environment
from repro.sim.errors import SimError


def _copy_config(**overrides):
    base = dict(netspec=FDDI, write_path="gather", nbiods=7, tracing=True)
    base.update(overrides)
    return TestbedConfig(**base)


class TestCollector:
    def test_null_collector_is_disabled_noop(self):
        assert not NULL_COLLECTOR.enabled
        NULL_COLLECTOR.emit("any", "actor", 0.0, 1.0, trace_id=3, foo=1)
        env = Environment()
        assert collector_for(env) is NULL_COLLECTOR

    def test_null_collector_rejects_subscribers(self):
        with pytest.raises(RuntimeError):
            NULL_COLLECTOR.subscribe(lambda span: None)

    def test_install_and_lookup(self):
        env = Environment()
        collector = RecordingCollector()
        assert install(env, collector) is collector
        assert collector_for(env) is collector

    def test_emit_records_and_notifies_subscribers(self):
        collector = RecordingCollector()
        seen = []
        collector.subscribe(seen.append)
        collector.emit("a.phase", "host", 0.0, 1.5, trace_id=7, foo="bar")
        collector.emit("b.phase", "host", 1.5, 2.0)
        assert [s.name for s in collector.spans] == ["a.phase", "b.phase"]
        assert collector.spans[0].duration == 1.5
        assert collector.spans[0].attrs == {"foo": "bar"}
        assert collector.spans[0].seq < collector.spans[1].seq
        assert seen == collector.spans
        assert collector.by_name("a.phase") == [collector.spans[0]]
        assert collector.for_trace(7) == [collector.spans[0]]


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        env = Environment()
        metrics = registry_for(env)
        assert registry_for(env) is metrics
        counter = metrics.counter("x.events")
        assert metrics.counter("x.events") is counter
        tally = metrics.tally("x.latency", keep_samples=True)
        assert metrics.tally("x.latency") is tally
        assert "x.events" in metrics
        assert metrics.names() == ["x.events", "x.latency"]

    def test_kind_mismatch_raises(self):
        metrics = registry_for(Environment())
        metrics.counter("dual.name")
        with pytest.raises(SimError):
            metrics.tally("dual.name")

    def test_snapshot_is_deterministic_and_serializable(self):
        env = Environment()
        metrics = registry_for(env)
        metrics.counter("b.count").add(3)
        metrics.tally("a.tally").observe(0.25)
        snap = metrics.snapshot()
        assert list(snap) == ["a.tally", "b.count"]
        assert snap["b.count"]["value"] == 3
        assert snap["a.tally"]["mean"] == 0.25
        json.dumps(snap)  # must be serializable as-is


class TestSpanStream:
    def test_traced_copy_emits_full_lifecycle(self):
        metrics = run_filecopy(_copy_config(), file_mb=0.25)
        assert metrics.phases is not None
        for phase in (
            PHASE_SOCKBUF,
            PHASE_VNODE_WAIT,
            PHASE_PROCRASTINATE,
            PHASE_COMMIT,
            PHASE_PARKED,
            PHASE_REPLY,
        ):
            assert phase in metrics.phases, phase
            assert metrics.phases[phase]["count"] > 0
            assert metrics.phases[phase]["p99"] >= metrics.phases[phase]["p50"] >= 0

    def test_span_stream_is_deterministic(self):
        """Golden property: same seed, same configuration -> identical stream."""
        from repro.experiments.testbed import Testbed
        from repro.workload.sequential import write_file

        def stream():
            testbed = Testbed(_copy_config())
            client = testbed.add_client()
            proc = testbed.env.process(
                write_file(testbed.env, client, "f", 256 * 1024), name="copy"
            )
            testbed.env.run(until=proc)
            # RPC xids come from a process-global counter, so renumber the
            # trace ids densely in first-seen order; everything else must
            # be bit-identical between the two runs.
            ids = {}
            records = []
            for span in testbed.collector.spans:
                record = span.to_dict()
                if "trace_id" in record:
                    record["trace_id"] = ids.setdefault(record["trace_id"], len(ids))
                records.append(record)
            return records

        first, second = stream(), stream()
        assert len(first) > 100
        assert first == second

    def test_tracing_does_not_change_results(self):
        """The no-op collector promise: traced and untraced runs agree."""
        traced = run_filecopy(_copy_config(tracing=True), file_mb=0.25)
        untraced = run_filecopy(_copy_config(tracing=False), file_mb=0.25)
        assert untraced.phases is None
        assert traced.elapsed_seconds == untraced.elapsed_seconds
        assert traced.client_kb_per_sec == untraced.client_kb_per_sec
        assert traced.server_cpu_pct == untraced.server_cpu_pct
        assert traced.disk_trans_per_sec == untraced.disk_trans_per_sec
        assert traced.mean_batch_size == untraced.mean_batch_size

    def test_commit_spans_carry_trace_ids(self):
        from repro.experiments.testbed import Testbed
        from repro.workload.sequential import write_file

        testbed = Testbed(_copy_config())
        client = testbed.add_client()
        proc = testbed.env.process(
            write_file(testbed.env, client, "f", 128 * 1024), name="copy"
        )
        testbed.env.run(until=proc)
        commits = testbed.collector.by_name(PHASE_COMMIT)
        assert commits and all(span.trace_id is not None for span in commits)
        # Every committed write's trace also saw the socket buffer and reply.
        one = commits[0]
        names = {span.name for span in testbed.collector.for_trace(one.trace_id)}
        assert {PHASE_RPC, PHASE_SOCKBUF, PHASE_COMMIT, PHASE_REPLY} <= names
        # Device spans exist and are traceless.
        disk = testbed.collector.by_name(PHASE_DISK_IO)
        assert disk and all(span.trace_id is None for span in disk)


class TestExporters:
    def test_jsonl_exporter_streams_valid_lines(self):
        collector = RecordingCollector()
        buffer = io.StringIO()
        collector.subscribe(JsonlExporter(buffer))
        collector.emit("a.phase", "host", 0.0, 1.0, trace_id=1, k="v")
        collector.emit("b.phase", "host", 1.0, 2.0)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "a.phase"
        assert first["trace_id"] == 1
        assert first["attrs"] == {"k": "v"}

    def test_percentile_summary_table_and_render(self):
        summary = PercentileSummary(phases=None)
        collector = RecordingCollector()
        collector.subscribe(summary)
        for n in range(1, 101):
            collector.emit("x.phase", "host", 0.0, n / 1000.0)
        table = summary.table()
        assert table["x.phase"]["count"] == 100
        assert table["x.phase"]["p50"] == pytest.approx(0.050)
        assert table["x.phase"]["p95"] == pytest.approx(0.095)
        assert table["x.phase"]["p99"] == pytest.approx(0.099)
        assert "x.phase" in summary.render()


class TestFacade:
    def test_run_copy_spec(self):
        metrics = run("copy", _copy_config(tracing=False), file_mb=0.25)
        assert metrics.client_kb_per_sec > 0
        assert metrics.handoffs_nfsd is not None

    def test_run_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            run("frobnicate")

    def test_run_copy_builds_default_config(self):
        metrics = run("copy", file_mb=0.125)
        assert metrics.label == run_filecopy(TestbedConfig(), file_mb=0.125).label

    def test_metrics_to_json_round_trips(self):
        metrics = run_filecopy(_copy_config(), file_mb=0.25)
        payload = json.loads(json.dumps(metrics.to_json()))
        assert payload["label"].endswith("/gather")
        assert "phases" in payload
        assert payload["phases"][PHASE_COMMIT]["p95"] > 0


class TestTraceFromSpans:
    def test_figure1_needs_no_monkeypatching(self):
        from repro.experiments import figure1

        sides = figure1(file_kb=192)
        for name in ("standard", "gathering"):
            side = sides[name]
            assert side["writes"] > 0
            assert side["disk_transactions"] > 0
            assert side["replies"] > 0
            assert "8K Write" in side["rendered"]
        # Gathering amortizes the metadata update: fewer disk transactions
        # per reply than the standard server in the same window.
        std = sides["standard"]
        gat = sides["gathering"]
        assert (
            gat["disk_transactions"] / max(gat["replies"], 1)
            < std["disk_transactions"] / max(std["replies"], 1)
        )
