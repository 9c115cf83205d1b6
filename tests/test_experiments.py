"""Tests for the experiment harness: testbed, filecopy, tables, trace,
LADDIS curves, and report rendering."""

from repro.experiments import (
    PAPER,
    TABLES,
    Testbed,
    TestbedConfig,
    figure1,
    render_timeline,
    run_curve,
    run_filecopy,
    run_table,
    trace_filecopy,
)
from repro.experiments.laddis_curves import CurvePoint, LaddisCurve
from repro.metrics import format_comparison, format_paper_table
from repro.net import ETHERNET, FDDI


class TestTestbed:
    def test_build_with_clients(self):
        testbed = Testbed(TestbedConfig(netspec=ETHERNET))
        for _ in range(2):
            testbed.add_client()
        assert len(testbed.clients) == 2
        assert testbed.server.config.nfsds == 8

    def test_variant_copies_config(self):
        config = TestbedConfig(nbiods=3)
        changed = config.variant(nbiods=9, write_path="gather")
        assert (config.nbiods, changed.nbiods) == (3, 9)
        assert changed.write_path == "gather"

    def test_presto_and_stripes_assembled(self):
        config = TestbedConfig(presto_bytes=1 << 20, stripes=3)
        testbed = Testbed(config)
        assert len(testbed.disks) == 3
        assert getattr(testbed.storage, "is_accelerated", False)
        assert testbed.server.ufs.is_accelerated


class TestFileCopy:
    def test_metrics_populated(self):
        metrics = run_filecopy(
            TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7), file_mb=1
        )
        assert metrics.client_kb_per_sec > 0
        assert 0 <= metrics.server_cpu_pct <= 100
        assert metrics.disk_kb_per_sec > 0
        assert metrics.disk_trans_per_sec > 0
        assert metrics.mean_batch_size > 1
        assert "gather" in metrics.label

    def test_standard_has_no_gather_stats(self):
        metrics = run_filecopy(TestbedConfig(netspec=FDDI), file_mb=0.5)
        assert metrics.mean_batch_size is None

    def test_row_shape_matches_paper(self):
        metrics = run_filecopy(TestbedConfig(netspec=FDDI), file_mb=0.5)
        row = metrics.row()
        assert set(row) == {
            "client write speed (KB/sec.)",
            "server cpu util. (%)",
            "server disk (KB/sec)",
            "server disk (trans/sec)",
        }

    def test_deterministic(self):
        config = TestbedConfig(netspec=FDDI, write_path="gather", nbiods=7)
        a = run_filecopy(config, file_mb=1)
        b = run_filecopy(config, file_mb=1)
        assert a.client_kb_per_sec == b.client_kb_per_sec


class TestTableSpecs:
    def test_all_six_tables_defined(self):
        assert sorted(TABLES) == [1, 2, 3, 4, 5, 6]

    def test_paper_values_complete(self):
        for number, spec in TABLES.items():
            for variant in ("std", "gather"):
                for row in ("speed", "cpu", "disk_kbs", "disk_tps"):
                    values = PAPER[number][variant][row]
                    assert len(values) == len(spec.biods), (number, variant, row)

    def test_presto_tables_marked(self):
        assert TABLES[1].presto_bytes is None
        assert TABLES[2].presto_bytes
        assert TABLES[5].stripes == 3

    def test_run_table_small_scale(self):
        result = run_table(1, file_mb=0.5)
        assert len(result.standard) == len(TABLES[1].biods)
        assert len(result.gathering) == len(TABLES[1].biods)
        rendered = result.render()
        assert "Without Write Gathering" in rendered
        assert "client write speed (KB/sec.)" in rendered
        speeds = result.series("gather", "speed")
        assert len(speeds) == len(TABLES[1].biods)


class TestTrace:
    def test_events_recorded_in_order(self):
        events = trace_filecopy("gather", file_kb=64)
        times = [e.time_ms for e in events]
        assert times == sorted(times)
        actors = {e.actor for e in events}
        assert actors == {"client", "disk"}

    def test_figure1_summary_shows_gathering_signature(self):
        sides = figure1(file_kb=192)
        standard = sides["standard"]
        gathering = sides["gathering"]
        # The standard server needs >= 2 disk ops per write; the gatherer
        # must do strictly fewer disk transactions per write in the window.
        assert standard["disk_transactions"] >= 2 * max(1, standard["writes"]) * 0.8
        per_write_std = standard["disk_transactions"] / max(1, standard["writes"])
        per_write_gat = gathering["disk_transactions"] / max(1, gathering["writes"])
        assert per_write_gat < per_write_std
        assert "time(ms)" in gathering["rendered"]

    def test_render_timeline_window(self):
        events = trace_filecopy("standard", file_kb=64)
        text = render_timeline(events, start_ms=0, end_ms=50)
        assert "client" in text

    def test_timeline_svg_valid(self):
        import xml.etree.ElementTree as ET

        from repro.experiments.trace import render_timeline_svg

        sides = figure1(file_kb=128)
        svg = render_timeline_svg(
            sides["standard"]["window"], sides["gathering"]["window"]
        )
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "Gathering server" in svg
        assert svg.count("<circle") > 10


class TestLaddisCurve:
    def test_capacity_respects_latency_bound(self):
        curve = LaddisCurve(write_path="standard", presto=False)
        curve.points = [
            CurvePoint(100, 98, 10.0),
            CurvePoint(200, 190, 45.0),
            CurvePoint(300, 240, 80.0),
        ]
        assert curve.capacity() == 190

    def test_run_curve_small(self):
        curve = run_curve(
            "gather",
            loads=(80.0,),
            duration=1.5,
            warmup=0.3,
            stripes=4,
            nfsds=8,
            clients=2,
            procs_per_client=2,
        )
        assert len(curve.points) == 1
        point = curve.points[0]
        assert 40 < point.achieved < 120
        assert point.latency_ms > 0


class TestReports:
    def test_format_paper_table(self):
        cells = [
            {
                "client write speed (KB/sec.)": 100 + i,
                "server cpu util. (%)": 10,
                "server disk (KB/sec)": 500,
                "server disk (trans/sec)": 70,
            }
            for i in range(3)
        ]
        text = format_paper_table("Table X", [0, 3, 7], cells, cells)
        assert "Table X" in text
        assert "With Write Gathering" in text
        assert "102" in text

    def test_format_comparison(self):
        text = format_comparison("speed", [0, 3], [100.0, 200.0], [110, 190])
        assert "x0.91" in text
        assert "x1.05" in text

    def test_format_comparison_without_paper(self):
        text = format_comparison("speed", [0], [123.0], None)
        assert "123" in text
