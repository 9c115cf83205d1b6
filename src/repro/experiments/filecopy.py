"""One cell of Tables 1-6: the 10 MB sequential file copy (§7.1)."""

from __future__ import annotations

from typing import Optional

from repro.experiments.testbed import Testbed, TestbedConfig
from repro.metrics.collect import FileCopyMetrics
from repro.obs import PercentileSummary
from repro.workload.sequential import write_file

__all__ = ["run_filecopy"]


def run_filecopy(
    config: Optional[TestbedConfig] = None,
    file_mb: float = 10.0,
    think_time: float = 0.0005,
) -> FileCopyMetrics:
    """Run the paper's file-copy experiment under ``config``.

    Builds a fresh testbed, writes a ``file_mb`` MB file sequentially from a
    single client process, and returns the four table quantities measured
    over the copy (create to close-complete).  ``config`` defaults to
    ``TestbedConfig()``.
    """
    config = config or TestbedConfig()
    testbed = Testbed(config)
    client = testbed.add_client()
    env = testbed.env
    nbytes = int(file_mb * 1024 * 1024)

    proc = env.process(
        write_file(env, client, "copytest", nbytes, think_time=think_time),
        name="filecopy",
    )
    env.run(until=proc)
    elapsed = proc.value
    if testbed.server.stable_violations:
        raise AssertionError(
            "stable-storage invariant violated: "
            f"{testbed.server.stable_violations[:3]}"
        )
    total_bytes, total_transactions = testbed.disk_stats_totals()
    gather_stats = getattr(testbed.server.write_path, "stats", None)
    phases = None
    if testbed.collector is not None:
        summary = PercentileSummary()
        summary.consume(testbed.collector.spans)
        phases = summary.table()
    return FileCopyMetrics(
        label=f"{config.netspec.name}"
        f"{'+presto' if config.presto_bytes else ''}"
        f"{'+stripe' + str(config.stripes) if config.stripes > 1 else ''}"
        f"/{config.write_path}",
        nbiods=config.nbiods,
        client_kb_per_sec=nbytes / elapsed / 1024.0,
        server_cpu_pct=100.0 * testbed.server.cpu.utilization(),
        disk_kb_per_sec=total_bytes / elapsed / 1024.0,
        disk_trans_per_sec=total_transactions / elapsed,
        elapsed_seconds=elapsed,
        mean_batch_size=(gather_stats.mean_batch_size() if gather_stats else None),
        gather_success_rate=(
            gather_stats.gather_success_rate() if gather_stats else None
        ),
        procrastinations=(
            gather_stats.procrastinations.value if gather_stats else None
        ),
        handoffs_nfsd=(gather_stats.handoffs_nfsd.value if gather_stats else None),
        handoffs_mbuf=(gather_stats.handoffs_mbuf.value if gather_stats else None),
        watchdog_sweeps=(
            gather_stats.watchdog_sweeps.value if gather_stats else None
        ),
        learned_skips=(
            gather_stats.skipped_procrastinations.value if gather_stats else None
        ),
        rpcs_per_op=(
            round(client.rpcs_per_op.value, 4) if client.user_ops.value else None
        ),
        phases=phases,
    )
