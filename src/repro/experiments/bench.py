"""The perf-trajectory baseline: a seeded, fixed workload over every path.

``repro bench`` runs one deterministic file copy per cell of
standard/gather/siva × Presto off/on and emits a small JSON document with
the three numbers future PRs regress against:

* throughput (client KB/s),
* p50/p99 client-observed write latency (ms),
* disk writes per MB copied (the metadata-amortization headline).

CI runs it on every push and uploads ``BENCH_<n>.json`` as an artifact,
so any perf-affecting PR has a baseline to diff against.
"""

from __future__ import annotations

import time
from functools import partial
from typing import List, Sequence, Tuple

from repro.experiments.runner import run_arms
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.net.spec import FDDI, NetSpec
from repro.nvram.presto import PRESTO_BYTES
from repro.obs import registry_for
from repro.payload import PAYLOAD_FLYWEIGHT, PAYLOAD_FULL
from repro.server.config import WritePath
from repro.workload.sequential import write_file

__all__ = ["BENCH_SCHEMA", "grid_configs", "run_bench", "run_bench_cell"]

BENCH_SCHEMA = "repro.bench/1"


def run_bench_cell(
    config: TestbedConfig,
    file_mb: float,
    think_time: float = 0.0005,
    payload: str = PAYLOAD_FULL,
) -> dict:
    """One cell: a seeded sequential copy, measured client- and disk-side.

    ``payload`` selects byte fidelity (:mod:`repro.payload`): the default
    ``"full"`` writes real bytes, ``"flyweight"`` writes extent stand-ins.
    Every simulated number in the cell is identical across the two modes;
    only the wall-clock-derived ``sim_ops_per_sec`` differs (which is the
    point of the flyweight mode).
    """
    wall_started = time.perf_counter()
    testbed = Testbed(config)
    # Pre-register the client's write-latency tally *with samples* before
    # the client builds (registration is get-or-create), so percentiles
    # are computable without touching the client code.
    latency = registry_for(testbed.env).tally(
        "nfs.client-0.write_latency", keep_samples=True
    )
    client = testbed.add_client()
    env = testbed.env
    nbytes = int(file_mb * 1024 * 1024)
    proc = env.process(
        write_file(
            env, client, "benchfile", nbytes, think_time=think_time, payload=payload
        ),
        name="bench",
    )
    env.run(until=proc)
    elapsed = proc.value
    env.run()  # drain NVRAM destage etc. so disk totals are final
    wall_seconds = time.perf_counter() - wall_started
    sim_ops = sum(counter.value for counter in testbed.server.ops_completed.values())
    total_bytes, total_transactions = testbed.disk_stats_totals()
    disk_writes = sum(d.stats.writes.value for d in testbed.disks)
    return {
        "write_path": str(config.write_path),
        "presto": bool(config.presto_bytes),
        "client_kb_per_sec": round(nbytes / elapsed / 1024.0, 2),
        "elapsed_seconds": round(elapsed, 6),
        "write_latency_ms": {
            "mean": round(latency.mean * 1000.0, 4),
            "p50": round(latency.percentile(0.50) * 1000.0, 4),
            "p99": round(latency.percentile(0.99) * 1000.0, 4),
        },
        "disk_writes_per_mb": round(disk_writes / file_mb, 2),
        "rpcs_per_op": round(client.rpcs_per_op.value, 4),
        "disk_kb_per_sec": round(total_bytes / elapsed / 1024.0, 2),
        "disk_trans_per_sec": round(total_transactions / elapsed, 2),
        # NFS operations the server completed per *wall-clock* second:
        # the simulator-throughput number the perf baseline gates on.
        # Wall-time-derived, so it is the one nondeterministic field in
        # the cell; determinism comparisons must exclude it.
        "sim_ops": int(sim_ops),
        "sim_ops_per_sec": round(sim_ops / wall_seconds, 1) if wall_seconds else 0.0,
    }


def grid_configs(
    netspec: NetSpec,
    write_paths: Sequence,
    presto_modes: Sequence[bool],
    biods: int,
    seed: int,
) -> List[TestbedConfig]:
    """One testbed per grid cell, write path × Presto, in report order."""
    return [
        TestbedConfig(
            netspec=netspec,
            write_path=write_path,
            nbiods=biods,
            presto_bytes=PRESTO_BYTES if presto else None,
            seed=seed,
        )
        for write_path in write_paths
        for presto in presto_modes
    ]


def _run_arm(file_mb: float, config: TestbedConfig) -> Tuple[dict, str]:
    cell = run_bench_cell(config, file_mb, payload=PAYLOAD_FLYWEIGHT)
    return cell, (
        f"{cell['write_path']:<8} {'presto' if cell['presto'] else 'plain '} "
        f"{cell['client_kb_per_sec']:>8.1f} KB/s  "
        f"p50 {cell['write_latency_ms']['p50']:>7.2f} ms  "
        f"p99 {cell['write_latency_ms']['p99']:>7.2f} ms  "
        f"{cell['disk_writes_per_mb']:>6.1f} dw/MB"
    )


def run_bench(
    netspec: NetSpec = FDDI,
    file_mb: float = 2.0,
    biods: int = 7,
    seed: int = 0,
    progress=None,
) -> dict:
    """The full grid: every write path × Presto off/on, one seed.

    Returns a JSON-ready document (stable key order, rounded floats) that
    is byte-identical across same-seed reruns, except ``sim_ops_per_sec``
    (wall-clock-derived by construction).  The grid writes flyweight
    payloads: the throughput baseline needs no byte fidelity, and every
    simulated number is identical either way.
    """
    arms = grid_configs(netspec, WritePath, (False, True), biods, seed)
    cells = run_arms(arms, partial(_run_arm, file_mb), progress)
    return {
        "schema": BENCH_SCHEMA,
        "net": netspec.name,
        "file_mb": file_mb,
        "biods": biods,
        "seed": seed,
        "payload": PAYLOAD_FLYWEIGHT,
        "cells": cells,
    }
