"""Generic one-dimensional parameter sweeps over file-copy experiments.

Powers the ``repro sweep`` CLI command and ad-hoc exploration::

    from repro.experiments import TestbedConfig, sweep
    rows = sweep(
        TestbedConfig(write_path="gather"),
        field="nbiods",
        values=[0, 3, 7, 11, 15],
    )

Supports any scalar ``TestbedConfig`` field plus the two derived fields
people actually sweep: ``interval_ms`` (procrastination) and ``presto_mb``.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import List, Sequence

from repro.core.policy import GatherPolicy
from repro.experiments.filecopy import run_filecopy
from repro.experiments.testbed import TestbedConfig
from repro.metrics.collect import FileCopyMetrics

__all__ = ["sweep", "sweep_config", "sweepable_fields"]

_DERIVED = {
    "interval_ms": "procrastination interval (ms); None = transport default",
    "presto_mb": "NVRAM size in MB; 0 disables the accelerator",
}


def sweepable_fields() -> dict:
    """Names and descriptions of fields `sweep` accepts."""
    names = {
        f.name: f.type
        for f in dataclass_fields(TestbedConfig)
        if f.name not in ("netspec", "gather_policy", "disk_spec")
    }
    names.update(_DERIVED)
    return names


def sweep_config(base: TestbedConfig, field: str, value) -> TestbedConfig:
    """The config of the sweep point ``field=value``; a ValueError if it
    cannot be built."""
    if field == "interval_ms":
        interval = None if value is None else float(value) / 1000.0
        return base.variant(gather_policy=GatherPolicy(interval=interval))
    if field == "presto_mb":
        presto_bytes = int(float(value) * (1 << 20)) or None
        return base.variant(presto_bytes=presto_bytes)
    if field not in {f.name for f in dataclass_fields(TestbedConfig)}:
        raise ValueError(
            f"unknown sweep field {field!r}; choose from {sorted(sweepable_fields())}"
        )
    return base.variant(**{field: value})


def sweep(
    base: TestbedConfig,
    field: str,
    values: Sequence,
    file_mb: float = 4.0,
) -> List[FileCopyMetrics]:
    """Run one file-copy per value of ``field``; returns metrics in order."""
    if not values:
        raise ValueError("sweep needs at least one value")
    results = []
    for value in values:
        config = sweep_config(base, field, value)
        results.append(run_filecopy(config, file_mb=file_mb))
    return results
