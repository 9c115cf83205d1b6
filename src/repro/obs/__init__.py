"""repro.obs — span-based tracing and the central metrics registry.

The unified observability layer: every RPC can carry a
:class:`~repro.obs.span.Trace` through its lifecycle, with typed
:class:`~repro.obs.span.Span` records emitted at each layer boundary it
crosses (wire occupancy, socket-buffer residency, dispatch, vnode-lock
wait, procrastination, stable-storage commit, parked-reply delay, reply).
A per-environment :class:`~repro.obs.registry.MetricsRegistry` owns every
named Tally/Counter/HoldQueue so subsystems register instruments
instead of threading them through constructors, and pluggable exporters
(JSONL, percentile summary) subscribe to the span stream.

Tracing is off by default — the shared :data:`NULL_COLLECTOR` discards
spans without scheduling anything, so benchmark numbers are unaffected —
and the span stream is deterministic under a fixed seed.
"""

from repro.obs.collector import (
    NULL_COLLECTOR,
    NullCollector,
    RecordingCollector,
    collector_for,
    install,
)
from repro.obs.exporters import JsonlExporter, PercentileSummary
from repro.obs.registry import MetricsRegistry, registry_for
from repro.obs.span import (
    PHASE_COMMIT,
    PHASE_DISK_IO,
    PHASE_DISPATCH,
    PHASE_FAULT,
    PHASE_NVRAM_COPY,
    PHASE_PARKED,
    PHASE_PROCRASTINATE,
    PHASE_REPAIR,
    PHASE_REPLICATE,
    PHASE_REPLY,
    PHASE_RPC,
    PHASE_SCRUB,
    PHASE_SHED,
    PHASE_SOCKBUF,
    PHASE_VNODE_WAIT,
    PHASE_WIRE,
    RPC_PHASES,
    Span,
    Trace,
)

__all__ = [
    "Span",
    "Trace",
    "NullCollector",
    "RecordingCollector",
    "NULL_COLLECTOR",
    "install",
    "collector_for",
    "MetricsRegistry",
    "registry_for",
    "JsonlExporter",
    "PercentileSummary",
    "PHASE_RPC",
    "PHASE_WIRE",
    "PHASE_SOCKBUF",
    "PHASE_DISPATCH",
    "PHASE_VNODE_WAIT",
    "PHASE_PROCRASTINATE",
    "PHASE_COMMIT",
    "PHASE_PARKED",
    "PHASE_REPLY",
    "PHASE_DISK_IO",
    "PHASE_NVRAM_COPY",
    "PHASE_FAULT",
    "PHASE_SHED",
    "PHASE_REPLICATE",
    "PHASE_SCRUB",
    "PHASE_REPAIR",
    "RPC_PHASES",
]
