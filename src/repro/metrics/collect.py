"""Metric records matching the paper's table rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.obs import registry_for

__all__ = ["FileCopyMetrics", "latency_summary_ms", "write_latency_ms"]


def latency_summary_ms(samples: Sequence[float]) -> Dict[str, float]:
    """``{mean, p50, p99}`` of latency samples (seconds), in ms to 4 places.

    The rank rule is ``sorted(samples)[min(n - 1, int(q * n))]``, not
    :meth:`repro.sim.monitor.Tally.percentile`'s nearest rank
    (``ceil(q * n) - 1``): the replica and tiering reports are pinned to
    this one.  No samples summarize as zeros.
    """
    ordered = sorted(samples)
    count = len(ordered)

    def at(q: float) -> float:
        return ordered[min(count - 1, int(q * count))] if ordered else 0.0

    return {
        "mean": round((sum(ordered) / count * 1000.0) if ordered else 0.0, 4),
        "p50": round(at(0.50) * 1000.0, 4),
        "p99": round(at(0.99) * 1000.0, 4),
    }


def write_latency_ms(env, clients: int) -> Callable[[], Dict[str, float]]:
    """Record the write latency of the first ``clients`` clients built on
    ``env``; the returned function summarizes all their samples with
    :func:`latency_summary_ms`.

    Call it before those clients build: registration is get-or-create, so
    the tallies the clients then look up keep their samples.
    """
    registry = registry_for(env)
    tallies = [
        registry.tally(f"nfs.client-{index}.write_latency", keep_samples=True)
        for index in range(clients)
    ]
    return lambda: latency_summary_ms(
        [sample for tally in tallies for sample in tally._samples or ()]
    )


@dataclass
class FileCopyMetrics:
    """One cell of Tables 1-6: a 10 MB file copy under one configuration."""

    label: str
    nbiods: int
    #: "client write speed (KB/sec.)"
    client_kb_per_sec: float
    #: "server cpu util. (%)"
    server_cpu_pct: float
    #: "server disk (KB/sec)" — aggregate over stripe members.
    disk_kb_per_sec: float
    #: "server disk (trans/sec)"
    disk_trans_per_sec: float
    elapsed_seconds: float
    #: Gathering observability (None for the standard server).
    mean_batch_size: Optional[float] = None
    gather_success_rate: Optional[float] = None
    procrastinations: Optional[float] = None
    #: §6 handoff accounting: why each gathered batch stopped waiting.
    handoffs_nfsd: Optional[int] = None
    handoffs_mbuf: Optional[int] = None
    watchdog_sweeps: Optional[int] = None
    learned_skips: Optional[int] = None
    #: RPCs per user-level operation (repro.lease): completed RPC calls
    #: divided by syscall-level client operations.  The headline number
    #: lease caching moves; None when the run did not measure it.
    rpcs_per_op: Optional[float] = None
    #: Per-phase latency percentiles from the span stream, keyed by phase
    #: name -> {count, mean, p50, p95, p99, max} in seconds.  Only present
    #: when the run was traced (``TestbedConfig.tracing``).
    phases: Optional[Dict[str, Dict[str, float]]] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Dict[str, float]:
        """The four numbers the paper prints, rounded the same way."""
        return {
            "client write speed (KB/sec.)": round(self.client_kb_per_sec),
            "server cpu util. (%)": round(self.server_cpu_pct),
            "server disk (KB/sec)": round(self.disk_kb_per_sec),
            "server disk (trans/sec)": round(self.disk_trans_per_sec),
        }

    def to_json(self) -> Dict[str, object]:
        """A machine-readable record; None-valued optionals are omitted."""
        payload: Dict[str, object] = {
            "label": self.label,
            "nbiods": self.nbiods,
            "client_kb_per_sec": round(self.client_kb_per_sec, 1),
            "server_cpu_pct": round(self.server_cpu_pct, 2),
            "disk_kb_per_sec": round(self.disk_kb_per_sec, 1),
            "disk_trans_per_sec": round(self.disk_trans_per_sec, 2),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }
        optionals = {
            "mean_batch_size": self.mean_batch_size,
            "gather_success_rate": self.gather_success_rate,
            "procrastinations": self.procrastinations,
            "handoffs_nfsd": self.handoffs_nfsd,
            "handoffs_mbuf": self.handoffs_mbuf,
            "watchdog_sweeps": self.watchdog_sweeps,
            "learned_skips": self.learned_skips,
            "rpcs_per_op": self.rpcs_per_op,
        }
        for name, value in optionals.items():
            if value is not None:
                payload[name] = round(value, 4) if isinstance(value, float) else value
        if self.phases is not None:
            payload["phases"] = {
                phase: {key: round(value, 6) for key, value in stats.items()}
                for phase, stats in self.phases.items()
            }
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload
