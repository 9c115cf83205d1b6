"""Run one workload for a fixed wall-clock budget and report its metrics.

A run has three parts:

1. a warm-up iteration on another seed (``seed + 1``): it loads modules
   and fills lazy caches, and its simulated numbers must differ from the
   measured seed's;
2. measured iterations on ``seed`` until ``seconds`` have passed (at least
   :data:`MIN_ITERATIONS`): every one must simulate exactly the same
   numbers;
3. with ``trace=True``, half the budget untraced and half under the
   :class:`~perfbench.tracer.Tracer`, whose iterations must again simulate
   the same numbers.

Wall time excludes set-up (building every Testbed/Cluster, plus the
LADDIS working-set fill) and the benchmark's own checks; set-up time is
its own metric.  While the end-to-end iterations run, a
:class:`~perfbench.reference.Sampler` times slices of a reference kernel,
and each iteration's times are scaled to nominal-host seconds by the mean
slice time it saw.  Each reported time is the median over iterations.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench.probe import Probe
from perfbench.reference import Sampler
from perfbench.tracer import LAYERS, OTHER, Tracer
from perfbench.workloads import SFS_RATES, WORKLOADS, Outcome

MIN_ITERATIONS = 3

#: Unit of every metric the benchmark can print.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_client_kb_s": "KB/s",
    "sim_write_p50_ms": "ms",
    "sim_write_p99_ms": "ms",
    "sim_disk_writes_per_mb": "count/MB",
    "sim_op_mean_ms": "ms",
    "sim_op_p99_ms": "ms",
}


def _per_layer_units() -> Dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS + (OTHER,)}
    units.update({f"{layer}.calls": "count" for layer in LAYERS})
    units.update(
        {
            "trace.wall_s": "s",
            "trace_overhead_frac": "ratio",
            "sim.events": "count",
            "sim.events_per_op": "count",
            "faults.record_calls": "count",
            "faults.check_calls": "count",
            "core.mean_batch_size": "count",
            "core.gather_success_rate": "ratio",
            "fs.write_calls": "count",
            "fs.read_calls": "count",
            "fs.lookup_calls": "count",
            "fs.fsync_calls": "count",
            "fs.bcache_hit_rate": "ratio",
            "fs.fsck_errors": "count",
            "rpc.retransmits_per_call": "ratio",
            "rpc.dupcache_hits": "count",
            "net.datagrams": "count",
            "server.cpu_busy_frac": "ratio",
            "disk.submits": "count",
            "disk.kb_per_write": "KB",
            "nvram.submits": "count",
            "obs.spans": "count",
            "ops_failed_frac": "ratio",
            "oracle_violations": "count",
            "sim_sfs_capacity_ops_s": "1/s",
            "sfs.mid.laddis_mean_ms": "ms",
            "sfs.mid.laddis_p99_ms": "ms",
        }
    )
    for rate in SFS_RATES:
        units[f"sfs.r{rate:g}.achieved_frac"] = "ratio"
        units[f"sfs.r{rate:g}.mean_ms"] = "ms"
    return units


PER_LAYER_UNITS = _per_layer_units()


# -- environment ------------------------------------------------------------------


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def peak_rss_mb() -> float:
    """The larger peak RSS of this process and of its waited-for children
    (Linux reports ``ru_maxrss`` in KB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- iterations -------------------------------------------------------------------


@dataclass
class Iteration:
    outcome: Outcome
    wall_s: float
    setup_s: float
    #: Nominal-host seconds per measured second (1 when not sampled).
    scale: float = 1.0


def run_iteration(
    name: str,
    seed: int,
    probe: Probe,
    tracer: Optional[Tracer] = None,
    sampler: Optional[Sampler] = None,
) -> Iteration:
    gc.collect()
    if tracer is not None:
        tracer.set_active(True)
    first = len(sampler.samples) if sampler is not None else 0
    started = probe.clock()
    outcome = WORKLOADS[name](seed, probe)
    elapsed = probe.clock() - started
    if tracer is not None:
        tracer.set_active(False)
    phases = probe.take_phases()
    iteration = Iteration(outcome, elapsed - phases["setup"] - phases["check"], phases["setup"])
    if sampler is not None:
        iteration.scale = sampler.scale(first)
    return iteration


def run_for(
    name: str,
    seed: int,
    probe: Probe,
    seconds: float,
    minimum: int,
    tracer: Optional[Tracer] = None,
    sampler: Optional[Sampler] = None,
) -> List[Iteration]:
    iterations: List[Iteration] = []
    deadline = time.perf_counter() + seconds
    while len(iterations) < minimum or time.perf_counter() < deadline:
        iterations.append(run_iteration(name, seed, probe, tracer, sampler))
    return iterations


def fingerprint(outcome: Outcome) -> Tuple:
    """Every simulated number of an iteration, for exact comparison."""
    return (
        tuple(sorted(outcome.sim.items())),
        tuple(sorted(outcome.layer.items())),
        outcome.sim_ops,
        outcome.ops_attempted,
        outcome.ops_failed,
    )


def check_determinism(reference: Outcome, iterations: List[Iteration], label: str) -> List[str]:
    expected = fingerprint(reference)
    return [
        f"{label} iteration {index} simulated different numbers from the first"
        for index, iteration in enumerate(iterations)
        if fingerprint(iteration.outcome) != expected
    ]


# -- metrics ----------------------------------------------------------------------


def end_to_end(iterations: List[Iteration]) -> Dict[str, float]:
    """Times in nominal-host seconds, each the median over iterations."""
    outcome = iterations[0].outcome
    wall = statistics.median(it.wall_s * it.scale for it in iterations)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(it.setup_s * it.scale for it in iterations),
        "sim_ops_per_s": outcome.sim_ops / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics.update(outcome.sim)
    return metrics


def per_layer(
    untraced: List[Iteration], traced: List[Iteration], tracer: Tracer
) -> Dict[str, float]:
    outcome = untraced[0].outcome
    n = len(traced)
    calls = tracer.calls

    def count(prefix: str) -> float:
        return sum(value for key, value in calls.items() if key.startswith(prefix)) / n

    def exact(key: str) -> float:
        return calls.get(key, 0) / n

    def observed(key: str) -> float:
        return tracer.observed.get(key, 0.0) / n

    summary = tracer.summary()
    metrics: Dict[str, float] = {f"{layer}.self_s": summary[layer] / n for layer in summary}
    metrics.update({f"{layer}.calls": count(f"{layer}.") for layer in LAYERS})
    traced_wall = tracer.traced_s / n
    untraced_wall = statistics.median(it.wall_s for it in untraced)
    rpc_calls = exact("rpc.RpcClient.call")
    disk_writes = observed("disk.writes")
    lookups = exact("fs.BufferCache.lookup")
    metrics.update(
        {
            "trace.wall_s": traced_wall,
            "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
            "sim.events": exact("sim.Environment.step"),
            "sim.events_per_op": exact("sim.Environment.step") / max(outcome.sim_ops, 1),
            "faults.record_calls": count("faults.Oracle.record_"),
            "faults.check_calls": count("faults.Oracle.check") + count("faults.ClusterOracle.check"),
            "fs.write_calls": exact("fs.Ufs.write"),
            "fs.read_calls": exact("fs.Ufs.read"),
            "fs.lookup_calls": exact("fs.Ufs.lookup"),
            "fs.fsync_calls": exact("fs.Ufs.fsync"),
            "fs.bcache_hit_rate": observed("fs.bcache_hits") / lookups if lookups else 0.0,
            "rpc.retransmits_per_call": outcome.layer["rpc.retransmissions"] / rpc_calls if rpc_calls else 0.0,
            "rpc.dupcache_hits": observed("rpc.dupcache_hits"),
            "net.datagrams": exact("net.Segment.send"),
            "disk.submits": exact("disk.DiskDevice.submit"),
            "disk.kb_per_write": observed("disk.write_bytes") / 1024.0 / disk_writes if disk_writes else 0.0,
            "nvram.submits": exact("nvram.PrestoCache.submit"),
            "obs.spans": exact("obs.RecordingCollector.emit"),
            "ops_failed_frac": outcome.ops_failed / max(outcome.ops_attempted, 1),
            "oracle_violations": float(outcome.oracle_violations),
        }
    )
    for key in PER_LAYER_UNITS:
        if key not in metrics:
            # Simulated per-layer numbers; 0 where the workload has no such
            # stage (the SFS load points exist only in sfs_mix).
            metrics[key] = float(outcome.layer.get(key, 0.0))
    return metrics


# -- the run ----------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, object]]
    details: Dict[str, object]

    def line(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: str,
    spans_path: Optional[str] = None,
) -> RunResult:
    probe = Probe().install()
    try:
        warm = run_iteration(name, seed + 1, probe)
        traced: List[Iteration] = []
        if not trace:
            sampler = Sampler()
            probe.clock = sampler.clock
            sampler.install()
            try:
                untraced = run_for(name, seed, probe, seconds, MIN_ITERATIONS, sampler=sampler)
            finally:
                sampler.uninstall()
                probe.clock = time.perf_counter
        else:
            budget = seconds / 2.0
            untraced = run_for(name, seed, probe, budget, 2)
            tracer = Tracer().install()
            probe.on_measure = tracer.set_active
            try:
                traced = run_for(name, seed, probe, budget, 1, tracer)
            finally:
                probe.on_measure = None
                tracer.uninstall()
    finally:
        probe.uninstall()
    reference = untraced[0].outcome
    problems = check_determinism(reference, untraced, "untraced")
    problems += check_determinism(reference, traced, "traced")
    if fingerprint(warm.outcome)[0] == fingerprint(reference)[0]:
        problems.append(f"seeds {seed} and {seed + 1} simulated identical metrics")
    problems += reference.violations
    outcomes = [it.outcome for it in untraced + traced]
    if trace:
        values = per_layer(untraced, traced, tracer)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS
    env = environment(root)
    if trace and spans_path is not None:
        tracer.write_spans(spans_path, env)
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "iterations": len(untraced),
        "traced_iterations": len(traced),
        "wall_s": [round(it.wall_s, 6) for it in untraced],
        "setup_s": [round(it.setup_s, 6) for it in untraced],
        "scale": [round(it.scale, 6) for it in untraced],
        "problems": problems[:20],
    }
    return RunResult(
        correct=not problems,
        attempted=sum(o.ops_attempted for o in outcomes),
        failed=len(problems),
        metrics={key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        details=details,
    )
