"""The ``repro overload`` experiment: goodput vs offered load past saturation.

A fleet of clients writes continuously at a paced offered rate while a
:class:`~repro.faults.events.RetransmitStorm` rages mid-run.  The sweep
crosses write path × Presto × adaptation mode:

* ``static`` — the reference port exactly as the paper ran it: fixed
  1.1 s doubling retransmission, a full-depth biod pool, and a server
  that sheds only by silent socket-buffer overflow;
* ``adaptive`` — the ``repro.overload`` stack: Van Jacobson RTO with
  Karn's rule and seeded jitter, an AIMD write window on the biod pool,
  and a bounded server admission queue with the dup-cache-aware
  early-reply shed policy.

Goodput is the :class:`~repro.faults.oracle.Oracle`'s ledger, not the
client's: only bytes covered by a *stable* WRITE acknowledgement count,
so retransmitted duplicates and timed-out attempts are worthless by
construction.  Past saturation the static schedule collapses — every
overflow stalls its client for >=1.1 s, the synchronized retries overflow
again — while the adaptive stack degrades to a plateau.

Each combo also runs a *crash probe*: a server crash in the middle of the
storm window, with the oracle asserting at the instant of death (and
again at end of run) that no acked write was lost — the paper's crash
contract must hold in both modes even mid-collapse.

Everything is seeded; same-seed reruns produce byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policy import GatherPolicy
from repro.experiments.runner import run_arms
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.faults.controller import FaultController
from repro.faults.events import AtTime, FaultPlan, RetransmitStorm, ServerCrash
from repro.faults.oracle import Oracle
from repro.metrics.report import ExperimentReport
from repro.net.spec import FDDI
from repro.nvram.presto import PRESTO_BYTES
from repro.overload.rto import AdaptiveRetryPolicy
from repro.overload.window import WriteWindow
from repro.server.config import WritePath
from repro.sim import AllOf
from repro.workload.sequential import patterned_chunk

__all__ = ["OverloadConfig", "OverloadReport", "MODES", "run_overload"]

MODES = ("static", "adaptive")

CHUNK = 8192

#: Client write-behind depth.
NBIODS = 8
#: Server daemons and queue bounds.  Deliberately lean: collapse requires
#: the server's work reservoir (socket buffer + nfsds + parked writes) to
#: drain within one static 1.1 s backoff, so the fleet's synchronized
#: stalls actually starve the disk.
NFSDS = 4
SOCKBUF_BYTES = 48 * 1024
MAX_PARKED = 8
#: Storm window as fractions of ``duration``.
STORM_START_FRAC = 0.3
STORM_END_FRAC = 0.7
STORM_LOSS_RATE = 0.25
STORM_CAPACITY_BYTES = 24 * 1024
#: Server admission cap + shed policy (adaptive mode only).  The cap sits
#: below the socket buffer's byte capacity so shedding is a policy
#: decision, not a silent overflow.
ADMISSION_MAX_REQUESTS = 4
SHED_POLICY = "early-reply"
#: AIMD window geometry (adaptive mode only); the initial window is below
#: the biod count.
WINDOW_INITIAL = 4
WINDOW_MAXIMUM = 64
#: Jitter spread for adaptive retransmission timers.
JITTER = 0.1
#: Retransmit-interval ceiling for the adaptive policy.  Far below the
#: estimator's default 60 s: a hard-mount biod that backs off past the
#: measurement window is a stranded pipeline slot, and real NFS clients
#: cap the retrans timer at a few seconds for exactly this reason.  Karn
#: backoff still doubles up to this ceiling.
ADAPTIVE_MAX_RTO = 2.0
#: Relative slack when judging the adaptive curve monotone (sim noise from
#: storm-window phase shifts, not a real goodput regression).
MONOTONE_TOLERANCE = 0.05
#: A curve "collapses" when its final point falls more than this fraction
#: below its peak.
COLLAPSE_MARGIN = 0.03


@dataclass
class OverloadConfig:
    """One overload sweep: the load axis, the fleet, and the storm."""

    #: Per-client offered write rates (bytes/sec), swept in order.  The
    #: aggregate offered load is ``clients *`` each value; the default
    #: axis runs from ~1/4 of plain-path saturation to ~30x past it.
    loads: Sequence[int] = (4_000, 8_000, 16_000, 48_000, 160_000, 480_000)
    clients: int = 12
    #: Measured window per point, sim-seconds.
    duration: float = 5.0
    write_paths: Sequence[str] = tuple(path.value for path in WritePath)
    presto_modes: Sequence[bool] = (False, True)
    modes: Sequence[str] = MODES
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"need at least one client, got {self.clients}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not self.loads:
            raise ValueError("need at least one load point")
        if min(self.loads) <= 0:
            raise ValueError(f"loads must be positive, got {list(self.loads)}")
        if list(self.loads) != sorted(self.loads):
            raise ValueError("loads must be ascending (the curve sweeps up)")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r} (expected one of: {MODES})")

    @property
    def storm(self) -> RetransmitStorm:
        return RetransmitStorm(
            AtTime(round(STORM_START_FRAC * self.duration, 9)),
            loss_rate=STORM_LOSS_RATE,
            capacity_bytes=STORM_CAPACITY_BYTES,
            duration=round((STORM_END_FRAC - STORM_START_FRAC) * self.duration, 9),
        )

    def testbed_config(self, write_path: str, presto: bool, mode: str) -> TestbedConfig:
        return TestbedConfig(
            netspec=FDDI,
            write_path=write_path,
            nbiods=NBIODS,
            nfsds=NFSDS,
            sockbuf_bytes=SOCKBUF_BYTES,
            gather_policy=GatherPolicy(max_parked=MAX_PARKED),
            presto_bytes=PRESTO_BYTES if presto else None,
            verify_stable=True,
            seed=self.seed,
            admission_max_requests=ADMISSION_MAX_REQUESTS if mode == "adaptive" else None,
            shed_policy=SHED_POLICY,
        )


# -- one run --------------------------------------------------------------------


def _writer(env, client, name: str, rate: int, deadline: float, stagger: float):
    """Create ``name`` and write at ``rate`` bytes/sec offered until
    ``deadline``, then close (flushing write-behind).

    The pace timeout models the application producing data; when the
    client stack blocks (no biod / no window slot / inline RPC), offered
    load self-limits — that is the client/server flow control the window
    tightens under overload.  ``stagger`` offsets the fleet's start so
    the *offered* pacing is not phase-locked; the synchronization that
    matters for collapse is the retransmission schedule, not the load.
    """
    if stagger > 0:
        yield env.timeout(stagger)
    open_file = yield from client.create(name)
    pace = CHUNK / rate
    index = 0
    while env.now < deadline:
        yield env.timeout(pace)
        yield from client.write_stream(open_file, patterned_chunk(index, CHUNK))
        index += 1
    yield from client.close(open_file)


def _run_once(
    config: OverloadConfig,
    write_path: str,
    presto: bool,
    mode: str,
    rate: int,
    crash: bool,
) -> dict:
    """One testbed run: fleet writing at ``rate`` through the storm."""
    testbed = Testbed(config.testbed_config(write_path, presto, mode))
    env = testbed.env
    oracle = Oracle(testbed)
    adaptive = mode == "adaptive"
    for index in range(config.clients):
        policy = None
        window = None
        if adaptive:
            policy = AdaptiveRetryPolicy(
                max_rto=ADAPTIVE_MAX_RTO, jitter=JITTER, jitter_seed=config.seed
            )
            window = WriteWindow(initial=WINDOW_INITIAL, maximum=WINDOW_MAXIMUM)
        client = testbed.add_client(policy=policy, write_window=window)
        oracle.attach(client)
    pace = CHUNK / rate
    writers = [
        env.process(
            _writer(
                env,
                client,
                f"load-{index}",
                rate,
                deadline=config.duration,
                stagger=round(index * pace / config.clients, 9),
            ),
            name=f"overload-writer:{index}",
        )
        for index, client in enumerate(testbed.clients)
    ]
    events: List = [config.storm]
    if crash:
        midpoint = round((STORM_START_FRAC + STORM_END_FRAC) / 2.0 * config.duration, 9)
        events.append(ServerCrash(AtTime(midpoint), reboot_delay=0.05))
    plan = FaultPlan(name=f"overload-{mode}", events=tuple(events))
    controller = FaultController(testbed, plan, oracle=oracle).start()

    # Goodput is a *deadline snapshot*: bytes acked within the measured
    # window.  Work that limps in during the drain is real (hard mounts
    # retry forever) but late — counting it would reward queue-stuffing
    # and hide the collapse.
    snapshot = {}

    def _snapper():
        yield env.timeout(config.duration)
        snapshot["acked_bytes"] = oracle.acked_byte_total()
        snapshot["disk_busy"] = testbed.disks[0].stats.busy.utilization()

    env.process(_snapper(), name="overload-snapshot")
    env.run(until=AllOf(env, writers))
    env.run()  # drain in-flight completions, NVRAM destage, watchdogs
    oracle.check("final")
    goodput = snapshot["acked_bytes"] / config.duration
    rpc_retransmissions = sum(c.rpc.retransmissions.value for c in testbed.clients)
    rpc_timeouts = sum(c.rpc.timeouts.value for c in testbed.clients)
    admission = testbed.server.svc.admission
    record = {
        "offered_kbs_per_client": round(rate / 1024.0, 9),
        "offered_kbs_total": round(rate * config.clients / 1024.0, 9),
        "goodput_kbs": round(goodput / 1024.0, 9),
        "disk_busy_pct": round(100.0 * snapshot["disk_busy"], 9),
        # Time past the deadline for the backlog to quiesce — the
        # graceful-degradation signal (static strands calls in
        # multi-second backoffs; adaptive recovers in a few RTTs).
        "recovery_s": round(env.now - config.duration, 9),
        "acked_writes": oracle.acked_writes,
        "retransmissions": int(rpc_retransmissions),
        "timeouts": int(rpc_timeouts),
        "sockbuf_drops": int(testbed.segment.dropped.value),
        "dup_dropped": int(testbed.server.svc.duplicates_dropped.value),
        "dup_replayed": int(testbed.server.svc.duplicates_replayed.value),
        "stable_violations": len(testbed.server.stable_violations),
        "oracle_violations": list(oracle.violations),
        "crashes": controller.crashes,
    }
    if admission is not None:
        record["shed"] = {
            "refused": int(admission.shed.value),
            "evicted": int(admission.evicted.value),
            "early_replies": int(admission.early_replies.value),
            "dup_sheds": int(admission.dup_sheds.value),
        }
    if adaptive:
        record["karn_suppressed"] = sum(
            c.rpc.policy.karn_suppressed for c in testbed.clients
        )
        record["final_cwnd"] = [
            round(c.write_window.cwnd, 9) for c in testbed.clients
        ]
    return record


# -- the report -----------------------------------------------------------------


def _curve_flags(points: List[dict]) -> dict:
    goodputs = [p["goodput_kbs"] for p in points]
    peak = max(goodputs)
    collapse = bool(peak > 0) and goodputs[-1] < (1.0 - COLLAPSE_MARGIN) * peak
    monotone = all(
        later >= earlier * (1.0 - MONOTONE_TOLERANCE)
        for earlier, later in zip(goodputs, goodputs[1:])
    )
    return {
        "goodput_kbs": goodputs,
        "peak_goodput_kbs": peak,
        "collapse": collapse,
        "monotone_nondecreasing": monotone,
    }


@dataclass
class OverloadReport(ExperimentReport):
    """Aggregated sweep outcome, canonically serializable."""

    config: OverloadConfig
    combos: List[dict] = field(default_factory=list)

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for combo in self.combos:
            prefix = (
                f"{combo['write_path']}/presto="
                f"{'on' if combo['presto'] else 'off'}"
            )
            for mode, curve in combo["curves"].items():
                for point in curve["points"]:
                    out.extend(
                        f"{prefix}/{mode}: {v}" for v in point["oracle_violations"]
                    )
                    if point["stable_violations"]:
                        out.append(
                            f"{prefix}/{mode}: {point['stable_violations']} "
                            "stable-before-reply violations"
                        )
            for mode, probe in combo.get("crash_probe", {}).items():
                out.extend(
                    f"{prefix}/{mode}/crash: {v}" for v in probe["oracle_violations"]
                )
                if probe["stable_violations"]:
                    out.append(
                        f"{prefix}/{mode}/crash: {probe['stable_violations']} "
                        "stable-before-reply violations"
                    )
        return out

    @property
    def clean(self) -> bool:
        """No oracle or stable-storage violation anywhere in the sweep."""
        return not self.violations

    @property
    def adaptation_holds(self) -> bool:
        """At the top load, every combo's adaptive goodput must at least
        match the static curve, and the adaptive curve must not collapse."""
        for combo in self.combos:
            verdict = combo.get("verdict")
            if verdict is not None and not verdict["adaptation_wins"]:
                return False
        return True

    @property
    def ok(self) -> bool:
        return self.clean and self.adaptation_holds

    def to_dict(self) -> dict:
        config = self.config
        return {
            "seed": config.seed,
            "duration": round(config.duration, 9),
            "clients": config.clients,
            "nbiods": NBIODS,
            "loads_kbs_per_client": [round(r / 1024.0, 9) for r in config.loads],
            "storm": self.config.storm.describe(),
            "combos": self.combos,
            "clean": self.clean,
            "adaptation_holds": self.adaptation_holds,
            "violations": self.violations,
        }


def _run_arm(config: OverloadConfig, arm: Tuple[str, bool, str, bool]) -> Tuple[dict, str]:
    """One arm: a mode's whole load curve, or (``crash``) its crash probe
    at the top load."""
    write_path, presto, mode, crash = arm
    tag = f"{write_path}/presto={'on' if presto else 'off'}/{mode}"
    if crash:
        probe = _run_once(config, write_path, presto, mode, config.loads[-1], crash=True)
        status = "clean" if not probe["oracle_violations"] else "VIOLATED"
        return probe, f"{tag}: mid-storm crash probe {status}"
    points = [
        _run_once(config, write_path, presto, mode, rate, crash=False) for rate in config.loads
    ]
    curve = {"points": points, **_curve_flags(points)}
    return curve, f"{tag}: goodput {curve['goodput_kbs']} KB/s"


def run_overload(config: Optional[OverloadConfig] = None, progress=None) -> OverloadReport:
    """Run the whole sweep: per write path x Presto combo, each mode's
    curve and then its crash probe, one arm each."""
    config = config or OverloadConfig()
    arms = [
        (write_path, presto, mode, crash)
        for write_path in config.write_paths
        for presto in config.presto_modes
        for mode in config.modes
        for crash in (False, True)
    ]
    combos: Dict[tuple, dict] = {}
    for (write_path, presto, mode, crash), result in zip(
        arms, run_arms(arms, partial(_run_arm, config), progress)
    ):
        combo = combos.setdefault(
            (write_path, presto),
            {"write_path": str(write_path), "presto": presto, "curves": {}, "crash_probe": {}},
        )
        combo["crash_probe" if crash else "curves"][mode] = result
    for combo in combos.values():
        combo["verdict"] = _verdict(combo)
    return OverloadReport(config=config, combos=list(combos.values()))


def _verdict(combo: dict) -> Optional[dict]:
    """Compare modes at the top load (present only when both modes ran)."""
    curves: Dict[str, dict] = combo["curves"]
    if "static" not in curves or "adaptive" not in curves:
        return None
    static_top = curves["static"]["goodput_kbs"][-1]
    adaptive_top = curves["adaptive"]["goodput_kbs"][-1]
    return {
        "static_top_goodput_kbs": static_top,
        "adaptive_top_goodput_kbs": adaptive_top,
        "adaptation_wins": adaptive_top >= static_top * (1.0 - MONOTONE_TOLERANCE)
        and curves["adaptive"]["monotone_nondecreasing"],
    }
