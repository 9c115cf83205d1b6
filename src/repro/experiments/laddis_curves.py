"""Figures 2 and 3: SPEC SFS 1.0 (LADDIS) throughput/latency curves (§7.2).

The paper's configuration: FDDI, five DS5000/200 clients with four load
processes each, a DEC 3800 server with 32 nfsds and 20 disks on 5 SCSI
buses.  We model the disk farm as a 20-way stripe (same aggregate spindle
bandwidth).  The server keeps cpu_scale=1.0: with that farm the capacity
knee already lands at the paper's ~1100 ops/s (see :func:`run_curve`).

Figure 2 (no Presto): gathering buys ~13% more capacity and ~11% lower
average latency.  Figure 3 (Presto): more modest, still positive gains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.experiments.testbed import Testbed, TestbedConfig
from repro.net.spec import FDDI
from repro.workload.laddis import SFS_LATENCY_BOUND_MS, LaddisGenerator, LaddisResult

__all__ = ["CurvePoint", "LaddisCurve", "run_curve"]

MB = 1024 * 1024

#: Offered loads (aggregate NFS ops/s) swept for each curve.
DEFAULT_LOADS = (150.0, 300.0, 450.0, 600.0, 750.0, 900.0, 1050.0)


@dataclass
class CurvePoint:
    offered: float
    achieved: float
    latency_ms: float


@dataclass
class LaddisCurve:
    """One server variant's curve."""

    write_path: str
    presto: bool
    points: List[CurvePoint] = field(default_factory=list)

    def capacity(self) -> float:
        """SFS capacity: best achieved ops/s with latency <= 50 ms."""
        eligible = [p.achieved for p in self.points if p.latency_ms <= SFS_LATENCY_BOUND_MS]
        return max(eligible) if eligible else 0.0


def run_curve(
    write_path: str,
    presto: bool = False,
    loads: Sequence[float] = DEFAULT_LOADS,
    duration: float = 4.0,
    warmup: float = 1.0,
    stripes: int = 20,
    nfsds: int = 32,
    clients: int = 5,
    procs_per_client: int = 4,
    seed: int = 7,
    loss_rate: float = 0.0,
    net_seed: Optional[int] = None,
) -> LaddisCurve:
    """Measure one LADDIS curve: sweep offered loads on a fresh testbed."""
    config = TestbedConfig(
        netspec=FDDI,
        write_path=write_path,
        presto_bytes=4 * MB if presto else None,
        stripes=stripes,
        nfsds=nfsds,
        # Calibrated so the server CPU is the binding resource near the
        # paper's ~1100 ops/s capacity knee, as on the real DEC 3800.
        cpu_scale=1.0,
        verify_stable=False,  # speed: the invariant is covered by tests
        seed=seed,
        loss_rate=loss_rate,
        net_seed=net_seed,
    )
    testbed = Testbed(config)
    generator = LaddisGenerator(
        testbed.env,
        testbed.segment,
        server_host=testbed.server.host,
        clients=clients,
        procs_per_client=procs_per_client,
        seed=seed,
    )
    env = testbed.env
    setup = env.process(generator.setup(), name="laddis-setup")
    env.run(until=setup)
    testbed.server.reset_measurements()

    curve = LaddisCurve(write_path=write_path, presto=presto)
    for offered in loads:
        point = env.process(
            generator.run_point(offered, duration=duration, warmup=warmup),
            name=f"laddis@{offered}",
        )
        result: LaddisResult = env.run(until=point)
        curve.points.append(
            CurvePoint(
                offered=offered,
                achieved=result.achieved_ops,
                latency_ms=result.avg_latency_ms,
            )
        )
    return curve
