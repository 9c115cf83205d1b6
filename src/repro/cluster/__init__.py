"""repro.cluster — scale-out NFS service: shards, routing, failover.

The paper studies write gathering at *one* server; this package puts N of
those servers behind a deterministic shard map and a client-side mount
router, so the multi-server workload family (scaling sweeps, shard
crashes, rebalancing) can be measured against the same oracle-checked
crash contract as the single-server experiments.  The paper's one-server
testbed is built here too, as a one-shard fleet.

Layout:

* :mod:`~repro.cluster.shardmap` — consistent hashing with virtual nodes
  (seeded, balanced, minimal movement on grow/shrink);
* :mod:`~repro.cluster.router` — the client-side mount map: names hash,
  handles pin, zero placement RPCs;
* :mod:`~repro.cluster.fleet` — :class:`~repro.cluster.fleet.Fleet`, the
  one system builder (per-shard disks, NVRAM, nfsd pools, disjoint inode
  ranges), and :class:`ClusterConfig` / :class:`Cluster`;
* :mod:`~repro.cluster.oracle` — per-shard crash-contract oracles with
  router-driven ack dispatch;
* :mod:`~repro.cluster.failover` — scripted shard crashes with outage
  windows and mount-map redirect;
* :mod:`~repro.cluster.experiment` — the sharded write workload
  (``repro.experiments.run("cluster", ...)``) and the servers × clients
  scaling sweep (:func:`~repro.cluster.experiment.run_scaling_sweep`).
"""

import importlib

from repro.cluster.fleet import Cluster, ClusterConfig
from repro.cluster.router import ClusterRpc, MountRouter
from repro.cluster.shardmap import ShardMap

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterOracle",
    "ClusterRpc",
    "ClusterRunResult",
    "FailoverController",
    "MountRouter",
    "ScalingSweepResult",
    "ShardCrash",
    "ShardMap",
]

#: Names whose modules load on first use: every Testbed is a fleet, so
#: building one must not pull in the cluster experiment, failover or
#: oracle machinery.
_LAZY = {
    "ClusterRunResult": "experiment",
    "ScalingSweepResult": "experiment",
    "FailoverController": "failover",
    "ShardCrash": "failover",
    "ClusterOracle": "oracle",
}


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
