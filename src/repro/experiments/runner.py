"""One front door for the experiment drivers: ``run(kind, *args, **kwargs)``.

Every experiment in the repo is one *kind*.  The kind table maps each to
its driver by module and attribute; :func:`run` imports the driver on
first use and calls it with the caller's arguments, so ``run("copy",
...)`` never pays for the cluster, overload or tiering stacks::

    from repro.experiments import TestbedConfig, run
    metrics = run("copy", TestbedConfig(write_path="gather"), file_mb=1)

The driver's own signature, or the config it takes, is the only place a
kind's parameters and defaults live: an argument the driver does not take
raises ``TypeError``.  A driver whose config is its only required input
takes ``config=None`` and builds the default itself.

======== ============================================== =====================
kind     driver: what it runs                           returns
======== ============================================== =====================
copy     ``run_filecopy``: one file-copy cell           FileCopyMetrics
table    ``run_table``: one of the paper's Tables 1-6   TableResult
curve    ``run_curve``: a Figure 2/3 LADDIS load curve  LaddisCurve
sweep    ``sweep``: one TestbedConfig field over        list of FileCopyMetrics
         several values
trace    ``figure1``: the Figure 1 timelines            dict
bench    ``run_bench``: the perf-baseline grid          dict
         (BENCH_<n>.json)
chaos    ``run_campaign``: a seeded ChaosCampaign       CampaignReport
cluster  ``run_cluster``: one sharded-fleet cell        ClusterRunResult
overload ``run_overload``: goodput vs load past         OverloadReport
         saturation
replica  ``run_replica``: K-replication cost +          ReplicaRunResult
         promote storm
cache    ``run_cache``: lease-cache TTL × sharing       CacheReport
         sweep + chaos probes
commit   ``run_commit``: async WRITE+COMMIT             CommitReport
         three-way comparison + probes
scrub    ``run_scrub``: corruption × bandwidth × K      ScrubRunResult
tiering  ``run_tiering``: placement-policy sweep +      TieringRunResult
         migration storm
======== ============================================== =====================

The cluster scaling sweep is not a kind of its own: callers that want it
(``repro cluster`` with several ``--servers``/``--clients`` values) call
:func:`repro.cluster.experiment.run_scaling_sweep` directly.  Every report
but the paper kinds' (copy through bench) derives from
:class:`~repro.metrics.report.ExperimentReport`.

A driver that runs several independent cells, as each of the paper's
tables does (biods x server variant, one fresh testbed per cell), runs
them as *arms* through :func:`run_arms`:

* the driver lists its arms as plain data (tuples, names, configs) in the
  order its report lists them;
* ``run_arm(arm)`` runs one arm on a fresh system and returns ``(result,
  line)``: the arm's result and one line of progress text, formatted next
  to the result's type.  It is a module-level function bound with
  :func:`functools.partial` (or a method of a picklable campaign), never
  a closure, so ``run_arm`` and the arms pickle;
* ``progress``, when the caller passes it, gets each line as its arm
  finishes (``repro`` prints it indented by two spaces, and passes no
  ``progress`` under ``--json``);
* the driver assembles its report from the results, which come back in
  arm order.

Chaos, the scaling sweep, overload, replica, cache, commit, scrub,
tiering, bench and table drive their runs this way.  A section whose
lines need an earlier section's results runs after it: cache measures
its leases-off baselines before the grid cells that compare against
them.
"""

from __future__ import annotations

import importlib
from typing import Callable, Iterable, Optional

__all__ = ["EXPERIMENT_KINDS", "resolve", "run", "run_arms"]

#: kind -> (module, attribute) of its driver.
_DRIVERS = {
    "copy": ("repro.experiments.filecopy", "run_filecopy"),
    "table": ("repro.experiments.tables", "run_table"),
    "curve": ("repro.experiments.laddis_curves", "run_curve"),
    "sweep": ("repro.experiments.sweep", "sweep"),
    "trace": ("repro.experiments.trace", "figure1"),
    "bench": ("repro.experiments.bench", "run_bench"),
    "chaos": ("repro.faults.campaign", "run_campaign"),
    "cluster": ("repro.cluster.experiment", "run_cluster"),
    "overload": ("repro.overload.experiment", "run_overload"),
    "replica": ("repro.replica.experiment", "run_replica"),
    "cache": ("repro.lease.experiment", "run_cache"),
    "commit": ("repro.commit.experiment", "run_commit"),
    "scrub": ("repro.integrity.experiment", "run_scrub"),
    "tiering": ("repro.tiering.experiment", "run_tiering"),
}

EXPERIMENT_KINDS = tuple(_DRIVERS)


def resolve(kind: str) -> Callable:
    """The driver for ``kind``, imported on first use."""
    if kind not in _DRIVERS:
        raise ValueError(
            f"unknown experiment kind {kind!r}; "
            f"expected one of {', '.join(EXPERIMENT_KINDS)}"
        )
    module, attribute = _DRIVERS[kind]
    return getattr(importlib.import_module(module), attribute)


def run(kind: str, *args, **kwargs):
    """Run the experiment ``kind`` with the driver's own arguments and
    return its result (see the module docstring for the table)."""
    return resolve(kind)(*args, **kwargs)


def run_arms(
    arms: Iterable, run_arm: Callable, progress: Optional[Callable[[str], None]] = None
) -> list:
    """Run each arm in order and return the results in the same order.

    ``run_arm(arm)`` returns ``(result, line)``; ``progress``, when given,
    receives each arm's ``line`` as soon as that arm finishes."""
    results = []
    for arm in arms:
        result, line = run_arm(arm)
        results.append(result)
        if progress:
            progress(line)
    return results
