"""repro.overload — graceful degradation under retransmit storms.

NFS-over-UDP congestion collapse, and its mitigation, in four pieces:

* :mod:`repro.overload.rto` — client-side adaptive retransmission: Van
  Jacobson SRTT/RTTVAR RTO estimation, Karn's algorithm, seeded jitter,
  and a soft/hard-mount retry budget;
* :mod:`repro.overload.window` — an AIMD congestion window on a client's
  outstanding biod write-behind;
* :mod:`repro.overload.admission` — server-side backpressure: a bounded
  admission queue with pluggable shed policies (drop-newest, drop-oldest,
  dup-cache-aware early reply);
* :mod:`repro.overload.experiment` — the ``repro overload`` goodput-vs-
  offered-load sweep past saturation, with a mid-storm crash checked by
  the :class:`~repro.faults.oracle.Oracle`.
"""

from repro.overload.admission import SHED_POLICIES, AdmissionQueue
from repro.overload.rto import AdaptiveRetryPolicy, RtoEstimator, retransmit_jitter
from repro.overload.window import WriteWindow

__all__ = [
    "AdaptiveRetryPolicy",
    "RtoEstimator",
    "retransmit_jitter",
    "WriteWindow",
    "AdmissionQueue",
    "SHED_POLICIES",
    "OverloadConfig",
    "OverloadReport",
    "MODES",
]


def __getattr__(name: str):
    # The experiment pulls in testbed/faults machinery; load it lazily so
    # importing the policy classes stays cheap and cycle-free.
    if name in ("OverloadConfig", "OverloadReport", "MODES"):
        import repro.overload.experiment as experiment

        return getattr(experiment, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
