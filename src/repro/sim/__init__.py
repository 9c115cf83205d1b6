"""Deterministic discrete-event simulation kernel used by all substrates."""

from repro.sim.core import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.errors import Interrupt, SimError, StopSimulation
from repro.sim.monitor import Counter, Ratio, Tally, UtilizationMeter
from repro.sim.resources import (
    Container,
    Hold,
    HoldQueue,
    Request,
    Resource,
    Store,
)

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Interrupt",
    "SimError",
    "StopSimulation",
    "Resource",
    "Request",
    "Hold",
    "HoldQueue",
    "Store",
    "Container",
    "Tally",
    "Counter",
    "Ratio",
    "UtilizationMeter",
]
