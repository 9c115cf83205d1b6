"""The central metrics registry: named instruments, owned in one place.

Subsystems used to thread :class:`~repro.sim.monitor.Tally` /
:class:`~repro.sim.monitor.Counter` objects through constructors and stash
them on whatever object was handy.  The registry inverts that: each
environment owns one :class:`MetricsRegistry` (created lazily by
:func:`registry_for`) and subsystems *register* instruments by name::

    metrics = registry_for(env)
    self.delivered = metrics.counter("fddi.delivered")
    self.latency = metrics.tally("server.op_latency")

Registration is get-or-create: asking for an existing name returns the
same instrument (and raises if the kind does not match), so an aggregate
view — ``registry.snapshot()`` — can walk every live instrument in the
simulation without knowing who created it.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.sim.core import Environment
from repro.sim.errors import SimError
from repro.sim.monitor import Counter, Ratio, Tally, UtilizationMeter

__all__ = ["MetricsRegistry", "registry_for"]

Instrument = Union[Tally, Counter, Ratio, UtilizationMeter]


class MetricsRegistry:
    """Owns every named instrument of one simulation environment."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._instruments: Dict[str, Instrument] = {}

    # -- registration (get-or-create) --------------------------------------

    def _register(self, name: str, kind: type, factory) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, kind):
                raise SimError(
                    f"instrument {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def tally(self, name: str, keep_samples: bool = False) -> Tally:
        """A streaming-statistics tally (latencies, sizes)."""
        return self._register(
            name, Tally, lambda: Tally(name, keep_samples=keep_samples)
        )

    def counter(self, name: str) -> Counter:
        """A monotonically increasing event/byte counter."""
        return self._register(name, Counter, lambda: Counter(self.env, name))

    def utilization(self, name: str) -> UtilizationMeter:
        """A busy-fraction meter."""
        return self._register(
            name, UtilizationMeter, lambda: UtilizationMeter(self.env, name)
        )

    def ratio(self, name: str, numerator: Counter, denominator: Counter) -> Ratio:
        """A derived quotient of two counters (e.g. RPCs per user op)."""
        return self._register(
            name, Ratio, lambda: Ratio(name, numerator, denominator)
        )

    # -- introspection ------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        """Every registered name, sorted."""
        return sorted(self._instruments)

    def snapshot(self, prefix: str = "") -> Dict[str, dict]:
        """One summary dict per instrument, keyed by name.

        Deterministic (sorted by name); safe to JSON-serialize.  With a
        ``prefix``, only instruments whose name starts with it are included
        — how a cluster rolls up one shard's (or one host's) instruments
        out of the shared registry.
        """
        out: Dict[str, dict] = {}
        for name in self.names():
            if prefix and not name.startswith(prefix):
                continue
            instrument = self._instruments[name]
            if isinstance(instrument, Tally):
                out[name] = {
                    "kind": "tally",
                    "count": instrument.count,
                    "mean": instrument.mean,
                    "min": instrument.min,
                    "max": instrument.max,
                    "total": instrument.total,
                }
            elif isinstance(instrument, Counter):
                out[name] = {
                    "kind": "counter",
                    "value": instrument.value,
                    "rate": instrument.rate(),
                }
            elif isinstance(instrument, Ratio):
                out[name] = {
                    "kind": "ratio",
                    "value": instrument.value,
                    "numerator": instrument.numerator.value,
                    "denominator": instrument.denominator.value,
                }
            else:  # UtilizationMeter
                out[name] = {
                    "kind": "utilization",
                    "utilization": instrument.utilization(),
                    "busy_time": instrument.busy_time,
                }
        return out


def registry_for(env: Environment) -> MetricsRegistry:
    """The environment's registry, created and attached on first use."""
    registry = getattr(env, "_obs_registry", None)
    if registry is None:
        registry = MetricsRegistry(env)
        env._obs_registry = registry
    return registry
