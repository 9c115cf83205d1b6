"""The traced run: per-layer wall-clock self time from outside the program.

:class:`Tracer` wraps each layer's public entry points (the table
:data:`ENTRY_POINTS`) and the top generator of every simulated process.
A wrapped call, and each resumption of a generator it returns, is a span
with a name, a start, an end and a parent span.  A span's *self time* is
its duration minus that of the spans nested in it; a layer's self time is
the sum over its spans.  Wall time inside the traced region that no span
covers is charged to ``other``, so the layer self times plus ``other`` add
up to the traced wall time.

``Environment.run`` executes events in an inlined loop.  While tracing,
it is replaced by a loop over ``Environment.step`` with the same stopping
rules, so that each event is one ``sim`` span and the kernel's own time
(heap, callback dispatch, process switching) is what ``sim`` self time
leaves over.

Everything is undone by :meth:`Tracer.uninstall`; nothing under ``src/``
changes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from types import GeneratorType
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.patch import Patcher

#: The ``src/repro`` packages measured as layers.
LAYERS = (
    "sim",
    "net",
    "rpc",
    "server",
    "core",
    "fs",
    "disk",
    "nvram",
    "nfs",
    "faults",
    "obs",
    "commit",
    "cluster",
    "replica",
    "tiering",
)

#: Where unwrapped time goes: the benchmark, the workload generators and
#: packages that are not layers.
OTHER = "other"

ALL_PUBLIC = "*"

#: (module, class, methods, layer).  ``"*"`` stands for every public
#: function the class itself defines.
ENTRY_POINTS: Sequence[Tuple[str, str, Sequence[str], str]] = (
    ("repro.sim.core", "Environment", ("step", "run", "process"), "sim"),
    ("repro.net.segment", "Segment", ("send",), "net"),
    ("repro.net.udp", "UdpEndpoint", (ALL_PUBLIC,), "net"),
    ("repro.rpc.client", "RpcClient", ("call",), "rpc"),
    ("repro.rpc.server", "SvcServer", (ALL_PUBLIC,), "rpc"),
    ("repro.rpc.dupcache", "DuplicateRequestCache", ("check",), "rpc"),
    ("repro.server.base", "NfsServer", ("reply",), "server"),
    ("repro.server.cpu", "Cpu", ("consume",), "server"),
    ("repro.server.standard", "StandardWritePath", ("handle",), "server"),
    ("repro.core.gather", "GatheringWritePath", ("handle",), "core"),
    ("repro.core.siva", "SivaWritePath", ("handle",), "core"),
    ("repro.commit.path", "AsyncCommitWritePath", ("handle", "commit"), "commit"),
    ("repro.fs.ufs", "Ufs", (ALL_PUBLIC,), "fs"),
    ("repro.fs.buffer_cache", "BufferCache", ("lookup", "get"), "fs"),
    ("repro.disk.device", "DiskDevice", ("submit",), "disk"),
    ("repro.disk.stripe", "StripeSet", ("submit",), "disk"),
    ("repro.nvram.presto", "PrestoCache", ("submit",), "nvram"),
    # The client's public calls plus its two RPC choke points.
    ("repro.nfs.client", "NfsClient", (ALL_PUBLIC, "_call", "_do_write"), "nfs"),
    (
        "repro.faults.oracle",
        "Oracle",
        ("record_ack", "record_unstable", "record_commit", "record_read", "check", "check_group"),
        "faults",
    ),
    ("repro.cluster.oracle", "ClusterOracle", ("check", "check_divergence"), "faults"),
    ("repro.obs.collector", "RecordingCollector", ("emit",), "obs"),
    ("repro.cluster.router", "MountRouter", ("route",), "cluster"),
    ("repro.replica.replicator", "Replicator", ("replicate", "handle_replicate"), "replica"),
    (
        "repro.tiering.engine",
        "ShardMigrator",
        (
            "handle_begin",
            "handle_read",
            "handle_delta",
            "handle_park",
            "handle_abort",
            "handle_prepare",
            "handle_write",
            "handle_purge",
        ),
        "tiering",
    ),
)


def layer_of_module(module: str) -> str:
    """``repro.<layer>...`` -> layer, anything else -> ``other``."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return OTHER


def entry_methods(cls: type, methods: Sequence[str]) -> List[str]:
    out: List[str] = []
    for method in methods:
        if method == ALL_PUBLIC:
            out.extend(
                name
                for name, value in vars(cls).items()
                if not name.startswith("_") and inspect.isfunction(value)
            )
        else:
            out.append(method)
    return out


class Tracer:
    """Span recorder with per-layer self time and per-entry-point counts."""

    #: Spans kept in memory for the spans file; later ones are only counted.
    MAX_SPANS = 200_000

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.active = False
        #: Self seconds by layer, and of spans in code that is no layer's.
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS + (OTHER,)}
        #: Calls by entry-point name (``layer.Class.method``).
        self.calls: Dict[str, int] = {}
        #: Results entry points reported through their ``observe`` hooks.
        self.observed: Dict[str, float] = {}
        #: Kept spans: [name, start, end, parent index or -1].
        self.spans: List[list] = []
        self.spans_dropped = 0
        #: Wall seconds spent with tracing active.
        self.traced_s = 0.0
        self._stack: List[list] = []
        self._resumed_at = 0.0
        self._paused_at = 0.0
        self._patcher = Patcher()

    # -- recording ----------------------------------------------------------------

    def enter(self, name: str, layer: str) -> Optional[list]:
        if not self.active:
            return None
        span = -1
        if len(self.spans) < self.MAX_SPANS:
            span = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent])
        else:
            self.spans_dropped += 1
        now = self.clock()
        frame = [layer, now, 0.0, span]
        self._stack.append(frame)
        if span >= 0:
            self.spans[span][1] = now
        return frame

    def exit(self, frame: Optional[list]) -> None:
        if frame is None:
            return
        now = self.clock()
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        duration = now - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] >= 0:
            self.spans[frame[3]][2] = now

    def count(self, name: str) -> None:
        if self.active:
            self.calls[name] = self.calls.get(name, 0) + 1

    def observe(self, key: str, amount: float) -> None:
        if self.active:
            self.observed[key] = self.observed.get(key, 0.0) + amount

    def set_active(self, active: bool) -> None:
        """Start or pause recording.  A pause inside open spans is charged
        to none of them: the paused interval counts as nested time."""
        if active == self.active:
            return
        now = self.clock()
        self.active = active
        if active:
            paused = now - self._paused_at if self._paused_at else 0.0
            if self._stack:
                self._stack[-1][2] += paused
            self._resumed_at = now
        else:
            self.traced_s += now - self._resumed_at
            self._paused_at = now

    def summary(self) -> Dict[str, float]:
        """Self seconds for every layer and ``other`` (which closes the sum
        to the traced wall time)."""
        out = {layer: self.self_s[layer] for layer in LAYERS}
        out[OTHER] = self.traced_s - sum(out.values())
        return out

    def write_spans(self, path: str, env: dict) -> None:
        """One JSON header line (environment, drop count), then one line
        per kept span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write(json.dumps({"env": env, "spans": len(self.spans), "dropped": self.spans_dropped}) + "\n")
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": round(start - origin, 9), "end": round(end - origin, 9), "parent": parent})
                    + "\n"
                )

    # -- installation -------------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, class_name, methods, layer in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in entry_methods(cls, methods):
                name = f"{layer}.{class_name}.{method}"
                if (class_name, method) == ("Environment", "run"):
                    self._patcher.wrap(cls, method, self._stepping_run(name))
                elif (class_name, method) == ("Environment", "process"):
                    self._patcher.wrap(cls, method, self._process_spawn(name))
                else:
                    observe = OBSERVERS.get((class_name, method))
                    self._patcher.wrap(cls, method, self._entry(name, layer, observe))
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- wrappers -----------------------------------------------------------------

    def _entry(self, name: str, layer: str, observe):
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                tracer.count(name)
                frame = tracer.enter(name, layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                if observe is not None and tracer.active:
                    observe(tracer, args, kwargs, result)
                if type(result) is GeneratorType:
                    return traced_generator(tracer, name, layer, result)
                return result

            return traced

        return make

    def _process_spawn(self, entry: str):
        """Attribute each process's resumptions to the package its top
        generator's code lives in."""
        tracer = self

        def make(original):
            def process(env, generator, name=""):
                tracer.count(entry)
                # Keep the default process name the unwrapped generator gives.
                name = name or getattr(generator, "__name__", "process")
                if type(generator) is GeneratorType and generator.gi_code is not _TRACED_CODE:
                    module = generator.gi_frame.f_globals.get("__name__", "")
                    generator = traced_generator(
                        tracer,
                        f"{module}.{generator.__qualname__}",
                        layer_of_module(module),
                        generator,
                    )
                return original(env, generator, name=name)

            return process

        return make

    def _stepping_run(self, name: str):
        """``Environment.run`` through ``step()``: the same stopping rules
        as the inlined loop, one ``sim`` span per event."""
        tracer = self

        def make(original):
            from repro.sim.core import Event, SimError, StopSimulation

            def run(env, until=None):
                if until is not None and not isinstance(until, Event):
                    return original(env, until)
                tracer.count(name)
                frame = tracer.enter(name, "sim")
                try:
                    if until is not None:
                        if until.processed:
                            return until._value
                        until.callbacks.append(env._stop_on)
                    try:
                        while env.peek() != float("inf"):
                            env.step()
                    except StopSimulation as stop:
                        return stop.value
                    if until is not None and not until.processed:
                        raise SimError("run() ended before the `until` event fired")
                    return None
                finally:
                    tracer.exit(frame)

            return run

        return make


def traced_generator(tracer: Tracer, name: str, layer: str, generator):
    """Delegate to ``generator`` like ``yield from``, timing each
    resumption as a span."""
    send = generator.send
    throw = generator.throw
    value = None
    error: Optional[BaseException] = None
    while True:
        frame = tracer.enter(name, layer)
        try:
            if error is None:
                yielded = send(value)
            else:
                pending, error = error, None
                yielded = throw(pending)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.exit(frame)
        try:
            value = yield yielded
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:  # re-raised inside ``generator``
            error = exc
            value = None


_TRACED_CODE = traced_generator.__code__


# -- observers: results counted where the work happens ------------------------------


def _cache_lookup(tracer: Tracer, args, kwargs, result) -> None:
    tracer.observe("fs.bcache_hits", result is not None)


def _dup_check(tracer: Tracer, args, kwargs, result) -> None:
    tracer.observe("rpc.dupcache_hits", result[0] != "new")


def _disk_submit(tracer: Tracer, args, kwargs, result) -> None:
    nbytes, is_write = _submit_args(*args[1:], **kwargs)
    if is_write:
        tracer.observe("disk.write_bytes", nbytes)
        tracer.observe("disk.writes", 1)


def _submit_args(offset: int, nbytes: int, is_write: bool = True, kind: str = "data"):
    """``Storage.submit``'s parameters (minus ``self``) -> what we count."""
    return nbytes, is_write


OBSERVERS = {
    ("BufferCache", "lookup"): _cache_lookup,
    ("DuplicateRequestCache", "check"): _dup_check,
    ("DiskDevice", "submit"): _disk_submit,
}
