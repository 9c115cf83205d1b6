"""The benchmark's own tests: metric names, seeds, tracer hygiene.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
Workload sizes are shrunk through their module constants so each test
takes a second or two.
"""

import importlib
import json
import os
import re
import signal
import statistics

import pytest

from perfbench import harness, workloads
from perfbench.probe import Probe
from perfbench.reference import NOMINAL_S, Sampler
from perfbench.tracer import ENTRY_POINTS, LAYERS, OTHER, Tracer, traced_generator

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a quick smoke size."""
    monkeypatch.setattr(workloads, "SEQ_FILE_MB", 1)
    monkeypatch.setattr(workloads, "SFS_DURATION", 0.5)
    monkeypatch.setattr(workloads, "SFS_WARMUP", 0.2)
    monkeypatch.setattr(workloads, "SFS_REPLICAS", 1)
    monkeypatch.setattr(workloads, "CAMPAIGN_PLANS_PER_COMBO", 1)
    monkeypatch.setattr(workloads, "FLEET_STORMS", 1)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_and_units_are_well_formed():
    for units in (harness.END_TO_END_UNITS, harness.PER_LAYER_UNITS):
        for name, unit in units.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_lists_exactly_what_the_harness_prints():
    spec = load_benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_every_layer_reports_self_time():
    for layer in LAYERS + (OTHER,):
        assert f"{layer}.self_s" in harness.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reaches_generated_configs(small, name):
    probe = Probe().install()
    built = []
    take_systems = probe.take_systems

    def record():
        systems = take_systems()
        built.extend(systems)
        return systems

    probe.take_systems = record
    seeds = []
    try:
        for seed in (11, 12):
            outcome = workloads.WORKLOADS[name](seed, probe)
            record()
            seeds.append(sorted({system.config.seed for system in built}))
            built.clear()
            assert not outcome.violations
    finally:
        probe.uninstall()
    # One storm / LADDIS replica per iteration here, so its seed is the seed.
    assert seeds == [[11], [12]]


def snapshot():
    """The ``__dict__`` of every class the probe or tracer patches."""
    classes = [
        getattr(importlib.import_module(module), cls) for module, cls, _, _ in ENTRY_POINTS
    ]
    from repro.cluster.fleet import Cluster
    from repro.experiments.testbed import Testbed
    from repro.workload.laddis import LaddisGenerator

    classes += [Cluster, Testbed, LaddisGenerator]
    return {cls: dict(vars(cls)) for cls in classes}


def test_traced_run_leaves_no_patched_attribute(small):
    before = snapshot()
    result = harness.run("crash_campaign", 3, 0.0, True, ROOT)
    after = snapshot()
    assert result.correct, result.details["problems"]
    for cls, attrs in before.items():
        assert set(after[cls]) == set(attrs), cls
        for name, value in attrs.items():
            assert after[cls][name] is value, f"{cls.__name__}.{name}"


def test_traced_run_is_complete_and_adds_up(small):
    result = harness.run("seqwrite", 5, 0.0, True, ROOT)
    assert result.correct, result.details["problems"]
    metrics = {name: entry["value"] for name, entry in result.metrics.items()}
    assert set(metrics) == set(harness.PER_LAYER_UNITS)
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS + (OTHER,))
    assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["faults.self_s"] == 0.0
    assert metrics["sim.events"] > 0 and metrics["core.self_s"] > 0


def test_untraced_run_reports_every_end_to_end_metric(small):
    handler = signal.getsignal(signal.SIGALRM)
    result = harness.run("fleet_storm", 2, 0.0, False, ROOT)
    assert result.correct, result.details["problems"]
    assert set(result.metrics) == set(harness.END_TO_END_UNITS)
    assert all(entry["value"] > 0 for entry in result.metrics.values())
    assert all(scale > 0 for scale in result.details["scale"])
    assert result.details["env"]["nproc"] >= 1
    assert result.failed == 0 and result.attempted > 0
    # The host-speed sampler is gone: handler restored, timer disarmed.
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampler_clock_leaves_out_slices():
    sampler = Sampler()
    started = sampler.clock()
    for _ in range(20):
        sampler.sample()
    assert sampler.clock() - started < sampler.stolen_s / 10
    assert sampler.scale(0) == pytest.approx(NOMINAL_S / statistics.fmean(sampler.samples))
    assert sampler.scale(20) > 0 and len(sampler.samples) == 21


def test_traced_generator_behaves_like_yield_from():
    tracer = Tracer()
    tracer.set_active(True)

    def inner():
        try:
            got = yield 1
            got = yield got + 1
        except KeyError as exc:
            yield f"caught {exc.args[0]}"
        return "done"

    def outer(gen):
        return (yield from gen)

    plain, traced = outer(inner()), outer(traced_generator(tracer, "t", "sim", inner()))
    for gen in (plain, traced):
        assert next(gen) == 1
        assert gen.send(5) == 6
        assert gen.throw(KeyError("k")) == "caught k"
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == "done"
    tracer.set_active(False)
    assert tracer.calls == {} and tracer._stack == []
    assert tracer.self_s["sim"] > 0
