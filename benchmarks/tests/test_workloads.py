"""Workload determinism: seeds fix inputs and outputs, tracing changes no bit."""

import time

import pytest

import harness
import workloads
from tracer import Tracer

SEED = 0x5EED

# Cheap items of round 0; the larger cold scenarios take seconds.
CHEAP = {
    "suite-run": ("suite-run/z2-module", "suite-run/z6-trivial", "suite-run/z2xz2-translation"),
    "transfer-sweep": None,
    "cb-norms": ("cb-norms/pair/z2", "cb-norms/pair/z4", "cb-norms/frozen/alternating",
                 "cb-norms/frozen/triangular", "cb-norms/dilation", "cb-norms/weyl/z2"),
}


def _outputs(name, out_dir, seed, tracer=None):
    workload = workloads.make(name, str(out_dir))
    state = workload.setup(seed)
    keep = CHEAP[name]
    items = [(n, fn) for n, fn in workload.round(state, seed, 0) if keep is None or n in keep]
    if tracer is not None:
        tracer.install(harness.TARGETS)
    try:
        records = [harness.run_item(n, 0, fn) for n, fn in items]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return [(r.name, r.outputs, r.failure) for r in records]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_repeated_seed_reproduces_every_output(name, tmp_path):
    first = _outputs(name, tmp_path / "a", SEED)
    assert first == _outputs(name, tmp_path / "b", SEED)
    for item, outputs, failure in first:
        assert outputs, item
        assert failure == workloads.KNOWN_FAILURES.get(item), item


@pytest.mark.parametrize("name", workloads.NAMES)
def test_different_seed_changes_generated_inputs(name, tmp_path):
    a = dict((n, o) for n, o, _ in _outputs(name, tmp_path / "a", SEED))
    b = dict((n, o) for n, o, _ in _outputs(name, tmp_path / "b", SEED + 1))
    seeded = [n for n in a if "frozen" not in n and "z2xz2" not in n]
    assert seeded and all(a[n] != b[n] for n in seeded)


def test_different_seed_changes_scenario_documents():
    a, b = workloads.suite_scenarios(1), workloads.suite_scenarios(2)
    assert a["z6-trivial"] != b["z6-trivial"] and a["z2-module"] != b["z2-module"]
    assert a["z5-translation"] == b["z5-translation"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_outputs_are_bit_identical(name, tmp_path):
    plain = _outputs(name, tmp_path / "a", SEED)
    assert plain == _outputs(name, tmp_path / "b", SEED, tracer=Tracer())


class _CountingWorkload:
    name = "counting"

    def round(self, state, seed, index):
        return [(f"item{k}", lambda: ({"x": 1.0}, None)) for k in range(3)]


def test_measure_runs_whole_rounds_only():
    gauge = harness.SpeedGauge()
    records, measured = harness.measure(_CountingWorkload(), None, 0, 1e-3, gauge)
    assert len(records) % 3 == 0 and measured > 0
    assert [r.round for r in records] == sorted(r.round for r in records)
    assert len(gauge.points) >= 2 and all(r.nominal_s > 0 for r in records)


def test_rescaling_uses_the_reference_times_around_an_interval():
    gauge = harness.SpeedGauge()
    gauge.points = [(1.0, harness.REFERENCE_S), (5.0, 3 * harness.REFERENCE_S)]
    assert gauge.nominal(2.0, 2.0, 4.0) == pytest.approx(1.0)
    assert gauge.nominal(2.0, 0.5, 0.9) == pytest.approx(2.0)
    assert gauge.nominal(2.0, 6.0, 7.0) == pytest.approx(2.0 / 3.0)


def test_rescaling_also_uses_the_reference_times_inside_an_interval():
    gauge = harness.SpeedGauge()
    r = harness.REFERENCE_S
    gauge.points = [(1.0, r), (2.0, 3 * r), (3.0, 3 * r), (5.0, r), (9.0, 5 * r)]
    assert gauge.nominal(2.0, 1.5, 4.0) == pytest.approx(2.0 * 4 / 8)


class _SleepingWorkload:
    name = "sleeping"

    def round(self, state, seed, index):
        return [("sleep", lambda: (time.sleep(0.6), None))]


def test_samples_inside_an_item_are_left_out_of_its_latency():
    gauge = harness.SpeedGauge()
    (record,), _ = harness.measure(_SleepingWorkload(), None, 0, 1e-3, gauge)
    inside = [t for t, _ in gauge.points if record.start < t < record.end]
    assert len(inside) >= 2
    assert record.latency_s == pytest.approx(0.6, abs=0.02)
    assert record.end - record.start > record.latency_s
