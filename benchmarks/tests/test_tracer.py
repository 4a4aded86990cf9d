"""The tracer: self-time arithmetic, wrapping at every binding, loud failures."""

import json
import os

import numpy as np
import pytest

import env
import harness
import multlab.algebras as al
import multlab.cbnorm as cb
import multlab.crossed as cr
import multlab.groups as gr
import multlab.scenarios as scn
import multlab.schur as sc
import multlab.transference as tr
import tracer as tracing
import run
import workloads
from multlab.herzschur import FiberSymbol
from tracer import Span, Tracer, span_stats


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("c", 6.0, 7.5, parent=2),
    ]
    stats = span_stats(spans)
    assert stats["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert stats["a"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    assert stats["b"] == {"calls": 1, "total_s": 4.0, "self_s": 2.5}
    assert stats["c"] == {"calls": 1, "total_s": 1.5, "self_s": 1.5}


def test_recursive_spans_are_timed_once_in_total():
    spans = [
        Span("f", 0.0, 8.0),
        Span("g", 1.0, 7.0, parent=0),
        Span("f", 2.0, 5.0, parent=1),
        Span("f", 3.0, 4.0, parent=2),
    ]
    stats = span_stats(spans)
    assert stats["f"]["calls"] == 3
    assert stats["f"]["total_s"] == 8.0
    assert stats["f"]["self_s"] == (8.0 - 6.0) + (3.0 - 1.0) + 1.0
    assert stats["g"]["self_s"] == 6.0 - 3.0


@pytest.fixture
def tracer():
    t = Tracer()
    t.install(harness.TARGETS)
    yield t
    t.uninstall()


def test_function_is_wrapped_at_every_module_binding(tracer):
    wrapped = cr.takai_duality
    assert getattr(wrapped, "__wrapped__", None) is not None
    assert tr.takai_duality is wrapped and scn.takai_duality is wrapped
    assert sc.grid_cb_solution is cb.grid_cb_solution
    assert getattr(sc.grid_cb_solution, "__wrapped__", None) is not None


def test_uninstall_restores_every_binding():
    originals = (cr.takai_duality, sc.grid_cb_solution, al.CbMap.__init__,
                 al.CbMap.__dict__["from_coords"])
    t = Tracer()
    t.install(harness.TARGETS)
    t.uninstall()
    assert (cr.takai_duality, sc.grid_cb_solution, al.CbMap.__init__,
            al.CbMap.__dict__["from_coords"]) == originals


def test_calls_through_other_modules_and_methods_are_recorded(tracer):
    g = gr.make_cyclic(2)
    model = cr.CrossedProductModel(al.trivial_action(g, al.make_algebra((1,))))
    tr.schur_extension(model, FiberSymbol.from_scalar_vector(g, model.algebra, [1.0, -1.0]))
    symbol = sc.SchurSymbol.from_scalar_grid(model.algebra, np.array([[1.0, 1.0], [0.0, 1.0]]))
    sc.dilation_factorize(symbol)
    stats = span_stats(tracer.spans)
    for name in ("crossed.CrossedProductModel", "crossed.takai_duality",
                 "crossed.DoubleSpan.coeffs_with_residual", "algebras.CbMap",
                 "algebras.CbMap.from_coords", "cbnorm.grid_cb_solution",
                 "cbnorm.sdp_solve", "schur.dilation_factorize"):
        assert stats[name]["calls"] >= 1, name
    takai = next(s for s in tracer.spans if s.name == "crossed.takai_duality")
    assert tracer.spans[takai.parent].name == "transference.schur_extension"
    solve = next(s for s in tracer.spans if s.name == "cbnorm.sdp_solve")
    assert solve.attrs["status"] == "optimal" and solve.attrs["iterations"] > 0
    metrics, _ = harness.layer_metrics(tracer.spans)
    assert metrics["cbnorm.sdp_solve.optimal_ratio"] == 1.0
    assert metrics["cbnorm.sdp_solve.params"] == 1 + 2 * 2 * 2


def test_missing_target_fails_at_install():
    t = Tracer()
    with pytest.raises(LookupError, match="crossed.no_such_callable"):
        t.install(["crossed.no_such_callable"])
    with pytest.raises(LookupError, match="CbMap.no_such_method"):
        t.install(["algebras.CbMap.no_such_method"])
    t.uninstall()


class _IdleWorkload:
    """Pretends to be cb-norms but never reaches the package."""

    name = "cb-norms"

    def setup(self, seed):
        return None

    def round(self, state, seed, index):
        return [("idle", lambda: ({}, None))]


def test_traced_run_fails_when_an_expected_callable_records_no_call():
    with pytest.raises(RuntimeError, match="cbnorm.sdp_solve"):
        run.run_traced(harness, tracing, _IdleWorkload(), 0, 1e-3)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
