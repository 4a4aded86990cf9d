"""Scenario parsing, suite orchestration, and report assembly."""

import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from multlab import scenarios
from multlab.algebras import CbMap
from multlab.cbnorm import schur_symbol_cb_norm
from multlab.cli import main
from multlab.errors import ScenarioError
from multlab.scenarios import (
    REPORT_SCHEMA_VERSION,
    load_scenario,
    normalize_suites,
    parse_scenario,
    run_suites,
    write_report,
)
from multlab.sampling import random_fiber_symbol
from multlab.schur import SchurSymbol
from multlab.transference import transfer_symbol

Z2_SCALAR = {"group": {"type": "cyclic", "n": 2}, "F_scalar": [1, -1]}


def test_parse_minimal_defaults():
    sc = parse_scenario({"group": {"type": "cyclic", "n": 3}})
    assert sc.group.order == 3
    assert sc.algebra.blocks == (1,)
    assert sc.tol == 1e-10
    assert sc.seed == 0x5EED
    assert sc.fiber_symbol is None and sc.grid_symbol is None
    assert sc.suites is None
    assert "pontryagin" in sc.default_suites()


def test_parse_group_kinds():
    sc = parse_scenario(
        {"group": {"type": "product",
                   "factors": [{"type": "cyclic", "n": 2}, {"type": "cyclic", "n": 2}]}}
    )
    assert sc.group.order == 4 and sc.group.is_abelian
    sc = parse_scenario({"group": {"type": "symmetric", "n": 3}})
    assert sc.group.order == 6 and not sc.group.is_abelian
    assert "pontryagin" not in sc.default_suites()
    sc = parse_scenario({"group": {"type": "table", "cayley": [[0, 1], [1, 0]]}})
    assert sc.group.order == 2


def test_parse_complex_pairs_and_fiber_specs():
    sc = parse_scenario(
        {
            "group": {"type": "cyclic", "n": 2},
            "algebra": {"blocks": [2]},
            "F": {
                "0": {"scale": 1},
                "1": {"kraus": [[[[0, 1], [0, 0]], [[0, 1], [0, 0]]]]},
            },
        }
    )
    ident = np.eye(2)
    assert_allclose(sc.fiber_symbol.fibers[0].apply(ident), ident)
    sc = parse_scenario(
        {"group": {"type": "cyclic", "n": 2}, "F_scalar": [[0, 1], [0, -1]]}
    )
    assert_allclose(sc.scalar_fibers, [1j, -1j])


def test_parse_translation_action():
    sc = parse_scenario({"group": {"type": "cyclic", "n": 3}, "action": "translation"})
    assert sc.algebra.blocks == (1, 1, 1)
    sc = parse_scenario(
        {"group": {"type": "cyclic", "n": 2}, "action": {"action": "translation"}}
    )
    assert sc.algebra.blocks == (1, 1)
    with pytest.raises(ScenarioError):
        parse_scenario(
            {
                "group": {"type": "cyclic", "n": 2},
                "algebra": {"blocks": [2]},
                "action": "translation",
            }
        )


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({}, "group"),
        ({"group": {"type": "cyclic", "n": 2}, "bogus": 1}, "unknown scenario fields"),
        ({"group": {"type": "weird"}}, "unknown group type"),
        (
            {"group": {"type": "table", "cayley": [[0, 1, 2], [1, 0, 0], [2, 0, 1]]}},
            "associativity fails at (1, 1, 2)",
        ),
        ({"group": {"type": "cyclic", "n": 2}, "F_scalar": [1, 2, 3]}, "expected 2"),
        ({"group": {"type": "cyclic", "n": 2}, "F": {"0": {"scale": 1}}}, "missing fiber"),
        ({"group": {"type": "symmetric", "n": 3}, "u": [[1]]}, "abelian"),
        ({"group": {"type": "cyclic", "n": 2}, "u": [[1]]}, "shape"),
        ({"group": {"type": "cyclic", "n": 2}, "tol": -1}, "positive"),
        ({"group": {"type": "cyclic", "n": 2}, "suites": ["nope"]}, "unknown suite"),
        (
            {"group": {"type": "cyclic", "n": 2}, "module": [[1, 0], [0, 1]]},
            "module",
        ),
        (
            {"group": {"type": "cyclic", "n": 2}, "F_scalar": [1, 0], "F": {}},
            "only one",
        ),
    ],
)
def test_parse_errors(data, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert fragment in str(err.value)


def test_scenario_hash_is_order_insensitive_and_content_sensitive():
    a = parse_scenario({"group": {"type": "cyclic", "n": 2}, "F_scalar": [1, -1]})
    b = parse_scenario({"F_scalar": [1, -1], "group": {"n": 2, "type": "cyclic"}})
    c = parse_scenario({"group": {"type": "cyclic", "n": 2}, "F_scalar": [1, 1]})
    assert a.hash == b.hash
    assert a.hash != c.hash
    assert len(a.hash) == 64


def test_normalize_suites():
    assert normalize_suites("takai,norms") == ("takai", "norms")
    assert normalize_suites(["schur", "schur"]) == ("schur",)
    with pytest.raises(ScenarioError):
        normalize_suites("")
    with pytest.raises(ScenarioError):
        normalize_suites("takai,bogus")


def test_run_suites_z2_all_pass_and_schema():
    sc = parse_scenario(dict(Z2_SCALAR))
    report, passed = run_suites(sc)
    assert passed
    assert set(report) == {"version", "scenario-hash", "seed", "suites", "checks", "norms"}
    assert report["version"] == REPORT_SCHEMA_VERSION == "1.0.0"
    assert report["seed"] == "0x5eed"
    assert report["scenario-hash"] == sc.hash
    names = [c["name"] for c in report["checks"]]
    assert "takai-relation-algebra" in names
    assert "transference-scalar-grid" in names
    assert "pontryagin-weyl-diagonal" in names
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "tol", "pass", "time_ms"}
        assert check["pass"]
    hs = [n for n in report["norms"] if n["kind"] == "hs"]
    assert len(hs) == 1
    assert set(hs[0]) == {"kind", "value", "gap"}
    assert abs(hs[0]["value"] - 1.0) < 1e-6


def test_run_suites_deterministic_given_seed():
    sc = parse_scenario(dict(Z2_SCALAR))
    r1, _ = run_suites(sc)
    r2, _ = run_suites(sc)
    take = lambda rep: [(c["name"], c["residual"]) for c in rep["checks"]]
    assert take(r1) == take(r2)
    assert r1["norms"] == r2["norms"]
    r3, _ = run_suites(sc, seed=7)
    assert r3["seed"] == "0x7"


def test_run_suites_selection_and_validation():
    sc = parse_scenario({"group": {"type": "symmetric", "n": 3}})
    with pytest.raises(ScenarioError):
        run_suites(sc, suites="pontryagin")
    report, passed = run_suites(sc, suites="takai,herzschur")
    assert passed and report["suites"] == ["takai", "herzschur"]


def test_run_suites_ad_action_scenario():
    sc = parse_scenario(
        {
            "group": {"type": "cyclic", "n": 2},
            "algebra": {"blocks": [2]},
            "action": {
                "action": {"unitaries": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]}
            },
            "F_scalar": [1, 0.5],
        }
    )
    report, passed = run_suites(sc, suites="herzschur,transference,invariance")
    assert passed, report["checks"]


def test_run_suites_module_flags():
    base = {
        "group": {"type": "cyclic", "n": 2},
        "algebra": {"blocks": [2]},
        "action": {"action": {"unitaries": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]}},
        "F_scalar": [1, 0.5],
        "suites": ["herzschur"],
    }
    good = dict(base, module=[[2, 0], [0, 3]])
    report, passed = run_suites(parse_scenario(good))
    assert passed
    assert any(c["name"] == "herzschur-module-compatible" for c in report["checks"])
    bad = dict(base, module=[[0, 1], [1, 0]])
    report, passed = run_suites(parse_scenario(bad))
    assert not passed
    flag = [c for c in report["checks"] if c["name"] == "herzschur-module-compatible"]
    assert len(flag) == 1 and not flag[0]["pass"]


def test_run_suites_triangular_grid_norm():
    sc = parse_scenario(
        {"group": {"type": "cyclic", "n": 2}, "grid_scalar": [[1, 1], [0, 1]]}
    )
    report, passed = run_suites(sc, suites="norms")
    assert passed
    schur = [n for n in report["norms"] if n["kind"] == "schur"]
    assert len(schur) == 1
    assert abs(schur[0]["value"] - 2.0 / np.sqrt(3.0)) < 1e-6


def test_run_suites_translation_kraus_grid_norm():
    # Each cell is x -> x - ZxZ on C + C, the zero map on the coefficient
    # algebra even though its Kraus pairs act nontrivially off the blocks.
    eye, z = [[1, 0], [0, 1]], [[1, 0], [0, -1]]
    minus_z = [[-1, 0], [0, 1]]
    cell = {"kraus": [[eye, eye], [minus_z, z]]}
    sc = parse_scenario(
        {
            "group": {"type": "cyclic", "n": 2},
            "action": "translation",
            "suites": ["norms"],
            "grid": [[cell, cell], [cell, cell]],
        }
    )
    report, passed = run_suites(sc)
    assert passed
    norms = {n["kind"]: n for n in report["norms"]}
    assert norms["schur"]["value"] <= 1e-6
    # The hs norm is an SDP value, accurate to its gap: compare it with the
    # unreduced solve of the same transferred grid within both gaps.
    symbol = random_fiber_symbol(np.random.default_rng([sc.seed, 7]), sc.model)
    oracle, result = schur_symbol_cb_norm(transfer_symbol(sc.model, symbol), details=True)
    assert abs(norms["hs"]["value"] - 0.4786246465504171) < 1e-6
    assert abs(norms["hs"]["value"] - oracle) <= norms["hs"]["gap"] + result.gap


def test_run_suites_translation_schur_suite():
    # On the translation model the coefficient algebra has one block per
    # group element, so the identity grid is a compression, not the identity.
    sc = parse_scenario({"group": {"type": "cyclic", "n": 3}, "action": "translation"})
    report, passed = run_suites(sc, suites="schur")
    assert passed, report["checks"]
    names = [c["name"] for c in report["checks"]]
    assert names == ["schur-bimodule", "schur-extract-roundtrip", "schur-identity-grid"]
    assert report["checks"][-1]["residual"] == 0.0


def test_load_scenario_and_write_report(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(Z2_SCALAR))
    sc = load_scenario(str(path))
    report, passed = run_suites(sc, suites="takai")
    assert passed
    out = tmp_path / "report.json"
    write_report(report, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["version"] == "1.0.0"
    assert loaded["checks"] == report["checks"]
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".report-")]
    assert leftovers == []
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.json"))


def _complex_list(a):
    return [[z.real, z.imag] for z in np.ravel(a)]


def _scaled_scenarios(scale):
    """Z3 translation with bisymbol u, and Z3 ad-M2 with F_scalar and grid_scalar,
    every seeded entry multiplied by ``scale``."""
    rng = np.random.default_rng(24)

    def normal(*shape):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    units = [np.diag([1.0, np.exp(2j * np.pi * r / 3)]) for r in range(3)]
    translation = {
        "group": {"type": "cyclic", "n": 3},
        "action": "translation",
        "u": [_complex_list(row) for row in normal(3, 3)],
    }
    ad = {
        "group": {"type": "cyclic", "n": 3},
        "algebra": {"blocks": [2]},
        "action": {"unitaries": [[_complex_list(row) for row in u] for u in units]},
        "F_scalar": _complex_list(normal(3)),
        "grid_scalar": [_complex_list(row) for row in normal(3, 3)],
    }
    return parse_scenario(translation), parse_scenario(ad)


def _plant(monkeypatch, name, defect):
    """Wrap ``scenarios.<name>`` so one coordinate of its result is off by ``defect``."""
    original = getattr(scenarios, name)

    def nudge(phi):
        coords = phi.coords.copy()
        coords[0, 1] += defect
        return CbMap.from_coords(phi.algebra, coords)

    def planted(*args):
        out = original(*args)
        if isinstance(out, SchurSymbol):
            maps = [list(row) for row in out.maps]
            maps[0][1] = nudge(maps[0][1])
            return SchurSymbol(maps)
        return nudge(out)

    monkeypatch.setattr(scenarios, name, planted)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6, 1e8])
def test_checks_hold_at_every_scale_and_catch_a_relative_defect(scale, monkeypatch):
    # Rounding of a true identity grows with the size of the inputs, so
    # every check compares with tol * max(1, scale of the compared objects).
    translation, ad = _scaled_scenarios(scale)
    for sc in (translation, ad):
        suites = [s for s in sc.default_suites() if s != "norms"]
        report, passed = run_suites(sc, suites=suites)
        assert passed, [c for c in report["checks"] if not c["pass"]]
    defect = 1e-6 * max(1.0, scale)
    for sc, name, suite, check in (
        (translation, "simultaneous_multiplier", "pontryagin", "pontryagin-weyl-diagonal"),
        (ad, "transfer_symbol", "transference", "transference-extension-agrees"),
    ):
        with monkeypatch.context() as patch:
            _plant(patch, name, defect)
            report, passed = run_suites(sc, suites=suite)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert not passed and check in failed, report["checks"]


def test_linalg_error_becomes_a_failed_check(monkeypatch, tmp_path):
    def breaks(run):
        np.linalg.inv(np.zeros((2, 2)))

    monkeypatch.setitem(scenarios._SUITE_RUNNERS, "takai", breaks)
    path, out = tmp_path / "z2.json", tmp_path / "report.json"
    path.write_text(json.dumps(Z2_SCALAR))
    code = main(["run", "--scenario", str(path), "--suite", "takai,herzschur",
                 "--report", str(out)])
    assert code == 1
    checks = json.loads(out.read_text())["checks"]
    assert checks[0]["name"] == "takai-error" and not checks[0]["pass"]
    assert checks[1]["name"] == "herzschur-multiplier"
