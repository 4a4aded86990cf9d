"""Command-line interface: exit codes, report files, norms, demos."""

import json

import numpy as np
import pytest

from multlab.cli import main, report_schema_version

Z2 = {
    "group": {"type": "cyclic", "n": 2},
    "F_scalar": [1, -1],
    "grid_scalar": [[1, 1], [0, 1]],
}


@pytest.fixture
def z2_path(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(Z2))
    return str(path)


def test_report_schema_version_constant():
    assert report_schema_version() == "1.0.0"


def test_run_writes_report_and_exits_zero(z2_path, tmp_path, capsys):
    report_path = tmp_path / "out" / "report.json"
    report_path.parent.mkdir()
    code = main(
        ["run", "--scenario", z2_path, "--suite", "takai,transference",
         "--report", str(report_path)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    report = json.loads(report_path.read_text())
    assert report["version"] == "1.0.0"
    assert report["suites"] == ["takai", "transference"]
    assert all(c["pass"] for c in report["checks"])


def test_run_json_output(z2_path, capsys):
    code = main(["run", "--scenario", z2_path, "--suite", "norms", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    kinds = {n["kind"]: n["value"] for n in report["norms"]}
    assert abs(kinds["hs"] - 1.0) < 1e-6
    assert abs(kinds["schur"] - 2.0 / np.sqrt(3.0)) < 1e-6


def test_run_seed_flag_recorded(z2_path, capsys):
    code = main(
        ["run", "--scenario", z2_path, "--suite", "takai", "--seed", "0x1234", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == "0x1234"


def test_exit_two_on_malformed_cayley(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"group": {"type": "table", "cayley": [[0, 1, 2], [1, 0, 0], [2, 0, 1]]}})
    )
    code = main(["run", "--scenario", str(path)])
    assert code == 2
    assert "associativity fails at (1, 1, 2)" in capsys.readouterr().err


def test_exit_two_on_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"group":')
    code = main(["run", "--scenario", str(path)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_exit_two_on_unknown_suite(z2_path, capsys):
    code = main(["run", "--scenario", z2_path, "--suite", "bogus"])
    assert code == 2
    assert "unknown suite" in capsys.readouterr().err


def test_exit_one_on_failing_check(tmp_path, capsys):
    scenario = {
        "group": {"type": "cyclic", "n": 2},
        "algebra": {"blocks": [2]},
        "action": {"action": {"unitaries": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]}},
        "F_scalar": [1, 0.5],
        "module": [[0, 1], [1, 0]],
        "suites": ["herzschur"],
    }
    path = tmp_path / "badmod.json"
    path.write_text(json.dumps(scenario))
    code = main(["run", "--scenario", str(path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_norm_kinds(z2_path, capsys):
    code = main(["norm", "--kind", "schur", "--scenario", z2_path, "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 2.0 / np.sqrt(3.0)) < 1e-6
    assert out["gap"] < 1e-5 and "dual_value" in out

    code = main(["norm", "--kind", "hs", "--scenario", z2_path, "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 1.0) < 1e-6

    code = main(["norm", "--kind", "cb", "--scenario", z2_path, "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 1.0) < 1e-6


def test_norm_missing_field_exits_two(tmp_path, capsys):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"group": {"type": "cyclic", "n": 2}}))
    code = main(["norm", "--kind", "schur", "--scenario", str(path)])
    assert code == 2
    assert "grid" in capsys.readouterr().err


def test_demo_z2_transference(capsys):
    code = main(["demo", "z2-transference"])
    assert code == 0
    text = capsys.readouterr().out
    assert "[[v0, v1]," in text and "[v1, v0]]" in text
    assert "1.0000000" in text


def test_demo_z3_weyl(capsys):
    code = main(["demo", "z3-weyl"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("gamma=") == 9
    assert "r=2" in text


def test_demo_unknown_exits_two(capsys):
    code = main(["demo", "nope"])
    assert code == 2
    assert "unknown demo" in capsys.readouterr().err


def test_run_hadamard_action_passes(tmp_path, capsys):
    # Z2 acting on M2 by Ad(H): the Takai word extension must not take
    # products that vanish up to rounding (they once made it singular).
    h = (np.array([[1, 1], [1, -1]]) / np.sqrt(2)).tolist()
    path = tmp_path / "hadamard.json"
    path.write_text(json.dumps({
        "group": {"type": "cyclic", "n": 2},
        "algebra": {"blocks": [2]},
        "action": {"unitaries": [[[1, 0], [0, 1]], h]},
    }))
    report_path = tmp_path / "report.json"
    assert main(["run", "--scenario", str(path), "--report", str(report_path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")
    checks = json.loads(report_path.read_text())["checks"]
    assert checks and all(c["pass"] for c in checks)


def test_run_z2xz2_translation_fits_the_solver(tmp_path, capsys):
    # Default suites include norms; the unreduced grid SDP would have
    # 1 + 2 * 64^2 = 8193 parameters, over the solver cap.  Reduced by the
    # grid's symmetry it has 129.
    path = tmp_path / "z2xz2-translation.json"
    path.write_text(json.dumps({
        "group": {"type": "product", "factors": [
            {"type": "cyclic", "n": 2}, {"type": "cyclic", "n": 2},
        ]},
        "action": "translation",
    }))
    report_path = tmp_path / "report.json"
    assert main(["run", "--scenario", str(path), "--report", str(report_path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")
    report = json.loads(report_path.read_text())
    assert report["checks"] and all(c["pass"] for c in report["checks"])
    assert "norms-hs-gap" in [c["name"] for c in report["checks"]]
    assert [n["kind"] for n in report["norms"]] == ["hs"]
