"""Command-line front end: verification runs, certified norms, demos.

Subcommands
-----------
``run --scenario PATH [--suite LIST] [--tol FLOAT] [--seed HEX]
[--report PATH] [--json]``
    Execute the selected suites (comma-separated; defaults to every suite
    that fits the scenario) and print or write a report.

``norm --kind {schur,cb,hs} --scenario PATH [--tol FLOAT] [--seed HEX]
[--json]``
    Solve the certifying semidefinite program for one norm and print the
    primal value, dual value, and gap.  ``schur`` needs a grid, ``hs`` a
    fiber symbol; ``cb`` takes the scenario's distinguished map (bisymbol
    table, else the ambient extension of the fiber symbol, else the grid
    as one map).

``demo NAME``
    Deterministic worked examples: ``z2-transference`` or ``z3-weyl``.

Exit status: 0 when every selected check passes, 1 on numerical failure,
2 on parse or validation problems.
"""

import argparse
import json
import sys

import numpy as np

from .algebras import make_algebra, trivial_action
from .cbnorm import cb_norm, hs_cb_norm, schur_cb_norm, schur_symbol_cb_norm
from .crossed import CrossedProductModel
from .errors import ScenarioError, SolverError, ValidationError
from .groups import make_cyclic
from .herzschur import FiberSymbol
from .pontryagin import simultaneous_multiplier, weyl_basis
from .sampling import toeplitz_grid
from .scenarios import (
    REPORT_SCHEMA_VERSION,
    load_scenario,
    run_suites,
    write_report,
)
from .schur import schur_map
from .transference import ambient_map_of_symbol, transfer_symbol

DEMO_NAMES = ("z2-transference", "z3-weyl")


def report_schema_version():
    """Schema version embedded in every report."""
    return REPORT_SCHEMA_VERSION


def _parse_seed(text):
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multlab",
        description="Finite-model multiplier laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run verification suites on a scenario")
    run_p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run_p.add_argument("--suite", default=None, help="comma-separated suite names")
    run_p.add_argument("--tol", type=float, default=None, help="base residual tolerance")
    run_p.add_argument("--seed", type=_parse_seed, default=None, help="rng seed (hex ok)")
    run_p.add_argument("--report", default=None, help="write the JSON report here")
    run_p.add_argument("--json", action="store_true", help="print the report as JSON")

    norm_p = sub.add_parser("norm", help="compute one SDP-certified norm")
    norm_p.add_argument("--kind", required=True, choices=("schur", "cb", "hs"))
    norm_p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    norm_p.add_argument("--tol", type=float, default=1e-7, help="SDP tolerance")
    norm_p.add_argument("--seed", type=_parse_seed, default=None, help="rng seed (hex ok)")
    norm_p.add_argument("--json", action="store_true", help="print the result as JSON")

    demo_p = sub.add_parser("demo", help="print a worked example")
    demo_p.add_argument("name", help="one of: " + ", ".join(DEMO_NAMES))
    return parser


def _print_report(report, passed, out):
    print(f"report version {report['version']}", file=out)
    print(f"scenario hash  {report['scenario-hash']}", file=out)
    print(f"seed           {report['seed']}", file=out)
    print(f"suites         {', '.join(report['suites'])}", file=out)
    for check in report["checks"]:
        verdict = "pass" if check["pass"] else "FAIL"
        print(
            f"  [{verdict}] {check['name']:38s} residual {check['residual']:.3e}"
            f"  tol {check['tol']:.1e}  ({check['time_ms']:.1f} ms)",
            file=out,
        )
    for norm in report["norms"]:
        print(
            f"  [norm] {norm['kind']:6s} value {norm['value']:.10f}"
            f"  gap {norm['gap']:.3e}",
            file=out,
        )
    tally = sum(1 for c in report["checks"] if c["pass"])
    print(f"{tally}/{len(report['checks'])} checks passed", file=out)
    print("PASS" if passed else "FAIL", file=out)


def cmd_run(args):
    scenario = load_scenario(args.scenario)
    suites = args.suite if args.suite else None
    report, passed = run_suites(scenario, suites=suites, tol=args.tol, seed=args.seed)
    if args.report:
        write_report(report, args.report)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_report(report, passed, sys.stdout)
    return 0 if passed else 1


def _norm_solution(scenario, kind, tol):
    model = scenario.model
    if kind == "schur":
        if scenario.scalar_grid is not None:
            return schur_cb_norm(scenario.scalar_grid, tol=tol, details=True)
        if scenario.grid_symbol is not None:
            return schur_symbol_cb_norm(scenario.grid_symbol, tol=tol, details=True)
        raise ScenarioError('norm kind "schur" needs a "grid" or "grid_scalar" field')
    if kind == "hs":
        if scenario.fiber_symbol is None:
            raise ScenarioError('norm kind "hs" needs an "F" or "F_scalar" field')
        return hs_cb_norm(model, scenario.fiber_symbol, tol=tol, details=True)
    if scenario.bisymbol is not None:
        mapping = simultaneous_multiplier(scenario.group, scenario.bisymbol)
        return cb_norm(mapping, tol=tol, details=True)
    if scenario.fiber_symbol is not None:
        transferred = transfer_symbol(model, scenario.fiber_symbol)
        return cb_norm(ambient_map_of_symbol(model, transferred), tol=tol, details=True)
    if scenario.grid_symbol is not None:
        return cb_norm(schur_map(scenario.grid_symbol), tol=tol, details=True)
    raise ScenarioError('norm kind "cb" needs a "u", "F", or "grid" field')


def cmd_norm(args):
    scenario = load_scenario(args.scenario)
    value, result = _norm_solution(scenario, args.kind, args.tol)
    if args.json:
        payload = {
            "version": REPORT_SCHEMA_VERSION,
            "scenario-hash": scenario.hash,
            "kind": args.kind,
            "value": value,
            "dual_value": result.dual_value,
            "gap": result.gap,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"kind         {args.kind}")
        print(f"primal value {value:.10f}")
        print(f"dual value   {result.dual_value:.10f}")
        print(f"gap          {result.gap:.3e}")
    return 0


def _matrix_lines(mat):
    return np.array2string(
        np.round(np.asarray(mat), 6) + 0.0, precision=3, suppress_small=True
    )


def _demo_z2_transference(out):
    g = make_cyclic(2)
    print("Scalar fiber vector v = (v0, v1) on the two-element group.", file=out)
    print("Transferred kernel grid (row t, column s) is v(t s^-1):", file=out)
    print("    [[v0, v1],", file=out)
    print("     [v1, v0]]", file=out)
    values = np.array([1.0, -1.0])
    grid = toeplitz_grid(g, values)
    print(f"For v = (1, -1):\n{_matrix_lines(grid.real)}", file=out)
    model = CrossedProductModel(trivial_action(g, make_algebra((1,))))
    symbol = FiberSymbol.from_scalar_vector(g, model.algebra, values)
    transferred = transfer_symbol(model, symbol)
    worst = 0.0
    for x in g.elements:
        for y in g.elements:
            cell = transferred.maps[x][y].apply(model.algebra.identity)
            worst = max(worst, abs(cell[0, 0] - grid[x, y]))
    print(f"transferred grid matches the kernel: residual {worst:.3e}", file=out)
    value = hs_cb_norm(model, symbol)
    print(f"certified multiplier norm: {value:.10f}", file=out)


def _demo_z3_weyl(out):
    g = make_cyclic(3)
    basis = weyl_basis(g)
    print("Weyl basis of the 3 x 3 matrices: modulation gamma, translation r.", file=out)
    for gamma in g.elements:
        for r in g.elements:
            print(f"gamma={gamma} r={r}:", file=out)
            print(_matrix_lines(basis[gamma, r]), file=out)


def cmd_demo(args):
    if args.name == "z2-transference":
        _demo_z2_transference(sys.stdout)
        return 0
    if args.name == "z3-weyl":
        _demo_z3_weyl(sys.stdout)
        return 0
    print(
        f"error: unknown demo {args.name!r}; known demos: {', '.join(DEMO_NAMES)}",
        file=sys.stderr,
    )
    return 2


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "norm":
            return cmd_norm(args)
        return cmd_demo(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
