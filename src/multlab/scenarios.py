"""Scenario files: one JSON document describing a finite model and symbols.

Schema
------
All complex entries are written as ``[re, im]`` pairs; a bare number means
``re + 0j``.  A matrix is a list of rows, each row a list of entries.  The
expected shape of each slot resolves the nesting (a vector slot reads
``[[1, 0], [0, 1]]`` as two pairs, a matrix slot as two rows of numbers).

::

    {
      "group":   {"type": "cyclic", "n": 3}
               | {"type": "product", "factors": [group-spec, ...]}
               | {"type": "symmetric", "n": 3}
               | {"type": "table", "cayley": [[0, 1], [1, 0]]},
      "algebra": {"blocks": [2]},                          # default [1]
      "action":  {"action": {"unitaries": [matrix, ...],
                             "block_perms": [[...], ...]}}
               | "trivial" | "translation",                # default trivial
      "F":         {"0": cbmap-spec, "1": cbmap-spec, ...},
      "F_scalar":  [v0, v1, ...],
      "grid":        [[cbmap-spec, ...], ...],
      "grid_scalar": [[c, ...], ...],
      "u":           [[c, ...], ...],      # table over (dual group) x group
      "module":      matrix,               # candidate module element
      "tol":    1e-10,
      "suites": ["takai", "transference", ...],
      "seed":   "0x5EED"
    }

cbmap-spec: ``{"kraus": [[A, B], ...]}`` (pairs of matrices, x -> sum A x B*)
or ``{"matrix": [[...]]}`` (superoperator on column-stacked input) or
``{"scale": c}`` (scalar multiple of the identity map).  A map must send the
coefficient algebra into itself, and only its action on the algebra is kept.

The grid rows are indexed by the column block x and entries by the row block
y, matching the symbol-grid orientation used throughout the package.
"""

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .algebras import (
    CbMap,
    make_action,
    make_algebra,
    translation_action,
    trivial_action,
)
from .cbnorm import (
    MAX_CB_DIM,
    MAX_GRID_BLOCK_DIM,
    MAX_GRID_SIDE,
    cb_norm,
    hs_cb_norm,
    schur_cb_norm,
    schur_symbol_cb_norm,
)
from .crossed import CrossedProductModel, takai_duality
from .errors import (
    CompatibilityError,
    MultlabError,
    ScenarioError,
    ValidationError,
)
from .groups import FiniteGroup, direct_product, make_cyclic, make_symmetric
from .herzschur import (
    FiberSymbol,
    extract_fiber_symbol,
    hs_module_check,
    lift_module_action,
    multiplier_map,
    verify_multiplier,
)
from .numerics import DEFAULT_TOL, check_pairs, frob_norm, tol_check
from .pontryagin import simultaneous_multiplier, verify_simultaneous
from .sampling import (
    DEFAULT_SEED,
    random_fiber_symbol,
    random_schur_symbol,
    toeplitz_grid,
)
from .schur import SchurSymbol, extract_symbol, schur_map, verify_bimodule
from .transference import (
    ambient_map_of_symbol,
    check_invariance,
    invariant_average,
    position_symbol,
    restrict_to_crossed,
    schur_extension,
    transfer_symbol,
)

SUITE_NAMES = (
    "takai",
    "schur",
    "herzschur",
    "transference",
    "invariance",
    "pontryagin",
    "norms",
)

# Ambient superoperators have (n*d)^2 x (n*d)^2 entries; this keeps the
# grid-shaped suites inside a few hundred megabytes.
MAX_AMBIENT_DIM = 40


# ---------------------------------------------------------------------------
# value parsing


def _fail(path, message):
    raise ScenarioError(f"{path}: {message}")


def _complex_entry(value, path):
    if isinstance(value, bool):
        _fail(path, "expected a number or [re, im] pair")
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    _fail(path, f"expected a number or [re, im] pair, got {value!r}")


def _complex_vector(value, path):
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a nonempty list of entries")
    return np.array([_complex_entry(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _complex_matrix(value, path):
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a nonempty list of rows")
    rows = [_complex_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    width = rows[0].size
    for i, row in enumerate(rows):
        if row.size != width:
            _fail(path, f"row {i} has {row.size} entries, expected {width}")
    return np.stack(rows, axis=0)


def _parse_cbmap(spec, algebra, path):
    if not isinstance(spec, dict):
        _fail(path, "expected a map spec object")
    keys = set(spec) & {"kraus", "matrix", "scale"}
    if len(keys) != 1:
        _fail(path, 'expected exactly one of "kraus", "matrix", "scale"')
    d = algebra.total_dim
    try:
        if "scale" in spec:
            c = _complex_entry(spec["scale"], f"{path}.scale")
            return CbMap.from_coords(algebra, c * np.eye(algebra.dim))
        if "kraus" in spec:
            pairs = spec["kraus"]
            if not isinstance(pairs, (list, tuple)) or not pairs:
                _fail(f"{path}.kraus", "expected a nonempty list of [A, B] pairs")
            kraus = []
            for i, pair in enumerate(pairs):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    _fail(f"{path}.kraus[{i}]", "expected an [A, B] pair")
                a = _complex_matrix(pair[0], f"{path}.kraus[{i}][0]")
                b = _complex_matrix(pair[1], f"{path}.kraus[{i}][1]")
                kraus.append((a, b))
            return CbMap(algebra, kraus=kraus)
        mat = _complex_matrix(spec["matrix"], f"{path}.matrix")
        if mat.shape != (d * d, d * d):
            _fail(f"{path}.matrix", f"expected shape {(d * d, d * d)}, got {mat.shape}")
        return CbMap(algebra, mat=mat)
    except ScenarioError:
        raise
    except ValidationError as exc:
        _fail(path, str(exc))


def _parse_group(spec, path="group"):
    if not isinstance(spec, dict) or "type" not in spec:
        _fail(path, 'expected an object with a "type" field')
    kind = spec["type"]
    try:
        if kind == "cyclic":
            return make_cyclic(int(spec["n"]))
        if kind == "symmetric":
            return make_symmetric(int(spec["n"]))
        if kind == "product":
            factors = spec.get("factors")
            if not isinstance(factors, (list, tuple)) or len(factors) < 2:
                _fail(f"{path}.factors", "expected at least two factor specs")
            g = _parse_group(factors[0], f"{path}.factors[0]")
            for i, f in enumerate(factors[1:], start=1):
                g = direct_product(g, _parse_group(f, f"{path}.factors[{i}]"))
            return g
        if kind == "table":
            return FiniteGroup(spec["cayley"])
    except ScenarioError:
        raise
    except KeyError as exc:
        _fail(path, f"missing field {exc}")
    except (ValidationError, TypeError, ValueError) as exc:
        _fail(path, str(exc))
    _fail(path, f"unknown group type {kind!r}")


def _unwrap_action(spec):
    if isinstance(spec, dict) and set(spec) == {"action"}:
        return spec["action"]
    return spec


def _parse_action(spec, group, algebra, path="action"):
    spec = _unwrap_action(spec)
    if spec is None or spec == "trivial":
        return trivial_action(group, algebra)
    if spec == "translation":
        return translation_action(group)
    if not isinstance(spec, dict):
        _fail(path, 'expected "trivial", "translation", or an action object')
    unitaries = block_perms = None
    try:
        if "unitaries" in spec:
            mats = spec["unitaries"]
            if not isinstance(mats, (list, tuple)) or len(mats) != group.order:
                _fail(f"{path}.unitaries", f"expected {group.order} matrices")
            unitaries = [
                _complex_matrix(m, f"{path}.unitaries[{i}]") for i, m in enumerate(mats)
            ]
        if "block_perms" in spec:
            block_perms = spec["block_perms"]
        if unitaries is None and block_perms is None:
            _fail(path, 'action object needs "unitaries" and/or "block_perms"')
        return make_action(group, algebra, unitaries=unitaries, block_perms=block_perms)
    except ScenarioError:
        raise
    except (ValidationError, TypeError, ValueError, IndexError) as exc:
        _fail(path, str(exc))


# ---------------------------------------------------------------------------
# scenario container


@dataclass
class Scenario:
    """Parsed and validated scenario; symbols are optional."""

    raw: dict = field(repr=False)
    group: FiniteGroup = None
    model: CrossedProductModel = None
    fiber_symbol: FiberSymbol = None
    scalar_fibers: np.ndarray = None
    grid_symbol: SchurSymbol = None
    scalar_grid: np.ndarray = None
    bisymbol: np.ndarray = None
    module_element: np.ndarray = None
    tol: float = DEFAULT_TOL
    suites: tuple = None
    seed: int = DEFAULT_SEED

    @property
    def algebra(self):
        return self.model.algebra

    @property
    def hash(self):
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def default_suites(self):
        """Every suite that fits this scenario's sizes and structure."""
        names = ["takai", "schur", "herzschur", "transference", "invariance"]
        if self.group.is_abelian:
            names.append("pontryagin")
        n, d = self.group.order, self.algebra.total_dim
        if n <= MAX_GRID_SIDE and d <= MAX_GRID_BLOCK_DIM:
            names.append("norms")
        return tuple(names)


def parse_scenario(data):
    """Build a :class:`Scenario` from a decoded JSON object."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    known = {
        "group", "algebra", "action", "F", "F_scalar", "grid", "grid_scalar",
        "u", "module", "tol", "suites", "seed",
    }
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    if "group" not in data:
        raise ScenarioError('scenario needs a "group" field')
    group = _parse_group(data["group"])

    action_spec = _unwrap_action(data.get("action"))
    if action_spec == "translation":
        blocks = (1,) * group.order
        if "algebra" in data:
            given = data["algebra"]
            if not (isinstance(given, dict) and tuple(given.get("blocks", ())) == blocks):
                _fail("algebra", f"translation action needs blocks {list(blocks)}")
        action = translation_action(group)
        algebra = action.algebra
    else:
        alg_spec = data.get("algebra", {"blocks": [1]})
        if not isinstance(alg_spec, dict) or "blocks" not in alg_spec:
            _fail("algebra", 'expected an object with a "blocks" list')
        try:
            algebra = make_algebra(tuple(int(b) for b in alg_spec["blocks"]))
        except (ValidationError, TypeError, ValueError) as exc:
            _fail("algebra", str(exc))
        action = _parse_action(action_spec, group, algebra)

    try:
        model = CrossedProductModel(action)
    except ValidationError as exc:
        raise ScenarioError(f"action: {exc}")

    scenario = Scenario(raw=data, group=group, model=model)

    if "F" in data and "F_scalar" in data:
        raise ScenarioError('give only one of "F" and "F_scalar"')
    if "F_scalar" in data:
        values = _complex_vector(data["F_scalar"], "F_scalar")
        if values.size != group.order:
            _fail("F_scalar", f"expected {group.order} values, got {values.size}")
        scenario.scalar_fibers = values
        scenario.fiber_symbol = FiberSymbol.from_scalar_vector(group, algebra, values)
    elif "F" in data:
        spec = data["F"]
        if not isinstance(spec, dict):
            _fail("F", "expected an object keyed by element index")
        fibers = []
        for r in group.elements:
            key = str(r)
            if key not in spec:
                _fail("F", f"missing fiber for element {r}")
            fibers.append(_parse_cbmap(spec[key], algebra, f"F.{key}"))
        extra = set(spec) - {str(r) for r in group.elements}
        if extra:
            _fail("F", f"unexpected fiber keys: {sorted(extra)}")
        scenario.fiber_symbol = FiberSymbol(group, fibers)

    if "grid" in data and "grid_scalar" in data:
        raise ScenarioError('give only one of "grid" and "grid_scalar"')
    if "grid_scalar" in data:
        grid = _complex_matrix(data["grid_scalar"], "grid_scalar")
        scenario.scalar_grid = grid
        scenario.grid_symbol = SchurSymbol.from_scalar_grid(algebra, grid)
    elif "grid" in data:
        rows = data["grid"]
        if not isinstance(rows, (list, tuple)) or not rows:
            _fail("grid", "expected a nonempty list of rows")
        maps = []
        for x, row in enumerate(rows):
            if not isinstance(row, (list, tuple)) or len(row) != len(rows[0]):
                _fail(f"grid[{x}]", "rows must be nonempty and equal length")
            maps.append(
                [_parse_cbmap(cell, algebra, f"grid[{x}][{y}]") for y, cell in enumerate(row)]
            )
        scenario.grid_symbol = SchurSymbol(maps)

    if "u" in data:
        if not group.is_abelian:
            _fail("u", "bisymbols need an abelian group")
        u = _complex_matrix(data["u"], "u")
        if u.shape != (group.order, group.order):
            _fail("u", f"expected shape {(group.order, group.order)}, got {u.shape}")
        scenario.bisymbol = u

    if "module" in data:
        b = _complex_matrix(data["module"], "module")
        d = algebra.total_dim
        if b.shape != (d, d):
            _fail("module", f"expected shape {(d, d)}, got {b.shape}")
        if not algebra.contains(b):
            _fail("module", "matrix is not an element of the coefficient algebra")
        scenario.module_element = b

    tol = data.get("tol", DEFAULT_TOL)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not tol > 0:
        _fail("tol", "expected a positive number")
    scenario.tol = float(tol)

    if "suites" in data:
        suites = data["suites"]
        if not isinstance(suites, (list, tuple)) or not suites:
            _fail("suites", "expected a nonempty list of suite names")
        scenario.suites = normalize_suites(suites)

    seed = data.get("seed", DEFAULT_SEED)
    if isinstance(seed, str):
        try:
            seed = int(seed, 0)
        except ValueError:
            _fail("seed", f"not an integer: {seed!r}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        _fail("seed", "expected a nonnegative integer")
    scenario.seed = seed
    return scenario


def load_scenario(path):
    """Read and parse a scenario file; all failures raise ScenarioError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}")
    return parse_scenario(data)


def normalize_suites(names):
    """Validate suite names given as a list or comma-separated string."""
    if isinstance(names, str):
        names = [n for n in names.split(",") if n]
    out = []
    for name in names:
        if name not in SUITE_NAMES:
            raise ScenarioError(
                f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}"
            )
        if name not in out:
            out.append(name)
    if not out:
        raise ScenarioError("no suites selected")
    return tuple(out)


# ---------------------------------------------------------------------------
# suite execution


class _Run:
    """Shared state for one report: model, cached duality, per-suite rngs."""

    def __init__(self, scenario, tol=None, seed=None):
        self.scenario = scenario
        self.model = scenario.model
        self.tol = scenario.tol if tol is None else float(tol)
        self.seed = scenario.seed if seed is None else int(seed)
        self._iso = None
        self.checks = []
        self.norms = []

    def iso(self):
        if self._iso is None:
            self._iso = takai_duality(self.model)
        return self._iso

    def rng(self, stream):
        return np.random.default_rng([self.seed, stream])

    def fiber_symbol(self, stream):
        if self.scenario.fiber_symbol is not None:
            return self.scenario.fiber_symbol
        return random_fiber_symbol(self.rng(stream), self.model)

    def grid_symbol(self, stream):
        if self.scenario.grid_symbol is not None:
            return self.scenario.grid_symbol
        side = min(self.model.group.order, 4)
        return random_schur_symbol(self.rng(stream), self.model.algebra, side)

    def check(self, name, residual, tol=None, scale=0.0, started=None):
        """Record ``residual`` against ``tol * max(1, scale)``, tol defaulting to the run's."""
        result = tol_check(float(residual), self.tol if tol is None else tol, scale)
        elapsed = 0.0 if started is None else (time.perf_counter() - started) * 1000.0
        self.checks.append(
            {
                "name": name,
                "residual": result.residual,
                "tol": result.tol,
                "pass": result.ok,
                "time_ms": round(elapsed, 3),
            }
        )

    def check_maps(self, name, pairs, residual=0.0, scale=0.0, **kwargs):
        """Check the worst ``coords_distance`` of (got, want) map pairs, at least
        ``residual``, scaled by their largest coordinate norm, at least ``scale``."""
        for got, want in pairs:
            residual = max(residual, got.coords_distance(want))
            scale = max(scale, frob_norm(got.coords), frob_norm(want.coords))
        self.check(name, residual, scale=scale, **kwargs)

    def norm(self, kind, value, gap):
        self.norms.append(
            {"kind": kind, "value": float(value), "gap": float(gap)}
        )


def _require_ambient_size(model, what):
    nd = model.group.order * model.algebra.total_dim
    if nd > MAX_AMBIENT_DIM:
        raise ScenarioError(
            f"{what}: ambient dimension {nd} exceeds cap {MAX_AMBIENT_DIM}"
        )


def _suite_takai(run):
    t0 = time.perf_counter()
    iso = run.iso()
    report = iso.report
    for label, residual in sorted(report["relations"].items()):
        scale = report["scales"][label]
        run.check(f"takai-relation-{label.split('_')[0]}", residual, scale=scale, started=t0)
        t0 = None
    for key in ("multiplicative", "star", "unital"):
        start = time.perf_counter()
        run.check(f"takai-{key}", report[key], scale=report["scales"][key], started=start)


def _suite_schur(run):
    _require_ambient_size(run.model, "schur suite")
    symbol = run.grid_symbol(stream=2)
    t0 = time.perf_counter()
    big = schur_map(symbol)
    result = verify_bimodule(big, algebra=symbol.algebra, tol=run.tol)
    run.check("schur-bimodule", result.residual, tol=result.tol, started=t0)
    t0 = time.perf_counter()
    recovered, residual = extract_symbol(big, algebra=symbol.algebra, tol=run.tol)
    pairs = [(recovered.maps[x][y], symbol.maps[x][y]) for x in range(symbol.nx)
             for y in range(symbol.ny)]
    run.check_maps("schur-extract-roundtrip", pairs, residual, frob_norm(big.matrix), started=t0)
    t0 = time.perf_counter()
    ident = SchurSymbol.from_scalar_grid(
        symbol.algebra, np.ones((symbol.nx, symbol.ny))
    )
    # Cells act as phi o E, so the identity grid assembles to the compression
    # of M_{nD} onto M_n(A): it keeps the entries whose local row and column
    # lie in one block of A (all entries when A is a single block).
    blocks = symbol.algebra.blocks
    labels = np.tile(np.repeat(np.arange(len(blocks)), blocks), symbol.nx)
    kept = labels[:, None] == labels[None, :]
    want = np.diag(kept.reshape(-1).astype(float))
    result = check_pairs([(schur_map(ident).matrix, want)], run.tol)
    run.check("schur-identity-grid", result.residual, tol=result.tol, started=t0)


def _suite_herzschur(run):
    symbol = run.fiber_symbol(stream=3)
    t0 = time.perf_counter()
    candidate = multiplier_map(run.model, symbol)
    result = verify_multiplier(run.model, candidate, tol=max(run.tol, 1e-9))
    run.check("herzschur-multiplier", result.residual, tol=result.tol, started=t0)
    t0 = time.perf_counter()
    recovered, residual = extract_fiber_symbol(run.model, candidate, tol=run.tol)
    pairs = zip(recovered.fibers, symbol.fibers)
    scale = frob_norm(candidate.coords)
    run.check_maps("herzschur-extract-roundtrip", pairs, residual, scale, started=t0)
    if run.scenario.module_element is not None:
        t0 = time.perf_counter()
        try:
            lift_module_action(run.model, run.scenario.module_element)
            result = hs_module_check(run.model, run.scenario.module_element)
            run.check(
                "herzschur-module-compatible",
                result.residual,
                tol=result.tol,
                started=t0,
            )
        except CompatibilityError:
            run.check("herzschur-module-compatible", np.inf, started=t0)


def _suite_transference(run):
    _require_ambient_size(run.model, "transference suite")
    symbol = run.fiber_symbol(stream=4)
    model = run.model
    t0 = time.perf_counter()
    extension = schur_extension(model, symbol, iso=run.iso())
    transferred = transfer_symbol(model, symbol)
    grid = position_symbol(model, extension, tol=max(run.tol, 1e-9))
    pairs = [(grid.maps[x][y], transferred.maps[x][y]) for x in model.group.elements
             for y in model.group.elements]
    run.check_maps("transference-extension-agrees", pairs, tol=1e-9, started=t0)
    t0 = time.perf_counter()
    result = check_invariance(model, transferred, tol=run.tol)
    run.check("transference-invariance", result.residual, tol=result.tol, started=t0)
    t0 = time.perf_counter()
    restricted, leak = restrict_to_crossed(model, extension)
    direct = multiplier_map(model, symbol)
    residual = max(leak, frob_norm(restricted.coords - direct.coords))
    # The leak compares maps on the crossed basis, whose elements have norm sqrt(n).
    scale = max(np.sqrt(model.group.order) * frob_norm(restricted.coords),
                frob_norm(direct.coords))
    run.check("transference-restriction-roundtrip", residual, tol=1e-9, scale=scale, started=t0)
    if run.scenario.scalar_fibers is not None:
        t0 = time.perf_counter()
        wanted = toeplitz_grid(model.group, run.scenario.scalar_fibers)
        ident = model.algebra.identity
        pairs = [(transferred.maps[x][y].apply(ident), wanted[x, y] * ident)
                 for x in model.group.elements for y in model.group.elements]
        result = check_pairs(pairs, run.tol)
        run.check("transference-scalar-grid", result.residual, tol=result.tol, started=t0)


def _suite_invariance(run):
    _require_ambient_size(run.model, "invariance suite")
    model = run.model
    side = model.group.order
    raw = random_schur_symbol(run.rng(5), model.algebra, side)
    t0 = time.perf_counter()
    ambient = ambient_map_of_symbol(model, raw)
    averaged = invariant_average(model, ambient)
    pairs = [(invariant_average(model, averaged), averaged)]
    run.check_maps("invariance-average-idempotent", pairs, started=t0)
    t0 = time.perf_counter()
    grid = position_symbol(model, averaged, tol=max(run.tol, 1e-9))
    result = check_invariance(model, grid, tol=run.tol)
    run.check("invariance-average-invariant", result.residual, tol=result.tol, started=t0)
    t0 = time.perf_counter()
    restricted, leak = restrict_to_crossed(model, averaged)
    fiber, _ = extract_fiber_symbol(model, restricted, tol=max(run.tol, 1e-9))
    rebuilt = schur_extension(model, fiber, iso=run.iso())
    scale = np.sqrt(side) * frob_norm(restricted.coords)  # the leak's, as above
    run.check_maps(
        "invariance-restriction-roundtrip", [(rebuilt, averaged)], leak, scale, tol=1e-9, started=t0
    )


def _suite_pontryagin(run):
    g = run.model.group
    if not g.is_abelian:
        raise ScenarioError("pontryagin suite needs an abelian group")
    u = run.scenario.bisymbol
    if u is None:
        rng = run.rng(6)
        u = rng.standard_normal((g.order, g.order)) + 1j * rng.standard_normal(
            (g.order, g.order)
        )
    t0 = time.perf_counter()
    mapping = simultaneous_multiplier(g, u)
    results = verify_simultaneous(g, mapping, tol=run.tol)
    for key in sorted(results):
        result = results[key]
        run.check(
            f"pontryagin-{key.replace('_', '-')}",
            result.residual,
            tol=result.tol,
            started=t0,
        )
        t0 = time.perf_counter()


def _suite_norms(run):
    model = run.model
    g = model.group
    d = model.algebra.total_dim
    if g.order > MAX_GRID_SIDE or d > MAX_GRID_BLOCK_DIM:
        raise ScenarioError(
            f"norms suite: grid {g.order} x {g.order} with block dimension {d} "
            f"exceeds caps ({MAX_GRID_SIDE}, {MAX_GRID_BLOCK_DIM})"
        )
    symbol = run.fiber_symbol(stream=7)
    t0 = time.perf_counter()
    value, result = hs_cb_norm(model, symbol, details=True)
    run.norm("hs", value, result.gap)
    run.check("norms-hs-gap", result.gap, tol=1e-6, scale=value, started=t0)
    if run.scenario.scalar_grid is not None:
        t0 = time.perf_counter()
        value, result = schur_cb_norm(run.scenario.scalar_grid, details=True)
        run.norm("schur", value, result.gap)
        run.check("norms-schur-gap", result.gap, tol=1e-6, scale=value, started=t0)
    elif run.scenario.grid_symbol is not None:
        t0 = time.perf_counter()
        value, result = schur_symbol_cb_norm(run.scenario.grid_symbol, details=True)
        run.norm("schur", value, result.gap)
        run.check("norms-schur-gap", result.gap, tol=1e-6, scale=value, started=t0)
    if run.scenario.bisymbol is not None and g.order <= MAX_CB_DIM:
        t0 = time.perf_counter()
        value, result = cb_norm(
            simultaneous_multiplier(g, run.scenario.bisymbol), details=True
        )
        run.norm("cb", value, result.gap)
        run.check("norms-cb-gap", result.gap, tol=1e-6, scale=value, started=t0)


_SUITE_RUNNERS = {
    "takai": _suite_takai,
    "schur": _suite_schur,
    "herzschur": _suite_herzschur,
    "transference": _suite_transference,
    "invariance": _suite_invariance,
    "pontryagin": _suite_pontryagin,
    "norms": _suite_norms,
}

REPORT_SCHEMA_VERSION = "1.0.0"


def run_suites(scenario, suites=None, tol=None, seed=None):
    """Execute the selected suites and assemble the report.

    Returns ``(report, passed)``.  Configuration problems (unknown suites,
    suites that do not fit the scenario) raise :class:`ScenarioError`;
    numerical breakdowns inside a suite (a :class:`MultlabError` or numpy's
    ``LinAlgError``) are recorded as a failed ``{suite}-error`` check.  Each
    check's ``tol`` is the effective tolerance ``tol * max(1, scale)``, the
    scale being the size of the objects it compares.
    """
    if suites is None:
        suites = scenario.suites or scenario.default_suites()
    else:
        suites = normalize_suites(suites)
    run = _Run(scenario, tol=tol, seed=seed)
    if "pontryagin" in suites and not scenario.group.is_abelian:
        raise ScenarioError("pontryagin suite needs an abelian group")
    for name in suites:
        try:
            _SUITE_RUNNERS[name](run)
        except ScenarioError:
            raise
        except ValidationError as exc:
            raise ScenarioError(f"{name} suite: {exc}")
        except (MultlabError, np.linalg.LinAlgError) as exc:
            residual = float(getattr(exc, "residual", np.inf) or np.inf)
            run.check(f"{name}-error", residual, tol=0.0)
    report = {
        "version": REPORT_SCHEMA_VERSION,
        "scenario-hash": scenario.hash,
        "seed": hex(run.seed),
        "suites": list(suites),
        "checks": run.checks,
        "norms": run.norms,
    }
    passed = all(c["pass"] for c in run.checks)
    return report, passed


def write_report(report, path):
    """Serialize the report atomically (write to a sibling, then rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".report-", suffix=".json", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
