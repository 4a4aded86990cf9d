"""The three benchmark workloads: cold CLI runs, warm transference sweeps, norms.

Every workload is a closed loop with a single client.  A workload builds its
state once in ``setup`` and then yields rounds of items; round ``k`` of seed
``s`` always holds the same inputs.  An item returns ``(outputs, failure)``:
``outputs`` maps names to the residuals and norm values it produced, and
``failure`` is ``None`` or the reason the item failed (nonzero exit,
exception, check over tolerance, frozen value off, routes disagreeing).

The package is called through module attributes (``tr.transfer_symbol``) so
that the traced run's wrappers see every call the items make.
"""

import contextlib
import io
import json
import os

import numpy as np

import multlab.algebras as al
import multlab.cbnorm as cb
import multlab.cli as cli
import multlab.crossed as cr
import multlab.groups as gr
import multlab.herzschur as hz
import multlab.numerics as nm
import multlab.pontryagin as pg
import multlab.sampling as sp
import multlab.schur as sc
import multlab.transference as tr

RESIDUAL_TOL = 1e-9
FROZEN_TOL = 1e-6
ROUTE_REL_TOL = 1e-4

# `multlab run` on z2xz2-translation selects the norms suite by default and
# its grid SDP exceeds MAX_SDP_PARAMS; the CLI exits 2 with this message.
# The item stays in the mix and counts as failed until the program is fixed.
KNOWN_FAILURES = {
    "suite-run/z2xz2-translation":
        "exit 2: error: norms suite: problem too large for the dense solver",
}


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _check(outputs, name, value, tol):
    """Record ``value`` and return a failure message when it exceeds ``tol``."""
    value = float(value)
    outputs[name] = value
    if not value <= tol:
        return f"{name} = {value:.3e} exceeds {tol:.1e}"
    return None


def _first(*failures):
    return next((f for f in failures if f is not None), None)


# ---------------------------------------------------------------------------
# suite-run: the cold `multlab run` path


def _entry(z):
    z = complex(z)
    return [z.real, z.imag]


def _matrix(a):
    return [[_entry(z) for z in row] for row in np.atleast_2d(a)]


def _diag_character_units(n):
    return [_matrix(np.diag([1.0, np.exp(2j * np.pi * r / n)])) for r in range(n)]


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def suite_scenarios(seed):
    """The six scenario documents; seeded fields come from ``seed``."""
    rng = _rng(seed, 0)
    cyclic = lambda n: {"type": "cyclic", "n": n}  # noqa: E731
    return {
        "z4-ad": {
            "group": cyclic(4),
            "algebra": {"blocks": [2]},
            "action": {"unitaries": _diag_character_units(4)},
        },
        "z6-trivial": {
            "group": cyclic(6),
            "F_scalar": [_entry(z) for z in _complex_normal(rng, 6)],
            "grid_scalar": _matrix(_complex_normal(rng, (6, 6))),
        },
        "z5-translation": {"group": cyclic(5), "action": "translation"},
        "z2xz2-translation": {
            "group": {"type": "product", "factors": [cyclic(2), cyclic(2)]},
            "action": "translation",
        },
        "z3-ad": {
            "group": cyclic(3),
            "algebra": {"blocks": [2]},
            "action": {"unitaries": _diag_character_units(3)},
        },
        "z2-module": {
            "group": cyclic(2),
            "algebra": {"blocks": [2]},
            "action": {"unitaries": _diag_character_units(2)},
            # Diagonal elements are fixed by the action, so the module lift exists.
            "module": _matrix(np.diag(_complex_normal(rng, 2))),
            "u": _matrix(_complex_normal(rng, (2, 2))),
        },
    }


class SuiteRun:
    """Each item is one in-process ``multlab run`` with default suites."""

    name = "suite-run"

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def setup(self, seed):
        os.makedirs(self.out_dir, exist_ok=True)
        paths = {}
        for label, doc in suite_scenarios(seed).items():
            path = os.path.join(self.out_dir, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths[label] = path
        return paths

    def round(self, paths, seed, index):
        # `multlab run` draws its random symbols from --seed.  The norms
        # suite's SDP needs 9 to 12 iterations depending on them, which moves
        # z4-ad by 50% and with it the median of six items.  So every call
        # uses the package's default seed; the workload seed varies the
        # seeded scenario fields instead.
        return [
            (f"{self.name}/{label}", self._item(path, sp.DEFAULT_SEED))
            for label, path in paths.items()
        ]

    def _item(self, scenario, run_seed):
        report_path = scenario[: -len(".json")] + ".report.json"

        def item():
            if os.path.exists(report_path):
                os.unlink(report_path)
            out, err = io.StringIO(), io.StringIO()
            argv = ["run", "--scenario", scenario, "--seed", str(run_seed),
                    "--report", report_path]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                lines = err.getvalue().strip().splitlines() or ["(no message)"]
                return {"exit": float(code)}, f"exit {code}: {lines[-1]}"
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            outputs = {f"check/{c['name']}": c["residual"] for c in report["checks"]}
            outputs.update({f"norm/{n['kind']}": n["value"] for n in report["norms"]})
            failed = [c["name"] for c in report["checks"] if not c["pass"]]
            if failed:
                return outputs, "checks failed: " + ", ".join(failed)
            if report["seed"] != hex(run_seed) or not report["checks"]:
                return outputs, "report does not match the request"
            if not out.getvalue().rstrip().endswith("PASS"):
                return outputs, "stdout does not end with PASS"
            return outputs, None

        return item


# ---------------------------------------------------------------------------
# transfer-sweep: warm property sweeps on prebuilt models and dualities


def _sign_like_character(g):
    """A nontrivial one-dimensional character (+/-1 by element order on S3)."""
    if g.is_abelian:
        return np.asarray(gr.dual_group(g).characters[1], dtype=complex)
    chi = np.ones(g.order, dtype=complex)
    for r in g.elements:
        if r != 0 and g.mult(r, r) == 0:
            chi[r] = -1.0
    return chi


def sweep_models():
    """Translation models of Z4 and Z2xZ2; ad-M2 models of Z4, Z2xZ2 and S3."""
    groups = {
        "z4": gr.make_cyclic(4),
        "z2xz2": gr.direct_product(gr.make_cyclic(2), gr.make_cyclic(2)),
        "s3": gr.make_symmetric(3),
    }
    models = {}
    for name in ("z4", "z2xz2"):
        models[f"{name}-translation"] = cr.CrossedProductModel(
            al.translation_action(groups[name])
        )
    for name, g in groups.items():
        chi = _sign_like_character(g)
        units = [np.diag([1.0, chi[r]]) for r in g.elements]
        models[f"{name}-ad"] = cr.CrossedProductModel(
            al.ad_action(g, al.make_algebra((2,)), units)
        )
    return models


def _position_order(model, mat):
    """Reindex an ambient superoperator from coefficient-slow to position-slow."""
    d = model.algebra.total_dim
    n = model.group.order
    idx = np.arange(d * n)
    perm = (idx % n) * d + idx // n
    pvec = (perm[:, None] * (d * n) + perm[None, :]).reshape(-1)
    out = np.empty_like(np.asarray(mat, dtype=complex))
    out[np.ix_(pvec, pvec)] = mat
    return out


def _grid_distance(got, want):
    return max(
        got.maps[x][y].coords_distance(want.maps[x][y])
        for x in range(got.nx)
        for y in range(got.ny)
    )


class TransferSweep:
    """Fiber-symbol and invariant-average items on prebuilt dualities."""

    name = "transfer-sweep"

    def setup(self, seed):
        models = sweep_models()
        return {label: (model, cr.takai_duality(model)) for label, model in models.items()}

    def round(self, state, seed, index):
        items = []
        for k, (label, (model, iso)) in enumerate(state.items()):
            items.append((f"{self.name}/fiber/{label}",
                          self._fiber_item(model, iso, _rng(seed, 2, index, k))))
            items.append((f"{self.name}/average/{label}",
                          self._average_item(model, iso, _rng(seed, 3, index, k))))
        return items

    @staticmethod
    def _fiber_item(model, iso, rng):
        symbol = sp.random_fiber_symbol(rng, model, terms=2)
        size = float(sum(nm.frob_norm(f.coords) for f in symbol.fibers))

        def item():
            out = {"input-norm": size}
            candidate = hz.multiplier_map(model, symbol)
            verified = hz.verify_multiplier(model, candidate, tol=RESIDUAL_TOL)
            extension = tr.schur_extension(model, candidate, iso=iso)
            got = tr.position_symbol(model, extension)
            want = tr.transfer_symbol(model, symbol)
            bimodule = sc.verify_bimodule(
                _position_order(model, extension.matrix), algebra=model.algebra
            )
            invariance = tr.check_invariance(model, got, tol=RESIDUAL_TOL)
            restricted, leak = tr.restrict_to_crossed(model, extension)
            roundtrip = max(leak, nm.frob_norm(restricted.coords - candidate.coords))
            return out, _first(
                _check(out, "multiplier", verified.residual, RESIDUAL_TOL),
                _check(out, "extension-agrees", _grid_distance(got, want), RESIDUAL_TOL),
                _check(out, "bimodule", bimodule.residual, RESIDUAL_TOL),
                _check(out, "invariance", invariance.residual, RESIDUAL_TOL),
                _check(out, "restriction-roundtrip", roundtrip, RESIDUAL_TOL),
            )

        return item

    @staticmethod
    def _average_item(model, iso, rng):
        raw = sp.random_schur_symbol(rng, model.algebra, model.group.order)
        size = float(sum(nm.frob_norm(m.coords) for row in raw.maps for m in row))

        def item():
            out = {"input-norm": size}
            ambient = tr.ambient_map_of_symbol(model, raw)
            ambient = al.CbMap.from_coords(
                model.mb_algebra, ambient.coords / nm.frob_norm(ambient.coords)
            )
            averaged = tr.invariant_average(model, ambient)
            restricted, leak = tr.restrict_to_crossed(model, averaged)
            back = tr.schur_extension(model, restricted, iso=iso)
            forward = max(leak, nm.frob_norm(back.coords - averaged.coords))
            return out, _check(out, "extend-back", forward, RESIDUAL_TOL)

        return item


# ---------------------------------------------------------------------------
# cb-norms: SDP-certified norms


class CbNorms:
    """Fiber/Toeplitz norm pairs, frozen values, dilations, Weyl comparisons."""

    name = "cb-norms"
    PAIR_ORDERS = (2, 3, 4, 5, 6)
    PAIRS_PER_ORDER = 4
    # Nine dilations make a round of 32 items whose two middle latencies are
    # the middle of the four Z5 pairs, well away from the faster Z4 pairs,
    # so item_p50_ms does not flip between two kinds of item.
    DILATIONS = 9

    def setup(self, seed):
        models = {}
        for n in self.PAIR_ORDERS:
            g = gr.make_cyclic(n)
            models[n] = cr.CrossedProductModel(al.trivial_action(g, al.make_algebra((1,))))
        return {"models": models, "m2": al.make_algebra((2,))}

    def round(self, state, seed, index):
        rng = _rng(seed, 4, index)
        pairs = [
            (f"{self.name}/pair/z{n}", self._pair_item(state["models"][n], _complex_normal(rng, n)))
            for n in self.PAIR_ORDERS
            for _ in range(self.PAIRS_PER_ORDER)
        ]
        rng = _rng(seed, 5, index)
        dilations = [
            (f"{self.name}/dilation",
             self._dilation_item(sp.random_schur_symbol(rng, state["m2"], 3, terms=2)))
            for _ in range(self.DILATIONS)
        ]
        rng = _rng(seed, 6, index)
        weyl = [
            (f"{self.name}/weyl/z2", self._weyl_item(gr.make_cyclic(2), _complex_normal(rng, (2, 2))))
        ]
        frozen = [
            (f"{self.name}/frozen/alternating", self._frozen_alternating(state["models"][2])),
            (f"{self.name}/frozen/triangular", self._frozen_triangular),
        ]
        # The dilations, the longest items, are spread over the round.
        split = len(dilations) // 2
        return (
            pairs[::2] + frozen[:1] + dilations[:split] + weyl
            + pairs[1::2] + frozen[1:] + dilations[split:]
        )

    @staticmethod
    def _gap_check(out, name, value, result):
        return _check(out, f"{name}-gap", abs(result.gap), FROZEN_TOL * (1.0 + abs(value)))

    @classmethod
    def _pair_item(cls, model, v):
        def item():
            out = {}
            symbol = hz.FiberSymbol.from_scalar_vector(model.group, model.algebra, v)
            hval, hres = cb.hs_cb_norm(model, symbol, details=True)
            sval, sres = cb.schur_cb_norm(sp.toeplitz_grid(model.group, v), details=True)
            out["hs"], out["schur"] = hval, sval
            return out, _first(
                cls._gap_check(out, "hs", hval, hres),
                cls._gap_check(out, "schur", sval, sres),
                _check(out, "route-rel", abs(hval - sval) / max(1.0, abs(sval)), ROUTE_REL_TOL),
            )

        return item

    @staticmethod
    def _frozen_alternating(model):
        def item():
            symbol = hz.FiberSymbol.from_scalar_vector(model.group, model.algebra, [1.0, -1.0])
            value = cb.hs_cb_norm(model, symbol)
            out = {"hs": value}
            return out, _check(out, "frozen-off", abs(value - 1.0), FROZEN_TOL)

        return item

    @staticmethod
    def _frozen_triangular():
        value = cb.schur_cb_norm(np.array([[1.0, 1.0], [0.0, 1.0]]))
        out = {"schur": value}
        return out, _check(out, "frozen-off", abs(value - 2.0 / np.sqrt(3.0)), FROZEN_TOL)

    @staticmethod
    def _dilation_item(symbol):
        def item():
            res = sc.dilation_factorize(symbol, tol=1e-7)
            out = {"value": res.value, "certificate": res.certificate}
            return out, _first(
                _check(out, "reconstruction", res.reconstruction_residual, 1e-8),
                _check(out, "certificate-short", res.value - res.certificate, FROZEN_TOL),
            )

        return item

    @staticmethod
    def _weyl_item(g, u):
        def item():
            comparison = pg.weyl_cb_comparison(g, u)
            out = {"direct": comparison["direct"], "transferred": comparison["transferred"]}
            checks = pg.verify_simultaneous(g, pg.simultaneous_multiplier(g, u), tol=1e-10)
            worst = max(res.residual for res in checks.values())
            rel = comparison["difference"] / max(1.0, abs(comparison["direct"]))
            return out, _first(
                _check(out, "simultaneous", worst, 1e-10),
                _check(out, "route-rel", rel, ROUTE_REL_TOL),
            )

        return item


def make(name, out_dir):
    if name == SuiteRun.name:
        return SuiteRun(os.path.join(out_dir, "suite-run"))
    if name == TransferSweep.name:
        return TransferSweep()
    if name == CbNorms.name:
        return CbNorms()
    raise ValueError(f"unknown workload {name!r}")


NAMES = (SuiteRun.name, TransferSweep.name, CbNorms.name)
