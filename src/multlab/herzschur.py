"""Fiberwise multipliers of crossed products.

A fiber symbol assigns to every group element ``r`` a linear map ``F(r)`` on
the coefficient algebra; the induced multiplier acts on the crossed product by
``rep(a) u_r -> rep(F(r)(a)) u_r``.  In the Hilbert-Schmidt basis
``rep(a_i) u_r`` its coordinate matrix is block diagonal across fibers,
``S[(j, r), (i, r)] = F(r).coords[j, i]``, and that structural fact is
equivalent to the dynamical one: the map commutes with the fiber-tagging
coaction, ``delta o T = (T tensor id) o delta``.  Both characterizations are
implemented and cross-checked.

``lift_module_action`` turns multiplication by an action-invariant element of
the coefficient algebra into a fiber symbol; invariance is exactly what makes
ambient multiplication by ``b (x) 1`` preserve the crossed-product span.
"""

import numpy as np

from .algebras import CbMap
from .crossed import dual_coaction, fiber_tag
from .errors import CompatibilityError, NotMultiplierError, ValidationError
from .numerics import check_pairs, frob_norm, tol_check

_DEFAULT_SAMPLES = 4


class FiberSymbol:
    """One coefficient-algebra map per group element, ``fibers[r]``."""

    def __init__(self, group, fibers):
        if len(fibers) != group.order:
            raise ValidationError(
                f"need {group.order} fiber maps, got {len(fibers)}"
            )
        algebra = fibers[0].algebra
        for phi in fibers:
            if phi.algebra is not algebra:
                raise ValidationError("all fiber maps must share one algebra")
        self.group = group
        self.fibers = list(fibers)
        self.algebra = algebra

    @classmethod
    def from_scalar_vector(cls, group, algebra, values):
        """Symbol whose fiber r multiplies by the scalar values[r]."""
        v = np.asarray(values, dtype=complex).reshape(-1)
        if v.size != group.order:
            raise ValidationError(f"need {group.order} scalars, got {v.size}")
        ident = np.eye(algebra.dim)
        fibers = [CbMap.from_coords(algebra, v[r] * ident) for r in group.elements]
        return cls(group, fibers)

    @classmethod
    def identity(cls, group, algebra):
        return cls.from_scalar_vector(group, algebra, np.ones(group.order))

    def fiber(self, r):
        return self.fibers[r]


class CrossedMap:
    """A linear map on the crossed-product span, held as its basis matrix.

    ``coords`` acts on coordinate vectors in the basis ``rep(a_i) u_r``
    (flat index ``i * n + r``); ``apply`` routes an ambient matrix through
    the span coordinates.
    """

    def __init__(self, model, coords):
        coords = np.asarray(coords, dtype=complex)
        k = model.span.dim
        if coords.shape != (k, k):
            raise ValidationError(f"coordinate matrix must be {k} x {k}")
        self.model = model
        self.coords = coords

    def apply(self, x, tol=1e-8):
        c = self.model.coeffs(x, require=True, tol=tol)
        return self.model.span.matrix(self.coords @ c)

    def __matmul__(self, other):
        if isinstance(other, CrossedMap):
            if other.model is not self.model:
                raise ValidationError("composition needs maps on the same model")
            return CrossedMap(self.model, self.coords @ other.coords)
        return NotImplemented


def multiplier_map(model, symbol):
    """The fiberwise map rep(a) u_r -> rep(F(r)(a)) u_r as a CrossedMap."""
    if symbol.group is not model.group:
        raise ValidationError("symbol and model use different groups")
    if symbol.algebra is not model.algebra:
        raise ValidationError("symbol and model use different coefficient algebras")
    m = model.algebra.dim
    n = model.group.order
    coords = np.zeros((m * n, m * n), dtype=complex)
    s4 = coords.reshape(m, n, m, n)
    for r in model.group.elements:
        s4[:, r, :, r] = symbol.fibers[r].coords
    return CrossedMap(model, coords)


def _coords_of(model, candidate):
    if isinstance(candidate, CrossedMap):
        return candidate.coords
    coords = np.asarray(candidate, dtype=complex)
    k = model.span.dim
    if coords.shape != (k, k):
        raise ValidationError(f"coordinate matrix must be {k} x {k}")
    return coords


def _off_fiber_mass(model, coords):
    m = model.algebra.dim
    n = model.group.order
    s4 = coords.reshape(m, n, m, n)
    kept = np.zeros_like(s4)
    for r in model.group.elements:
        kept[:, r, :, r] = s4[:, r, :, r]
    return frob_norm((s4 - kept).reshape(m * n, m * n))


def _coproduct_residual(model, coords, rng, samples):
    """Worst sampled residual of delta(T x) = (T tensor id)(delta x), and its scale."""
    delta = dual_coaction(model)
    k = model.span.dim
    worst = scale = 0.0
    for _ in range(samples):
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        c /= np.linalg.norm(c)
        lhs = delta.apply(model.span.matrix(coords @ c))
        mapped_fibers = model.span.matrix(model.fiber_split(c) @ coords.T)
        rhs = fiber_tag(model.group, mapped_fibers[:, None])
        worst = max(worst, frob_norm(lhs - rhs))
        scale = max(scale, frob_norm(lhs), frob_norm(rhs))
    return worst, scale


def verify_multiplier(model, candidate, tol=1e-9, rng=None, samples=_DEFAULT_SAMPLES):
    """Check that a span map is a fiberwise multiplier, by both routes.

    The residual is the larger of the structural off-fiber coordinate mass
    and the worst sampled coaction-intertwining defect; the two vanish
    together exactly.  The scale is the largest norm among the coordinate
    matrix and the sampled sides of the intertwining.
    """
    coords = _coords_of(model, candidate)
    rng = rng or np.random.default_rng(0x5EED)
    structural = _off_fiber_mass(model, coords)
    dynamical, scale = _coproduct_residual(model, coords, rng, samples)
    residual = max(float(structural), float(dynamical))
    return tol_check(residual, tol, max(frob_norm(coords), scale))


def extract_fiber_symbol(model, candidate, tol=1e-10):
    """Recover the fiber symbol of a fiberwise span map.

    Returns ``(symbol, residual)`` where the residual is the off-fiber
    coordinate mass; raises :class:`NotMultiplierError` beyond
    ``tol * max(1, ||coords||_F)``.
    """
    coords = _coords_of(model, candidate)
    residual = _off_fiber_mass(model, coords)
    if not tol_check(residual, tol, frob_norm(coords)).ok:
        raise NotMultiplierError(
            f"map mixes fibers: off-fiber mass {residual:.3e}",
            residual=float(residual),
        )
    m = model.algebra.dim
    n = model.group.order
    s4 = coords.reshape(m, n, m, n)
    fibers = [
        CbMap.from_coords(model.algebra, s4[:, r, :, r]) for r in model.group.elements
    ]
    return FiberSymbol(model.group, fibers), float(residual)


def scale_fibers(symbol, values):
    """Multiply fiber r by the scalar values[r] (the function-algebra action)."""
    v = np.asarray(values, dtype=complex).reshape(-1)
    if v.size != symbol.group.order:
        raise ValidationError(f"need {symbol.group.order} scalars, got {v.size}")
    fibers = [
        CbMap.from_coords(symbol.algebra, v[r] * symbol.fibers[r].coords)
        for r in symbol.group.elements
    ]
    return FiberSymbol(symbol.group, fibers)


def lift_module_action(model, b, tol=1e-10):
    """Fiber symbol of left multiplication by an action-invariant element.

    Multiplication by ``b (x) 1`` preserves the crossed-product span exactly
    when ``b . alpha_r(a) = alpha_r(b . a)`` for all r and a, i.e. when b is
    fixed by the action; otherwise :class:`CompatibilityError` is raised.
    """
    b = np.asarray(b, dtype=complex)
    alg = model.algebra
    if not alg.contains(b, tol=tol):
        raise ValidationError("element lies outside the coefficient algebra")
    act = model.action
    pairs = [(b @ act.apply(r, a), act.apply(r, b @ a))
             for r in model.group.elements for a in map(alg.unit, range(alg.dim))]
    ok, worst, _ = check_pairs(pairs, tol)
    if not ok:
        raise CompatibilityError(
            f"element does not commute with the action (defect {worst:.3e})"
        )
    lb = CbMap(alg, kraus=[(b, alg.identity)])
    return FiberSymbol(model.group, [lb] * model.group.order)


def hs_module_check(model, b, tol=1e-9):
    """Compare the lifted multiplier with ambient multiplication by b (x) 1."""
    symbol = lift_module_action(model, b, tol=tol)
    tmap = multiplier_map(model, symbol)
    amb = np.kron(np.asarray(b, dtype=complex), np.eye(model.group.order))
    return check_pairs([(tmap.apply(x), amb @ x) for x in model.span.basis], tol)
