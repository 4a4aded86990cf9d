"""Crossed products of block algebras by finite group actions.

The crossed product of (M, G, alpha) is modeled concretely inside
M (x) B(l2 G), ambient dimension D*n with the M index slow: the algebra embeds
covariantly as ``rep(a) = sum_s alpha_{s^-1}(a) (x) E_ss`` and the group by
``u_r = 1 (x) lambda_r``.  Products ``rep(a) u_r`` over a basis of M and all
group elements form a Hilbert-Schmidt orthogonal basis (Gram = n * identity)
of the crossed product span, so coordinates are projections on that span
(``model.span``), and :meth:`CrossedProductModel.fiber_split` splits them
into the fiber parts ``x_r`` with ``x = sum_r x_r``.

The fiber-tagging coaction ``x_r -> x_r (x) lambda_r`` and the double
construction below both place fiber parts at the positions ``(rp, p)`` of
the group index they add: :func:`fiber_tag` writes them in one scatter
from the Cayley table, and :class:`DoubleSpan` reads them back in one
gather and one projection.

Two dualities are realized as explicit coordinate isomorphisms, both built by
breadth-first generator-word extension (words of length at most three must
saturate the target dimension, else :class:`ExtensionError`):

* :func:`takai_duality` identifies M (x) B(l2 G) with the span of
  ``rep(a) u_r (x) lambda_r m_{delta_p}`` inside the ambient space of the
  iterated (dual, then group again) construction.
* :func:`stone_von_neumann` identifies the crossed product of the
  pointwise-translation action on M-valued functions over G with all of
  M (x) B(l2 G).
"""

from __future__ import annotations

import numpy as np

from .algebras import BlockAlgebra, make_action
from .errors import ExtensionError, MembershipError, ValidationError
from .groups import left_regular, right_regular
from .numerics import DEFAULT_TOL, DenseSpan, check_pairs, dagger, frob_norm, kron, tol_check, vec

_EXTENSION_REL_TOL = 1e-7


class CrossedProductModel:
    """Concrete matrix model of a crossed product M x_alpha G."""

    def __init__(self, action):
        self.action = action
        self.group = action.group
        self.algebra = action.algebra
        n = self.group.order
        d = self.algebra.total_dim
        self.ambient_dim = d * n
        self._lams = [kron(np.eye(d), left_regular(self.group, r)) for r in self.group.elements]
        mats = []
        for i in range(self.algebra.dim):
            rep = self.algebra_rep(self.algebra.unit(i))
            for r in self.group.elements:
                mats.append(rep @ self._lams[r])
        self.span = DenseSpan(np.stack(mats))
        flat = self.span.basis.reshape(self.span.dim, -1)
        gram = flat.conj() @ flat.T
        if not check_pairs([(gram, n * np.eye(self.span.dim))], DEFAULT_TOL).ok:
            raise ValidationError("crossed basis failed Hilbert-Schmidt independence")
        for r in self.group.elements:
            u = self._lams[r]
            for i in range(self.algebra.dim):
                a = self.algebra.unit(i)
                moved = u @ self.algebra_rep(a) @ dagger(u)
                want = self.algebra_rep(self.action.apply(r, a))
                if not check_pairs([(moved, want)], DEFAULT_TOL).ok:
                    raise ValidationError(f"covariance fails at element {r}, unit {i}")
        self.mb_algebra = BlockAlgebra(
            tuple(b * n for b in self.algebra.blocks), max_dim=None
        )
        self._second_dual = None

    def __repr__(self):
        return (
            f"CrossedProductModel({self.algebra!r} x {self.group.name}, "
            f"dim={self.span.dim})"
        )

    def algebra_rep(self, a):
        """Covariant embedding sum_s alpha_{s^-1}(a) (x) E_ss."""
        n = self.group.order
        d = self.algebra.total_dim
        out = np.zeros((d * n, d * n), dtype=complex)
        view = out.reshape(d, n, d, n)
        for s in self.group.elements:
            view[:, s, :, s] = self.action.apply_inverse(s, a)
        return out

    def translation_unitary(self, r):
        """1 (x) lambda_r."""
        return self._lams[r]

    def element_of(self, a, r):
        """The crossed-product element with symbol a at fiber r."""
        n = self.group.order
        d = self.algebra.total_dim
        out = np.zeros((d * n, d * n), dtype=complex)
        view = out.reshape(d, n, d, n)
        rinv = self.group.inv(r)
        for s in self.group.elements:
            view[:, s, :, self.group.mult(rinv, s)] = self.action.apply_inverse(s, a)
        return out

    def coeffs(self, x, require=False, tol=DEFAULT_TOL):
        return self.span.coeffs(x, tol=tol, require=require)

    def fiber_split(self, c):
        """Split coordinates ``c`` (shape (..., dim)) by fiber.

        Row r of the result, shape (..., n, dim), keeps the fiber-r entries
        ``i * n + r`` of ``c`` and zeros the rest, so ``span.matrix`` of it
        is the stack of fiber parts x_r, which sum to ``span.matrix(c)``.
        """
        n = self.group.order
        mask = np.tile(np.eye(n), self.algebra.dim)
        return np.asarray(c, dtype=complex)[..., None, :] * mask


def fiber_tag(group, blocks):
    """sum_{r,p} blocks[..., r, p] (x) E_{rp,p}, as one indexed assignment.

    ``blocks`` has shape (..., n, n, a, a), or (..., n, 1, a, a) for the same
    block at every p; the result has shape (..., a*n, a*n), the new group
    index fastest.  For fixed p, r -> rp is a bijection, so no two blocks
    share a position.
    """
    n = group.order
    *lead, _, _, a, _ = blocks.shape
    out = np.zeros((*lead, a, n, a, n), dtype=complex)
    out[..., :, group.table, :, np.arange(n)] = np.moveaxis(blocks, (-4, -3), (0, 1))
    return out.reshape(*lead, a * n, a * n)


class DualCoaction:
    """The fiberwise map rep(a) u_r  ->  rep(a) u_r (x) lambda_r."""

    def __init__(self, model):
        self.model = model
        self._group_lams = [left_regular(model.group, r) for r in model.group.elements]

    def _assemble(self, c):
        """sum_r x_r (x) lambda_r, x_r the fiber parts of coordinates ``c``.

        ``c`` has shape (..., dim); leading axes give a stack of results.
        """
        model = self.model
        parts = model.span.matrix(model.fiber_split(c))
        return fiber_tag(model.group, parts[..., None, :, :])

    def apply(self, x, tol=DEFAULT_TOL):
        return self._assemble(self.model.coeffs(x, require=True, tol=tol))

    def extract(self, y):
        """Invert on the image span; returns (coords of shape (m, n), residual).

        The coordinates of fiber r are the double-span coordinates of y at
        (r, p), averaged over p.
        """
        model = self.model
        m = model.algebra.dim
        n = model.group.order
        coords = DoubleSpan(model).coeffs(y).reshape(m, n, n).mean(axis=2)
        residual = frob_norm(y - self._assemble(coords.reshape(-1)))
        return coords, float(residual)

    def coaction_identity_check(self, x, tol=1e-9):
        """Compare (delta (x) id) o delta with (id (x) coproduct) o delta on x.

        The left side tags the coaction's own inverse twice; the right side
        decomposes the last tensor factor in the translation basis
        independently, so the two assemblies cross-check each other.
        """
        model = self.model
        g = model.group
        n = g.order
        d = model.algebra.total_dim
        y = self.apply(x)
        coords, res_extract = self.extract(y)
        tagged_fibers = self._assemble(model.fiber_split(coords.reshape(-1)))
        lhs = fiber_tag(g, tagged_fibers[:, None])

        # Independent route: per-slice decomposition of the last factor of y
        # against the translation unitaries, then tensoring the coproduct in.
        lam_flat = np.stack([self._group_lams[r].reshape(-1) for r in g.elements])
        slices = y.reshape(d * n, n, d * n, n).transpose(0, 2, 1, 3).reshape(-1, n * n)
        w = slices @ lam_flat.conj().T / n
        leak = frob_norm(slices - w @ lam_flat)
        big = d * n * n * n
        rhs = np.zeros((big, big), dtype=complex)
        rview = rhs.reshape(d * n, n, n, d * n, n, n)
        for r in g.elements:
            wmat = w[:, r].reshape(d * n, d * n)
            for p in g.elements:
                for q in g.elements:
                    rview[:, g.mult(r, p), g.mult(r, q), :, p, q] += wmat
        residual = max(frob_norm(lhs - rhs), res_extract, float(leak))
        return tol_check(residual, tol, max(frob_norm(lhs), frob_norm(rhs), frob_norm(y)))


def dual_coaction(model):
    """The coaction sending each crossed element to its fiber-tagged copy."""
    return DualCoaction(model)


def second_dual_action(model):
    """The product action alpha (x) Ad(right translation) on M (x) B(l2 G).

    Its fixed points are exactly the crossed-product span, which is what
    makes restriction back to the crossed product well-defined.  The action
    is built and validated on first use and kept by the model.
    """
    if model._second_dual is None:
        g = model.group
        act = model.action
        unitaries = [kron(act.inner_unitaries[r], right_regular(g, r)) for r in g.elements]
        model._second_dual = make_action(
            g, model.mb_algebra, unitaries=unitaries, block_perms=act.block_perms
        )
    return model._second_dual


class DoubleSpan:
    """Span of rep(a) u_r (x) lambda_r m_{delta_p} inside M_(D n^2).

    Basis index (i, r, p) -> (i*n + r)*n + p.  The second tensor factor of a
    basis element is the single matrix unit E_{rp, p}: elements are written
    by :func:`fiber_tag`, and read by gathering the (rp, p) blocks and
    projecting each on the crossed span, keeping its fiber r.
    """

    def __init__(self, model):
        self.model = model
        n = model.group.order
        self.dim = model.span.dim * n
        self.shape = (model.ambient_dim * n, model.ambient_dim * n)

    def matrix(self, c):
        model = self.model
        n = model.group.order
        by_p = np.asarray(c, dtype=complex).reshape(-1, n).T
        parts = model.span.matrix(model.fiber_split(by_p))
        return fiber_tag(model.group, parts.swapaxes(0, 1))

    def coeffs_with_residual(self, x):
        model = self.model
        g = model.group
        n = g.order
        a = model.ambient_dim
        x4 = np.asarray(x, dtype=complex).reshape(a, n, a, n)
        blocks = x4[:, g.table, :, np.arange(n)].reshape(n * n, a, a)
        coords = model.span.coeffs(blocks).reshape(n, n, model.algebra.dim, n)
        fibers = np.arange(n)
        c = coords[fibers, :, :, fibers].transpose(2, 0, 1)
        residual = frob_norm(x - self.matrix(c))
        return c.reshape(-1), float(residual)

    def coeffs(self, x, tol=DEFAULT_TOL, require=False):
        c, residual = self.coeffs_with_residual(x)
        if require and not tol_check(residual, tol, frob_norm(x)).ok:
            raise MembershipError("operator lies outside the double span", residual)
        return c

    def residual(self, x):
        return self.coeffs_with_residual(x)[1]


def word_extension(generators, target_dim, max_len=3, rel_tol=_EXTENSION_REL_TOL):
    """Breadth-first extension of generator words until the domain span fills.

    ``generators`` is a list of (label, domain matrix, image matrix).  Words
    start from the identity pair; a product is accepted when its domain matrix
    adds a new direction: its residual after projection onto the accepted
    words exceeds ``rel_tol * max(1, ||word||)``, so products that vanish up
    to rounding are never taken.  Returns the accepted (domain, image) pairs.
    Raises :class:`ExtensionError` if words up to ``max_len`` do not reach
    ``target_dim`` independent directions.
    """
    dom_rows = generators[0][1].shape[0]
    cod_rows = generators[0][2].shape[0]
    ident = (np.eye(dom_rows, dtype=complex), np.eye(cod_rows, dtype=complex))
    accepted = [ident]
    q = vec(ident[0])[None, :] / np.linalg.norm(vec(ident[0]))
    frontier = [ident]
    for _ in range(max_len):
        if len(accepted) >= target_dim:
            break
        cands = []
        for w_dom, w_img in frontier:
            for _, g_dom, g_img in generators:
                cands.append((w_dom @ g_dom, w_img, g_img))
        mats = np.stack([c[0] for c in cands])
        flat = mats.reshape(len(cands), -1)
        resid = flat - (flat @ q.conj().T) @ q
        norms = np.linalg.norm(flat, axis=1)
        next_frontier = []
        for idx in np.flatnonzero(~tol_check(np.linalg.norm(resid, axis=1), rel_tol, norms).ok):
            v = flat[idx] - (flat[idx] @ q.conj().T) @ q
            v -= (v @ q.conj().T) @ q
            nv = np.linalg.norm(v)
            if tol_check(nv, rel_tol, norms[idx]).ok:
                continue
            q = np.vstack([q, v / nv])
            w_dom = mats[idx]
            w_img = cands[idx][1] @ cands[idx][2]
            accepted.append((w_dom, w_img))
            next_frontier.append((w_dom, w_img))
            if len(accepted) >= target_dim:
                break
        frontier = next_frontier
        if not frontier:
            break
    if len(accepted) < target_dim:
        raise ExtensionError(len(accepted), target_dim)
    return accepted


class DualityIso:
    """A coordinate *-isomorphism between two operator spans.

    ``coords`` maps domain coordinates to codomain coordinates; ``inverse``,
    computed once here, maps them back.  ``report`` records the construction's
    validation residuals.
    """

    def __init__(self, domain, codomain, coords, report=None):
        self.domain = domain
        self.codomain = codomain
        self.coords = coords
        self.inverse = np.linalg.inv(coords)
        self.report = report or {}

    def apply(self, x, require=True, tol=1e-8):
        c = self.domain.coeffs(x, tol=tol, require=require)
        return self.codomain.matrix(self.coords @ c)

    def inverse_apply(self, y, require=True, tol=1e-8):
        c = self.codomain.coeffs(y, tol=tol, require=require)
        return self.domain.matrix(self.inverse @ c)

    def validate(self, relations, rng, samples=6, tol=1e-8):
        """Populate the report: generator relations, *-homomorphism residuals.

        Each residual is the worst ||f(x) - y||_F of its samples; its scale,
        the largest max(||f(x)||_F, ||y||_F), goes under the same key in
        ``report["scales"]``.
        """
        res, scales = {}, {}

        def compare(key, got, want):
            res[key] = max(res.get(key, 0.0), frob_norm(got - want))
            scales[key] = max(scales.get(key, 0.0), frob_norm(got), frob_norm(want))

        for label, dom, img in relations:
            compare(label, self.apply(dom, require=True, tol=tol), img)
        dim = self.domain.dim
        for _ in range(samples):
            c1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            c2 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            c1 /= np.linalg.norm(c1)
            c2 /= np.linalg.norm(c2)
            x = self.domain.matrix(c1)
            y = self.domain.matrix(c2)
            fx = self.codomain.matrix(self.coords @ c1)
            fy = self.codomain.matrix(self.coords @ c2)
            compare("multiplicative", self.apply(x @ y, tol=tol), fx @ fy)
            compare("star", self.apply(dagger(x), tol=tol), dagger(fx))
        dom_eye = np.eye(self.domain.shape[0], dtype=complex)
        cod_eye = np.eye(self.codomain.shape[0], dtype=complex)
        compare("unital", self.apply(dom_eye, require=True, tol=1e-8), cod_eye)
        keys = ("multiplicative", "star", "unital")
        self.report.update({key: res.get(key, 0.0) for key in keys}, scales=scales)
        self.report["relations"] = {label: res[label] for label, _, _ in relations}
        return self.report


def takai_generators(model):
    """Generator triples (label, domain matrix, image matrix) for the duality."""
    g = model.group
    n = g.order
    d = model.algebra.total_dim
    big_eye = np.eye(model.ambient_dim, dtype=complex)
    gens = []
    for i in range(model.algebra.dim):
        rep = model.algebra_rep(model.algebra.unit(i))
        gens.append((f"algebra_{i}", rep, kron(rep, np.eye(n))))
    for r in g.elements:
        lam = left_regular(g, r)
        gens.append(
            (f"translation_{r}", kron(np.eye(d), lam), kron(model.translation_unitary(r), lam))
        )
    for p in g.elements:
        e = np.zeros((n, n), dtype=complex)
        e[p, p] = 1.0
        gens.append((f"function_{p}", kron(np.eye(d), e), kron(big_eye, e)))
    return gens


def takai_duality(model, rng=None):
    """Identify M (x) B(l2 G) with the double-construction span.

    Built by generator-word extension; the returned isomorphism carries a
    validation report (rank, conditioning, generator relations, and sampled
    *-homomorphism residuals).
    """
    rng = rng or np.random.default_rng(0xA11CE)
    dom = model.mb_algebra
    cod = DoubleSpan(model)
    gens = takai_generators(model)
    target = model.span.dim * model.group.order
    words = word_extension(gens, target_dim=target)
    dm = dom.coeffs(np.stack([w for w, _ in words]), require=True).T
    im = np.stack([cod.coeffs(w, require=True, tol=1e-8) for _, w in words], axis=1)
    coords = im @ np.linalg.inv(dm)
    report = {
        "rank": len(words),
        "condition": float(np.linalg.cond(dm)),
    }
    iso = DualityIso(dom, cod, coords, report)
    relations = [
        (label.split("_")[0] + "_gen", dmat, imat) for label, dmat, imat in gens
    ]
    iso.validate(relations, rng)
    return iso


def stone_von_neumann(algebra, group, rng=None):
    """Identify (M-valued functions on G) x (translation) with M (x) B(l2 G).

    The domain is the crossed-product model of the shift action on the
    block algebra of M-valued functions (position index slow); the codomain
    is all of M (x) B(l2 G).  The returned isomorphism exposes the domain
    model as ``domain_model``.
    """
    rng = rng or np.random.default_rng(0xB0B)
    n = group.order
    k = len(algebra.blocks)
    d = algebra.total_dim
    beta_algebra = BlockAlgebra(algebra.blocks * n, max_dim=None)
    perms = [
        [group.mult(r, s) * k + b for s in group.elements for b in range(k)]
        for r in group.elements
    ]
    beta = make_action(group, beta_algebra, block_perms=perms)
    model = CrossedProductModel(beta)
    mb = BlockAlgebra(tuple(b * n for b in algebra.blocks), max_dim=None)
    gens = []
    for j in range(beta_algebra.dim):
        bb, p, q, _, _ = beta_algebra.unit_position(j)
        s, b = divmod(bb, k)
        u = algebra.unit_index(b, p, q)
        e = np.zeros((n, n), dtype=complex)
        e[s, s] = 1.0
        gens.append(
            (f"algebra_{j}", model.algebra_rep(beta_algebra.unit(j)), kron(algebra.unit(u), e))
        )
    for r in group.elements:
        gens.append(
            (
                f"translation_{r}",
                model.translation_unitary(r),
                kron(np.eye(d), left_regular(group, r)),
            )
        )
    target = algebra.dim * n * n
    words = word_extension(gens, target_dim=target, max_len=2)
    dm = np.stack([model.span.coeffs(w, require=True, tol=1e-8) for w, _ in words], axis=1)
    im = mb.coeffs(np.stack([w for _, w in words]), require=True, tol=1e-8).T
    coords = im @ np.linalg.inv(dm)
    report = {"rank": len(words), "condition": float(np.linalg.cond(dm))}
    iso = DualityIso(model.span, mb, coords, report)
    relations = [(label.split("_")[0] + "_gen", dmat, imat) for label, dmat, imat in gens]
    iso.validate(relations, rng)
    iso.domain_model = model
    return iso
