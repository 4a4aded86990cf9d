"""Block matrix algebras, completely bounded maps on them, group actions, modules.

A *block algebra* is a direct sum of full matrix blocks sitting inside
M_D with D the sum of the block sizes: all matrices supported on the diagonal
blocks.  Its canonical basis is the list of matrix units enumerated block by
block, row-major inside each block.  The basis is held as index arrays (the
global row and column of each unit), never as stored matrices: coordinates
are exact entry reads, elements are scatters, and the distance to the
algebra is the norm off its support, so membership checks are cheap and
sharp.

A :class:`CbMap` is a linear map on the algebra, and its coordinate matrix on
the unit basis is the map.  Kraus pairs (L_i, R_i), acting by
x -> sum_i L_i x R_i*, and vectorized D^2 x D^2 matrices are accepted as
input formats only: they are checked to send the algebra into itself and
converted to coordinates at construction.  The ambient ``matrix`` and
``choi`` forms are derived as phi o E, where E is the block compression of
M_D onto the algebra; the Choi matrix follows the convention of
:mod:`multlab.numerics`.

A :class:`GroupAction` realizes each group element as conjugation by a
unitary of the form U_r P_r where U_r lies in the algebra and P_r permutes
equal-sized blocks.  The homomorphism property is verified on algebra
coordinates, not on ambient matrices: the same implementing unitaries can be
an action on a subalgebra while failing to compose on the full matrix ring.
"""

from __future__ import annotations

import numpy as np

from .errors import ActionError, MembershipError, ValidationError
from .numerics import (
    DEFAULT_TOL,
    DenseSpan,
    choi_matrix,
    dagger,
    frob_norm,
    check_pairs,
    is_psd,
    tol_check,
)

MAX_ALGEBRA_DIM = 16

class BlockAlgebra:
    """Direct sum of full matrix blocks inside M_D, held as index arrays.

    Unit i is the matrix unit at global position (``rows[i]``, ``cols[i]``);
    ``flat_index`` and ``vec_index`` locate it in the row-major and the
    column-stacked D^2 vectors.  The unit basis itself is never stored:
    coordinates are a gather of those entries, elements a scatter, and the
    distance to the algebra is the norm of the entries off its support.
    ``dim``, ``shape``, ``coeffs`` and ``matrix`` are the span interface of
    :class:`~multlab.numerics.DenseSpan`, so an algebra can be either side of
    a duality isomorphism.
    """

    def __init__(self, blocks, max_dim=MAX_ALGEBRA_DIM):
        blocks = tuple(int(b) for b in blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise ValidationError(f"block sizes must be positive, got {blocks}")
        total = sum(blocks)
        if max_dim is not None and total > max_dim:
            raise ValidationError(f"total dimension {total} exceeds cap {max_dim}")
        self.blocks = blocks
        self.total_dim = total
        self.shape = (total, total)
        self.offsets = np.concatenate([[0], np.cumsum(blocks)])
        rows, cols = [], []
        for off, d in zip(self.offsets, blocks):
            p, q = np.divmod(np.arange(d * d), d)
            rows.append(off + p)
            cols.append(off + q)
        self.rows = np.concatenate(rows)
        self.cols = np.concatenate(cols)
        self.dim = self.rows.size
        self.flat_index = self.rows * total + self.cols
        # Index of each unit in the column-stacked vec(M_D).
        self.vec_index = self.rows + total * self.cols
        # unit index at each global position, -1 off the support
        self._index = np.full((total, total), -1)
        self._index[self.rows, self.cols] = np.arange(self.dim)
        self._off_support = (self._index < 0).reshape(-1)
        self.identity = np.eye(total, dtype=complex)

    def __repr__(self):
        return f"BlockAlgebra(blocks={self.blocks})"

    def unit(self, i):
        e = np.zeros(self.shape, dtype=complex)
        e[self.rows[i], self.cols[i]] = 1.0
        return e

    def unit_position(self, i):
        """(block, row-in-block, col-in-block, global row, global col)."""
        gp, gq = int(self.rows[i]), int(self.cols[i])
        b = int(np.searchsorted(self.offsets, gp, side="right")) - 1
        off = int(self.offsets[b])
        return b, gp - off, gq - off, gp, gq

    def unit_index(self, block, p, q):
        if not (0 <= p < self.blocks[block] and 0 <= q < self.blocks[block]):
            raise ValidationError(f"no unit ({p}, {q}) in block {block}")
        off = self.offsets[block]
        return int(self._index[off + p, off + q])

    def unit_product(self, i, j):
        """Index of unit(i) @ unit(j), or None if the product vanishes."""
        if self.cols[i] != self.rows[j]:
            return None
        return int(self._index[self.rows[i], self.cols[j]])

    def adjoint_index(self, i):
        return int(self._index[self.cols[i], self.rows[i]])

    def coeffs(self, x, require=False, tol=DEFAULT_TOL):
        """Coordinates of ``x``, one matrix or a (k, D, D) stack, by a gather.

        With ``require``, an operator whose mass off the support exceeds
        ``tol * max(1, ||x||)`` raises :class:`MembershipError`, carrying the
        residual and, for a stack, the index of the first offender.
        """
        x = np.asarray(x, dtype=complex)
        flat = x.reshape(-1, self.total_dim**2)
        c = flat[:, self.flat_index]
        if require:
            res = np.linalg.norm(self._off(flat), axis=1)
            bad = np.flatnonzero(~tol_check(res, tol, np.linalg.norm(flat, axis=1)).ok)
            if bad.size:
                i = int(bad[0])
                raise MembershipError(
                    "operator lies outside the span",
                    float(res[i]),
                    index=None if x.ndim == 2 else i,
                )
        return c[0] if x.ndim == 2 else c

    def element(self, c):
        """The element with coordinates ``c``; a (k, dim) array gives a stack."""
        c = np.asarray(c, dtype=complex)
        out = np.zeros(c.shape[:-1] + (self.total_dim**2,), dtype=complex)
        out[..., self.flat_index] = c
        return out.reshape(c.shape[:-1] + self.shape)

    matrix = element

    def _off(self, flat):
        """The entries of flattened operators off the support, zeros elsewhere."""
        return np.where(self._off_support, flat, 0)

    def residual(self, x):
        """Frobenius distance from ``x`` to the algebra: its mass off the support."""
        return frob_norm(self._off(np.asarray(x, dtype=complex).reshape(-1)))

    def contains(self, x, tol=DEFAULT_TOL):
        return tol_check(self.residual(x), tol, frob_norm(x)).ok


def make_algebra(blocks, max_dim=MAX_ALGEBRA_DIM):
    """Build the block algebra with the given block sizes."""
    return BlockAlgebra(blocks, max_dim=max_dim)


class CbMap:
    """A linear map on a block algebra, held as its coordinate matrix.

    ``coords`` is the map: column i holds the coordinates of the image of
    basis unit i.  Kraus pairs and D^2 x D^2 superoperator matrices are input
    formats only, converted to ``coords`` once at construction (and checked
    to send the algebra into itself).  The ambient ``matrix`` and ``choi``
    forms are derived from ``coords`` as phi o E, with E the block
    compression of M_D onto the algebra; E is a unital completely positive
    conditional expectation, so phi o E has the cb norm of phi itself.
    """

    def __init__(self, algebra, kraus=None, mat=None, coords=None):
        if sum(form is not None for form in (kraus, mat, coords)) != 1:
            raise ValidationError("provide exactly one of kraus pairs, a matrix or coords")
        self.algebra = algebra
        self._matrix = None
        self._choi = None
        d = algebra.total_dim
        if coords is not None:
            coords = np.asarray(coords, dtype=complex)
            if coords.shape != (algebra.dim, algebra.dim):
                raise ValidationError(f"coords must be {algebra.dim} x {algebra.dim}")
            self.coords = coords
            return
        if kraus is not None:
            # L E_pq R* is the outer product of column p of L with column q of conj(R).
            images = np.zeros((algebra.dim, d, d), dtype=complex)
            for left, right in kraus:
                left = np.asarray(left, dtype=complex)
                right = np.asarray(right, dtype=complex)
                if left.shape != (d, d) or right.shape != (d, d):
                    raise ValidationError(f"Kraus factors must be {d} x {d}")
                images += left.T[algebra.rows, :, None] * right.T[algebra.cols, None, :].conj()
        else:
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (d * d, d * d):
                raise ValidationError(f"matrix must be {d * d} x {d * d}")
            # Column vec_index[i] of mat is vec of the image of unit i.
            images = mat[:, algebra.vec_index].T.reshape(algebra.dim, d, d).transpose(0, 2, 1)
        self.coords = _unit_image_coords(algebra, images)

    @classmethod
    def from_kraus(cls, algebra, lefts, rights=None):
        """The map x -> sum_i lefts[i] x rights[i]*; rights default to lefts."""
        if rights is None:
            rights = lefts
        if len(lefts) != len(rights):
            raise ValidationError("left and right Kraus lists differ in length")
        return cls(algebra, kraus=list(zip(lefts, rights)))

    @classmethod
    def from_matrix(cls, algebra, mat):
        return cls(algebra, mat=mat)

    @classmethod
    def from_unit_images(cls, algebra, images):
        """Define the map by its values on the algebra's unit basis."""
        images = [np.asarray(im, dtype=complex) for im in images]
        if len(images) != algebra.dim:
            raise ValidationError(f"need {algebra.dim} images, got {len(images)}")
        d = algebra.total_dim
        if any(im.shape != (d, d) for im in images):
            raise ValidationError(f"unit images must be {d} x {d}")
        return cls(algebra, coords=_unit_image_coords(algebra, np.stack(images)))

    @classmethod
    def from_coords(cls, algebra, coords):
        return cls(algebra, coords=coords)

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, coords=np.eye(algebra.dim))

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, coords=np.zeros((algebra.dim, algebra.dim)))

    @classmethod
    def ad(cls, algebra, u):
        """Conjugation x -> u x u*."""
        return cls.from_kraus(algebra, [u])

    @property
    def matrix(self):
        """Superoperator of phi o E on column-stacked D x D matrices."""
        if self._matrix is None:
            d = self.algebra.total_dim
            idx = self.algebra.vec_index
            mat = np.zeros((d * d, d * d), dtype=complex)
            mat[np.ix_(idx, idx)] = self.coords
            self._matrix = mat
        return self._matrix

    @property
    def choi(self):
        if self._choi is None:
            self._choi = choi_matrix(self.matrix, self.algebra.total_dim)
        return self._choi

    def apply(self, x):
        """phi(E(x)); equal to phi(x) for x in the algebra."""
        return self.algebra.element(self.coords @ self.algebra.coeffs(x))

    def is_cp(self, tol=1e-9):
        return is_psd(self.choi, tol=tol)

    def is_unital(self, tol=DEFAULT_TOL):
        return check_pairs([(self.apply(self.algebra.identity), self.algebra.identity)], tol).ok

    def __matmul__(self, other):
        return CbMap(self.algebra, coords=self.coords @ other.coords)

    def __add__(self, other):
        return CbMap(self.algebra, coords=self.coords + other.coords)

    def __mul__(self, scalar):
        return CbMap(self.algebra, coords=scalar * self.coords)

    __rmul__ = __mul__

    def coords_distance(self, other):
        return float(np.linalg.norm(self.coords - other.coords, 2))


def _unit_image_coords(algebra, images):
    """Coordinate matrix of a map from the stacked images of the basis units.

    An image outside the algebra raises :class:`MembershipError`.
    """
    try:
        return algebra.coeffs(images, require=True).T
    except MembershipError as err:
        raise MembershipError(
            f"image of basis unit {err.index} leaves the algebra", err.residual, err.index
        ) from None


def _perm_matrix(algebra, perm):
    """Block-permutation unitary moving block j's content to block perm[j]."""
    blocks = algebra.blocks
    k = len(blocks)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(k)):
        raise ValidationError(f"not a permutation of {k} blocks: {perm}")
    for j in range(k):
        if blocks[perm[j]] != blocks[j]:
            raise ValidationError(
                f"block permutation maps size {blocks[j]} onto size {blocks[perm[j]]}"
            )
    out = np.zeros((algebra.total_dim, algebra.total_dim), dtype=complex)
    off = algebra.offsets
    for j, d in enumerate(blocks):
        out[off[perm[j]] : off[perm[j]] + d, off[j] : off[j] + d] = np.eye(d)
    return out


class GroupAction:
    """An action of a finite group on a block algebra by *-automorphisms.

    Element r acts as Ad(U_r P_r): an inner unitary from the algebra composed
    with a permutation of equal-sized blocks.  Validation checks, on algebra
    coordinates, that r=0 acts as the identity and that composition matches
    the group table; the offending pair is reported otherwise.
    """

    def __init__(self, group, algebra, unitaries=None, block_perms=None, tol=DEFAULT_TOL):
        n = group.order
        k = len(algebra.blocks)
        if unitaries is None:
            unitaries = [algebra.identity] * n
        if block_perms is None:
            block_perms = [list(range(k))] * n
        if len(unitaries) != n or len(block_perms) != n:
            raise ValidationError("need one unitary and one block permutation per element")
        self.group = group
        self.algebra = algebra
        ws = []
        for r in range(n):
            u = np.asarray(unitaries[r], dtype=complex)
            if not algebra.contains(u, tol=tol):
                raise MembershipError(
                    f"inner unitary for element {r} lies outside the algebra",
                    algebra.residual(u),
                )
            if not check_pairs([(dagger(u) @ u, algebra.identity)], tol).ok:
                raise ValidationError(f"matrix for element {r} is not unitary")
            ws.append(u @ _perm_matrix(algebra, block_perms[r]))
        self.inner_unitaries = [np.asarray(u, dtype=complex) for u in unitaries]
        self.block_perms = [list(int(j) for j in p) for p in block_perms]
        self._unitaries = ws
        self._coords = [self._conj_coords(w) for w in ws]
        if not check_pairs([(self._coords[0], np.eye(algebra.dim))], tol).ok:
            raise ActionError("identity element does not act as the identity", pair=(0, 0))
        for r in range(n):
            for s in range(n):
                pair = (self._coords[r] @ self._coords[s], self._coords[group.mult(r, s)])
                ok, err, _ = check_pairs([pair], tol)
                if not ok:
                    raise ActionError(
                        f"composition fails at pair ({r}, {s})", pair=(r, s), residual=err
                    )

    def _conj_coords(self, w):
        # Entry j of w E_pq w* is w[rows[j], p] * conj(w[cols[j], q]).
        rows, cols = self.algebra.rows, self.algebra.cols
        return w[np.ix_(rows, rows)] * w[np.ix_(cols, cols)].conj()

    def unitary(self, r):
        """The implementing unitary U_r P_r on the ambient space."""
        return self._unitaries[r]

    def coords(self, r):
        """Matrix of alpha_r on the algebra's unit basis."""
        return self._coords[r]

    def apply(self, r, x):
        w = self._unitaries[r]
        return w @ np.asarray(x, dtype=complex) @ dagger(w)

    def apply_inverse(self, r, x):
        return self.apply(self.group.inv(r), x)

    def cbmap(self, r):
        return CbMap.from_coords(self.algebra, self._coords[r])

    def fixed_point_basis(self, tol=1e-8):
        """Orthonormal basis (in HS inner product) of the fixed-point subalgebra."""
        avg = sum(self._coords) / self.group.order
        avg = (avg + dagger(avg)) / 2
        vals, vecs = np.linalg.eigh(avg)
        keep = vals > 1 - max(tol, 1e-8)
        return self.algebra.element(vecs[:, keep].T)


def make_action(group, algebra, unitaries=None, block_perms=None, tol=DEFAULT_TOL):
    """Validated group action from inner unitaries and block permutations."""
    return GroupAction(group, algebra, unitaries=unitaries, block_perms=block_perms, tol=tol)


def trivial_action(group, algebra):
    return GroupAction(group, algebra)


def translation_action(group):
    """The group acting on functions over itself: position s moves to rs."""
    algebra = make_algebra((1,) * group.order, max_dim=None)
    perms = [[group.mult(r, s) for s in group.elements] for r in group.elements]
    return GroupAction(group, algebra, block_perms=perms)


def ad_action(group, algebra, unitaries, tol=DEFAULT_TOL):
    """Inner action r -> Ad(U_r); the U_r need only compose projectively."""
    return GroupAction(group, algebra, unitaries=unitaries, tol=tol)


class ModuleStructure:
    """A *-subalgebra acting on its parent algebra by multiplication.

    ``basis`` spans the acting subalgebra; validation checks the span is
    closed under products and adjoints and lies inside the parent.
    ``two_sided`` selects bimodule (left and right) versus left-only checks.
    """

    def __init__(self, algebra, basis, two_sided=True, tol=DEFAULT_TOL):
        self.algebra = algebra
        self.two_sided = bool(two_sided)
        mats = [np.asarray(b, dtype=complex) for b in basis]
        for i, b in enumerate(mats):
            if not algebra.contains(b, tol=tol):
                raise ValidationError(f"acting element {i} lies outside the parent algebra")
        self.span = DenseSpan(np.stack(mats))
        for i, a in enumerate(mats):
            if not self.span.contains(dagger(a), tol=tol):
                raise ValidationError(f"acting span is not *-closed (element {i})")
            for j, b in enumerate(mats):
                if not self.span.contains(a @ b, tol=tol):
                    raise ValidationError(
                        f"acting span is not closed under products (pair {i}, {j})"
                    )
        self.basis = mats
        self.dim = len(mats)

    def element(self, i):
        return self.basis[i]


def is_module_map(phi, mod, tol=DEFAULT_TOL):
    """Check phi(b a) = b phi(a) (and the right-handed twin if two-sided)."""
    alg = mod.algebra
    pairs = []
    for b in mod.basis:
        for a in map(alg.unit, range(alg.dim)):
            pairs.append((phi.apply(b @ a), b @ phi.apply(a)))
            if mod.two_sided:
                pairs.append((phi.apply(a @ b), phi.apply(a) @ b))
    return check_pairs(pairs, tol)


def fixed_point_module(action, two_sided=True, tol=1e-8):
    """The fixed-point subalgebra of an action, as a module over its parent."""
    return ModuleStructure(action.algebra, list(action.fixed_point_basis(tol=tol)), two_sided)


def commutant_basis(algebra, elements, tol=1e-9):
    """Orthonormal basis of the commutant of ``elements`` inside the algebra."""
    m = algebra.dim
    rows = []
    for b in elements:
        b = np.asarray(b, dtype=complex)
        lc = np.stack([algebra.coeffs(b @ algebra.unit(i)) for i in range(m)], axis=1)
        rc = np.stack([algebra.coeffs(algebra.unit(i) @ b) for i in range(m)], axis=1)
        rows.append(lc - rc)
    system = np.concatenate(rows, axis=0)
    _, svals, vh = np.linalg.svd(system)
    null_mask = np.concatenate([svals, np.zeros(m - len(svals))]) <= tol
    return algebra.element(vh[null_mask].conj())


def sample_element(rng, algebra, hermitian=False):
    """Random algebra element with independent complex Gaussian coordinates."""
    c = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
    x = algebra.element(c)
    if hermitian:
        x = (x + dagger(x)) / 2
    return x


def sample_unitary(rng, dim):
    """Haar-ish random unitary via phase-fixed QR of a complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sample_cbmap(rng, algebra, terms=2, cp=False, pool=None):
    """Random CbMap with Kraus factors from the algebra (or a given pool).

    Factors are normalized to unit Frobenius norm so map norms stay O(1).
    With ``cp=True`` the right factors equal the left ones.
    """

    def draw():
        if pool is None:
            x = sample_element(rng, algebra)
        else:
            c = rng.standard_normal(len(pool)) + 1j * rng.standard_normal(len(pool))
            x = sum(ci * p for ci, p in zip(c, pool))
        return x / max(frob_norm(x), 1e-12)

    lefts = [draw() for _ in range(terms)]
    rights = lefts if cp else [draw() for _ in range(terms)]
    return CbMap.from_kraus(algebra, lefts, rights)
