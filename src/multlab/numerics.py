"""Dense-matrix utilities: vec/unvec, Kronecker products, Choi matrices, spans.

Conventions, fixed once and used everywhere:

* ``vec`` stacks columns: ``vec(A)[i + j*rows] = A[i, j]``.  Consequently
  ``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``.
* ``kron(A, B)`` indexes the left factor slowly:
  ``kron(A, B)[(i, k), (j, l)] = A[i, j] * B[k, l]`` where the row index is
  ``i * rows(B) + k``.
* The Choi matrix of a linear map Phi on d x d matrices is
  ``C[(i, k), (j, l)] = Phi(E_ij)[k, l]``, i.e. ``C = sum_ij kron(E_ij, Phi(E_ij))``.

All operators are numpy arrays with complex dtype.  Every check compares a
residual with ``tol * max(1, scale)`` through :func:`tol_check`;
``DEFAULT_TOL`` is the package-wide base tolerance for membership and
consistency checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import MembershipError, ValidationError

DEFAULT_TOL = 1e-10

# Hard ceiling on the side length of any materialized Kronecker product.
MAX_KRON_DIM = 20000


class CheckResult(NamedTuple):
    """Outcome of a verification: flag, worst residual, effective tolerance."""

    ok: bool
    residual: float
    tol: float


def tol_check(residual, tol, scale=0.0):
    """Compare a residual with ``tol * max(1, scale)``: the one tolerance rule.

    ``scale`` is the size of the compared objects; for ``||A - B||`` it is
    ``max(||A||_F, ||B||_F)``.  Below scale 1 the rule is absolute, above it
    relative (a normwise backward error), so rounding of a true identity
    passes at every scale.  The result carries the effective tolerance.
    Array arguments are compared elementwise.
    """
    eff = tol * np.maximum(1.0, scale)
    ok = residual <= eff
    if isinstance(ok, np.ndarray):
        return CheckResult(ok, residual, eff)
    return CheckResult(bool(ok), float(residual), float(eff))


def check_pairs(pairs, tol):
    """:func:`tol_check` of the worst ``||A - B||_F`` over (A, B) pairs, at the
    scale ``max(||A||_F, ||B||_F)`` over all of them."""
    pairs = list(pairs)
    worst = max(frob_norm(a - b) for a, b in pairs)
    return tol_check(worst, tol, max(frob_norm(x) for pair in pairs for x in pair))


def dagger(a):
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def vec(a):
    """Column-stacking vectorization: vec(A)[i + j*rows] = A[i, j]."""
    return np.asarray(a).flatten(order="F")


def unvec(v, shape=None):
    """Inverse of :func:`vec`.  ``shape`` defaults to square."""
    v = np.asarray(v)
    if shape is None:
        d = int(round(np.sqrt(v.size)))
        if d * d != v.size:
            raise ValidationError(f"cannot unvec length {v.size} without a shape")
        shape = (d, d)
    return v.reshape(shape, order="F")


def kron(a, b):
    """Kronecker product with the left factor indexed slowly.

    kron(A, B)[(i, k), (j, l)] = A[i, j] * B[k, l].
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] * b.shape[0] > MAX_KRON_DIM or a.shape[1] * b.shape[1] > MAX_KRON_DIM:
        raise ValidationError(
            f"kron result {a.shape[0] * b.shape[0]} exceeds cap {MAX_KRON_DIM}"
        )
    return np.kron(a, b)


def operator_norm(a):
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a), 2))


def frob_norm(a):
    """Frobenius (Hilbert-Schmidt) norm."""
    return float(np.linalg.norm(np.asarray(a)))


def choi_matrix(superop, dim):
    """Choi matrix of a map given as its action on vec'd matrices.

    ``superop`` is the dim^2 x dim^2 matrix with Phi(X) = unvec(superop @ vec(X)).
    Returns C with C[(i, k), (j, l)] = Phi(E_ij)[k, l].
    """
    d = dim
    L = np.asarray(superop, dtype=complex)
    if L.shape != (d * d, d * d):
        raise ValidationError(f"superoperator must be {d * d} x {d * d}, got {L.shape}")
    # Column vec(E_ij) sits at index i + j*d; entry (k + l*d) of it is Phi(E_ij)[k, l].
    L4 = L.reshape(d, d, d, d)  # [l, k][j, i] after row/col split, C order
    return L4.transpose(3, 1, 2, 0).reshape(d * d, d * d)


def choi_to_superop(choi, dim):
    """Inverse of :func:`choi_matrix`."""
    d = dim
    C = np.asarray(choi, dtype=complex)
    if C.shape != (d * d, d * d):
        raise ValidationError(f"Choi matrix must be {d * d} x {d * d}, got {C.shape}")
    C4 = C.reshape(d, d, d, d)  # [i, k][j, l]
    return C4.transpose(3, 1, 2, 0).reshape(d * d, d * d)


def is_psd(a, tol=DEFAULT_TOL):
    """Whether a Hermitian matrix is positive semidefinite up to ``tol``."""
    h = (np.asarray(a) + dagger(a)) / 2
    if frob_norm(h - np.asarray(a)) > max(tol, 1e-9 * (1 + frob_norm(h))):
        return False
    return bool(np.linalg.eigvalsh(h)[0] >= -tol)


class DenseSpan:
    """A linear span of matrices with explicit basis, supporting coordinates.

    The basis is a stacked array of shape (dim, rows, cols).  For an
    orthogonal basis coordinates are Hilbert-Schmidt projections; otherwise a
    pseudoinverse of the Gram matrix is used.  ``coeffs`` optionally enforces
    membership within a tolerance.
    """

    def __init__(self, basis, tol=DEFAULT_TOL):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 3:
            raise ValidationError(f"basis must be stacked matrices, got ndim {basis.ndim}")
        self.basis = basis
        self.dim = basis.shape[0]
        self.shape = basis.shape[1:]
        flat = basis.reshape(self.dim, -1)
        gram = flat.conj() @ flat.T
        norms = np.sqrt(np.real(np.diag(gram)))
        if np.any(norms < tol):
            raise ValidationError("basis contains a (near-)zero matrix")
        off = gram - np.diag(np.diag(gram))
        self._flat = flat
        if tol_check(frob_norm(off), tol, float(norms.max()) ** 2).ok:
            # Orthogonal: dual basis is the basis scaled by 1/norm^2.
            self._dual = flat.conj() / np.real(np.diag(gram))[:, None]
        else:
            rank = np.linalg.matrix_rank(gram, tol=max(tol, 1e-12) * self.dim)
            if rank < self.dim:
                raise ValidationError(
                    f"basis is linearly dependent (rank {rank} of {self.dim})"
                )
            self._dual = np.linalg.solve(gram, flat.conj())

    @property
    def ambient_dim(self):
        return self.shape[0] * self.shape[1]

    def basis_matrix(self, k):
        return self.basis[k]

    def coeffs(self, x, tol=DEFAULT_TOL, require=False):
        """Coordinates of ``x`` in the basis; optionally enforce membership.

        ``x`` is one matrix or a stack of them, shape (k, rows, cols); a stack
        gets a (k, dim) array, row j holding the coordinates of ``x[j]``.
        With ``require``, a distance to the span above ``tol * max(1, ||x||)``
        raises :class:`MembershipError`.
        """
        x = np.asarray(x, dtype=complex)
        flat = x.reshape(-1, self._flat.shape[1])
        c = flat @ self._dual.T
        if require:
            res = np.linalg.norm(flat - c @ self._flat, axis=1)
            bad = np.flatnonzero(~tol_check(res, tol, np.linalg.norm(flat, axis=1)).ok)
            if bad.size:
                i = int(bad[0])
                raise MembershipError(
                    "operator lies outside the span",
                    float(res[i]),
                    index=None if x.ndim == 2 else i,
                )
        return c[0] if x.ndim == 2 else c

    def matrix(self, c):
        """The span element with coordinates ``c``; leading axes of ``c`` give a stack."""
        c = np.asarray(c, dtype=complex)
        return (c @ self._flat).reshape(c.shape[:-1] + self.shape)

    def project(self, x):
        return self.matrix(self.coeffs(x))

    def residual(self, x):
        """Frobenius distance from ``x`` to the span."""
        return frob_norm(np.asarray(x, dtype=complex) - self.project(x))

    def contains(self, x, tol=DEFAULT_TOL):
        return tol_check(self.residual(x), tol, frob_norm(x)).ok


class SpanMap:
    """A linear map between two matrix spans, stored as a coordinate matrix.

    ``coords`` has shape (codomain.dim, domain.dim):
    applying to a domain basis element e_k yields the codomain element with
    coordinates ``coords[:, k]``.
    """

    def __init__(self, domain, codomain, coords):
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (codomain.dim, domain.dim):
            raise ValidationError(
                f"coords shape {coords.shape} != ({codomain.dim}, {domain.dim})"
            )
        self.domain = domain
        self.codomain = codomain
        self.coords = coords

    @classmethod
    def identity(cls, span):
        return cls(span, span, np.eye(span.dim))

    @classmethod
    def from_function(cls, domain, codomain, f, require=True, tol=DEFAULT_TOL):
        """Build from a callable acting on ambient matrices."""
        cols = [
            codomain.coeffs(f(domain.basis_matrix(k)), tol=tol, require=require)
            for k in range(domain.dim)
        ]
        return cls(domain, codomain, np.stack(cols, axis=1))

    def apply(self, x, tol=DEFAULT_TOL, require=True):
        c = self.domain.coeffs(x, tol=tol, require=require)
        return self.codomain.matrix(self.coords @ c)

    def __matmul__(self, other):
        if other.codomain is not self.domain and other.codomain.dim != self.domain.dim:
            raise ValidationError("span maps not composable")
        return SpanMap(other.domain, self.codomain, self.coords @ other.coords)

    def __add__(self, other):
        return SpanMap(self.domain, self.codomain, self.coords + other.coords)

    def __mul__(self, scalar):
        return SpanMap(self.domain, self.codomain, scalar * self.coords)

    __rmul__ = __mul__

    def coords_distance(self, other):
        """Operator-norm distance between coordinate matrices."""
        return operator_norm(self.coords - other.coords)
