"""Operator-valued Schur multipliers on block kernels.

Conventions
-----------
A kernel is a block matrix: block (y, x) sits at rows [y*D, (y+1)*D) and
columns [x*D, (x+1)*D) of the assembled operator (x = column block index,
y = row block index, D = ambient dimension of the entry algebra).

A symbol is a grid of maps indexed ``maps[x][y]``.  Applying a symbol
transforms kernel block (y, x) by the map at (x, y) and nothing else; on
scalar entries this multiplies kernel entry (y, x) by grid[x, y].

A linear map on the assembled matrix space is a Schur multiplier exactly
when it acts blockwise, i.e. commutes with left/right multiplication by the
diagonal block projections.  ``verify_bimodule`` measures the off-block mass
of a map's superoperator matrix; ``extract_symbol`` recovers the grid of
block maps when that mass vanishes.

``dilation_factorize`` realizes a symbol as
``cell(x, y)(a) = W(y)* (a (x) I_t) V(x)`` by Gram-factorizing the optimal
completion of the norm SDP.  The product max ||V|| * max ||W|| is a proven
upper bound on the completely bounded norm.  The SDP value is not a bound on
either side: it is the primal objective of an infeasible-start method, within
the reported duality gap of the optimum.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .algebras import CbMap, make_algebra
from .cbnorm import grid_cb_solution
from .errors import NotMultiplierError, ValidationError
from .numerics import frob_norm, operator_norm, tol_check


def kernel_operator(blocks):
    """Assemble an (nY, nX, D, D) array of blocks into one block matrix."""
    arr = np.asarray(blocks, dtype=complex)
    if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
        raise ValidationError("expected an (nY, nX, D, D) block array")
    ny, nx, d, _ = arr.shape
    return arr.transpose(0, 2, 1, 3).reshape(ny * d, nx * d)


def kernel_blocks(kernel, block_dim):
    """Split a block matrix back into its (nY, nX, D, D) block array."""
    k = np.asarray(kernel, dtype=complex)
    d = int(block_dim)
    if k.ndim != 2 or k.shape[0] % d or k.shape[1] % d:
        raise ValidationError("kernel shape is not a multiple of the block size")
    ny, nx = k.shape[0] // d, k.shape[1] // d
    return k.reshape(ny, d, nx, d).transpose(0, 2, 1, 3)


class SchurSymbol:
    """A grid of entry maps, ``maps[x][y]``, all on one shared algebra."""

    def __init__(self, maps):
        if not maps or not maps[0]:
            raise ValidationError("symbol grid must be nonempty")
        ny = len(maps[0])
        if any(len(row) != ny for row in maps):
            raise ValidationError("symbol grid rows must have equal length")
        algebra = maps[0][0].algebra
        for row in maps:
            for phi in row:
                if phi.algebra is not algebra:
                    raise ValidationError("all entry maps must share one algebra")
        self.maps = [list(row) for row in maps]
        self.nx = len(self.maps)
        self.ny = ny
        self.algebra = algebra

    @classmethod
    def from_scalar_grid(cls, algebra, grid):
        """Symbol whose (x, y) entry multiplies by the scalar grid[x, y]."""
        g = np.asarray(grid, dtype=complex)
        if g.ndim != 2:
            raise ValidationError("scalar grid must be 2-d")
        ident = np.eye(algebra.dim)
        maps = [
            [CbMap.from_coords(algebra, g[x, y] * ident) for y in range(g.shape[1])]
            for x in range(g.shape[0])
        ]
        return cls(maps)

    @classmethod
    def identity(cls, algebra, nx, ny=None):
        return cls.from_scalar_grid(algebra, np.ones((nx, ny or nx)))

    def choi_blocks(self):
        """The (nY, nX, D^2, D^2) array of Choi matrices of the entry maps."""
        dd = self.algebra.total_dim ** 2
        out = np.zeros((self.ny, self.nx, dd, dd), dtype=complex)
        for x in range(self.nx):
            for y in range(self.ny):
                out[y, x] = self.maps[x][y].choi
        return out


def apply_symbol(symbol, kernel):
    """Apply the symbol blockwise: block (y, x) goes through maps[x][y]."""
    d = symbol.algebra.total_dim
    blocks = kernel_blocks(kernel, d)
    ny, nx = blocks.shape[:2]
    if nx != symbol.nx or ny != symbol.ny:
        raise ValidationError(
            f"kernel has {ny} x {nx} blocks, symbol is {symbol.ny} x {symbol.nx}"
        )
    out = np.zeros_like(blocks)
    for x in range(nx):
        for y in range(ny):
            out[y, x] = symbol.maps[x][y].apply(blocks[y, x])
    return kernel_operator(out)


@functools.lru_cache
def _full_algebra(side):
    """The full matrix algebra M_side, shared by every map on it.

    An algebra is index arrays of O(side^2) entries, so keeping one per size
    for the life of the process is cheap.
    """
    return make_algebra((side,), max_dim=None)


def schur_map(symbol):
    """The symbol as one map on the assembled (square) block matrix space."""
    if symbol.nx != symbol.ny:
        raise ValidationError("assembled map needs a square symbol grid")
    d = symbol.algebra.total_dim
    n = symbol.nx
    nd = n * d
    mat = np.zeros((nd * nd, nd * nd), dtype=complex)
    local = np.arange(d)
    for x in range(n):
        for y in range(n):
            idx = ((x * d + local)[:, None] * nd + (y * d + local)[None, :]).reshape(-1)
            mat[np.ix_(idx, idx)] = symbol.maps[x][y].matrix
    return CbMap(_full_algebra(nd), mat=mat)


def _as_superoperator(source):
    if isinstance(source, CbMap):
        return source.matrix, source.algebra.total_dim
    mat = np.asarray(source, dtype=complex)
    nd = int(round(np.sqrt(mat.shape[0])))
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or nd * nd != mat.shape[0]:
        raise ValidationError("superoperator matrix must be square of square side")
    return mat, nd


def _block_split(source, d, tol):
    mat, nd = _as_superoperator(source)
    if nd % d:
        raise ValidationError("ambient dimension is not a multiple of the block size")
    n = nd // d
    r8 = mat.reshape(n, d, n, d, n, d, n, d)
    kept = np.zeros_like(r8)
    for x in range(n):
        for y in range(n):
            kept[x, :, y, :, x, :, y, :] = r8[x, :, y, :, x, :, y, :]
    residual = frob_norm((r8 - kept).reshape(nd * nd, nd * nd))
    return r8, n, tol_check(residual, tol, frob_norm(r8.reshape(-1)))


def verify_bimodule(source, block_dim=None, algebra=None, tol=1e-10):
    """Measure how far a map is from acting blockwise.

    The residual is the Frobenius mass of the superoperator outside the
    block-diagonal cells; it vanishes exactly when the map commutes with
    left/right multiplication by every diagonal block projection.  The
    scale is the Frobenius norm of the superoperator.
    """
    d = algebra.total_dim if algebra is not None else int(block_dim)
    return _block_split(source, d, tol)[2]


def extract_symbol(source, algebra=None, block_dim=None, tol=1e-10):
    """Recover the symbol grid of a blockwise map.

    Returns ``(symbol, residual)``; raises :class:`NotMultiplierError` when
    the map has off-block mass beyond ``tol * max(1, ||map||_F)``.
    """
    if algebra is None:
        if block_dim is None:
            raise ValidationError("pass the entry algebra or the block size")
        algebra = _full_algebra(int(block_dim))
    d = algebra.total_dim
    r8, n, (ok, residual, _) = _block_split(source, d, tol)
    if not ok:
        raise NotMultiplierError(
            f"map is not a Schur multiplier: off-block mass {residual:.3e}",
            residual=residual,
        )
    dd = d * d
    maps = [
        [CbMap(algebra, mat=r8[x, :, y, :, x, :, y, :].reshape(dd, dd))
         for y in range(n)]
        for x in range(n)
    ]
    return SchurSymbol(maps), residual


@dataclass
class DilationResult:
    """Dilation triple with its norm certificate.

    ``cell(x, y)(a) = w_ops[y]* (a (x) I_multiplicity) v_ops[x]`` holds up to
    ``reconstruction_residual``.  ``certificate = max ||V|| * max ||W||`` is
    the only proven bound: an upper bound on the norm, given by the
    factorization.  ``value`` is the SDP value, the primal objective of an
    infeasible-start method: within ``gap`` of the optimum, not a bound.
    """

    value: float
    certificate: float
    multiplicity: int
    v_ops: list
    w_ops: list
    reconstruction_residual: float
    gap: float

    def representation(self, a):
        """Amplify an entry-algebra element to the dilation space."""
        return np.kron(np.asarray(a, dtype=complex), np.eye(self.multiplicity))


def dilation_factorize(source, algebra=None, block_dim=None, tol=1e-7):
    """Factorize a Schur multiplier through a representation.

    Accepts a :class:`SchurSymbol` or a blockwise map (extracted first).
    The optimal completion ``[[X1, R*], [R, X2]]`` of the norm SDP is
    Gram-factorized; a singular-value correction absorbs the solver's
    residual so the Choi blocks are reproduced to machine precision.
    """
    if isinstance(source, SchurSymbol):
        sym = source
    else:
        sym, _ = extract_symbol(source, algebra=algebra, block_dim=block_dim)
    d = sym.algebra.total_dim
    dd = d * d
    sol = grid_cb_solution(sym.choi_blocks(), tol=tol)
    k1, k2 = sym.nx * dd, sym.ny * dd
    z = np.zeros((k1 + k2, k1 + k2), dtype=complex)
    z[:k1, :k1] = sol.x1
    z[k1:, k1:] = sol.x2
    z[k1:, :k1] = sol.rmat
    z[:k1, k1:] = sol.rmat.conj().T
    z = (z + z.conj().T) / 2
    w, vecs = np.linalg.eigh(z)
    keep = w > max(w.max(initial=0.0), 0.0) * 1e-11
    g = np.sqrt(w[keep])[:, None] * vecs[:, keep].conj().T
    g1, g2 = g[:, :k1], g[:, k1:]
    delta = sol.rmat - g2.conj().T @ g1
    u, s, vh = np.linalg.svd(delta)
    skeep = s > 1e-14 * max(1.0, s.max(initial=0.0))
    if skeep.any():
        root = np.sqrt(s[skeep])
        g1 = np.vstack([g1, root[:, None] * vh[skeep]])
        g2 = np.vstack([g2, root[:, None] * u[:, skeep].conj().T])
    t = g1.shape[0]
    if t == 0:
        t = 1
        g1 = np.zeros((1, k1), dtype=complex)
        g2 = np.zeros((1, k2), dtype=complex)

    def side_ops(gmat, count):
        return [
            gmat[:, i * dd : (i + 1) * dd].reshape(t, d, d)
            .transpose(1, 0, 2).reshape(d * t, d)
            for i in range(count)
        ]

    v_ops = side_ops(g1, sym.nx)
    w_ops = side_ops(g2, sym.ny)
    mv = max(operator_norm(v) for v in v_ops)
    mw = max(operator_norm(w_) for w_ in w_ops)
    certificate = mv * mw
    if mv > 0 and mw > 0:
        balance = np.sqrt(mw / mv)
        v_ops = [v * balance for v in v_ops]
        w_ops = [w_ / balance for w_ in w_ops]
    eye_t = np.eye(t)
    residual = 0.0
    for x in range(sym.nx):
        for y in range(sym.ny):
            phi = sym.maps[x][y]
            for i in range(sym.algebra.dim):
                a = sym.algebra.unit(i)
                got = w_ops[y].conj().T @ np.kron(a, eye_t) @ v_ops[x]
                residual = max(residual, frob_norm(got - phi.apply(a)))
    return DilationResult(
        value=float(sol.value),
        certificate=float(certificate),
        multiplicity=t,
        v_ops=v_ops,
        w_ops=w_ops,
        reconstruction_residual=float(residual),
        gap=float(sol.result.gap),
    )
