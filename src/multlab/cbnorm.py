"""Completely bounded norms certified by a self-contained dense SDP solver.

Solver
------
``sdp_solve`` minimizes ``c . y`` subject to a list of linear matrix
inequalities ``F0_b + sum_i y_i F_{b,i} >= 0`` over Hermitian blocks.  It is
a primal-dual interior-point method (Mehrotra predictor-corrector with the
HKM search direction), deterministic: no randomness, no external solver.
The blocks form one block-diagonal inequality: X and S are one
block-diagonal matrix each, stored as their diagonal blocks with blocks of
equal side stacked, so an iteration costs one batched call per distinct
side and not one per block, and entries off the blocks stay exactly zero.
The Schur complement matrix is dense; the coefficient matrices are not.
Each block passes them as triplets ``(p, row, col, value)``: F_p has
``value`` at ``(row, col)``.  Every parameter of the grid SDP but t is a
Hermitian matrix unit with at most two entries in a block, so the Schur
complement M_pq = Re tr(F_p S^-1 F_q X) is a gather of S^-1 and X at those
positions, O(m^2) per iteration instead of an m x h^2 x m product over a
dense stack (Fujisawa, Kojima & Nakata, Math. Program. 79, 1997); the few
parameters with more entries in a block get one batched product.  It
targets desk-scale problems; block sides, parameter counts, and total
problem size are capped, and the caps are checked from shapes before
anything is allocated, so a malformed request fails fast instead of
thrashing memory.

Norms
-----
* ``schur_cb_norm(grid)``: multiplier norm of a scalar grid through the
  factorization SDP: minimize t subject to ``[[P, C], [C*, Q]] >= 0`` with
  the diagonal entries P_xx <= t and Q_yy <= t.  The corner blocks are full
  Hermitian variables (they are Gram matrices of the factorization vectors,
  which need not be orthogonal).  At the optimum the two sides balance, so
  t equals min max_x ||a_x|| * max_y ||b_y|| over factorizations
  c(x, y) = <b_y, a_x>.
* ``grid_cb_solution(choi_blocks)``: the operator-valued generalization.
  The input is the (nY, nX, D^2, D^2) array of Choi matrices of the cell
  maps; cell (y, x) holds the Choi matrix of the map applied at column x,
  row y.  Stacking them into one matrix ``rmat`` indexed by (y, i, k) rows
  and (x, j, l) columns, the norm is

      minimize t  s.t.  [[X1, rmat*], [rmat, X2]] >= 0,
                        sum_j X1[(x,j,l), (x,j,l')] <= t I_D  for each x,
                        sum_i X2[(y,i,k), (y,i,k')] <= t I_D  for each y.

  A Gram factorization of the optimal completion yields the dilation
  operators V(x), W(y) with cell(x,y)(a) = W(y)* (a (x) I) V(x); the partial
  traces above are exactly V(x)*V(x) and W(y)*W(y).
* ``cb_norm(map)``: a single map as a 1x1 grid of its Choi matrix.  For
  completely positive maps the value is checked against ||phi(I)||.
* ``hs_cb_norm(model, F)``: norm of a fiber symbol through its transferred
  operator-valued grid, reduced by the grid's symmetry.  A transferred grid
  is invariant under the twisted right translations of the group and under
  the block phases of the commutant A' of the coefficient algebra; one
  numerical block-diagonalization of their commutant per model (see
  ``_grid_symmetry``; Gatermann & Parrilo, J. Pure Appl. Algebra 192
  (2004); Murota, Kanno, Kojima & Kojima, Japan J. Indust. Appl. Math. 27
  (2010)) splits the big block into one block per isotypic class and keeps
  the partial traces at x = e only: 1 + 2 sum_rho m_rho^2 parameters
  instead of 1 + 2 (n D^2)^2.  Grids with no known symmetry (the other
  entry points, and ``dilation_factorize``) are solved unreduced.

All norm entry points report the SDP duality gap on request (``details``).
"""

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .numerics import DEFAULT_TOL, frob_norm, operator_norm, tol_check

MAX_SDP_BLOCK = 200
MAX_SDP_PARAMS = 4200
MAX_SDP_ENTRIES = 20_000_000
# The block-diagonal iterates are also read as one dense matrix of this side.
MAX_SDP_SIDE = 2 * MAX_SDP_BLOCK
MAX_SCALAR_GRID = 24
MAX_GRID_SIDE = 12
MAX_GRID_BLOCK_DIM = 4
MAX_CB_DIM = 8

_STEP_BACK = 0.98
# Rows per cache-sized chunk, in the Schur complement gather and in the
# blocked triangular solves.
_CHUNK = 48


@dataclass
class SdpResult:
    """Outcome of one interior-point solve.

    ``jitters`` counts the factorizations that succeeded only after a
    nonzero diagonal jitter, over all iterations: per iteration at most the
    Newton system plus one batched Cholesky factorization of X and one of S
    for each distinct block side.
    """

    status: str
    value: float
    dual_value: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    jitters: int
    y: np.ndarray = field(repr=False)


@dataclass
class GridSolution:
    """Optimal data of the operator-grid norm SDP (feeds dilations)."""

    value: float
    x1: np.ndarray
    x2: np.ndarray
    rmat: np.ndarray
    nx: int
    ny: int
    block_dim: int
    result: SdpResult


def _cholesky(a, scale, jitters):
    """Cholesky factor of ``a + jitter * scale * I`` for the first jitter in
    ``jitters`` that factors, and that jitter; ``(None, None)`` if none does.
    ``a`` may be a stack, with one scale per matrix; one jitter serves all."""
    for jitter in jitters:
        try:
            if not jitter:
                return np.linalg.cholesky(a), jitter
            bump = jitter * np.asarray(scale)[..., None, None] * np.eye(a.shape[-1], dtype=a.dtype)
            return np.linalg.cholesky(a + bump), jitter
        except np.linalg.LinAlgError:
            continue
    return None, None


def _chol_psd(a, what="matrix"):
    """Cholesky factor of a positive semidefinite matrix (or stack) and the
    jitter it took."""
    scale = np.maximum(np.abs(np.trace(a, axis1=-2, axis2=-1).real) / a.shape[-1], 1.0)
    l, jitter = _cholesky(a, scale, (0.0, 1e-14, 1e-11, 1e-8))
    if l is None:
        raise SolverError(f"{what} lost positive definiteness")
    return l, jitter


def _cho_solve(l, b):
    """Solve ``l l^T x = b`` for a real lower-triangular factor l by blocked
    forward and back substitution: O(n^2) work where a general solve would
    factorize l again."""
    starts = range(0, l.shape[0], _CHUNK)
    x = np.array(b, dtype=float)
    for i in starts:
        s = slice(i, i + _CHUNK)
        x[s] = np.linalg.solve(l[s, s], x[s])
        x[i + _CHUNK :] -= l[i + _CHUNK :, s] @ x[s]
    for i in reversed(starts):
        s = slice(i, i + _CHUNK)
        x[s] = np.linalg.solve(l[s, s].T, x[s])
        x[:i] -= l[s, :i].T @ x[s]
    return x


def _distinct(a):
    """The sorted distinct values of an integer array (``np.unique`` without
    return arrays would import numpy.ma, a megabyte, on first use)."""
    a = np.sort(a, axis=None)
    return a[np.concatenate([a[:1] == a[:1], a[1:] != a[:-1]])]


def _hermitize(a):
    return (a + a.conj().swapaxes(-1, -2)) / 2


class _Layout:
    """Block-diagonal matrices with fixed block sides, stored as one flat
    vector of their diagonal blocks.

    Blocks of equal side sit next to each other in the vector, so every
    operation is one batched numpy call per distinct side, however many
    blocks there are.  Entries off the blocks are not stored: they are
    exactly zero.  A single block is stored as the matrix itself.
    """

    def __init__(self, sizes):
        sizes = np.asarray(sizes, dtype=np.int64)
        self.sizes = sizes
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.side = int(sizes.sum())
        self.size = int((sizes * sizes).sum())
        self.shape = (self.side, self.side) if sizes.size == 1 else (self.size,)
        order = np.argsort(sizes, kind="stable")
        self.base = np.empty_like(sizes)
        self.base[order] = np.concatenate([[0], np.cumsum(sizes[order] ** 2)[:-1]])
        self.groups = []
        for h in _distinct(sizes):
            first = self.base[np.flatnonzero(sizes == h)[0]]
            count = int((sizes == h).sum())
            self.groups.append((int(h), slice(first, first + count * h * h)))
        # Global (row, col) of every stored entry, block by block.
        squares = sizes * sizes
        block = np.repeat(np.arange(sizes.size), squares)
        local = np.arange(self.size) - np.repeat(np.cumsum(squares) - squares, squares)
        slot = self.base[block] + local
        self.rows = np.empty(self.size, dtype=np.int64)
        self.cols = np.empty(self.size, dtype=np.int64)
        self.rows[slot] = self.starts[block] + local // sizes[block]
        self.cols[slot] = self.starts[block] + local % sizes[block]
        self.diagonal = slot[self.rows[slot] == self.cols[slot]]

    def block_of(self, index):
        return np.searchsorted(self.starts, index, side="right") - 1

    def slot(self, block, row, col):
        """Storage index of the global position (row, col) inside ``block``."""
        off = self.starts[block]
        return self.base[block] + (row - off) * self.sizes[block] + (col - off)

    def stacks(self, a):
        """The (count, h, h) stacks of ``a``'s blocks, one per distinct side."""
        flat = a.reshape(-1)
        return [flat[s].reshape(-1, h, h) for h, s in self.groups]

    def map(self, fn, *args):
        """Apply ``fn`` stack by stack and store the results the same way."""
        out = np.empty(self.size, dtype=complex)
        for (_, s), *stacks in zip(self.groups, *(self.stacks(a) for a in args)):
            out[s] = fn(*stacks).reshape(-1)
        return out.reshape(self.shape)

    def eye(self, scale=1.0):
        """The identity, times a scale per block."""
        out = np.zeros(self.size, dtype=complex)
        scale = np.broadcast_to(scale, self.sizes.shape)
        out[self.diagonal] = scale[self.block_of(self.rows[self.diagonal])]
        return out.reshape(self.shape)

    def dense(self, a):
        """The full (side, side) matrix."""
        if self.sizes.size == 1:
            return a
        out = np.zeros((self.side, self.side), dtype=complex)
        out[self.rows, self.cols] = a
        return out

    def inverse_factor(self, a):
        """``L^-1`` for the Cholesky factor L of every block, and how many
        batched factorizations needed a jitter."""
        out = np.empty(self.size, dtype=complex)
        jittered = 0
        for (_, s), stack in zip(self.groups, self.stacks(a)):
            l, jitter = _chol_psd(stack, "iterate")
            jittered += jitter > 0
            out[s] = np.linalg.inv(l).reshape(-1)
        return out.reshape(self.shape), jittered

    def max_step(self, linv, d):
        """Largest alpha with a + alpha*d >= 0, given ``linv = L^-1`` for a
        Cholesky factor L of a > 0 (block by block)."""
        lam = min(
            np.linalg.eigvalsh(_hermitize(li @ di @ li.conj().swapaxes(-1, -2)))[:, 0].min()
            for li, di in zip(self.stacks(linv), self.stacks(d))
        )
        if lam >= -1e-13:
            return np.inf
        return -1.0 / lam


def _canonical_triplets(fs, m, h):
    """Sorted unique keys ``(p*h + row)*h + col`` and summed nonzero values of
    one block's coefficients, given as triplets or as a dense (m, h, h) stack."""
    if isinstance(fs, tuple):
        if len(fs) != 4:
            raise ValidationError("coefficient triplets must be (p, row, col, value)")
        p, r, c = (np.asarray(a, dtype=np.int64).ravel() for a in fs[:3])
        v = np.asarray(fs[3], dtype=complex).ravel()
        if not p.size == r.size == c.size == v.size:
            raise ValidationError("coefficient triplet arrays differ in length")
        if p.size and (
            min(p.min(), r.min(), c.min()) < 0 or p.max() >= m or max(r.max(), c.max()) >= h
        ):
            raise ValidationError("coefficient triplet index out of range")
    else:
        fs = np.asarray(fs, dtype=complex)
        if fs.shape != (m, h, h):
            raise ValidationError(f"coefficient stack must have shape {(m, h, h)}")
        p, r, c = np.nonzero(fs)
        v = fs[p, r, c]
    key, inv = np.unique((p * h + r) * h + c, return_inverse=True)
    v = np.bincount(inv, v.real, key.size) + 1j * np.bincount(inv, v.imag, key.size)
    keep = v != 0
    return key[keep], v[keep]


def _square_index(idx):
    """Index of the square submatrix on the sorted indices ``idx``: slices
    (a view) when they are contiguous."""
    if idx[-1] - idx[0] + 1 == idx.size:
        return (slice(idx[0], idx[-1] + 1),) * 2
    return np.ix_(idx, idx)


def _padded_pairs(p, r, c, v, m):
    """Positions and values of parameters with one or two entries each,
    padded to two (a zero value pads), the parameters themselves, and the
    rows and columns the entries touch.  Positions count within those rows,
    so the gather reads a submatrix no larger than its blocks."""
    count = np.bincount(p, minlength=m)
    params = np.flatnonzero(count)
    start = np.searchsorted(p, params)
    pair = np.stack([start, start + count[params] - 1], axis=1)
    pad_v = v[pair]
    pad_v[count[params] == 1, 1] = 0.0
    span = _distinct(np.concatenate([r, c]))
    local = np.searchsorted(span, np.stack([r[pair], c[pair]]))
    return local[0], local[1], pad_v, params, _square_index(params), _square_index(span)


class _Block:
    """The inequalities ``F0 + sum_p y_p F_p >= 0`` as one block-diagonal
    matrix with diagonal blocks of sides ``sizes`` (one block by default).
    The coefficients are triplets: F_p has ``v[e]`` at ``(r[e], c[e])`` for
    every e with p[e] = p, each entry inside one block.  ``f0`` and every
    matrix the solver keeps are stored as :class:`_Layout` vectors.

    A parameter is "light" in a block where it has one or two entries (every
    matrix-unit parameter) and "heavy" where it has more (a ``t I`` column,
    a partial trace of a change of basis).  Light entries meet in the Schur
    complement through one structured gather per layer, a layer being a set
    of blocks in which no parameter is light twice.  So the gathers number
    the most blocks that share one light parameter (two in the grid SDPs,
    however many blocks they have).  The heavy parameters of a block get
    one batched product.
    """

    def __init__(self, f0, fs, m, sizes=None):
        f0 = np.asarray(f0, dtype=complex)
        self.layout = layout = _Layout((f0.shape[0],) if sizes is None else sizes)
        h = layout.side
        key, v = _canonical_triplets(fs, m, h)
        scale = max(np.abs(f0).max(initial=0.0), np.abs(v).max(initial=0.0))
        if not tol_check(np.abs(f0 - f0.conj().T).max(), 1e-12, scale).ok:
            raise ValidationError("constant term is not Hermitian")
        p, flat = np.divmod(key, h * h)
        r, c = np.divmod(flat, h)
        if v.size:
            mirror = (p * h + c) * h + r
            at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
            partner = np.where(key[at] == mirror, v[at], 0.0)
            if not tol_check(np.abs(v - partner.conj()).max(), 1e-12, scale).ok:
                raise ValidationError("coefficient matrices are not Hermitian")
        part = layout.block_of(r)
        if np.any(part != layout.block_of(c)):
            raise ValidationError("coefficient entry outside the diagonal blocks")
        self.f0 = f0[layout.rows, layout.cols].reshape(layout.shape)
        self.m, self.p, self.v = m, p, v
        self.pos = layout.slot(part, r, c)
        self.pos_t = layout.slot(part, c, r)

        # Entries sorted by key are sorted by (p, part), so each run of
        # equal (p, part) is one parameter's entries in one block.
        group = p * layout.sizes.size + part
        heavy = np.bincount(group)[group] > 2
        light = ~heavy
        layer = self._layers(p[light], part[light], m, layout.sizes.size)[part]
        self.layers = [
            _padded_pairs(*(a[light & (layer == k)] for a in (p, r, c, v)), m)
            for k in range(layer[light].max(initial=-1) + 1)
        ]
        self.heavy = []
        for b in _distinct(part[heavy]):
            off, side = layout.starts[b], layout.sizes[b]
            ours = part == b
            params = _distinct(p[heavy & ours])
            k = np.searchsorted(params, p[heavy & ours])
            stack = np.zeros((params.size, side, side), dtype=complex)
            stack[k, r[heavy & ours] - off, c[heavy & ours] - off] = v[heavy & ours]
            # tr(F_q G) reads G at (c, r): the block's coefficients as one
            # matrix from those positions to its parameters, at most m h^2
            # entries (the problem-size cap).
            read = (c[ours] - off) * side + (r[ours] - off)
            positions, touched = _distinct(read), _distinct(p[ours])
            coef = np.zeros((positions.size, touched.size), dtype=complex)
            coef[np.searchsorted(positions, read), np.searchsorted(touched, p[ours])] = v[ours]
            self.heavy.append((slice(off, off + side), params, stack, positions, touched, coef))

    @classmethod
    def stacked(cls, f0s, fss, m):
        """One block-diagonal inequality from per-block constant terms and
        coefficients (triplets or dense stacks), the triplets shifted onto
        the diagonal."""
        sizes = [f0.shape[0] for f0 in f0s]
        f0_all = np.zeros((sum(sizes),) * 2, dtype=complex)
        entries = []
        off = 0
        for f0, fs in zip(f0s, fss):
            h = f0.shape[0]
            f0_all[off : off + h, off : off + h] = f0
            key, v = _canonical_triplets(fs, m, h)
            p, flat = np.divmod(key, h * h)
            entries.append((p, off + flat // h, off + flat % h, v))
            off += h
        return cls(f0_all, tuple(np.concatenate(a) for a in zip(*entries)), m, sizes)

    @staticmethod
    def _layers(p, part, m, nparts):
        """Layer of each block: the first in which none of its light
        parameters is light already."""
        layer = np.zeros(nparts, dtype=np.int64)
        pairs = _distinct(part * m + p)
        blocks, params = np.divmod(pairs, m)
        if np.bincount(params, minlength=m).max(initial=0) <= 1:
            return layer
        taken = []
        for b in _distinct(blocks):
            mine = params[blocks == b]
            k = next((k for k, used in enumerate(taken) if not used[mine].any()), len(taken))
            if k == len(taken):
                taken.append(np.zeros(m, dtype=bool))
            taken[k][mine] = True
            layer[b] = k
        return layer

    def combine(self, w):
        """The matrix ``sum_p w_p F_p`` for a real vector w."""
        t = self.v * w[self.p]
        n = self.layout.size
        out = np.bincount(self.pos, t.real, n) + 1j * np.bincount(self.pos, t.imag, n)
        return out.reshape(self.layout.shape)

    def traces(self, a):
        """``Re tr(F_p a)`` for every parameter p."""
        return np.bincount(self.p, (self.v * a.reshape(-1)[self.pos_t]).real, self.m)

    def add_schur(self, mat, sinv, x):
        """Add ``Re tr(F_p S^-1 F_q X)`` to ``mat[p, q]``; ``sinv`` and ``x``
        are full (side, side) matrices.

        For entries (v, i, j) of F_p and (v', i', j') of F_q the trace is
        ``v v' S^-1[j, i'] X[j', i]``.  On light parameters this is a gather
        of S^-1 and X^T at the padded positions: on matrix units it is the
        permuted ``kron(X^T, S^-1)``, O(m^2) work and memory.  Entries in
        different blocks meet at zeros of S^-1, so one gather serves a layer.
        """
        for r, c, v, light, cells, span in self.layers:
            sinv_l, x_l = sinv[span], x[span]
            # Rows v_p S^-1[j_p, :] and columns v'_q X[j'_q, :]^T, split into
            # real and imaginary parts: only the real part of the sum is kept.
            s_parts = []
            x_parts = []
            for k in range(2):
                s = v[:, k, None] * sinv_l[c[:, k]]
                t = x_l.T[:, c[:, k]] * v[:, k]
                s_parts.append((s.real.copy(), s.imag.copy()))
                x_parts.append((t.real.copy(), t.imag.copy()))
            # A view of mat when the light parameters are contiguous.
            target = mat[cells]
            # Row chunks keep both gathered factors in cache while they meet.
            for lo in range(0, light.size, _CHUNK):
                rows = slice(lo, lo + _CHUNK)
                out = target[rows]
                for k in range(2):
                    for kq in range(2):
                        (s_re, s_im), (x_re, x_im) = s_parts[k], x_parts[kq]
                        out += s_re[rows][:, r[:, kq]] * x_re[r[rows, k]]
                        out -= s_im[rows][:, r[:, kq]] * x_im[r[rows, k]]
            mat[cells] = target
        for s, params, stack, positions, touched, coef in self.heavy:
            # One product per heavy parameter, batched: S^-1 F_p X.
            prod = (sinv[s, s] @ stack @ x[s, s]).reshape(params.size, -1)
            cols = np.zeros((params.size, self.m))
            cols[:, touched] = (prod[:, positions] @ coef).real
            mat[:, params] += cols.T
            cols[:, params] = 0.0
            mat[params] += cols


def sdp_solve(c, blocks, tol=1e-7, max_iter=100, loose_tol=5e-6):
    """Minimize c . y subject to F0_b + sum_i y_i F_{b,i} >= 0 per block.

    ``blocks`` is a list of pairs (F0, Fs), F0 of shape (h, h) and Hermitian
    like every F_i.  Fs holds the coefficient matrices as triplets: a tuple
    ``(p, row, col, value)`` of equal-length arrays, F_p having ``value`` at
    ``(row, col)``; repeated positions add up.  A dense (m, h, h) array is
    accepted too and converted to triplets once, at entry; a tuple is always
    read as triplets.  Size caps are checked from the shapes before any
    coefficient is touched.

    The blocks are solved as one block-diagonal inequality: the iterates X
    and S are single block-diagonal matrices (:class:`_Layout`), so each
    iteration makes one batched call per distinct block side.

    Returns an :class:`SdpResult`; raises :class:`SolverError` when the
    problem looks infeasible or unbounded, or when the iteration cap is hit
    far from optimality.  If the Newton system degenerates at the
    positive-semidefinite boundary (common at degenerate optima), the best
    earlier iterate is returned as ``near_optimal`` provided it meets
    ``loose_tol``.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    m = c.size
    if m == 0 or m > MAX_SDP_PARAMS:
        raise ValidationError(f"parameter count {m} outside (0, {MAX_SDP_PARAMS}]")
    blocks = list(blocks)
    f0s = []
    for f0, _ in blocks:
        f0 = np.asarray(f0, dtype=complex)
        if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
            raise ValidationError("constant terms must be square matrices")
        if f0.shape[0] > MAX_SDP_BLOCK:
            raise ValidationError(
                f"block size {f0.shape[0]} exceeds solver cap {MAX_SDP_BLOCK}"
            )
        f0s.append(f0)
    if not f0s:
        raise ValidationError("at least one block is required")
    sizes = [f0.shape[0] for f0 in f0s]
    side = sum(sizes)
    if m * sum(h * h for h in sizes) > MAX_SDP_ENTRIES:
        raise ValidationError("problem too large for the dense solver")
    if side > MAX_SDP_SIDE:
        raise ValidationError(f"total block side {side} exceeds solver cap {MAX_SDP_SIDE}")
    data = _Block.stacked(f0s, [fs for _, fs in blocks], m)
    lay = data.layout
    f0_scale = max(1.0, frob_norm(data.f0))

    norm_c = float(np.linalg.norm(c))
    y = np.zeros(m)
    svar = lay.eye(1.0 + np.array([frob_norm(f0) for f0 in f0s]))
    xvar = lay.eye(1.0 + norm_c)

    blow_up = 1e9 * (1.0 + norm_c) * f0_scale
    best_metric = np.inf
    best_snapshot = None
    pobj = gap = 0.0
    iterations = 0
    jitters = 0
    stalled = False

    for iterations in range(1, max_iter + 1):
        rres = data.f0 + data.combine(y) - svar
        p = c - data.traces(xvar)
        gap = float(np.real(np.vdot(xvar, svar)))
        dobj = -float(np.real(np.vdot(data.f0, xvar)))
        pobj = float(c @ y)
        relgap = abs(gap) / (1.0 + min(abs(pobj), abs(dobj)))
        pinf = float(np.linalg.norm(p)) / (1.0 + norm_c)
        dinf = frob_norm(rres) / (1.0 + f0_scale)
        metric = max(relgap, pinf, dinf)
        if metric < best_metric:
            best_metric = metric
            best_snapshot = (pobj, dobj, gap, pinf, dinf, iterations, y.copy())
        if relgap <= tol and pinf <= tol and dinf <= tol:
            return SdpResult(
                status="optimal", value=pobj, dual_value=dobj, gap=gap,
                primal_residual=pinf, dual_residual=dinf,
                iterations=iterations, jitters=jitters, y=y,
            )
        if not np.isfinite(gap) or gap > blow_up * 1e6:
            raise SolverError("solver diverged", value=pobj, gap=gap)
        if abs(pobj) > blow_up:
            raise SolverError("problem appears unbounded", value=pobj, gap=gap)
        if float(xvar.reshape(-1)[lay.diagonal].real.sum()) > blow_up * 1e3:
            raise SolverError("problem appears infeasible", value=pobj, gap=gap)

        mu = gap / lay.side
        try:
            sinv = lay.map(lambda a: _hermitize(np.linalg.inv(a)), svar)
            xrsinv = lay.map(lambda a, b, d: a @ b @ d, xvar, rres, sinv)
            mat = np.zeros((m, m))
            data.add_schur(mat, lay.dense(sinv), lay.dense(xvar))
            mat = (mat + mat.T) / 2
            diag_scale = max(np.trace(mat) / m, 1e-30)
            newton, jitter = _cholesky(mat, diag_scale, (0.0, 1e-13, 1e-10, 1e-7))
            if newton is None:
                stalled = True
                break
            jitters += jitter > 0

            def direction(sigma_mu, second_order=None):
                v = sigma_mu * sinv - xvar - xrsinv
                if second_order is not None:
                    v = v - lay.map(np.matmul, second_order, sinv)
                dy = _cho_solve(newton, data.traces(v) - p)
                ds = data.combine(dy) + rres
                dx = v + xrsinv - lay.map(lambda a, b, d: a @ b @ d, xvar, ds, sinv)
                return dy, lay.map(_hermitize, dx), ds

            dy_a, dx_a, ds_a = direction(0.0)
            x_linv, x_jit = lay.inverse_factor(xvar)
            s_linv, s_jit = lay.inverse_factor(svar)
            jitters += x_jit + s_jit
            ap = min(1.0, lay.max_step(x_linv, dx_a))
            ad = min(1.0, lay.max_step(s_linv, ds_a))
            gap_aff = float(np.real(np.vdot(xvar + ap * dx_a, svar + ad * ds_a)))
            sigma = float(np.clip((max(gap_aff, 0.0) / gap) ** 3, 1e-12, 1.0))
            dy, dx, ds = direction(sigma * mu, lay.map(np.matmul, dx_a, ds_a))
            ap = min(1.0, _STEP_BACK * lay.max_step(x_linv, dx))
            ad = min(1.0, _STEP_BACK * lay.max_step(s_linv, ds))
        except SolverError:
            stalled = True
            break
        y = y + ad * dy
        xvar = lay.map(_hermitize, xvar + ap * dx)
        svar = lay.map(_hermitize, svar + ad * ds)

    if best_snapshot is not None and best_metric <= loose_tol:
        pobj, dobj, gap, pinf, dinf, it_best, y_best = best_snapshot
        return SdpResult(
            status="near_optimal", value=pobj, dual_value=dobj, gap=gap,
            primal_residual=pinf, dual_residual=dinf, iterations=it_best,
            jitters=jitters, y=y_best,
        )
    reason = "stalled" if stalled else f"no convergence after {iterations} iterations"
    raise SolverError(reason, value=pobj, gap=gap)


def _herm_index(k):
    """Entries of the real parameters of a k x k Hermitian matrix: diagonal
    entries, then (real, imaginary) parts of the strict upper triangle,
    row-major.  Parameter i puts ``vals[i]`` at ``(rows[i], cols[i])`` and,
    off the diagonal, its conjugate at ``(cols[i], rows[i])``."""
    a, b = np.triu_indices(k, 1)
    diag = np.arange(k)
    rows = np.concatenate([diag, np.repeat(a, 2)])
    cols = np.concatenate([diag, np.repeat(b, 2)])
    vals = np.concatenate([np.ones(k), np.tile([1.0, 1j], a.size)])
    return rows, cols, vals


def _herm_build(vals, k):
    rows, cols, coef = _herm_index(k)
    x = np.zeros((k, k), dtype=complex)
    np.add.at(x, (rows, cols), coef * vals)
    return x + np.triu(x, 1).conj().T


def _mirror(p, r, c, v):
    """Complete Hermitian triplets: add the conjugate of every off-diagonal
    entry at the transposed position."""
    off = r != c
    return (
        np.concatenate([p, p[off]]), np.concatenate([r, c[off]]),
        np.concatenate([c, r[off]]), np.concatenate([v, v[off].conj()]),
    )


def _assemble_grid_problem(rmat, nx, ny, d):
    k1 = nx * d * d
    k2 = ny * d * d
    m = 1 + k1 * k1 + k2 * k2
    _check_problem_size(m, (k1 + k2, nx * d, ny * d))
    h_big = k1 + k2
    f0_big = np.zeros((h_big, h_big), dtype=complex)
    f0_big[k1:, :k1] = rmat
    f0_big[:k1, k1:] = rmat.conj().T

    big = []
    small = []
    for k, n, p0, off in [(k1, nx, 1, 0), (k2, ny, 1 + k1 * k1, k1)]:
        rows, cols, vals = _herm_index(k)
        params = p0 + np.arange(k * k)
        big.append((params, off + rows, off + cols, vals))
        # The partial trace over j puts -X[(x,j,l), (x,j,l')] at ((x,l), (x,l')).
        xa, ja, la = np.unravel_index(rows, (n, d, d))
        xb, jb, lb = np.unravel_index(cols, (n, d, d))
        traced = (xa == xb) & (ja == jb)
        h = n * d
        t_column = (np.zeros(h, dtype=int), np.arange(h), np.arange(h), np.ones(h))
        trace_terms = (
            params[traced], xa[traced] * d + la[traced],
            xa[traced] * d + lb[traced], -vals[traced],
        )
        small_fs = _mirror(*(np.concatenate(pair) for pair in zip(t_column, trace_terms)))
        small.append((np.zeros((h, h), dtype=complex), small_fs))
    big_fs = _mirror(*(np.concatenate(parts) for parts in zip(*big)))

    c = np.zeros(m)
    c[0] = 1.0
    return c, [(f0_big, big_fs)] + small, k1, k2


def _check_grid_shape(nx, ny, d):
    single = nx == 1 and ny == 1
    side_cap = MAX_SCALAR_GRID if d == 1 else MAX_GRID_SIDE
    if nx > side_cap or ny > side_cap:
        raise ValidationError(f"grid side exceeds cap {side_cap}")
    if d > (MAX_CB_DIM if single else MAX_GRID_BLOCK_DIM):
        raise ValidationError("grid block dimension exceeds cap")


def _check_problem_size(m, sides):
    if m > MAX_SDP_PARAMS or m * sum(h * h for h in sides) > MAX_SDP_ENTRIES:
        raise ValidationError("problem too large for the dense solver")


class _GridSymmetry:
    """A unitary Q on the (x, j, l) index of a transferred grid that
    block-diagonalizes the commutant of the grid's symmetry group, and the
    reduced SDP it leaves.

    The columns of Q come in isotypic classes ``irreps = [(m, d), ...]``: m
    aligned copies of a d-dimensional irreducible module, so every matrix M
    of the commutant has ``Q* M Q = (+)_rho B_rho (x) I_d``.  ``reduce``
    reads the B_rho of the stacked Choi matrix R; ``c`` and ``blocks`` are
    the reduced problem, whose constant terms ``reduce`` fills in.
    """

    def __init__(self, q, irreps, dim):
        self.q, self.irreps = q, irreps
        self.offsets = np.concatenate([[0], np.cumsum([m * d for m, d in irreps])])
        m_total = 1 + 2 * sum(m * m for m, _ in irreps)
        _check_problem_size(m_total, [2 * m for m, _ in irreps] + [dim, dim])
        self.c = np.zeros(m_total)
        self.c[0] = 1.0
        # Rows (x = e, j, l) of Q, for the partial traces at the identity.
        at_e = q[: dim * dim].reshape(dim, dim, -1)
        self.blocks = []
        traces = ([], [])
        p0 = 1
        li, lj = np.indices((dim, dim))
        for (m, d), off in zip(irreps, self.offsets):
            rows, cols, vals = _herm_index(m)
            z = at_e[:, :, off : off + m * d].reshape(dim, dim, m, d)
            # Tr_j of Q_rho (E_ab (x) I_d) Q_rho*, a D x D matrix in (l, l').
            unit_traces = np.einsum("jlac,jkbc->ablk", z, z.conj())[rows, cols]
            # Parameter (a, b) is v E_ab + conj(v) E_ba off the diagonal.
            mirrored = (rows != cols)[:, None, None] * unit_traces.conj().swapaxes(1, 2)
            coef = vals[:, None, None] * unit_traces + vals.conj()[:, None, None] * mirrored
            big = []
            for side, block_off in enumerate((0, m)):
                params = p0 + side * rows.size + np.arange(rows.size)
                big.append((params, block_off + rows, block_off + cols, vals))
                traces[side].append((
                    np.repeat(params, dim * dim), np.tile(li.ravel(), params.size),
                    np.tile(lj.ravel(), params.size), -coef.reshape(-1),
                ))
            self.blocks.append(_mirror(*(np.concatenate(a) for a in zip(*big))))
            p0 += 2 * rows.size
        eye = np.arange(dim)
        t_column = (np.zeros(dim, dtype=int), eye, eye, np.ones(dim))
        self.small = [
            (np.zeros((dim, dim), dtype=complex), tuple(map(np.concatenate, zip(t_column, *side))))
            for side in traces
        ]

    def reduce(self, mat):
        """The blocks B_rho of ``Q* mat Q`` and the Frobenius norm of what
        lies off the block form."""
        moved = self.q.conj().T @ mat @ self.q
        parts = []
        for (m, d), off in zip(self.irreps, self.offsets):
            sub = moved[off : off + m * d, off : off + m * d].reshape(m, d, m, d)
            part = np.einsum("acbc->ab", sub) / d
            moved[off : off + m * d, off : off + m * d] -= np.kron(part, np.eye(d))
            parts.append(part)
        return parts, frob_norm(moved)

    def problem(self, rmat):
        """The reduced SDP of the stacked Choi matrix ``rmat``."""
        parts, leak = self.reduce(rmat)
        if not tol_check(leak, DEFAULT_TOL, frob_norm(rmat)).ok:
            raise SolverError(
                f"transferred grid is not invariant under its symmetry: leak {leak:.3e}"
            )
        blocks = []
        for part, fs in zip(parts, self.blocks):
            m = part.shape[0]
            f0 = np.zeros((2 * m, 2 * m), dtype=complex)
            f0[m:, :m] = part
            f0[:m, m:] = part.conj().T
            blocks.append((f0, fs))
        return self.c, blocks + self.small


# Fixed seed of the random commutant elements: the decomposition, and so
# every reduced solve, is the same on every run.
_SYMMETRY_SEED = 0x5E7
_symmetries = weakref.WeakKeyDictionary()


def _grid_symmetry(model):
    """The :class:`_GridSymmetry` of the model's transferred grids, computed
    once per model and kept while the model lives.

    **Why the grid is symmetric.** Cell (x, y) of a transferred grid is
    alpha_{y^-1} o F(y x^-1) o alpha_y, so cell(xr, yr) = alpha_{r^-1} o
    cell(x, y) o alpha_r with alpha_r = Ad(w_r), w_r = ``action.unitary(r)``.
    For psi = alpha_{r^-1} o phi o alpha_r, psi(E_ij) = w* phi(w E_ij w*) w,
    and w E_ij w* = sum_ab w_ai conj(w_bj) E_ab.  With the Choi matrix
    C_phi = sum_ij E_ij (x) phi(E_ij) this gives C_psi = V_r* C_phi V_r,
    V_r = conj(w_r) (x) w_r.  So the stacked R, rows (y, i, k) and columns
    (x, j, l), satisfies U_r R U_r* = R for U_r = Pi_r (x) V_r*, Pi_r
    sending e_x to e_{xr}.  Every cell is phi o E with E the compression
    onto the algebra, so C[(i, k), (j, l)] vanishes unless i, j lie in one
    block and k, l in one block: R also commutes with c1 (x) c2 for any two
    block-constant phases (unitaries of the commutant A'), on the Choi index
    of rows and columns alike.

    **Why the SDP keeps the symmetry.** Conjugating [[X1, R*], [R, X2]] by
    U (+) U, with U one of these unitaries, keeps R and maps the partial
    trace of X1 at x to a unitary conjugate of the one at xr, since Tr_j
    of (a (x) b) Y (a (x) b)* is b Tr_j(Y) b* for unitary a, b.  Averaging an
    optimum over the group keeps t, so X1 and X2 may be taken in the
    commutant, and it suffices to bound the partial traces at x = e.

    **The decomposition** (Murota, Kanno, Kojima & Kojima, Japan J. Indust.
    Appl. Math. 27 (2010)) needs no irreducible representation by hand.
    The group average of a random Hermitian matrix is the average over the
    U_r followed by the mask to equal block classes (block of j, block of
    l), the average over the phases; it is a random element of the
    commutant, and its eigenspaces are the irreducible modules.  A second
    such element is nonzero between two modules exactly when they are
    equivalent, and the polar factor of that block aligns their bases.
    """
    sym = _symmetries.get(model)
    if sym is None:
        sym = _symmetries[model] = _decompose_grid_symmetry(model)
    return sym


def _decompose_grid_symmetry(model):
    g, alg = model.group, model.algebra
    n, dim = g.order, alg.total_dim
    dd = dim * dim
    size = n * dd
    vstar = [np.kron(w.conj(), w).conj().T for w in map(model.action.unitary, g.elements)]
    block = np.repeat(np.arange(len(alg.blocks)), alg.blocks)
    klass = np.tile((block[:, None] * len(alg.blocks) + block[None, :]).ravel(), n)
    same_class = klass[:, None] == klass[None, :]
    rng = np.random.default_rng(_SYMMETRY_SEED)

    def commutant_element():
        z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        z = (z + z.conj().T).reshape(n, dd, n, dd).transpose(0, 2, 1, 3)
        avg = np.zeros_like(z)
        for r in g.elements:
            moved = g.table[:, r]
            avg[np.ix_(moved, moved)] += vstar[r] @ z @ vstar[r].conj().T
        avg = avg.transpose(0, 2, 1, 3).reshape(size, size) / n
        return np.where(same_class, avg, 0.0)

    first, second = commutant_element(), commutant_element()
    vals, vecs = np.linalg.eigh(first)
    cut = 1e-8 * max(1.0, np.abs(vals).max())
    modules = np.split(vecs, np.flatnonzero(np.diff(vals) > cut) + 1, axis=1)
    link = 1e-8 * frob_norm(second)
    classes = []
    for basis in modules:
        for members in classes:
            lead = members[0]
            if lead.shape[1] != basis.shape[1]:
                continue
            k = basis.conj().T @ second @ lead
            if frob_norm(k) > link:
                u, _, vh = np.linalg.svd(k)
                members.append(basis @ (u @ vh))
                break
        else:
            classes.append([basis])
    q = np.concatenate([b for members in classes for b in members], axis=1)
    sym = _GridSymmetry(q, [(len(ms), ms[0].shape[1]) for ms in classes], dim)
    _, leak = sym.reduce(second)
    if not tol_check(leak, DEFAULT_TOL, frob_norm(second)).ok:
        raise SolverError(f"symmetry decomposition failed: leak {leak:.3e}")
    return sym


def _solve_transferred_grid(model, choi_blocks, tol=1e-7):
    """Solve the operator-grid norm SDP of a transferred grid, reduced by its
    symmetry (see :func:`_grid_symmetry`).

    ``choi_blocks`` is the (n, n, D^2, D^2) array of a grid indexed by the
    model's group on both sides, as in :func:`grid_cb_solution`.  The big
    block splits into one block [[B1, R_rho*], [R_rho, B2]] per isotypic
    class and the partial traces are bounded at x = e only, so the problem
    has 1 + 2 sum_rho m_rho^2 parameters instead of 1 + 2 (n D^2)^2.  A grid
    that is not invariant raises :class:`SolverError` with its leak.
    Returns the :class:`SdpResult`.
    """
    arr = np.asarray(choi_blocks, dtype=complex)
    n, dim = model.group.order, model.algebra.total_dim
    dd = dim * dim
    if arr.shape != (n, n, dd, dd):
        raise ValidationError(f"expected an {(n, n, dd, dd)} array of Choi blocks")
    _check_grid_shape(n, n, dim)
    c, blocks = _grid_symmetry(model).problem(arr.transpose(0, 2, 1, 3).reshape(n * dd, n * dd))
    return sdp_solve(c, blocks, tol=tol)


def grid_cb_solution(choi_blocks, tol=1e-7):
    """Solve the operator-grid norm SDP on stacked Choi blocks.

    ``choi_blocks[y, x]`` is the Choi matrix (D^2 x D^2) of the cell map at
    column x, row y.  Returns a :class:`GridSolution` whose ``value`` is the
    completely bounded multiplier norm of the grid.
    """
    arr = np.asarray(choi_blocks, dtype=complex)
    if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
        raise ValidationError("expected an (nY, nX, D^2, D^2) array of Choi blocks")
    ny, nx, dd, _ = arr.shape
    d = int(round(np.sqrt(dd)))
    if d * d != dd:
        raise ValidationError("Choi blocks must have square-dimension side D^2")
    _check_grid_shape(nx, ny, d)
    rmat = arr.transpose(0, 2, 1, 3).reshape(ny * dd, nx * dd)
    c, blocks, k1, k2 = _assemble_grid_problem(rmat, nx, ny, d)
    res = sdp_solve(c, blocks, tol=tol)
    x1 = _herm_build(res.y[1 : 1 + k1 * k1], k1)
    x2 = _herm_build(res.y[1 + k1 * k1 :], k2)
    return GridSolution(
        value=float(res.value), x1=x1, x2=x2, rmat=rmat,
        nx=nx, ny=ny, block_dim=d, result=res,
    )


def schur_cb_norm(grid, tol=1e-7, details=False):
    """Multiplier norm of a scalar grid via the factorization SDP.

    A scalar grid is the one-dimensional case of the operator grid: the
    Choi matrix of multiplication by c(x, y) is the 1x1 matrix [c(x, y)].
    """
    c = np.asarray(grid, dtype=complex)
    if c.ndim != 2 or c.size == 0:
        raise ValidationError("grid must be a nonempty 2-d array")
    if not np.all(np.isfinite(c)):
        raise ValidationError("grid entries must be finite")
    sol = grid_cb_solution(c.T[:, :, None, None].copy(), tol=tol)
    if details:
        return sol.value, sol.result
    return sol.value


def cb_norm(phi, tol=1e-7, details=False):
    """Completely bounded norm of a map, via its Choi matrix as a 1x1 grid.

    For completely positive inputs the SDP value is cross-checked against
    the closed form ||phi(identity)||.
    """
    d = phi.algebra.total_dim
    if d > MAX_CB_DIM:
        raise ValidationError(f"map dimension {d} exceeds cap {MAX_CB_DIM}")
    sol = grid_cb_solution(phi.choi[None, None, :, :], tol=tol)
    value = sol.value
    if phi.is_cp(tol=1e-8):
        ref = operator_norm(phi.apply(phi.algebra.identity))
        if not tol_check(abs(value - ref), 1e-6, max(value, ref)).ok:
            raise SolverError(
                "completely positive consistency check failed",
                value=value, gap=sol.result.gap,
            )
    if details:
        return value, sol.result
    return value


def schur_symbol_cb_norm(symbol, tol=1e-7, details=False):
    """Norm of an operator-valued grid symbol (object with ``maps[x][y]``)."""
    maps = symbol.maps
    nx = len(maps)
    ny = len(maps[0])
    dd = maps[0][0].algebra.total_dim ** 2
    blocks = np.zeros((ny, nx, dd, dd), dtype=complex)
    for x in range(nx):
        for y_ in range(ny):
            blocks[y_, x] = maps[x][y_].choi
    sol = grid_cb_solution(blocks, tol=tol)
    if details:
        return sol.value, sol.result
    return sol.value


def hs_cb_norm(model, symbol, tol=1e-7, details=False):
    """Norm of a fiber symbol, computed through its transferred grid and
    reduced by the grid's symmetry (:func:`_solve_transferred_grid`)."""
    from .transference import transfer_symbol

    res = _solve_transferred_grid(model, transfer_symbol(model, symbol).choi_blocks(), tol=tol)
    if details:
        return float(res.value), res
    return float(res.value)
