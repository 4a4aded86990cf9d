"""Completely bounded norms certified by a self-contained dense SDP solver.

Solver
------
``sdp_solve`` minimizes ``c . y`` subject to a list of linear matrix
inequalities ``F0_b + sum_i y_i F_{b,i} >= 0`` over Hermitian blocks.  It is
a primal-dual interior-point method (Mehrotra predictor-corrector with the
HKM search direction), deterministic: no randomness, no external solver.
The iterates S, X and the Schur complement matrix are dense; the coefficient
matrices are not.  Each block passes them as triplets ``(p, row, col,
value)``: F_p has ``value`` at ``(row, col)``.  Every parameter of the
grid SDP but t is a Hermitian matrix unit with at most two entries, so the
Schur complement M_pq = Re tr(F_p S^-1 F_q X) is a gather of S^-1 and X at
those positions, O(m^2) per iteration instead of an m x h^2 x m product
over a dense stack (Fujisawa, Kojima & Nakata, Math. Program. 79, 1997).
It targets desk-scale problems; block sides, parameter counts, and total
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
  operator-valued grid.

All norm entry points report the SDP duality gap on request (``details``).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, ValidationError
from .numerics import frob_norm, operator_norm, tol_check

MAX_SDP_BLOCK = 200
MAX_SDP_PARAMS = 4200
MAX_SDP_ENTRIES = 20_000_000
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
    """Outcome of one interior-point solve."""

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


def _hermitize(a):
    return (a + a.conj().T) / 2


def _cholesky(a, scale, jitters):
    """Cholesky factor of ``a + jitter * scale * I`` for the first jitter in
    ``jitters`` that factors, and that jitter; ``(None, None)`` if none does."""
    for jitter in jitters:
        try:
            bumped = a + jitter * scale * np.eye(a.shape[0], dtype=a.dtype) if jitter else a
            return np.linalg.cholesky(bumped), jitter
        except np.linalg.LinAlgError:
            continue
    return None, None


def _chol_psd(a, what="matrix"):
    """Cholesky factor of a positive semidefinite matrix and the jitter it took."""
    scale = max(abs(np.trace(a).real) / a.shape[0], 1.0)
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


def _max_step(linv, d):
    """Largest alpha with a + alpha*d >= 0, given ``linv = L^-1`` for a
    Cholesky factor L of a > 0."""
    lam = np.linalg.eigvalsh(_hermitize(linv @ d @ linv.conj().T))[0]
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


class _Block:
    """One inequality ``F0 + sum_p y_p F_p >= 0`` with its coefficients as
    triplets: F_p has ``v[e]`` at ``(r[e], c[e])`` for every e with p[e] = p.

    Parameters with one or two entries (every matrix-unit parameter) are
    "light": padded to two entries each, they feed the Schur complement
    through one structured gather.  The few parameters with more entries
    (such as a ``t I`` column) are "heavy" and get one dense column each.
    """

    def __init__(self, f0, fs, m):
        h = f0.shape[0]
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
        self.f0, self.h, self.m = f0, h, m
        self.p, self.r, self.c, self.v, self.flat = p, r, c, v, flat

        count = np.bincount(p, minlength=m)
        start = np.searchsorted(p, np.arange(m))
        light = np.flatnonzero((count > 0) & (count <= 2))
        pair = np.stack([start[light], start[light] + count[light] - 1], axis=1)
        self.pad_r, self.pad_c = r[pair], c[pair]
        self.pad_v = v[pair]
        self.pad_v[count[light] == 1, 1] = 0.0
        self.light = light
        contiguous = light.size and light[-1] - light[0] + 1 == light.size
        self.light_cells = (
            (slice(light[0], light[-1] + 1),) * 2 if contiguous else np.ix_(light, light)
        )
        self.heavy = np.flatnonzero(count > 2)

    def combine(self, w):
        """The matrix ``sum_p w_p F_p`` for a real vector w."""
        t = self.v * w[self.p]
        n = self.h * self.h
        out = np.bincount(self.flat, t.real, n) + 1j * np.bincount(self.flat, t.imag, n)
        return out.reshape(self.h, self.h)

    def traces(self, a):
        """``Re tr(F_p a)`` for every parameter p."""
        return np.bincount(self.p, (self.v * a[self.c, self.r]).real, self.m)

    def add_schur(self, mat, sinv, x):
        """Add ``Re tr(F_p S^-1 F_q X)`` over this block to ``mat[p, q]``.

        For entries (v, i, j) of F_p and (v', i', j') of F_q the trace is
        ``v v' S^-1[j, i'] X[j', i]``.  On light parameters this is a gather
        of S^-1 and X^T at the padded positions: on matrix units it is the
        permuted ``kron(X^T, S^-1)``, O(m^2) work and memory.
        """
        if self.light.size:
            r, c, v = self.pad_r, self.pad_c, self.pad_v
            # Rows v_p S^-1[j_p, :] and columns v'_q X[j'_q, :]^T, split into
            # real and imaginary parts: only the real part of the sum is kept.
            s_parts = []
            x_parts = []
            for k in range(2):
                s = v[:, k, None] * sinv[c[:, k]]
                t = x.T[:, c[:, k]] * v[:, k]
                s_parts.append((s.real.copy(), s.imag.copy()))
                x_parts.append((t.real.copy(), t.imag.copy()))
            # A view of mat when the light parameters are contiguous.
            target = mat[self.light_cells]
            # Row chunks keep both gathered factors in cache while they meet.
            for lo in range(0, self.light.size, _CHUNK):
                rows = slice(lo, lo + _CHUNK)
                out = target[rows]
                for k in range(2):
                    for kq in range(2):
                        (s_re, s_im), (x_re, x_im) = s_parts[k], x_parts[kq]
                        out += s_re[rows][:, r[:, kq]] * x_re[r[rows, k]]
                        out -= s_im[rows][:, r[:, kq]] * x_im[r[rows, k]]
            mat[self.light_cells] = target
        for p in self.heavy:
            unit = np.zeros(self.m)
            unit[p] = 1.0
            col = self.traces(sinv @ self.combine(unit) @ x)
            mat[:, p] += col
            mat[p, self.light] += col[self.light]


def sdp_solve(c, blocks, tol=1e-7, max_iter=100, loose_tol=5e-6):
    """Minimize c . y subject to F0_b + sum_i y_i F_{b,i} >= 0 per block.

    ``blocks`` is a list of pairs (F0, Fs), F0 of shape (h, h) and Hermitian
    like every F_i.  Fs holds the coefficient matrices as triplets: a tuple
    ``(p, row, col, value)`` of equal-length arrays, F_p having ``value`` at
    ``(row, col)``; repeated positions add up.  A dense (m, h, h) array is
    accepted too and converted to triplets once, at entry; a tuple is always
    read as triplets.  Size caps are checked from the shapes before any
    coefficient is touched.  ``jitters`` in the result counts the
    factorizations (Newton system or step-length Cholesky) that succeeded
    only after a nonzero diagonal jitter.

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
    if m * sum(f0.shape[0] ** 2 for f0 in f0s) > MAX_SDP_ENTRIES:
        raise ValidationError("problem too large for the dense solver")
    data = [_Block(f0, fs, m) for f0, (_, fs) in zip(f0s, blocks)]
    total_h = sum(blk.h for blk in data)
    f0_scale = max([1.0] + [frob_norm(blk.f0) for blk in data])

    norm_c = float(np.linalg.norm(c))
    y = np.zeros(m)
    xvar = []
    svar = []
    for blk in data:
        eta = 1.0 + frob_norm(blk.f0)
        svar.append(eta * np.eye(blk.h, dtype=complex))
        xvar.append((1.0 + norm_c) * np.eye(blk.h, dtype=complex))

    blow_up = 1e9 * (1.0 + norm_c) * f0_scale
    best_metric = np.inf
    best_snapshot = None
    pobj = gap = 0.0
    iterations = 0
    jitters = 0
    stalled = False

    def inverse_factors(iterates):
        nonlocal jitters
        factors = [_chol_psd(a, "iterate") for a in iterates]
        jitters += sum(jitter > 0 for _, jitter in factors)
        return [np.linalg.inv(l) for l, _ in factors]

    def max_step(linvs, moves):
        return min(_max_step(linv, d) for linv, d in zip(linvs, moves))

    for iterations in range(1, max_iter + 1):
        rres = []
        p = c.copy()
        gap = 0.0
        dobj = 0.0
        dinf = 0.0
        for blk, sb, xb in zip(data, svar, xvar):
            rb = blk.f0 + blk.combine(y) - sb
            rres.append(rb)
            p -= blk.traces(xb)
            gap += float(np.real(np.vdot(xb, sb)))
            dobj -= float(np.real(np.vdot(blk.f0, xb)))
            dinf = max(dinf, frob_norm(rb))
        pobj = float(c @ y)
        relgap = abs(gap) / (1.0 + min(abs(pobj), abs(dobj)))
        pinf = float(np.linalg.norm(p)) / (1.0 + norm_c)
        dinf = dinf / (1.0 + f0_scale)
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
        if sum(float(np.trace(xb).real) for xb in xvar) > blow_up * 1e3:
            raise SolverError("problem appears infeasible", value=pobj, gap=gap)

        mu = gap / total_h
        mat = np.zeros((m, m))
        sinvs = []
        xrsinvs = []
        try:
            for blk, sb, xb, rb in zip(data, svar, xvar, rres):
                sinv = _hermitize(np.linalg.solve(sb, np.eye(blk.h, dtype=complex)))
                sinvs.append(sinv)
                xrsinvs.append(xb @ rb @ sinv)
                blk.add_schur(mat, sinv, xb)
            mat = (mat + mat.T) / 2
            diag_scale = max(np.trace(mat) / m, 1e-30)
            newton, jitter = _cholesky(mat, diag_scale, (0.0, 1e-13, 1e-10, 1e-7))
            if newton is None:
                stalled = True
                break
            jitters += jitter > 0

            def direction(sigma_mu, second_order=None):
                rhs = -p.copy()
                for b, blk in enumerate(data):
                    v = sigma_mu * sinvs[b] - xvar[b] - xrsinvs[b]
                    if second_order is not None:
                        v = v - second_order[b] @ sinvs[b]
                    rhs += blk.traces(v)
                dy = _cho_solve(newton, rhs)
                ds = []
                dx = []
                for b, blk in enumerate(data):
                    dsb = blk.combine(dy) + rres[b]
                    dxb = sigma_mu * sinvs[b] - xvar[b] - xvar[b] @ dsb @ sinvs[b]
                    if second_order is not None:
                        dxb = dxb - second_order[b] @ sinvs[b]
                    ds.append(dsb)
                    dx.append(_hermitize(dxb))
                return dy, dx, ds

            dy_a, dx_a, ds_a = direction(0.0)
            nb = len(data)
            x_linvs = inverse_factors(xvar)
            s_linvs = inverse_factors(svar)
            ap = min(1.0, max_step(x_linvs, dx_a))
            ad = min(1.0, max_step(s_linvs, ds_a))
            gap_aff = sum(
                float(np.real(np.vdot(xvar[b] + ap * dx_a[b], svar[b] + ad * ds_a[b])))
                for b in range(nb)
            )
            sigma = float(np.clip((max(gap_aff, 0.0) / gap) ** 3, 1e-12, 1.0))
            second = [dx_a[b] @ ds_a[b] for b in range(nb)]
            dy, dx, ds = direction(sigma * mu, second)
            ap = min(1.0, _STEP_BACK * max_step(x_linvs, dx))
            ad = min(1.0, _STEP_BACK * max_step(s_linvs, ds))
        except SolverError:
            stalled = True
            break
        y = y + ad * dy
        for b in range(len(data)):
            xvar[b] = _hermitize(xvar[b] + ap * dx[b])
            svar[b] = _hermitize(svar[b] + ad * ds[b])

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
    sides = (k1 + k2, nx * d, ny * d)
    if m > MAX_SDP_PARAMS or m * sum(h * h for h in sides) > MAX_SDP_ENTRIES:
        raise ValidationError("problem too large for the dense solver")
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
    single = nx == 1 and ny == 1
    side_cap = MAX_SCALAR_GRID if d == 1 else MAX_GRID_SIDE
    if nx > side_cap or ny > side_cap:
        raise ValidationError(f"grid side exceeds cap {side_cap}")
    if d > (MAX_CB_DIM if single else MAX_GRID_BLOCK_DIM):
        raise ValidationError("grid block dimension exceeds cap")
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
    """Norm of a fiber symbol, computed through its transferred grid."""
    from .transference import transfer_symbol

    transferred = transfer_symbol(model, symbol)
    return schur_symbol_cb_norm(transferred, tol=tol, details=details)
