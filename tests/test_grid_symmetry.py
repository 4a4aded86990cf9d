"""The symmetry reduction of transferred-grid norm SDPs.

The unreduced assembly (``schur_symbol_cb_norm`` of the transferred grid)
is the oracle: the reduced and unreduced SDP values agree within the sum of
their reported gaps.
"""

import numpy as np
import pytest

from multlab import algebras as al
from multlab import cbnorm as cb
from multlab import crossed as cr
from multlab import groups as gr
from multlab import herzschur as hz
from multlab import pontryagin as pg
from multlab import sampling as sp
from multlab.errors import SolverError
from multlab.transference import transfer_symbol


def _character_units(n):
    return [np.diag([1.0, np.exp(2j * np.pi * r / n)]) for r in range(n)]


def _haar_conjugated(units, seed):
    v = al.sample_unitary(np.random.default_rng(seed), units[0].shape[0])
    return [v @ u @ v.conj().T for u in units]


def _pauli_units():
    """Z2 x Z2 on M2 by the Pauli matrices, a projective representation."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    return [np.eye(2), z, x, x @ z]


def _standard_units(g):
    b = np.array([[1, 1], [-1, 1], [0, -2]]) / np.array([np.sqrt(2), np.sqrt(6)])
    units = []
    for p in g.permutations:
        perm = np.zeros((3, 3))
        perm[list(p), range(3)] = 1.0
        units.append(b.T @ perm @ b)
    return units


def _swap_action(g, parity):
    """g acting on C + C by swapping the two blocks on elements of odd parity."""
    perms = [[1, 0] if parity(r) else [0, 1] for r in g.elements]
    return al.make_action(g, al.make_algebra((1, 1)), block_perms=perms)


Z4 = gr.make_cyclic(4)
Z2XZ2 = gr.direct_product(gr.make_cyclic(2), gr.make_cyclic(2))
S3 = gr.make_symmetric(3)
M2 = al.make_algebra((2,))
C = al.make_algebra((1,))

ACTIONS = {
    "z4-trivial-c": lambda: al.trivial_action(Z4, C),
    "z4-diagonal-m2": lambda: al.ad_action(Z4, M2, _character_units(4)),
    "z4-swap": lambda: _swap_action(Z4, lambda r: r % 2),
    "z2xz2-haar-m2": lambda: al.ad_action(Z2XZ2, M2, _haar_conjugated(_pauli_units(), 5)),
    "z2xz2-swap": lambda: _swap_action(Z2XZ2, lambda r: r // 2),
    "z2-translation": lambda: al.translation_action(gr.make_cyclic(2)),
    "s3-trivial-c": lambda: al.trivial_action(S3, C),
    "s3-haar-standard-m2": lambda: al.ad_action(S3, M2, _haar_conjugated(_standard_units(S3), 6)),
}


def _model(name):
    return cr.CrossedProductModel(ACTIONS[name]())


def _translation_unitary(model, r):
    """U_r = Pi_r (x) (conj(w_r) (x) w_r)* on the (x, j, l) index, Pi_r e_x = e_{xr}."""
    g = model.group
    w = model.action.unitary(r)
    perm = np.zeros((g.order, g.order))
    perm[g.table[:, r], np.arange(g.order)] = 1.0
    return np.kron(perm, np.kron(w.conj(), w).conj().T)


def _class_projectors(model):
    """Projectors onto the (x, j, l) with (block of j, block of l) fixed."""
    alg = model.algebra
    block = np.repeat(np.arange(len(alg.blocks)), alg.blocks)
    klass = np.tile((block[:, None] * len(alg.blocks) + block[None, :]).ravel(), model.group.order)
    return [np.diag((klass == k).astype(complex)) for k in np.unique(klass)]


def _group_form_residual(sym, mat):
    """Distance of Q* mat Q from (+)_rho I_m (x) pi_rho."""
    moved = sym.q.conj().T @ mat @ sym.q
    for (m, d), off in zip(sym.irreps, sym.offsets):
        sub = moved[off : off + m * d, off : off + m * d]
        moved[off : off + m * d, off : off + m * d] -= np.kron(np.eye(m), sub[:d, :d])
    return np.abs(moved).max()


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_decomposition_block_diagonalizes_the_symmetry(name):
    model = _model(name)
    sym = cb._grid_symmetry(model)
    assert cb._grid_symmetry(model) is sym
    n, dim = model.group.order, model.algebra.total_dim
    q = sym.q
    assert q.shape == (n * dim * dim,) * 2
    assert np.abs(q.conj().T @ q - np.eye(q.shape[0])).max() <= 1e-12
    assert sum(m * d for m, d in sym.irreps) == n * dim * dim
    assert sym.c.size == 1 + 2 * sum(m * m for m, _ in sym.irreps)
    for r in model.group.elements:
        assert _group_form_residual(sym, _translation_unitary(model, r)) <= 1e-12
    for proj in _class_projectors(model):
        assert _group_form_residual(sym, proj) <= 1e-12
    # The stacked Choi matrix of a transferred grid commutes with them all.
    symbol = sp.random_fiber_symbol(np.random.default_rng(7), model)
    rmat = transfer_symbol(model, symbol).choi_blocks().transpose(0, 2, 1, 3)
    rmat = rmat.reshape(q.shape)
    _, leak = sym.reduce(rmat)
    assert leak <= 1e-12 * np.linalg.norm(rmat)


@pytest.mark.parametrize("group", [Z4, Z2XZ2, S3], ids=["z4", "z2xz2", "s3"])
def test_regular_representation_irreps(group):
    sym = cb._grid_symmetry(cr.CrossedProductModel(al.trivial_action(group, C)))
    assert sum(d * d for _, d in sym.irreps) == group.order
    assert all(m == d for m, d in sym.irreps)
    assert sorted(d for _, d in sym.irreps) == ([1, 1, 2] if group is S3 else [1] * 4)


def test_perturbed_grid_raises_with_its_leak():
    model = _model("z4-diagonal-m2")
    symbol = sp.random_fiber_symbol(np.random.default_rng(8), model)
    blocks = transfer_symbol(model, symbol).choi_blocks()
    assert cb._solve_transferred_grid(model, blocks).status == "optimal"
    blocks[1, 2] += 1e-3 * np.eye(4)
    with pytest.raises(SolverError, match=r"leak \d\.\d+e-0[34]"):
        cb._solve_transferred_grid(model, blocks)


def _assert_matches_unreduced(model, symbol):
    value, res = cb.hs_cb_norm(model, symbol, details=True)
    oracle, ores = cb.schur_symbol_cb_norm(transfer_symbol(model, symbol), details=True)
    assert res.status == ores.status == "optimal"
    assert abs(value - oracle) <= abs(res.gap) + abs(ores.gap)
    return value


@pytest.mark.parametrize(
    "name",
    ["z4-trivial-c", "z4-diagonal-m2", "z4-swap", "z2xz2-haar-m2", "z2-translation",
     "s3-trivial-c", "s3-haar-standard-m2"],
)
def test_reduced_norm_matches_unreduced_on_random_grids(name):
    model = _model(name)
    rng = np.random.default_rng(9)
    _assert_matches_unreduced(model, sp.random_fiber_symbol(rng, model))


def test_reduced_norm_matches_unreduced_on_acceptance_families():
    rng = np.random.default_rng(10)
    # A5: scalar fiber vectors under the trivial action.
    for n in (1, 2, 3, 4):
        g = gr.make_cyclic(n)
        model = cr.CrossedProductModel(al.trivial_action(g, C))
        for _ in range(2):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            _assert_matches_unreduced(model, hz.FiberSymbol.from_scalar_vector(g, C, v))
    # A6: bisymbols read as fiber symbols of the translation model.
    z2 = gr.make_cyclic(2)
    for _ in range(2):
        model, symbol = pg.bisymbol_fiber_symbol(z2, sp.random_bisymbol(rng, 2))
        _assert_matches_unreduced(model, symbol)
    # A7: random and completely positive cell maps on M2, as fibers over Z3.
    z3 = gr.make_cyclic(3)
    model = cr.CrossedProductModel(al.trivial_action(z3, M2))
    _assert_matches_unreduced(model, sp.random_fiber_symbol(rng, model))
    cp = [al.sample_cbmap(rng, M2, terms=2, cp=True) for _ in z3.elements]
    _assert_matches_unreduced(model, hz.FiberSymbol(z3, cp))
    # The frozen values: the alternating sign function and the identity.
    model = cr.CrossedProductModel(al.trivial_action(z2, C))
    flip = _assert_matches_unreduced(model, hz.FiberSymbol.from_scalar_vector(z2, C, [1.0, -1.0]))
    assert abs(flip - 1.0) <= 1e-6
    model = cr.CrossedProductModel(al.ad_action(z2, M2, _character_units(2)))
    unit = _assert_matches_unreduced(model, hz.FiberSymbol.identity(z2, M2))
    assert abs(unit - 1.0) <= 1e-6


@pytest.mark.parametrize("name", ["z4-diagonal-m2", "s3-haar-standard-m2", "unreduced"])
def test_block_diagonal_schur_complement_matches_dense_formula(name):
    # Several blocks of several sides as one inequality: the light gathers
    # (one per layer) and the batched heavy columns against tr(F_p S^-1 F_q X)
    # from dense coefficient matrices.
    model = _model("z2-translation" if name == "unreduced" else name)
    symbol = sp.random_fiber_symbol(np.random.default_rng(11), model)
    choi = transfer_symbol(model, symbol).choi_blocks()
    n, dd = choi.shape[0], choi.shape[2]
    rmat = choi.transpose(0, 2, 1, 3).reshape(n * dd, n * dd)
    if name == "unreduced":
        c, blocks, _, _ = cb._assemble_grid_problem(rmat, n, n, model.algebra.total_dim)
    else:
        c, blocks = cb._grid_symmetry(model).problem(rmat)
    m = c.size
    block = cb._Block.stacked([f0 for f0, _ in blocks], [fs for _, fs in blocks], m)
    assert block.layout.sizes.size == len(blocks)
    rng = np.random.default_rng(12)
    side = block.layout.side
    s = np.zeros((side, side), dtype=complex)
    x = np.zeros((side, side), dtype=complex)
    for off, h in zip(block.layout.starts, block.layout.sizes):
        for target in (s, x):
            a = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
            target[off : off + h, off : off + h] = a @ a.conj().T + 0.1 * np.eye(h)
    sinv = np.linalg.inv(s)
    fs = np.zeros((m, side, side), dtype=complex)
    eye = np.eye(m)
    for p in range(m):
        fs[p] = block.layout.dense(block.combine(eye[p]))
    mat = np.zeros((m, m))
    block.add_schur(mat, sinv, x)
    t = sinv @ fs @ x
    dense_mat = (fs.reshape(m, -1) @ t.transpose(0, 2, 1).reshape(m, -1).T).real
    sym = (mat + mat.T) / 2
    assert np.abs(sym - (dense_mat + dense_mat.T) / 2).max() <= 1e-12 * np.abs(dense_mat).max()
    stored = block.combine(rng.standard_normal(m))
    dense = block.layout.dense(stored)
    assert np.allclose(block.traces(stored), np.einsum("pij,ji->p", fs, dense).real)
