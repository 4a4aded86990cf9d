"""Tests for the SDP solver and completely bounded norm computations.

Frozen reference values:

* triangular truncation grid [[1,1],[0,1]] has multiplier norm 2/sqrt(3);
* a positive semidefinite grid's multiplier norm is its largest diagonal entry;
* the transpose map on 2x2 matrices has completely bounded norm 2;
* completely positive maps have norm ||phi(1)||.
"""

import tracemalloc

import numpy as np
import pytest

from multlab import algebras as al
from multlab import cbnorm as cb
from multlab import numerics as nm
from multlab import sampling as sp
from multlab.errors import SolverError, ValidationError


def test_sdp_scalar_lower_bound():
    # minimize y subject to y >= 2.
    blocks = [(np.array([[-2.0 + 0j]]), np.array([[[1.0 + 0j]]]))]
    res = cb.sdp_solve(np.array([1.0]), blocks)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.value, 2.0, atol=1e-7)


def test_sdp_largest_eigenvalue():
    rng = np.random.default_rng(61)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = (a + a.conj().T) / 2
    # minimize t subject to t I - A >= 0.
    blocks = [(-a, np.eye(5, dtype=complex)[None, :, :])]
    res = cb.sdp_solve(np.array([1.0]), blocks)
    np.testing.assert_allclose(res.value, np.linalg.eigvalsh(a)[-1], atol=1e-7)
    assert res.gap < 1e-6


def test_sdp_two_blocks():
    # minimize t with t >= 3 and t >= 5 via two separate blocks.
    blocks = [
        (np.array([[-3.0 + 0j]]), np.array([[[1.0 + 0j]]])),
        (np.array([[-5.0 + 0j]]), np.array([[[1.0 + 0j]]])),
    ]
    res = cb.sdp_solve(np.array([1.0]), blocks)
    np.testing.assert_allclose(res.value, 5.0, atol=1e-7)


def test_sdp_dense_stack_matches_triplets():
    # The same problem as coefficient triplets and as a dense stack.
    rng = np.random.default_rng(67)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (a + a.conj().T) / 2
    fs = np.zeros((2, 4, 4), dtype=complex)
    fs[0] = np.eye(4)
    fs[1, 0, 1], fs[1, 1, 0] = 1j, -1j
    triplets = (
        np.array([0, 0, 0, 0, 1, 1]), np.array([0, 1, 2, 3, 0, 1]),
        np.array([0, 1, 2, 3, 1, 0]), np.array([1, 1, 1, 1, 1j, -1j]),
    )
    c = np.array([1.0, 0.0])
    dense = cb.sdp_solve(c, [(-a, fs)])
    sparse = cb.sdp_solve(c, [(-a, triplets)])
    assert dense.status == sparse.status == "optimal"
    assert dense.value == sparse.value
    assert dense.iterations == sparse.iterations
    np.testing.assert_array_equal(dense.y, sparse.y)


def test_sdp_triplets_are_validated():
    f0 = np.zeros((2, 2), dtype=complex)
    not_hermitian = (np.array([0]), np.array([0]), np.array([1]), np.array([1.0]))
    with pytest.raises(ValidationError, match="not Hermitian"):
        cb.sdp_solve(np.array([1.0]), [(f0, not_hermitian)])
    out_of_range = (np.array([0]), np.array([2]), np.array([2]), np.array([1.0]))
    with pytest.raises(ValidationError, match="out of range"):
        cb.sdp_solve(np.array([1.0]), [(f0, out_of_range)])
    with pytest.raises(ValidationError, match="shape"):
        cb.sdp_solve(np.array([1.0]), [(f0, np.zeros((2, 2, 2)))])


def _random_pd(rng, h):
    a = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    return a @ a.conj().T + 0.1 * np.eye(h)


@pytest.mark.parametrize(
    "choi_blocks",
    [
        np.random.default_rng(68).standard_normal((3, 3, 1, 1)) + 0j,
        sp.random_schur_symbol(
            np.random.default_rng(69), al.make_algebra((2,)), 3, terms=2
        ).choi_blocks(),
        al.sample_cbmap(np.random.default_rng(70), al.make_algebra((2,)), terms=2)
        .choi[None, None],
    ],
    ids=["scalar-3x3", "m2-3x3", "single-m2"],
)
def test_schur_complement_matches_dense_formula(choi_blocks):
    # Oracle: build every F_p densely and form tr(F_p S^-1 F_q X) directly.
    ny, nx, dd, _ = choi_blocks.shape
    d = int(round(np.sqrt(dd)))
    rmat = choi_blocks.transpose(0, 2, 1, 3).reshape(ny * dd, nx * dd)
    c, blocks, _, _ = cb._assemble_grid_problem(rmat, nx, ny, d)
    m = c.size
    rng = np.random.default_rng(71)
    y = rng.standard_normal(m)
    mat = np.zeros((m, m))
    dense_mat = np.zeros((m, m))
    for f0, (p, r, col, v) in blocks:
        h = f0.shape[0]
        fs = np.zeros((m, h, h), dtype=complex)
        np.add.at(fs, (p, r, col), v)
        assert np.allclose(fs, fs.conj().transpose(0, 2, 1))
        s, x = _random_pd(rng, h), _random_pd(rng, h)
        sinv = np.linalg.inv(s)
        block = cb._Block(f0, (p, r, col, v), m)
        block.add_schur(mat, sinv, x)
        # tr(F_p T_q) with T_q = S^-1 F_q X, summed over (i, j).
        t = sinv @ fs @ x
        dense_mat += (fs.reshape(m, -1) @ t.transpose(0, 2, 1).reshape(m, -1).T).real
        np.testing.assert_allclose(
            block.combine(y), np.tensordot(y, fs, axes=(0, 0)), atol=1e-12
        )
        np.testing.assert_allclose(
            block.traces(x), np.einsum("pij,ji->p", fs, x).real, atol=1e-10
        )
    scale = np.abs(dense_mat).max()
    assert np.abs(mat - dense_mat).max() <= 1e-12 * scale


def test_chol_psd_reports_jitter():
    singular = np.ones((2, 2), dtype=complex)
    factor, jitter = cb._chol_psd(singular)
    assert jitter > 0
    np.testing.assert_allclose(factor @ factor.conj().T, singular, atol=1e-6)
    _, jitter = cb._chol_psd(np.eye(2, dtype=complex))
    assert jitter == 0.0


def test_sdp_infeasible_raises():
    # [[t, 1], [1, 0]] is never positive semidefinite.
    f0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    fs = np.zeros((1, 2, 2), dtype=complex)
    fs[0, 0, 0] = 1.0
    with pytest.raises(SolverError):
        cb.sdp_solve(np.array([1.0]), [(f0, fs)], max_iter=60)


def test_sdp_unbounded_raises():
    # minimize t with 1 - t >= 0: feasible for every t <= 1, so unbounded below.
    f0 = np.array([[1.0 + 0j]])
    fs = np.array([[[-1.0 + 0j]]])
    with pytest.raises(SolverError):
        cb.sdp_solve(np.array([1.0]), [(f0, fs)], max_iter=60)


def test_schur_norm_constant_grid():
    np.testing.assert_allclose(cb.schur_cb_norm(np.ones((2, 2))), 1.0, atol=1e-6)
    np.testing.assert_allclose(cb.schur_cb_norm(np.ones((3, 3))), 1.0, atol=1e-6)


def test_schur_norm_identity_grid():
    np.testing.assert_allclose(cb.schur_cb_norm(np.eye(2)), 1.0, atol=1e-6)


def test_schur_norm_triangular_truncation():
    grid = np.array([[1.0, 1.0], [0.0, 1.0]])
    value, res = cb.schur_cb_norm(grid, details=True)
    np.testing.assert_allclose(value, 2 / np.sqrt(3), atol=1e-6)
    assert res.status == "optimal"
    assert res.jitters == 0


def test_schur_norm_psd_grid_is_max_diagonal():
    grid = np.array([[2.0, 1.0], [1.0, 3.0]])
    np.testing.assert_allclose(cb.schur_cb_norm(grid), 3.0, atol=1e-6)


def test_schur_norm_rank_one_phases():
    rng = np.random.default_rng(62)
    u = np.exp(2j * np.pi * rng.random(3))
    v = np.exp(2j * np.pi * rng.random(3))
    grid = np.outer(u, v.conj())
    np.testing.assert_allclose(cb.schur_cb_norm(grid), 1.0, atol=1e-6)


def test_schur_norm_scaling_and_subadditivity():
    rng = np.random.default_rng(66)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(
        cb.schur_cb_norm(3.0 * a), 3.0 * cb.schur_cb_norm(a), atol=1e-6
    )
    assert cb.schur_cb_norm(a + b) <= cb.schur_cb_norm(a) + cb.schur_cb_norm(b) + 1e-6


def test_schur_norm_matches_factorization_search():
    # Independent oracle: scan two-vector factorizations c(x, y) = <b_y, a_x>
    # with a_0 = s * e_0 and a_1 a unit vector at angle theta; b is then
    # determined linearly and the cost is max ||a_x|| * max ||b_y||.  The scan
    # upper-bounds the norm and is near-tight at this resolution.
    rng = np.random.default_rng(63)
    c = rng.standard_normal((2, 2))
    val = cb.schur_cb_norm(c)
    thetas = np.linspace(0.05, np.pi - 0.05, 181)
    scales = np.geomspace(0.25, 4.0, 81)
    a = np.zeros((181, 81, 2, 2))
    a[:, :, 0, 0] = scales[None, :]
    a[:, :, 1, 0] = np.cos(thetas)[:, None]
    a[:, :, 1, 1] = np.sin(thetas)[:, None]
    b = np.linalg.solve(a, np.broadcast_to(c, (181, 81, 2, 2)).copy())
    cost = np.maximum(scales[None, :], 1.0) * np.linalg.norm(b, axis=2).max(axis=2)
    best = cost.min()
    assert val <= best + 1e-6
    assert val >= best - 0.02


def test_cb_norm_identity_and_ad():
    m = al.make_algebra((2,))
    np.testing.assert_allclose(cb.cb_norm(al.CbMap.identity(m)), 1.0, atol=1e-6)
    u = al.sample_unitary(np.random.default_rng(64), 2)
    np.testing.assert_allclose(cb.cb_norm(al.CbMap.ad(m, u)), 1.0, atol=1e-6)


def test_cb_norm_transpose_is_two():
    m = al.make_algebra((2,))
    transpose = al.CbMap.from_unit_images(m, [m.unit(i).T for i in range(m.dim)])
    np.testing.assert_allclose(cb.cb_norm(transpose), 2.0, atol=1e-5)


def test_cb_norm_left_multiplication():
    m = al.make_algebra((2,))
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    phi = al.CbMap.from_kraus(m, [a], [m.identity])
    np.testing.assert_allclose(cb.cb_norm(phi), nm.operator_norm(a), atol=1e-5)


def test_cb_norm_cp_equals_value_at_identity():
    rng = np.random.default_rng(65)
    m = al.make_algebra((2,))
    phi = al.sample_cbmap(rng, m, terms=2, cp=True)
    np.testing.assert_allclose(
        cb.cb_norm(phi), nm.operator_norm(phi.apply(m.identity)), atol=1e-5
    )


def test_cb_norm_is_the_norm_on_the_algebra():
    # x -> x - ZxZ vanishes on C + C but doubles off-diagonal entries of M2;
    # its norm is that of the zero map on the algebra.
    m = al.make_algebra((1, 1))
    z = np.diag([1.0, -1.0])
    phi = al.CbMap.from_kraus(m, [m.identity, -z], [m.identity, z])
    assert np.all(phi.coords == 0)
    assert cb.cb_norm(phi) <= 1e-6
    assert cb.cb_norm(phi @ phi) <= 1e-6


def test_cb_norm_determinism():
    m = al.make_algebra((2,))
    transpose = al.CbMap.from_unit_images(m, [m.unit(i).T for i in range(m.dim)])
    assert cb.cb_norm(transpose) == cb.cb_norm(transpose)


def test_grid_solution_factorization_data():
    grid = np.array([[1.0, 1.0], [0.0, 1.0]])
    blocks = grid.T[:, :, None, None].copy()
    sol = cb.grid_cb_solution(blocks)
    # The positive completion's partial traces are bounded by the value.
    for x in range(2):
        assert sol.x1[x, x].real <= sol.value + 1e-6
        assert sol.x2[x, x].real <= sol.value + 1e-6
    z = np.block([[sol.x1, sol.rmat.conj().T], [sol.rmat, sol.x2]])
    assert nm.is_psd(z, tol=1e-6)


def test_total_block_side_cap():
    # Each block is within its own cap, but the block-diagonal iterates are
    # also read as one dense matrix, so the blocks' total side is capped.
    blocks = [(np.array([[-1.0 + 0j]]), np.ones((1, 1, 1)))] * (cb.MAX_SDP_SIDE + 1)
    with pytest.raises(ValidationError, match="total block side"):
        cb.sdp_solve(np.array([1.0]), blocks)


def test_size_caps():
    with pytest.raises(ValidationError):
        cb.schur_cb_norm(np.ones((30, 30)))
    m = al.make_algebra((9,), max_dim=None)
    with pytest.raises(ValidationError):
        cb.cb_norm(al.CbMap.identity(m))
    # A 10x10 grid of M2 cells is within the side caps, but its SDP exceeds
    # the problem-size cap; the rejection must come from shapes alone.
    choi = al.CbMap.identity(al.make_algebra((2,))).choi
    blocks = np.broadcast_to(choi, (10, 10, 4, 4)).copy()
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="too large"):
            cb.grid_cb_solution(blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
