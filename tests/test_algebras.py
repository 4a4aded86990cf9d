"""Tests for block algebras, completely bounded maps, actions, and modules."""

import tracemalloc

import numpy as np
import pytest

from multlab import algebras as al
from multlab import groups as gr
from multlab import numerics as nm
from multlab.errors import ActionError, MembershipError, ValidationError


def diag_algebra(n):
    return al.make_algebra((1,) * n)


def test_make_algebra_units():
    m = al.make_algebra((2, 1))
    assert m.dim == 5
    assert m.total_dim == 3
    np.testing.assert_allclose(m.identity, np.eye(3))
    # Block structure: entry (0,2) crosses blocks, hence lies outside.
    x = np.zeros((3, 3), dtype=complex)
    x[0, 2] = 1.0
    assert not m.contains(x)
    assert m.contains(np.diag([1.0, 2.0, 3.0]))


def test_unit_product_table():
    m = al.make_algebra((2, 2))
    for i in range(m.dim):
        for j in range(m.dim):
            prod = m.unit(i) @ m.unit(j)
            k = m.unit_product(i, j)
            if k is None:
                np.testing.assert_allclose(prod, 0, atol=1e-14)
            else:
                np.testing.assert_allclose(prod, m.unit(k), atol=1e-14)


def test_adjoint_index():
    m = al.make_algebra((2, 3))
    for i in range(m.dim):
        np.testing.assert_allclose(m.unit(m.adjoint_index(i)), m.unit(i).conj().T)


def test_algebra_cap():
    with pytest.raises(ValidationError):
        al.make_algebra((17,))
    # Internal constructions may lift the cap.
    big = al.make_algebra((17,), max_dim=None)
    assert big.total_dim == 17


def test_cbmap_kraus_matches_matrix_action():
    rng = np.random.default_rng(21)
    m = al.make_algebra((2, 2))
    lefts = [al.sample_element(rng, m) for _ in range(2)]
    rights = [al.sample_element(rng, m) for _ in range(2)]
    phi = al.CbMap.from_kraus(m, lefts, rights)
    x = al.sample_element(rng, m)
    expected = sum(l @ x @ r.conj().T for l, r in zip(lefts, rights))
    np.testing.assert_allclose(phi.apply(x), expected, atol=1e-12)
    # The vectorized matrix computes the same action.
    np.testing.assert_allclose(nm.unvec(phi.matrix @ nm.vec(x)), expected, atol=1e-12)


def test_cbmap_must_preserve_algebra():
    m = diag_algebra(2)
    hop = np.array([[0.0, 1.0], [0.0, 0.0]])
    # x -> E01 x moves diagonal content off the diagonal.
    with pytest.raises(MembershipError, match="image of basis unit 1 leaves the algebra"):
        al.CbMap.from_kraus(m, [hop], [np.eye(2)])


def test_cbmap_coords_identity():
    m = al.make_algebra((2, 1))
    ident = al.CbMap.identity(m)
    np.testing.assert_allclose(ident.coords, np.eye(m.dim), atol=1e-14)
    assert ident.is_unital()
    assert ident.is_cp()


def test_cbmap_compose_and_add():
    rng = np.random.default_rng(22)
    m = al.make_algebra((3,))
    a = al.sample_cbmap(rng, m, terms=2)
    b = al.sample_cbmap(rng, m, terms=2)
    x = al.sample_element(rng, m)
    np.testing.assert_allclose((a @ b).apply(x), a.apply(b.apply(x)), atol=1e-11)
    np.testing.assert_allclose((a + b).apply(x), a.apply(x) + b.apply(x), atol=1e-11)
    np.testing.assert_allclose((2.0 * a).apply(x), 2 * a.apply(x), atol=1e-11)


def test_cp_iff_choi_psd():
    rng = np.random.default_rng(23)
    m = al.make_algebra((2,))
    cp = al.sample_cbmap(rng, m, terms=2, cp=True)
    assert cp.is_cp()
    transpose = al.CbMap.from_unit_images(
        m, [m.unit(i).T for i in range(m.dim)]
    )
    assert not transpose.is_cp()
    # Transpose is unital and preserves the algebra all the same.
    assert transpose.is_unital()


def test_ad_map():
    m = al.make_algebra((2,))
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    phi = al.CbMap.ad(m, u)
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    np.testing.assert_allclose(phi.apply(x), u @ x @ u.conj().T, atol=1e-14)


def test_translation_action_matches_permutation():
    g = gr.make_cyclic(3)
    act = al.translation_action(g)
    f = np.diag(np.array([1.0, 2.0, 3.0], dtype=complex))
    # alpha_r multiplies positions: value at s moves to rs.
    moved = act.apply(1, f)
    expected = np.diag(np.array([3.0, 1.0, 2.0], dtype=complex))
    np.testing.assert_allclose(moved, expected, atol=1e-14)


def test_action_homomorphism_error_names_pair():
    g = gr.make_cyclic(2)
    m = al.make_algebra((2,))
    # Ad(diag(1, i)) squares to Ad(diag(1, -1)) != id on full M2.
    with pytest.raises(ActionError) as e:
        al.make_action(g, m, unitaries=[np.eye(2), np.diag([1.0, 1j])])
    assert e.value.pair == (1, 1)


def test_action_checked_on_algebra_not_ambient():
    # The same unitary is harmless on the diagonal algebra: Ad acts trivially there.
    g = gr.make_cyclic(2)
    m = diag_algebra(2)
    act = al.make_action(g, m, unitaries=[np.eye(2), np.diag([1.0, 1j])])
    x = np.diag([2.0, 5.0]).astype(complex)
    np.testing.assert_allclose(act.apply(1, x), x, atol=1e-14)


def test_sign_action_fixed_points():
    g = gr.make_cyclic(2)
    m = al.make_algebra((2,))
    act = al.make_action(g, m, unitaries=[np.eye(2), np.diag([1.0, -1.0])])
    basis = act.fixed_point_basis()
    assert basis.shape[0] == 2
    for b in basis:
        np.testing.assert_allclose(b, np.diag(np.diag(b)), atol=1e-12)


def test_translation_fixed_points_are_constants():
    g = gr.make_cyclic(4)
    act = al.translation_action(g)
    basis = act.fixed_point_basis()
    assert basis.shape[0] == 1
    np.testing.assert_allclose(basis[0], basis[0][0, 0] * np.eye(4), atol=1e-12)


def test_action_order_indexing():
    g = gr.make_symmetric(3)
    act = al.translation_action(g)
    rng = np.random.default_rng(31)
    x = np.diag(rng.normal(size=6)).astype(complex)
    for r in range(6):
        for s in range(6):
            np.testing.assert_allclose(
                act.apply(r, act.apply(s, x)), act.apply(g.mult(r, s), x), atol=1e-12
            )


def test_module_structure_closure_check():
    m = al.make_algebra((2,))
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    # {E_01} alone is not *-closed.
    with pytest.raises(ValidationError):
        al.ModuleStructure(m, [e01])


def test_is_module_map_flags():
    m = al.make_algebra((2,))
    diag_mod = al.ModuleStructure(m, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    # Entrywise scaling commutes with diagonal multiplications.
    scale = al.CbMap.from_unit_images(
        m, [((i // 2 + 1) * (i % 2 + 1)) * m.unit(i) for i in range(4)]
    )
    ok = al.is_module_map(scale, diag_mod)
    assert ok.ok and ok.residual < 1e-12
    transpose = al.CbMap.from_unit_images(m, [m.unit(i).T for i in range(m.dim)])
    bad = al.is_module_map(transpose, diag_mod)
    assert not bad.ok and bad.residual > 0.5


def test_fixed_point_module():
    g = gr.make_cyclic(2)
    m = al.make_algebra((2,))
    act = al.make_action(g, m, unitaries=[np.eye(2), np.diag([1.0, -1.0])])
    mod = al.fixed_point_module(act)
    assert mod.dim == 2
    check = al.is_module_map(al.CbMap.identity(m), mod)
    assert check.ok


def test_commutant_basis():
    m = al.make_algebra((2,))
    diag = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    comm = al.commutant_basis(m, diag)
    # Commutant of the diagonal inside M2 is the diagonal itself.
    assert comm.shape[0] == 2
    for c in comm:
        np.testing.assert_allclose(c, np.diag(np.diag(c)), atol=1e-12)


ORACLE_BLOCKS = [(1,), (2,), (2, 2), (1, 2, 3)]


def dense_unit_span(m):
    """The unit basis as a stored (dim, D, D) stack: the reference for the index algebra."""
    units = np.zeros((m.dim, m.total_dim, m.total_dim), dtype=complex)
    for i in range(m.dim):
        _, _, _, gp, gq = m.unit_position(i)
        units[i, gp, gq] = 1.0
    return nm.DenseSpan(units)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("blocks", ORACLE_BLOCKS)
def test_index_algebra_matches_dense_span(blocks):
    rng = np.random.default_rng(sum(blocks) * 7 + len(blocks))
    m = al.make_algebra(blocks)
    span = dense_unit_span(m)
    d = m.total_dim
    for i in range(m.dim):
        np.testing.assert_array_equal(m.unit(i), span.basis[i])
    inside = m.element(_complex_normal(rng, (3, m.dim)))
    outside = _complex_normal(rng, (3, d, d))
    for xs in (inside, outside):
        np.testing.assert_array_equal(m.coeffs(xs), span.coeffs(xs))
        for x in xs:
            np.testing.assert_array_equal(m.coeffs(x), span.coeffs(x))
            assert m.residual(x) == span.residual(x)
            assert m.contains(x) == span.contains(x)
    for c in _complex_normal(rng, (3, m.dim)):
        np.testing.assert_array_equal(m.element(c), span.matrix(c))
    np.testing.assert_array_equal(m.coeffs(inside, require=True), span.coeffs(inside, require=True))
    if m.dim == d * d:
        return  # a full matrix algebra has no outside
    stack = inside.copy()
    stack[1] = outside[1]
    single = outside[2]
    for xs in (stack, single):
        with pytest.raises(MembershipError) as want:
            span.coeffs(xs, require=True)
        with pytest.raises(MembershipError) as got:
            m.coeffs(xs, require=True)
        assert str(got.value) == str(want.value)
        assert got.value.residual == want.value.residual
        assert got.value.index == want.value.index


def _projected_action_coords(span, w):
    """alpha(x) = w x w* on the unit basis, one projection per unit image."""
    cols = []
    for i in range(span.dim):
        gp, gq = np.argwhere(span.basis[i])[0]
        cols.append(span.coeffs(np.outer(w[:, gp], w[:, gq].conj())))
    return np.stack(cols, axis=1)


def test_action_coords_match_projection():
    rng = np.random.default_rng(41)
    g = gr.make_cyclic(3)
    translation = al.translation_action(g)
    m = al.make_algebra((2, 2))
    v = al.sample_unitary(rng, 2)
    swap = al.make_action(
        gr.make_cyclic(2),
        m,
        unitaries=[np.eye(4), np.kron(np.diag([1.0, 0.0]), v) + np.kron(np.diag([0.0, 1.0]), v.conj().T)],
        block_perms=[[0, 1], [1, 0]],
    )
    for act in (translation, swap):
        span = dense_unit_span(act.algebra)
        for r in act.group.elements:
            want = _projected_action_coords(span, act.unitary(r))
            np.testing.assert_array_equal(act.coords(r), want)


def test_full_algebra_stores_no_unit_stack():
    tracemalloc.start()
    try:
        m = al.make_algebra((25,), max_dim=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.dim == 625
    assert peak < 1 << 20
