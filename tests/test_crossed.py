"""Tests for crossed-product models and the duality isomorphisms.

The isomorphisms are constructed by generator-word extension; the closed
forms used here as oracles are derived independently:

* first duality map:  b (x) E_st  ->  rep(alpha_s(b)) u_{s t^-1} (x) E_st
* second duality map: rep_beta(a (x) delta_p) u_r  ->  a (x) E_{p, r^-1 p}

where rep is the twisted embedding and u the ambient translation unitary.
"""

import numpy as np
import pytest

from multlab import algebras as al
from multlab import crossed as cr
from multlab import groups as gr
from multlab import numerics as nm
from multlab.errors import ExtensionError, MembershipError


def sign_model():
    g = gr.make_cyclic(2)
    m = al.make_algebra((2,))
    act = al.make_action(g, m, unitaries=[np.eye(2), np.diag([1.0, -1.0])])
    return cr.CrossedProductModel(act)


def translation_model(n=3):
    g = gr.make_cyclic(n)
    return cr.CrossedProductModel(al.translation_action(g))


def test_basis_gram_is_scaled_identity():
    model = sign_model()
    flat = model.span.basis.reshape(model.span.dim, -1)
    gram = flat.conj() @ flat.T
    np.testing.assert_allclose(gram, model.group.order * np.eye(model.span.dim), atol=1e-12)


def test_covariance_relation():
    model = sign_model()
    rng = np.random.default_rng(41)
    a = al.sample_element(rng, model.algebra)
    for r in model.group.elements:
        u = model.translation_unitary(r)
        lhs = u @ model.algebra_rep(a) @ u.conj().T
        rhs = model.algebra_rep(model.action.apply(r, a))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_product_rule():
    model = translation_model(3)
    rng = np.random.default_rng(42)
    a = al.sample_element(rng, model.algebra)
    b = al.sample_element(rng, model.algebra)
    g = model.group
    for r in g.elements:
        for t in g.elements:
            lhs = model.element_of(a, r) @ model.element_of(b, t)
            rhs = model.element_of(a @ model.action.apply(r, b), g.mult(r, t))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_span_closed_under_products_and_star():
    model = sign_model()
    span = model.span
    for i in range(span.dim):
        bi = span.basis_matrix(i)
        assert span.residual(bi.conj().T) < 1e-10
        for j in range(span.dim):
            assert span.residual(bi @ span.basis_matrix(j)) < 1e-10


def test_membership_rejects_outside_operator():
    model = sign_model()
    # I (x) E_01 has a single off-diagonal translation block: not in the span.
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1.0
    x = nm.kron(np.eye(2), e01)
    with pytest.raises(MembershipError):
        model.coeffs(x, require=True)


def test_dirac_kernel_identity():
    # The basis element with symbol a at fiber r equals the kernel operator
    # k(s, t) = [s t^-1 = r] alpha_{s^-1}(a).
    model = translation_model(3)
    g = model.group
    rng = np.random.default_rng(43)
    a = al.sample_element(rng, model.algebra)
    for r in g.elements:
        direct = model.element_of(a, r)
        blocks = np.zeros((model.ambient_dim, model.ambient_dim), dtype=complex)
        b4 = blocks.reshape(
            model.algebra.total_dim, g.order, model.algebra.total_dim, g.order
        )
        for s in g.elements:
            for t in g.elements:
                if g.mult(s, g.inv(t)) == r:
                    b4[:, s, :, t] = model.action.apply_inverse(s, a)
        np.testing.assert_allclose(direct, blocks, atol=1e-12)


def test_coeffs_roundtrip_and_fibers():
    model = sign_model()
    rng = np.random.default_rng(44)
    c = rng.standard_normal(model.span.dim) + 1j * rng.standard_normal(model.span.dim)
    x = model.span.matrix(c)
    np.testing.assert_allclose(model.coeffs(x), c, atol=1e-11)
    # The fiber parts sum to x, and part r is the fiber-r element of its coordinates.
    parts = model.span.matrix(model.fiber_split(c))
    np.testing.assert_allclose(parts.sum(axis=0), x, atol=1e-11)
    cm = c.reshape(model.algebra.dim, model.group.order)
    for r in model.group.elements:
        want = sum(
            cm[i, r] * model.element_of(model.algebra.unit(i), r)
            for i in range(model.algebra.dim)
        )
        np.testing.assert_allclose(parts[r], want, atol=1e-11)


def test_dual_coaction_on_basis():
    model = translation_model(3)
    g = model.group
    delta = cr.dual_coaction(model)
    for r in g.elements:
        b = model.element_of(model.algebra.identity, r)
        lam = gr.left_regular(g, r)
        np.testing.assert_allclose(delta.apply(b), nm.kron(b, lam), atol=1e-12)


def test_coaction_identity():
    model = sign_model()
    rng = np.random.default_rng(45)
    delta = cr.dual_coaction(model)
    c = rng.standard_normal(model.span.dim) + 1j * rng.standard_normal(model.span.dim)
    x = model.span.matrix(c)
    check = delta.coaction_identity_check(x)
    assert check.ok, check
    assert check.residual < 1e-10


def test_second_dual_action_formula():
    model = sign_model()
    big = cr.second_dual_action(model)
    rng = np.random.default_rng(46)
    a = al.sample_element(rng, model.algebra)
    g = model.group
    for r in g.elements:
        t = rng.integers(g.order)
        e = np.zeros((g.order, g.order))
        e[int(t), g.mult(int(t), 1) if g.order > 1 else 0] = 1.0
        x = nm.kron(a, e)
        # alpha_r (x) Ad(right translation): E_st -> E_{s r^-1, t r^-1}.
        lhs = big.apply(r, x)
        rho = gr.right_regular(g, r)
        rhs = nm.kron(model.action.apply(r, a), rho @ e @ rho.conj().T)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_second_dual_fixed_points_are_the_crossed_span():
    for model in [sign_model(), translation_model(3)]:
        big = cr.second_dual_action(model)
        fixed = big.fixed_point_basis()
        assert fixed.shape[0] == model.span.dim
        for f in fixed:
            assert model.span.residual(f) < 1e-9


def test_double_span_roundtrip():
    model = sign_model()
    dspan = cr.DoubleSpan(model)
    rng = np.random.default_rng(47)
    c = rng.standard_normal(dspan.dim) + 1j * rng.standard_normal(dspan.dim)
    x = dspan.matrix(c)
    got, residual = dspan.coeffs_with_residual(x)
    np.testing.assert_allclose(got, c, atol=1e-10)
    assert residual < 1e-10
    # A perturbation outside the span shows up as residual.
    # A perturbation sticks out (partly, since single entries overlap the span).
    y = x.copy()
    y[0, -1] += 0.5
    _, res2 = dspan.coeffs_with_residual(y)
    assert res2 > 0.3


def _reference_double_matrix(model, c):
    """Per-block loop: sum over (r, p) of the fiber-r part of c[:, r, p] at (rp, p)."""
    g = model.group
    n = g.order
    d = model.algebra.total_dim
    m = model.algebra.dim
    c = np.asarray(c, dtype=complex).reshape(m, n, n)
    out = np.zeros((d * n * n, d * n * n), dtype=complex)
    view = out.reshape(d, n, n, d, n, n)
    for r in g.elements:
        for p in g.elements:
            z = np.zeros(model.span.dim, dtype=complex)
            z[r::n] = c[:, r, p]
            view[:, :, g.mult(r, p), :, :, p] += model.span.matrix(z).reshape(d, n, d, n)
    return out


def _reference_fiber_coeffs(model, x, r):
    """Coordinates of the fiber-r symbol of x: block reads averaged over s."""
    g = model.group
    n = g.order
    d = model.algebra.total_dim
    view = np.asarray(x, dtype=complex).reshape(d, n, d, n)
    avg = np.zeros((d, d), dtype=complex)
    for s in g.elements:
        avg += model.action.apply(s, view[:, s, :, g.mult(g.inv(r), s)])
    return model.algebra.coeffs(avg / n)


def _reference_double_coeffs(model, x):
    g = model.group
    n = g.order
    d = model.algebra.total_dim
    view = np.asarray(x, dtype=complex).reshape(d, n, n, d, n, n)
    c = np.zeros((model.algebra.dim, n, n), dtype=complex)
    for pp in g.elements:
        for q in g.elements:
            r = g.mult(pp, g.inv(q))
            block = view[:, :, pp, :, :, q].reshape(d * n, d * n)
            c[:, r, q] = _reference_fiber_coeffs(model, block, r)
    return c.reshape(-1), nm.frob_norm(x - _reference_double_matrix(model, c))


def _block_swap_model():
    g = gr.make_cyclic(2)
    m = al.make_algebra((2, 2))
    return cr.CrossedProductModel(al.make_action(g, m, block_perms=[[0, 1], [1, 0]]))


@pytest.mark.parametrize(
    "make_model",
    [
        sign_model,
        lambda: translation_model(3),
        lambda: translation_model(5),
        lambda: cr.CrossedProductModel(al.translation_action(gr.make_symmetric(3))),
        _block_swap_model,
        lambda: cr.stone_von_neumann(al.make_algebra((2,)), gr.make_cyclic(3)).domain_model,
    ],
    ids=["sign", "z3-translation", "z5-translation", "s3-translation", "block-swap", "svn"],
)
def test_double_span_matches_block_loops(make_model):
    model = make_model()
    dspan = cr.DoubleSpan(model)
    rng = np.random.default_rng(50)
    c = rng.standard_normal(dspan.dim) + 1j * rng.standard_normal(dspan.dim)
    x = dspan.matrix(c)
    np.testing.assert_allclose(x, _reference_double_matrix(model, c), rtol=0, atol=1e-12)
    off_span = x + rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    for y in (x, off_span):
        got, residual = dspan.coeffs_with_residual(y)
        want, want_residual = _reference_double_coeffs(model, y)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert abs(residual - want_residual) <= 1e-12
    assert dspan.residual(off_span) > 1.0


def test_first_duality_generator_relations():
    model = sign_model()
    phi = cr.takai_duality(model)
    rep = phi.report
    assert rep["rank"] == model.span.dim * model.group.order
    for key in ("algebra_gen", "translation_gen", "function_gen"):
        assert rep["relations"][key] < 1e-9
    assert rep["multiplicative"] < 1e-9
    assert rep["star"] < 1e-9
    assert rep["unital"] < 1e-9


def test_first_duality_closed_form():
    model = sign_model()
    g = model.group
    phi = cr.takai_duality(model)
    rng = np.random.default_rng(48)
    b = al.sample_element(rng, model.algebra)
    n = g.order
    for s in g.elements:
        for t in g.elements:
            e = np.zeros((n, n))
            e[s, t] = 1.0
            x = nm.kron(b, e)
            r = g.mult(s, g.inv(t))
            expected = nm.kron(
                model.element_of(model.action.apply(s, b), r), e
            )
            np.testing.assert_allclose(phi.apply(x), expected, atol=1e-9)
            np.testing.assert_allclose(phi.inverse_apply(expected), x, atol=1e-9)


def test_first_duality_nonabelian():
    g = gr.make_symmetric(3)
    model = cr.CrossedProductModel(al.translation_action(g))
    phi = cr.takai_duality(model)
    assert phi.report["rank"] == model.span.dim * g.order
    assert phi.report["multiplicative"] < 1e-8


def _haar_conjugated(units, seed):
    v = al.sample_unitary(np.random.default_rng(seed), 2)
    return [v @ u @ v.conj().T for u in units]


def _character_units(n):
    return [np.diag([1.0, np.exp(2j * np.pi * r / n)]) for r in range(n)]


def _standard_units(g):
    """The two-dimensional irreducible representation of S3, on the
    orthonormal basis of the sum-zero vectors of C^3."""
    b = np.array([[1, 1], [-1, 1], [0, -2]]) / np.array([np.sqrt(2), np.sqrt(6)])
    units = []
    for p in g.permutations:
        perm = np.zeros((3, 3))
        perm[list(p), range(3)] = 1.0
        units.append(b.T @ perm @ b)
    return units


@pytest.mark.parametrize(
    "group, units",
    [
        (gr.make_cyclic(3), _character_units(3)),
        (gr.make_cyclic(4), _character_units(4)),
        (gr.make_symmetric(3), _standard_units(gr.make_symmetric(3))),
    ],
    ids=["z3", "z4", "s3"],
)
def test_first_duality_on_non_diagonal_inner_actions(group, units):
    # Conjugating by a Haar unitary makes products of generator words vanish
    # only up to rounding; word extension must not take them as new directions.
    m = al.make_algebra((2,))
    action = al.make_action(group, m, unitaries=_haar_conjugated(units, seed=group.order))
    report = cr.takai_duality(cr.CrossedProductModel(action)).report
    assert report["multiplicative"] <= 1e-12
    assert report["star"] <= 1e-12
    assert max(report["relations"].values()) <= 1e-12


def test_second_duality_relations_and_closed_form():
    g = gr.make_cyclic(3)
    m = al.make_algebra((2,))
    psi = cr.stone_von_neumann(m, g)
    assert psi.report["rank"] == m.dim * g.order * g.order
    assert psi.report["multiplicative"] < 1e-9
    rng = np.random.default_rng(49)
    a = al.sample_element(rng, m)
    n = g.order
    for p in g.elements:
        for r in g.elements:
            x = psi.domain_model.element_of(
                _beta_element(psi.domain_model.algebra, m, a, p), r
            )
            e = np.zeros((n, n))
            e[p, g.mult(g.inv(r), p)] = 1.0
            np.testing.assert_allclose(psi.apply(x), nm.kron(a, e), atol=1e-9)


def _beta_element(beta_algebra, m, a, slot):
    """The element of M (x) functions(G) equal to a at position ``slot``, else 0."""
    d = m.total_dim
    out = np.zeros((beta_algebra.total_dim, beta_algebra.total_dim), dtype=complex)
    out[slot * d : (slot + 1) * d, slot * d : (slot + 1) * d] = a
    return out


def test_extension_error_when_generators_insufficient():
    model = sign_model()
    dspan = cr.DoubleSpan(model)
    # Only the algebra generators: their words never leave one fiber.
    gens = [g for g in cr.takai_generators(model) if g[0].startswith("algebra")]
    with pytest.raises(ExtensionError):
        cr.word_extension(gens, target_dim=dspan.dim)
