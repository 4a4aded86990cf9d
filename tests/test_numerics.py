"""Tests for the dense-matrix utility layer.

Conventions under test: column-stacking vec, left-factor-slow Kronecker
indexing, and the Choi matrix C[(i,k),(j,l)] = Phi(E_ij)[k,l].
"""

import numpy as np
import pytest

from multlab import numerics as nm
from multlab.errors import MembershipError, ValidationError


def test_vec_is_column_stacking():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    # Columns are read off first: (1,3) then (2,4).
    np.testing.assert_array_equal(nm.vec(a), np.array([1, 3, 2, 4]))


def test_unvec_inverts_vec():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(nm.unvec(nm.vec(a)), a)


def test_unvec_rectangular():
    a = np.arange(6, dtype=complex).reshape(2, 3)
    np.testing.assert_allclose(nm.unvec(nm.vec(a), (2, 3)), a)


def test_vec_of_product_identity():
    # vec(A X B) = (B^T (x) A) vec(X), the defining identity of the convention.
    rng = np.random.default_rng(3)
    a, x, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    lhs = nm.vec(a @ x @ b)
    rhs = nm.kron(b.T, a) @ nm.vec(x)
    np.testing.assert_allclose(lhs, rhs)


def test_kron_index_convention():
    # kron(A, B)[(i,k),(j,l)] = A[i,j] B[k,l] with the left factor slow.
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[5, 6], [7, 8]], dtype=complex)
    k = nm.kron(a, b)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert k[i * 2 + p, j * 2 + q] == a[i, j] * b[p, q]


def test_operator_norm_matches_singular_value():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    # Largest singular value of [[1,1],[0,1]] is the golden ratio.
    golden = (1 + np.sqrt(5)) / 2
    assert abs(nm.operator_norm(m) - golden) < 1e-12


def test_choi_matrix_against_direct_sum():
    rng = np.random.default_rng(11)
    d = 3
    mat = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))

    def apply(x):
        return nm.unvec(mat @ nm.vec(x))

    # Direct definition: C = sum_ij E_ij (x) Phi(E_ij).
    direct = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            direct += nm.kron(e, apply(e))
    np.testing.assert_allclose(nm.choi_matrix(mat, d), direct, atol=1e-12)


def test_choi_roundtrip():
    rng = np.random.default_rng(12)
    d = 4
    mat = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    np.testing.assert_allclose(nm.choi_to_superop(nm.choi_matrix(mat, d), d), mat, atol=1e-12)


def test_choi_of_identity_is_maximally_entangled():
    d = 2
    c = nm.choi_matrix(np.eye(d * d), d)
    # sum_ij E_ij (x) E_ij, rank one with trace d.
    vals = np.linalg.eigvalsh(c)
    np.testing.assert_allclose(sorted(vals), [0, 0, 0, d], atol=1e-12)


def test_is_psd():
    assert nm.is_psd(np.diag([1.0, 0.0, 2.0]))
    assert not nm.is_psd(np.diag([1.0, -1e-6]))
    # Tolerance admits tiny negative eigenvalues.
    assert nm.is_psd(np.diag([1.0, -1e-13]))


def test_dense_span_coeffs_and_residual():
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    span = nm.DenseSpan(np.stack([e11, e22]))
    c = span.coeffs(np.diag([2.0, 3.0]).astype(complex))
    np.testing.assert_allclose(c, [2.0, 3.0])
    # Off-diagonal content is outside the span.
    x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert span.residual(x) > 0.9
    with pytest.raises(MembershipError):
        span.coeffs(x, require=True)


def test_dense_span_coeffs_of_a_stack():
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    span = nm.DenseSpan(np.stack([e11, e22]))
    xs = np.stack([np.diag([2.0, 3.0]), np.diag([-1.0, 5.0])]).astype(complex)
    np.testing.assert_allclose(span.coeffs(xs, require=True), [[2.0, 3.0], [-1.0, 5.0]])
    # The first operator outside the span is named by its stack index.
    xs[1, 0, 1] = 1.0
    with pytest.raises(MembershipError) as info:
        span.coeffs(xs, require=True)
    assert info.value.index == 1
    assert info.value.residual > 0.9


def test_dense_span_non_orthogonal_basis():
    b0 = np.eye(2, dtype=complex)
    b1 = np.eye(2, dtype=complex)
    b1[0, 1] = 1.0
    span = nm.DenseSpan(np.stack([b0, b1]))
    x = 2 * b0 + 3 * b1
    np.testing.assert_allclose(span.coeffs(x), [2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(span.matrix(span.coeffs(x)), x, atol=1e-12)


def test_dense_span_rejects_dependent_basis():
    b = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError):
        nm.DenseSpan(np.stack([b, 2 * b]))


def test_span_map_apply_and_compose():
    # Transpose as a map on the diagonal span is the identity.
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    span = nm.DenseSpan(np.stack([e11, e22]))
    swap = nm.SpanMap(span, span, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    out = swap.apply(np.diag([5.0, 7.0]).astype(complex))
    np.testing.assert_allclose(out, np.diag([7.0, 5.0]), atol=1e-12)
    np.testing.assert_allclose((swap @ swap).coords, np.eye(2), atol=1e-12)


def test_span_map_from_function():
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    span = nm.DenseSpan(np.stack([e11, e22]))
    m = nm.SpanMap.from_function(span, span, lambda x: 2 * x)
    np.testing.assert_allclose(m.coords, 2 * np.eye(2), atol=1e-12)


def test_kron_cap():
    with pytest.raises(ValidationError):
        nm.kron(np.eye(200), np.eye(200))
