"""Tests for operator-valued Schur multipliers on block kernels.

Orientation convention exercised throughout: a symbol is a grid of maps
indexed ``maps[x][y]`` (x = column block, y = row block), and applying it to
a kernel transforms block (y, x) by the map at (x, y).  For scalar grids
this scales kernel entry (y, x) by grid[x, y].
"""

import numpy as np
import pytest

from multlab import algebras as al
from multlab import numerics as nm
from multlab import schur as sc
from multlab.errors import NotMultiplierError


def _scaling(algebra, grid):
    return sc.SchurSymbol.from_scalar_grid(algebra, np.asarray(grid, dtype=complex))


def _random_symbol(rng, algebra, nx, ny):
    maps = [[al.sample_cbmap(rng, algebra) for _ in range(ny)] for _ in range(nx)]
    return sc.SchurSymbol(maps)


def test_kernel_block_roundtrip():
    rng = np.random.default_rng(71)
    blocks = rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))
    big = sc.kernel_operator(blocks)
    assert big.shape == (4, 6)
    assert big[3, 4] == blocks[1, 2, 1, 0]
    np.testing.assert_allclose(sc.kernel_blocks(big, 2), blocks)


def test_apply_symbol_scalar_convention():
    alg = al.make_algebra((1,))
    sym = _scaling(alg, [[1, 2], [3, 4]])
    out = sc.apply_symbol(sym, np.ones((2, 2), dtype=complex))
    np.testing.assert_allclose(out, np.array([[1, 3], [2, 4]], dtype=complex))


def test_apply_symbol_blockwise():
    rng = np.random.default_rng(72)
    alg = al.make_algebra((2,))
    sym = _random_symbol(rng, alg, 3, 2)
    k = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    out = sc.apply_symbol(sym, k)
    for x in range(3):
        for y in range(2):
            blk = k[2 * y : 2 * y + 2, 2 * x : 2 * x + 2]
            np.testing.assert_allclose(
                out[2 * y : 2 * y + 2, 2 * x : 2 * x + 2],
                sym.maps[x][y].apply(blk),
                atol=1e-12,
            )


def test_point_mass_kernels():
    rng = np.random.default_rng(73)
    alg = al.make_algebra((2,))
    sym = _random_symbol(rng, alg, 2, 2)
    a = al.sample_element(rng, alg)
    for x in range(2):
        for y in range(2):
            kernel = np.zeros((4, 4), dtype=complex)
            kernel[2 * y : 2 * y + 2, 2 * x : 2 * x + 2] = a
            out = sc.apply_symbol(sym, kernel)
            expect = np.zeros((4, 4), dtype=complex)
            expect[2 * y : 2 * y + 2, 2 * x : 2 * x + 2] = sym.maps[x][y].apply(a)
            np.testing.assert_allclose(out, expect, atol=1e-12)


def test_schur_map_matches_apply():
    rng = np.random.default_rng(74)
    alg = al.make_algebra((2,))
    sym = _random_symbol(rng, alg, 2, 2)
    smap = sc.schur_map(sym)
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(smap.apply(k), sc.apply_symbol(sym, k), atol=1e-10)


def test_schur_map_shares_its_algebra():
    rng = np.random.default_rng(79)
    alg = al.make_algebra((2,))
    first = sc.schur_map(_random_symbol(rng, alg, 2, 2))
    second = sc.schur_map(_random_symbol(rng, alg, 2, 2))
    assert first.algebra is second.algebra
    assert first.algebra.total_dim == 4
    for smap in (first, second):
        fresh = al.CbMap(al.make_algebra((4,), max_dim=None), mat=smap.matrix)
        np.testing.assert_array_equal(smap.coords, fresh.coords)


def test_schur_map_composition_is_entrywise():
    rng = np.random.default_rng(75)
    alg = al.make_algebra((2,))
    s1 = _random_symbol(rng, alg, 2, 2)
    s2 = _random_symbol(rng, alg, 2, 2)
    comp = sc.schur_map(s1) @ sc.schur_map(s2)
    got, residual = sc.extract_symbol(comp, algebra=alg)
    assert residual <= 1e-10
    for x in range(2):
        for y in range(2):
            expect = s1.maps[x][y] @ s2.maps[x][y]
            assert got.maps[x][y].coords_distance(expect) <= 1e-10


def test_verify_bimodule_accepts_multiplier():
    rng = np.random.default_rng(76)
    alg = al.make_algebra((2,))
    sym = _random_symbol(rng, alg, 2, 2)
    check = sc.verify_bimodule(sc.schur_map(sym), block_dim=2)
    assert check.ok
    assert check.residual <= 1e-12


def test_verify_bimodule_rejects_transpose():
    big = al.make_algebra((4,))
    transpose = al.CbMap.from_unit_images(big, [big.unit(i).T for i in range(big.dim)])
    check = sc.verify_bimodule(transpose, block_dim=2)
    assert not check.ok
    assert check.residual > 0.5


def test_extract_symbol_roundtrip():
    rng = np.random.default_rng(77)
    alg = al.make_algebra((2,))
    sym = _random_symbol(rng, alg, 2, 2)
    got, residual = sc.extract_symbol(sc.schur_map(sym), algebra=alg)
    assert residual <= 1e-10
    for x in range(2):
        for y in range(2):
            assert got.maps[x][y].coords_distance(sym.maps[x][y]) <= 1e-10


def test_extract_rejects_non_multiplier():
    big = al.make_algebra((4,))
    transpose = al.CbMap.from_unit_images(big, [big.unit(i).T for i in range(big.dim)])
    with pytest.raises(NotMultiplierError):
        sc.extract_symbol(transpose, block_dim=2)


def test_dilation_scalar_triangular():
    alg = al.make_algebra((1,))
    sym = _scaling(alg, [[1, 1], [0, 1]])
    dil = sc.dilation_factorize(sym)
    np.testing.assert_allclose(dil.value, 2 / np.sqrt(3), atol=1e-6)
    assert dil.reconstruction_residual <= 1e-8
    assert dil.certificate >= dil.value - 1e-6
    assert dil.certificate <= dil.value * 1.01 + 1e-9


def test_dilation_reconstructs_operator_symbol():
    rng = np.random.default_rng(78)
    alg = al.make_algebra((2,))
    sym = _random_symbol(rng, alg, 2, 2)
    dil = sc.dilation_factorize(sym)
    assert dil.reconstruction_residual <= 1e-8
    t = dil.multiplicity
    for x in range(2):
        for y in range(2):
            for i in range(alg.dim):
                a = alg.unit(i)
                lhs = dil.w_ops[y].conj().T @ dil.representation(a) @ dil.v_ops[x]
                np.testing.assert_allclose(
                    lhs, sym.maps[x][y].apply(a), atol=1e-8
                )
    assert dil.certificate >= dil.value - 1e-6
    assert dil.certificate <= dil.value * 1.1 + 1e-9
    assert dil.v_ops[0].shape == (2 * t, 2)


def test_dilation_zero_symbol():
    alg = al.make_algebra((2,))
    zero = sc.SchurSymbol(
        [[al.CbMap.zero(alg) for _ in range(2)] for _ in range(2)]
    )
    dil = sc.dilation_factorize(zero)
    assert dil.value <= 1e-7
    assert dil.certificate <= 1e-6
    assert dil.reconstruction_residual <= 1e-10
