"""Tests for moving fiber symbols between crossed products and block grids.

Routes are always cross-checked in pairs: the closed-form transferred grid
against the duality-conjugated extension, the extension's restriction against
the original fiberwise map, and the translation-side picture against explicit
conjugation by the function-algebra duality.
"""

import numpy as np
import pytest

from multlab import algebras as al
from multlab import cbnorm as cb
from multlab import crossed as cr
from multlab import groups as gr
from multlab import herzschur as hz
from multlab import numerics as nm
from multlab import schur as sc
from multlab import transference as tr
from multlab.errors import NotMultiplierError


def sign_model():
    g = gr.make_cyclic(2)
    m = al.make_algebra((2,))
    act = al.make_action(g, m, unitaries=[np.eye(2), np.diag([1.0, -1.0])])
    return cr.CrossedProductModel(act)


def trivial_model(n):
    g = gr.make_cyclic(n)
    return cr.CrossedProductModel(al.trivial_action(g, al.make_algebra((1,))))


def random_symbol(rng, model):
    fibers = [al.sample_cbmap(rng, model.algebra) for _ in model.group.elements]
    return hz.FiberSymbol(model.group, fibers)


def test_transfer_scalar_grid_orientation():
    model = trivial_model(2)
    v = np.array([2.0, 5.0])
    sym = tr.transfer_symbol(
        model, hz.FiberSymbol.from_scalar_vector(model.group, model.algebra, v)
    )
    kernel = np.ones((2, 2), dtype=complex)
    # entry (row t, col s) is scaled by v(t s^-1): constant diagonals
    from multlab import schur as sc

    np.testing.assert_allclose(
        sc.apply_symbol(sym, kernel), np.array([[2.0, 5.0], [5.0, 2.0]]), atol=1e-12
    )


def test_transfer_cells_are_twisted_translates():
    model = sign_model()
    rng = np.random.default_rng(81)
    fsym = random_symbol(rng, model)
    grid = tr.transfer_symbol(model, fsym)
    g = model.group
    act = model.action
    a = al.sample_element(rng, model.algebra)
    for x in g.elements:
        for y in g.elements:
            want = act.apply_inverse(
                y, fsym.fiber(g.mult(y, g.inv(x))).apply(act.apply(y, a))
            )
            np.testing.assert_allclose(grid.maps[x][y].apply(a), want, atol=1e-10)


def test_extension_matches_transferred_grid():
    model = sign_model()
    rng = np.random.default_rng(82)
    fsym = random_symbol(rng, model)
    ext = tr.schur_extension(model, fsym)
    got = tr.position_symbol(model, ext)
    want = tr.transfer_symbol(model, fsym)
    for x in model.group.elements:
        for y in model.group.elements:
            assert got.maps[x][y].coords_distance(want.maps[x][y]) <= 1e-9


def test_extension_restricts_to_multiplier():
    model = sign_model()
    rng = np.random.default_rng(83)
    fsym = random_symbol(rng, model)
    ext = tr.schur_extension(model, fsym)
    restricted, residual = tr.restrict_to_crossed(model, ext)
    assert residual <= 1e-9
    want = hz.multiplier_map(model, fsym)
    assert np.linalg.norm(restricted.coords - want.coords) <= 1e-9


def test_invariance_accepts_transfers_rejects_generic():
    model = sign_model()
    rng = np.random.default_rng(84)
    grid = tr.transfer_symbol(model, random_symbol(rng, model))
    check = tr.check_invariance(model, grid)
    assert check.ok
    assert check.residual <= 1e-10
    from multlab import schur as sc

    bad = sc.SchurSymbol(
        [[al.sample_cbmap(rng, model.algebra) for _ in range(2)] for _ in range(2)]
    )
    bad_check = tr.check_invariance(model, bad)
    assert not bad_check.ok
    assert bad_check.residual > 1e-3


def test_invariant_average_projects_onto_transfers():
    model = sign_model()
    rng = np.random.default_rng(85)
    mb = model.mb_algebra
    raw = al.sample_cbmap(rng, mb)
    avg = tr.invariant_average(model, raw)
    sda = cr.second_dual_action(model)
    for r in model.group.elements:
        gmap = sda.cbmap(r)
        lhs = gmap.coords @ avg.coords
        rhs = avg.coords @ gmap.coords
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    again = tr.invariant_average(model, avg)
    np.testing.assert_allclose(again.coords, avg.coords, atol=1e-10)
    fsym = random_symbol(rng, model)
    ext = tr.schur_extension(model, fsym)
    fixed = tr.invariant_average(model, ext)
    np.testing.assert_allclose(fixed.coords, ext.coords, atol=1e-9)
    restricted, residual = tr.restrict_to_crossed(model, avg)
    assert residual <= 1e-9


def test_translation_picture_against_duality_conjugation():
    g = gr.make_cyclic(3)
    algebra = al.make_algebra((1,))
    iso = cr.stone_von_neumann(algebra, g)
    model = iso.domain_model
    rng = np.random.default_rng(86)
    diag = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    fibers = [
        al.CbMap.from_coords(model.algebra, np.diag(diag[r])) for r in g.elements
    ]
    fsym = hz.FiberSymbol(g, fibers)
    grid_sym = tr.translation_picture(model, fsym)
    # independent route: conjugate the fiberwise map by the duality
    dmat = hz.multiplier_map(model, fsym).coords
    mb = al.make_algebra((3,))
    transported = iso.coords @ dmat @ np.linalg.inv(iso.coords)
    from multlab import schur as sc

    conj = al.CbMap.from_coords(mb, transported)
    got, residual = sc.extract_symbol(conj.matrix, algebra=algebra)
    assert residual <= 1e-9
    for x in g.elements:
        for y in g.elements:
            assert got.maps[x][y].coords_distance(grid_sym.maps[x][y]) <= 1e-9
    # frozen orientation: entry (row p, col r^-1 p) carries fiber r at point p
    for r in g.elements:
        for p in g.elements:
            x = g.mult(g.inv(r), p)
            np.testing.assert_allclose(
                grid_sym.maps[x][p].coords[0, 0], diag[r, p], atol=1e-12
            )


def test_translation_picture_needs_diagonal_fibers():
    g = gr.make_cyclic(2)
    algebra = al.make_algebra((1,))
    model = cr.stone_von_neumann(algebra, g).domain_model
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    fibers = [al.CbMap.from_coords(model.algebra, off) for _ in g.elements]
    with pytest.raises(NotMultiplierError):
        tr.translation_picture(model, hz.FiberSymbol(g, fibers))


def test_hs_cb_norm_values():
    model = trivial_model(2)
    g = model.group
    alg = model.algebra
    sign = cb.hs_cb_norm(
        model, hz.FiberSymbol.from_scalar_vector(g, alg, [1.0, -1.0])
    )
    np.testing.assert_allclose(sign, 1.0, atol=1e-6)
    unit = cb.hs_cb_norm(model, hz.FiberSymbol.identity(g, alg))
    np.testing.assert_allclose(unit, 1.0, atol=1e-6)
    scaled = cb.hs_cb_norm(
        model, hz.FiberSymbol.from_scalar_vector(g, alg, [3.0, -3.0])
    )
    np.testing.assert_allclose(scaled, 3.0, atol=3e-6)


def test_second_dual_action_is_built_once_per_model():
    g = gr.make_cyclic(3)
    model = cr.CrossedProductModel(al.translation_action(g))
    assert cr.second_dual_action(model) is cr.second_dual_action(model)
    rng = np.random.default_rng(86)
    raw = al.sample_cbmap(rng, model.mb_algebra)
    avg = tr.invariant_average(model, raw)
    act = model.action
    fresh = al.make_action(
        g,
        model.mb_algebra,
        unitaries=[nm.kron(act.inner_unitaries[r], gr.right_regular(g, r)) for r in g.elements],
        block_perms=act.block_perms,
    )
    want = sum(fresh.coords(g.inv(r)) @ raw.coords @ fresh.coords(r) for r in g.elements) / g.order
    np.testing.assert_allclose(avg.coords, want, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(tr.invariant_average(model, raw).coords, avg.coords)


def test_check_invariance_matches_cellwise_loop():
    model = sign_model()
    g = model.group
    rng = np.random.default_rng(87)
    grid = sc.SchurSymbol(
        [[al.sample_cbmap(rng, model.algebra) for _ in g.elements] for _ in g.elements]
    )
    act = model.action
    worst = max(
        np.linalg.norm(
            grid.maps[g.mult(x, r)][g.mult(y, r)].coords
            - act.coords(g.inv(r)) @ grid.maps[x][y].coords @ act.coords(r)
        )
        for r in g.elements
        for x in g.elements
        for y in g.elements
    )
    check = tr.check_invariance(model, grid)
    np.testing.assert_allclose(check.residual, worst, rtol=1e-14)
    assert not check.ok
