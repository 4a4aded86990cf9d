"""Moving fiber symbols between crossed products and block-grid symbols.

The transfer of a fiber symbol F is the group-indexed grid whose cell at
column x, row y is the twisted translate ``alpha_{y^-1} o F(y x^-1) o
alpha_y``; applying it blockwise to M (x) B(l2 G) extends the fiberwise map
``rep(a) u_r -> rep(F(r)(a)) u_r`` of the crossed product sitting inside.
Three routes are kept explicit so they can cross-check each other:

* :func:`transfer_symbol` builds the closed-form grid;
* :func:`schur_extension` conjugates the fiberwise coordinate map through
  the double-construction duality and lands on the same grid
  (:func:`position_symbol` reads the grid back off any ambient map);
* :func:`restrict_to_crossed` compresses an ambient map back to the
  crossed-product span and reports how much of the span leaked.

A grid arises this way exactly when it is invariant under simultaneous
right translation of both indices twisted by the action
(:func:`check_invariance`); :func:`invariant_average` projects any ambient
map onto that invariant class by averaging conjugations by the product of
the action unitaries with right translation.
"""

import numpy as np

from .algebras import CbMap, make_algebra
from .crossed import second_dual_action, takai_duality
from .errors import NotMultiplierError, ValidationError
from .herzschur import CrossedMap, FiberSymbol, extract_fiber_symbol
from .numerics import frob_norm, tol_check
from .schur import SchurSymbol, extract_symbol, schur_map


def _require_model_symbol(model, symbol):
    if symbol.group is not model.group:
        raise ValidationError("symbol and model use different groups")
    if symbol.algebra is not model.algebra:
        raise ValidationError("symbol and model use different coefficient algebras")


def transfer_symbol(model, symbol):
    """The grid with cell (x, y) = alpha_{y^-1} o F(y x^-1) o alpha_y."""
    _require_model_symbol(model, symbol)
    g = model.group
    act = model.action
    maps = []
    for x in g.elements:
        row = []
        for y in g.elements:
            c = (
                act.coords(g.inv(y))
                @ symbol.fibers[g.mult(y, g.inv(x))].coords
                @ act.coords(y)
            )
            row.append(CbMap.from_coords(model.algebra, c))
        maps.append(row)
    return SchurSymbol(maps)


def _fiber_symbol_of(model, source):
    if isinstance(source, FiberSymbol):
        return source
    symbol, _ = extract_fiber_symbol(model, source)
    return symbol


def schur_extension(model, source, iso=None):
    """Extend a fiberwise multiplier to all of M (x) B(l2 G).

    The fiberwise coordinate map is amplified over the function index of the
    double construction and conjugated back through the duality isomorphism
    (built on demand, or pass a precomputed one as ``iso``).  Returns the
    extension as a map on the model's ambient algebra.
    """
    symbol = _fiber_symbol_of(model, source)
    _require_model_symbol(model, symbol)
    if iso is None:
        iso = takai_duality(model)
    g = model.group
    m = model.algebra.dim
    n = g.order
    amplified = np.zeros((m * n * n, m * n * n), dtype=complex)
    view = amplified.reshape(m, n, n, m, n, n)
    for r in g.elements:
        fc = symbol.fibers[r].coords
        for p in g.elements:
            view[:, r, p, :, r, p] = fc
    ext = iso.inverse @ (amplified @ iso.coords)
    return CbMap.from_coords(model.mb_algebra, ext)


def _position_perm(d, n):
    """Superoperator-level permutation from M-slow to position-slow ordering.

    The ambient basis index i*n + s (coefficient i slow) is sent to s*d + i;
    on vectorized matrices the index c*N + r moves to pi(c)*N + pi(r).
    Returns the flat index array ``pi2`` with that image, so a superoperator
    ``mat`` in M-slow ordering becomes ``out[ix_(pi2, pi2)] = mat`` in
    position-slow ordering (and ``mat = out[ix_(pi2, pi2)]`` going back).
    """
    idx = np.arange(d * n)
    pi = (idx % n) * d + idx // n
    big = d * n * d * n
    return (pi[:, None] * (d * n) + pi[None, :]).reshape(big)


def position_symbol(model, mapping, tol=1e-9):
    """Read the position-block grid off a map on M (x) B(l2 G).

    The ambient ordering keeps the coefficient index slow, so the map's
    superoperator is conjugated to position-slow ordering first; the grid of
    block maps is then extracted, cell maps acting on the coefficient algebra.
    """
    mat = mapping.matrix if isinstance(mapping, CbMap) else np.asarray(mapping, dtype=complex)
    d = model.algebra.total_dim
    n = model.group.order
    pi2 = _position_perm(d, n)
    shuffled = np.empty_like(np.asarray(mat, dtype=complex))
    shuffled[np.ix_(pi2, pi2)] = mat
    symbol, _ = extract_symbol(shuffled, algebra=model.algebra, tol=tol)
    return symbol


def ambient_map_of_symbol(model, symbol):
    """Assemble a group-indexed grid into a map on M (x) B(l2 G)."""
    n = model.group.order
    if symbol.nx != n or symbol.ny != n:
        raise ValidationError("grid must be indexed by the group on both sides")
    if symbol.algebra is not model.algebra:
        raise ValidationError("grid cells must act on the model's coefficient algebra")
    big = schur_map(symbol).matrix
    d = model.algebra.total_dim
    pi2 = _position_perm(d, n)
    return CbMap.from_matrix(model.mb_algebra, big[np.ix_(pi2, pi2)])


def restrict_to_crossed(model, mapping):
    """Compress an ambient map to the crossed-product span.

    Returns ``(crossed_map, leak)`` where ``leak`` is the Frobenius norm of
    the part of the image that falls outside the span; it vanishes exactly
    when the map preserves the crossed product.
    """
    coords = mapping.coords if isinstance(mapping, CbMap) else np.asarray(mapping, dtype=complex)
    mb = model.mb_algebra
    k = mb.dim
    if coords.shape != (k, k):
        raise ValidationError(f"ambient coordinate matrix must be {k} x {k}")
    emb = mb.coeffs(model.span.basis).T
    pinv = emb.conj().T / model.group.order
    restricted = pinv @ coords @ emb
    leak = frob_norm(coords @ emb - emb @ restricted)
    return CrossedMap(model, restricted), float(leak)


def check_invariance(model, symbol, tol=1e-10):
    """Twisted translation invariance of a group-indexed grid.

    Checks ``cell(x r, y r) = alpha_{r^-1} o cell(x, y) o alpha_r`` for all
    r; grids of transferred fiber symbols satisfy it exactly, and every grid
    satisfying it restricts to a fiberwise multiplier of the crossed product.
    The scale is the largest cell norm (the action's coordinate matrices are
    unitary, so conjugating a cell keeps its norm).
    """
    g = model.group
    n = g.order
    if symbol.nx != n or symbol.ny != n:
        raise ValidationError("grid must be indexed by the group on both sides")
    act = model.action
    cells = np.stack([np.stack([phi.coords for phi in row]) for row in symbol.maps])
    worst = 0.0
    for r in g.elements:
        want = act.coords(g.inv(r)) @ cells @ act.coords(r)
        moved = g.table[:, r]  # x -> x r
        got = cells[np.ix_(moved, moved)]
        worst = max(worst, float(np.linalg.norm(got - want, axis=(2, 3)).max()))
    return tol_check(worst, tol, np.linalg.norm(cells, axis=(2, 3)).max())


def invariant_average(model, mapping):
    """Average conjugations by the doubled action to enforce invariance.

    The averaged map commutes with every conjugation, so it preserves their
    joint fixed points — exactly the crossed-product span — and averaging is
    idempotent: maps already invariant (e.g. extensions of fiber symbols)
    are returned unchanged.
    """
    coords = mapping.coords if isinstance(mapping, CbMap) else np.asarray(mapping, dtype=complex)
    sda = second_dual_action(model)
    g = model.group
    total = np.zeros_like(coords)
    for r in g.elements:
        total += sda.coords(g.inv(r)) @ coords @ sda.coords(r)
    return CbMap.from_coords(model.mb_algebra, total / g.order)


def translation_picture(model, symbol, tol=1e-10):
    """The grid picture of a fiber symbol on a function-algebra model.

    For the crossed product of the translation action on M-valued functions,
    a fiber symbol whose fibers do not mix function positions corresponds to
    the grid whose cell at column x, row y applies the position-y component
    of fiber ``y x^-1``.  Fibers that mix positions have no grid picture and
    raise :class:`NotMultiplierError`.
    """
    _require_model_symbol(model, symbol)
    g = model.group
    n = g.order
    balg = model.algebra
    k = len(balg.blocks) // n
    if k * n != len(balg.blocks) or balg.blocks != tuple(balg.blocks[:k]) * n:
        raise ValidationError("model algebra is not an n-fold function algebra")
    base = make_algebra(balg.blocks[:k], max_dim=None)
    m = base.dim
    cells = np.zeros((n, n, m, m), dtype=complex)
    worst = scale = 0.0
    for r in g.elements:
        f4 = symbol.fibers[r].coords.reshape(n, m, n, m)
        kept = np.zeros_like(f4)
        for p in g.elements:
            cells[r, p] = f4[p, :, p, :]
            kept[p, :, p, :] = f4[p, :, p, :]
        worst = max(worst, float(frob_norm((f4 - kept).reshape(n * m, n * m))))
        scale = max(scale, float(frob_norm(symbol.fibers[r].coords)))
    if not tol_check(worst, tol, scale).ok:
        raise NotMultiplierError(
            f"fibers mix function positions: off-position mass {worst:.3e}",
            residual=worst,
        )
    maps = []
    for x in g.elements:
        row = []
        for y in g.elements:
            row.append(CbMap.from_coords(base, cells[g.mult(y, g.inv(x)), y]))
        maps.append(row)
    return SchurSymbol(maps)
