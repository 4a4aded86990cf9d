"""Character-basis pictures on abelian groups.

For an abelian group the products ``w(gamma, r) = m_gamma lambda_r`` of
character multiplication operators with translations form a Hilbert-Schmidt
orthogonal basis of all of B(l2 G).  A map is called a simultaneous
multiplier when it is diagonal in that basis; its eigenvalue table
``u(gamma, r)`` is the bisymbol.  Four equivalent detections are kept
side by side so they can cross-check each other: diagonality after the
explicit change of basis, commutation with every translation conjugation,
commutation with every character-modulation conjugation, and exactness of
the rank-one reassembly from the extracted bisymbol.

The same map read through the function-algebra crossed product is the
fiberwise Fourier multiplier with symbol ``u(., r)`` on fiber r;
:func:`weyl_cb_comparison` computes the completely bounded norm along both
routes (directly on B(l2 G), and as the transferred grid of that fiber
symbol) and reports the pair.
"""

import numpy as np

from .algebras import CbMap, make_algebra, translation_action
from .cbnorm import cb_norm, hs_cb_norm
from .crossed import CrossedProductModel
from .errors import ValidationError
from .groups import dual_group, left_regular, mult_operator
from .herzschur import FiberSymbol
from .numerics import frob_norm, kron, tol_check, vec


def weyl_basis(g):
    """Array wb[gamma, r] = m_gamma @ lambda_r over the dual and the group."""
    dual = dual_group(g)
    n = g.order
    wb = np.zeros((n, n, n, n), dtype=complex)
    for gamma in range(n):
        mg = mult_operator(g, dual.characters[gamma])
        for r in g.elements:
            wb[gamma, r] = mg @ left_regular(g, r)
    return wb


def plancherel_matrix(g):
    """Unitary F[gamma, s] = chi_gamma(s)/sqrt(n) diagonalizing translations."""
    dual = dual_group(g)
    return dual.characters / np.sqrt(g.order)


def _weyl_columns(g):
    wb = weyl_basis(g)
    n = g.order
    return np.stack([vec(wb[k // n, k % n]) for k in range(n * n)], axis=1)


def simultaneous_multiplier(g, u):
    """The map scaling each w(gamma, r) by u[gamma, r], on all of B(l2 G)."""
    n = g.order
    u = np.asarray(u, dtype=complex)
    if u.shape != (n, n):
        raise ValidationError(f"bisymbol table must be {n} x {n}")
    w = _weyl_columns(g)
    mat = (w * u.reshape(-1)[None, :]) @ w.conj().T / n
    return CbMap.from_matrix(make_algebra((n,)), mat)


def extract_bisymbol(g, mapping):
    """Diagonal Weyl coefficients of a map and the off-diagonal remainder.

    Returns ``(u, residual)`` with ``u[gamma, r] = <w, T w>/<w, w>``; the
    residual is the Frobenius distance from T to the reassembled diagonal
    map and vanishes exactly for simultaneous multipliers.
    """
    mat = mapping.matrix if isinstance(mapping, CbMap) else np.asarray(mapping, dtype=complex)
    n = g.order
    w = _weyl_columns(g)
    u = np.einsum("ik,ik->k", w.conj(), mat @ w) / n
    rebuilt = (w * u[None, :]) @ w.conj().T / n
    return u.reshape(n, n), float(frob_norm(mat - rebuilt))


def verify_simultaneous(g, mapping, tol=1e-10):
    """Four equivalent detections of simultaneous-multiplier structure.

    Returns a dict of named :class:`CheckResult`s: ``weyl_diagonal`` (mass
    off the diagonal after the change of basis), ``translation_covariant``
    and ``modulation_covariant`` (worst commutator with the two conjugation
    families whose joint eigenbasis the Weyl basis is), and
    ``bisymbol_roundtrip`` (reassembly residual).  All four vanish together.
    Every compared object is the map or a unitary conjugate of it, or its
    Weyl-diagonal part, so each check's scale is ``||map||_F``.
    """
    mat = mapping.matrix if isinstance(mapping, CbMap) else np.asarray(mapping, dtype=complex)
    n = g.order
    dual = dual_group(g)
    w = _weyl_columns(g)
    conj = w.conj().T @ mat @ w / n
    off = conj - np.diag(np.diag(conj))
    results = {"weyl_diagonal": float(frob_norm(off))}
    worst = 0.0
    for s in g.elements:
        lam = left_regular(g, s)
        k = kron(lam.conj(), lam)
        worst = max(worst, float(frob_norm(k @ mat - mat @ k)))
    results["translation_covariant"] = worst
    worst = 0.0
    for eta in range(n):
        mg = mult_operator(g, dual.characters[eta])
        k = kron(mg.conj(), mg)
        worst = max(worst, float(frob_norm(k @ mat - mat @ k)))
    results["modulation_covariant"] = worst
    results["bisymbol_roundtrip"] = extract_bisymbol(g, mat)[1]
    scale = frob_norm(mat)
    return {name: tol_check(res, tol, scale) for name, res in results.items()}


def bisymbol_fiber_symbol(g, u, model=None):
    """The fiber symbol matching a bisymbol on the translation model.

    Fiber r is the Fourier multiplier with symbol ``u[., r]`` on functions
    over the group: in position coordinates its matrix is
    ``(1/n) sum_gamma chi_gamma(p) u[gamma, r] conj(chi_gamma(q))``.
    """
    n = g.order
    u = np.asarray(u, dtype=complex)
    if u.shape != (n, n):
        raise ValidationError(f"bisymbol table must be {n} x {n}")
    if model is None:
        model = CrossedProductModel(translation_action(g))
    chars = dual_group(g).characters
    fibers = []
    for r in g.elements:
        coords = (chars.T * u[:, r][None, :]) @ chars.conj() / n
        fibers.append(CbMap.from_coords(model.algebra, coords))
    return model, FiberSymbol(g, fibers)


def weyl_cb_comparison(g, u, tol=1e-7):
    """Completely bounded norm of a bisymbol along both routes.

    ``direct`` treats the simultaneous multiplier as a map on B(l2 G);
    ``transferred`` reads the same map as a fiberwise Fourier multiplier of
    the translation crossed product and computes the norm of its transferred
    grid.  Both are SDP values; the dict reports them with their difference.
    """
    direct = cb_norm(simultaneous_multiplier(g, u), tol=tol)
    model, symbol = bisymbol_fiber_symbol(g, u)
    transferred = hs_cb_norm(model, symbol, tol=tol)
    return {
        "direct": float(direct),
        "transferred": float(transferred),
        "difference": float(abs(direct - transferred)),
    }
