"""Exception types shared across the package.

Every validation failure raises a subclass of :class:`MultlabError` carrying
enough context (offending indices, residuals) to reproduce the check by hand.
"""

from __future__ import annotations


class MultlabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MultlabError, ValueError):
    """Malformed input: wrong shape, dtype, domain, or out-of-cap size."""


class CayleyError(ValidationError):
    """A multiplication table fails a group axiom.

    Attributes
    ----------
    reason : str
        Which axiom failed ("identity", "associativity", "inverses").
    witness : tuple
        Offending indices, e.g. the triple (r, s, t) breaking associativity.
    """

    def __init__(self, reason, witness):
        self.reason = reason
        self.witness = witness
        super().__init__(f"not a group table: {reason} fails at {witness}")


class DualUnsupportedError(ValidationError):
    """Dual-group construction requested for a non-abelian group."""


class ActionError(ValidationError):
    """A candidate group action is not a homomorphism into automorphisms.

    ``pair`` holds the group elements (r, s) with alpha_r o alpha_s != alpha_rs.
    """

    def __init__(self, message, pair=None, residual=None):
        self.pair = pair
        self.residual = residual
        super().__init__(message)


class MembershipError(MultlabError):
    """An operator expected inside a span/algebra lies outside it.

    ``residual`` is the distance from the span in Frobenius norm; ``index``
    is the position of the offending operator when a stack was checked.
    """

    def __init__(self, message, residual, index=None):
        self.residual = residual
        self.index = index
        super().__init__(f"{message} (residual {residual:.3e})")


class ExtensionError(MultlabError):
    """Generator-word extension failed to span the target algebra.

    ``rank`` is the dimension reached, ``target`` the dimension required.
    """

    def __init__(self, rank, target):
        self.rank = rank
        self.target = target
        super().__init__(
            f"generator words span only {rank} of {target} dimensions"
        )


class CompatibilityError(MultlabError):
    """A module action does not commute with the group action as required."""


class NotMultiplierError(MultlabError):
    """A map fails the structural condition needed for symbol extraction."""

    def __init__(self, message, residual):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class SolverError(MultlabError):
    """The SDP solver stopped without reaching the requested accuracy.

    Carries the last iterate's objective value and duality gap so callers
    can decide whether the partial answer is still useful.
    """

    def __init__(self, message, value=None, gap=None):
        self.value = value
        self.gap = gap
        super().__init__(message)


class ScenarioError(ValidationError):
    """A scenario file is malformed or requests an unsupported combination."""
