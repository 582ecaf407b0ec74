"""Exception types for numerical-contract violations.

Plain ``ValueError`` is reserved for malformed arguments (bad intervals,
out-of-domain points, invalid parameters).  The classes below signal that a
computation's hypotheses failed at run time, so callers can distinguish
"you called it wrong" from "the requested numbers do not exist at this
accuracy".
"""


class RmedgeError(Exception):
    """Base class for numerical-contract failures."""


class TruncationError(RmedgeError):
    """An infinite-domain quadrature was cut where the tail is not negligible."""


class ContractionError(RmedgeError):
    """The resolvent-equation norm condition fails; no contraction solution."""


class NearSingularError(RmedgeError):
    """An eigenvalue is too close to 1/z for gap probabilities or det(I - z K)."""


class HypothesisViolationError(RmedgeError):
    """Input system violates a factorization hypothesis (definiteness, decay)."""


class DivergenceError(RmedgeError):
    """An ODE solution blew up before reaching the requested endpoint."""

    def __init__(self, message, last_x=None):
        super().__init__(message)
        self.last_x = last_x


class WrongPeriodError(RmedgeError):
    """A spectral index with the wrong periodicity was requested."""


class ResolutionError(RmedgeError):
    """A computed result fails its independent certificate at the required
    accuracy (for Hill's equation, | |Delta(lambda)| - 2 | at an eigenvalue; for
    a refined determinant, no two rungs that agree below the node cap)."""
