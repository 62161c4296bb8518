"""Exception types shared across the library.

The CLI maps these onto its exit-code contract, so solver/green/wavelet
code should raise the most specific type that applies.
"""


class SphereDomainError(ValueError):
    """Argument outside the mathematical domain (t outside [-1,1], n < 2, ...)."""


class SpectrumParseError(SphereDomainError):
    """A spectrum file that cannot be read; the message names the line."""


class ResonanceError(ValueError):
    """Helmholtz parameter sits on (or was queried at) an eigenvalue l(n+l-1)."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class SolvabilityError(ValueError):
    """Right-hand side violates a solvability constraint (mean / resonant mass)."""

    def __init__(self, message, offending_mass=None):
        super().__init__(message)
        self.offending_mass = offending_mass


class QuadratureError(ValueError):
    """A quadrature rule or scale grid cannot deliver the requested accuracy."""


class ConvergenceError(RuntimeError):
    """An adaptive numeric procedure failed to reach its error target."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class NoClosedFormError(LookupError):
    """No tabulated closed form for the requested (n, a); use series/integral."""
