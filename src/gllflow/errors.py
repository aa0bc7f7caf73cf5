"""Exception types shared across the package."""


class GLLFlowError(Exception):
    """Base class for all package errors."""


class PoleSingularityError(GLLFlowError):
    """Stereographic operation evaluated within 1e-8 of the south pole."""


class DomainError(GLLFlowError):
    """Argument outside the documented domain (r <= 0, bad exponents, ...)."""


class GridError(GLLFlowError):
    """Empty, non-monotone, or otherwise unusable grid."""


class NormDriftError(GLLFlowError):
    """Unit-norm or tangency drift beyond geometry.REPAIR_TOL (1e-6), the one
    repairable threshold: smaller drift is renormalized, larger is an error."""


class EnergyBoundError(NormDriftError):
    """A profile's derivative energy A(r) = r^2 |psi_r|^2 exceeded its
    a-priori bound; carries the largest A and the bound."""

    def __init__(self, message, max_A=None, bound=None):
        super().__init__(message)
        self.max_A = max_A
        self.bound = bound


class StiffnessError(GLLFlowError):
    """Adaptive step size underflowed; carries the last good state."""

    def __init__(self, message, r_last=None, partial=None):
        super().__init__(message)
        self.r_last = r_last
        self.partial = partial


class NonFiniteError(StiffnessError):
    """The right-hand side or the error estimate turned non-finite, at the
    start or until the step size underflowed; carries the last good state."""


class InstabilityError(GLLFlowError):
    """Explicit time stepping went unstable; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NonConvergedError(GLLFlowError):
    """Tail-limit self-consistency check failed; increase r_max."""
