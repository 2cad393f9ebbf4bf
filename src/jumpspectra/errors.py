"""Exception taxonomy shared by all modules."""


class JumpSpectraError(Exception):
    """Base class for all package errors."""


class EmptyBasisError(JumpSpectraError):
    """Requested cutoff lies below the first Dirichlet eigenvalue."""


class ResolutionError(JumpSpectraError):
    """Quadrature rule cannot resolve the requested mode cutoff."""


class EvaluationError(JumpSpectraError):
    """An integrand returned a non-finite value at a quadrature node."""


class MassDeficitError(JumpSpectraError):
    """Measure does not integrate to one within tolerance."""


class NegativeDensityError(JumpSpectraError):
    """A density took negative values on the quadrature grid."""


class PoleProximityError(JumpSpectraError):
    """Evaluation point too close to a pole of the secular series."""


class CutoffExceededError(JumpSpectraError):
    """Evaluation point too close to (or beyond) the series cutoff."""


class UndecidableError(JumpSpectraError):
    """Root count cannot be decided at the current cutoff."""


class ResolventDomainError(JumpSpectraError):
    """Requested resolvent point is not certifiably regular."""


class DomainMembershipError(JumpSpectraError):
    """Vector violates the measure-mean membership condition."""


class MeasureError(JumpSpectraError, ValueError):
    """Measure parameters outside their admissible range."""


class UnsupportedMeasureError(JumpSpectraError):
    """Operation requires a measure with a square-integrable density."""


class ConditioningError(JumpSpectraError):
    """Requested point is too close to a Dirichlet eigenvalue."""


class DegenerateEigenfunctionError(JumpSpectraError):
    """Rayleigh-quotient denominator vanished (constant eigenfunction)."""


class GeometryError(JumpSpectraError):
    """Boundary-layer construction incompatible with the domain."""


class RejectionEfficiencyError(JumpSpectraError):
    """Rejection sampler efficiency fell below the configured floor."""


class ConfigError(JumpSpectraError):
    """Experiment configuration failed validation."""


class BesselZeroError(JumpSpectraError):
    """A refined Bessel zero left its bracket, or the zeros do not interlace."""
