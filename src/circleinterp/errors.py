"""Exception hierarchy.

Validation errors mean the inputs violate a contract; numerical errors mean
an iterative or algebraic procedure failed on admissible inputs.
"""


class CircleInterpError(Exception):
    """Base class for all library errors."""


class ValidationError(CircleInterpError, ValueError):
    """Invalid argument or malformed input data."""


class NumericalError(CircleInterpError):
    """A numerical procedure failed (quadrature, root-finding, ...)."""


class QuadratureError(NumericalError):
    """Moment quadrature did not converge within the point-count budget.

    Raised past opuc.MAX_QUADRATURE_POINTS points, or as soon as the
    differences between doubling levels follow a power law of the point
    count (an endpoint or kink singularity of the weight) that cannot reach
    tol by then; that message names the observed order, the points reached
    and about how many points tol needs."""


class RootFindingError(NumericalError):
    """An iterative zero finder did not converge."""


class MeasureValidityError(NumericalError):
    """Recovered recurrence coefficients are inconsistent with a valid measure."""


class DegeneracyError(NumericalError):
    """Nodes or zeros collide beyond the resolvable tolerance."""


class ConditioningError(NumericalError):
    """The problem is too ill-conditioned for a result with half the digits."""


class SymmetryError(NumericalError):
    """Conjugate symmetry expected of an interval lift was violated."""
