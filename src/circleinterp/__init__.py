"""Lagrange interpolation by Laurent polynomials on the unit circle.

Unimodular nodal systems (in particular zeros of para-orthogonal
polynomials), sufficiency-condition diagnostics, and transfers to polynomial
interpolation on [-1, 1] and trigonometric interpolation on [0, 2*pi).
"""

from .errors import (
    CircleInterpError,
    ConditioningError,
    DegeneracyError,
    MeasureValidityError,
    NumericalError,
    QuadratureError,
    RootFindingError,
    SymmetryError,
    ValidationError,
)
from .experiments import (
    CorpusFunction,
    ModulusProfile,
    NodalFamily,
    SweepResult,
    convergence_sweep,
    corpus,
    estimate_modulus,
    near_best_error,
    parse_corpus,
    sweep_to_csv,
    sweep_to_json,
)
from .interp import (
    CircleInterpolant,
    eval_interpolant,
    fundamental_polynomial,
    interpolant_coefficients,
    interpolate,
    interpolation_error,
)
from .laurent import (
    DegreePlan,
    LaurentPolynomial,
    coefficients_from_samples,
    eval_laurent,
    make_degree_plan,
)
from .nodal import (
    NodalConditionReport,
    NodalSystem,
    estimate_conditions,
    make_nodal_system,
    max_workers,
    roots_of_unimodular,
)
from .opuc import (
    MeasureSpec,
    ParaOrthogonalSpec,
    bernstein_szego,
    finite_verblunsky,
    jacobi_weight,
    lebesgue_measure,
    load_measure_spec,
    paraorthogonal_nodes,
    quadrature_weight,
    szego_recurrence,
    szego_transform_weight,
    verblunsky_coefficients,
)
from .transforms import (
    IntervalNodalSystem,
    TrigPolynomial,
    interval_interpolate,
    interval_nodes_from_measure,
    trig_interpolate_paraorthogonal,
    trig_interpolate_symmetric,
)

__version__ = "0.1.0"
