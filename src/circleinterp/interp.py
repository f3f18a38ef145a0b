"""The core circle interpolation operator.

Fundamental polynomials l_{j,n-1}(z) = z_j^p W_n(z) / (W_n'(z_j) (z - z_j) z^p)
and the interpolant L(z) = sum_j l_j(z) u_j, evaluated in the first
barycentric (modified Lagrange) form

    L(z) = (W_n(z) / z^p) * sum_j w_j u_j / (z - z_j),  w_j = z_j^p / W_n'(z_j),

which is stable near nodes.  This pair kernel costs O(n) per point after
the O(n^2) setup; W_n(z) is accumulated in log space with one complex log
per run of 16 factors (nodal._log_product).  The second form, which divides
by sum_j w_j / (z - z_j) instead of multiplying by W_n(z), loses digits on
clustered nodes with large Lebesgue constants.

Batches of points on the unit circle mostly skip the kernel.  L lies in a
window of n exponents, so its values at the n samples z_0 e^{2 pi i j/n},
z_0 = nodes[0], fix its Laurent coefficients through one inverse DFT, and
eval_laurent then evaluates them: one FFT on a rotated uniform grid of M
points, at O(M log M), and Horner, at O(n) per point, elsewhere.  When
every sample is a node, as on the roots of z^n = tau, the interpolant is a
rotated trigonometric interpolant and the samples are the node values
themselves (Henrici 1979); otherwise the kernel computes the samples that
are not nodes, which pays off once there are more points than nodes.

Every evaluation goes through _evaluate.  A point within AT_NODE_TOL =
1e-14 of a node takes that node's value; the first form is backward stable
at any distance from a node (Higham 2004), so no wider band is needed.
A fundamental polynomial is the interpolant of a unit vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, ValidationError
from .laurent import (
    DegreePlan,
    LaurentPolynomial,
    _check_count,
    _complex_points,
    _uniform_angles,
    coefficients_from_samples,
    eval_laurent,
)
from .nodal import (
    AT_NODE_TOL,
    UNIMODULAR_TOL,
    NodalSystem,
    _condition_rows,
    _log_product,
    _nearest_nodes,
    _samples,
    _walk_pairs,
)

__all__ = [
    "CircleInterpolant",
    "fundamental_polynomial",
    "interpolate",
    "eval_interpolant",
    "interpolation_error",
]

# Horner pays about 1.5 us of numpy overhead per coefficient; from this many
# points on it beats the pair kernel on FFT coefficients (measured).
HORNER_MIN_POINTS = 64


# a Lebesgue constant above 1/sqrt(eps) ~ 6.7e7 costs at least half the digits
MAX_LEBESGUE = 1.0 / math.sqrt(np.finfo(float).eps)


def _log_lebesgue_at_widest_gap(system: NodalSystem) -> float:
    """log of the Lebesgue function at the midpoint z of the widest gap
    between adjacent nodes.  O(n)."""
    t = np.sort(system.thetas)
    gaps = np.diff(t, append=t[0] + 2.0 * np.pi)
    k = int(np.argmax(gaps))
    z = np.exp(1j * (t[k] + 0.5 * gaps[k]))
    return float(_condition_rows(np.array([z]), system)[2][0])


_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


def _phase_powers(z, p) -> np.ndarray:
    """e^{i p arg z}, which is z^p on the unit circle.  The phase error is
    |p| eps times the size of the angle multiplied, so an exact quarter turn
    first brings arg z into [-pi/4, pi/4]."""
    k = np.rint(np.angle(z) / (0.5 * np.pi)).astype(int)
    reduced = np.angle(z * np.conj(_QUARTER_TURNS[k % 4]))
    return _QUARTER_TURNS[(p * k) % 4] * np.exp(1j * p * reduced)


@dataclass(frozen=True, eq=False)
class CircleInterpolant:
    """The interpolant in the window of plan with the values u_j at the
    nodes of system; its weights follow from these and are formed on first use."""

    system: NodalSystem
    plan: DegreePlan
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.plan.n != self.system.n:
            raise ValidationError(f"plan is for n={self.plan.n} but system has n={self.system.n}")
        values = _complex_points("values", self.values)
        if values.shape != (self.system.n,):
            raise ValidationError(f"need values of shape ({self.system.n},), got {values.shape}")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.system.n

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """w_j = z_j^p / W_n'(z_j), formed the first time a point off the nodes needs them."""
        return _phase_powers(self.system.nodes, self.plan.p) / self.system.derivs

    def __call__(self, z):
        return eval_interpolant(self, z)


def interpolate(system: NodalSystem, plan: DegreePlan, values) -> CircleInterpolant:
    """Set up the unique interpolant in the window [-p, q] with L(z_j) = u_j.

    Raises ConditioningError when the Lebesgue function, sampled at the
    midpoint of the widest node gap, exceeds MAX_LEBESGUE.
    """
    I = CircleInterpolant(system, plan, values)
    log_leb = _log_lebesgue_at_widest_gap(system)
    if log_leb > math.log(MAX_LEBESGUE):
        raise ConditioningError(
            f"the Lebesgue function reaches 1e{log_leb / math.log(10):.1f} at the widest "
            f"node gap, above 1/sqrt(eps) = {MAX_LEBESGUE:.1e}: the interpolant "
            "would lose at least half its digits"
        )
    return I


def fundamental_polynomial(system: NodalSystem, plan: DegreePlan, j: int, z: complex) -> complex:
    """l_{j,n-1}(z) for the 0-based node index j; returns delta_{jk} at a node z_k.

    This is the interpolant of the j-th unit vector, evaluated like any
    other, without the conditioning gate of interpolate()."""
    j = _check_count("node index", j, 0)
    if j >= system.n:
        raise ValidationError(f"node index must be in [0, {system.n}), got {j}")
    unit = np.zeros(system.n, dtype=complex)
    unit[j] = 1.0
    return eval_interpolant(CircleInterpolant(system, plan, unit), z)


def _first_form(system: NodalSystem, p: int, wu: np.ndarray, zz: np.ndarray) -> np.ndarray:
    """W_n(z) z^-p sum_j wu_j / (z - z_j) at points zz off the nodes, in
    blocks of about PAIR_BUDGET point-node pairs, so that large evaluation
    grids never materialize an oversized difference matrix."""
    log_abs = np.log(np.abs(zz))
    phase = _phase_powers(zz, -p)
    nodes = system.nodes
    out = np.empty(len(zz), dtype=complex)

    def block(rows, scratch):
        d, work = scratch
        np.subtract(zz[rows, None], nodes[None, :], out=d)
        log_w = _log_product(d, work)
        inv_d = np.divide(1.0, d, out=d)
        out[rows] = (np.exp(log_w - p * log_abs[rows]) * phase[rows]
                     * np.einsum("ij,j->i", inv_d, wu))

    _walk_pairs(len(zz), len(nodes), (complex, complex), block)
    return out


def _evaluate(I: CircleInterpolant, zz: np.ndarray,
              L: LaurentPolynomial | None = None) -> np.ndarray:
    """I at the points zz; a point within AT_NODE_TOL of a node takes that
    node's value.  The others take eval_laurent(L, zz) when L is given, on
    all of zz so that a uniform grid keeps its FFT and no value depends on
    which other points are nodes, and the first-form kernel otherwise."""
    nearest, dist = _nearest_nodes(I.system, zz)
    at = dist < AT_NODE_TOL
    out = np.empty(len(zz), dtype=complex)
    if not at.all():
        out[~at] = (eval_laurent(L, zz)[~at] if L is not None
                    else _first_form(I.system, I.plan.p, I.weights * I.values, zz[~at]))
    out[at] = I.values[nearest[at]]
    return out


def eval_interpolant(I: CircleInterpolant, z):
    """Evaluate the interpolant at finite z != 0 (scalar or array of any shape).

    For at least HORNER_MIN_POINTS points, all on the unit circle, when
    every sample z_0 e^{2 pi i j/n} is a node (the coefficients then cost
    one FFT) or there are more points than nodes, eval_laurent runs on
    interpolant_coefficients(I): one FFT on a rotated uniform grid, Horner
    elsewhere.  Otherwise the first-form pair kernel runs on the points."""
    zz = _complex_points("z", z)
    shape = zz.shape
    zz = zz.ravel()
    if np.any(zz == 0):
        raise ValidationError("the interpolant is undefined at z = 0")
    finite = np.isfinite(zz)
    if not finite.all():
        raise ValidationError(f"the interpolant needs finite points, got {zz[~finite][0]}")
    L = None
    if len(zz) >= HORNER_MIN_POINTS and np.all(np.abs(np.abs(zz) - 1.0) <= UNIMODULAR_TOL):
        if len(zz) > I.n or I.system._rotation_symmetric:
            L = interpolant_coefficients(I)
    out = _evaluate(I, zz, L)
    return complex(out[0]) if shape == () else out.reshape(shape)


def interpolant_coefficients(I: CircleInterpolant) -> LaurentPolynomial:
    """The interpolant's Laurent coefficients on the window [-p, q].

    L(z_0 w) with w the n-th roots of unity and z_0 = nodes[0] has the
    coefficients c_k z_0^k, so one FFT of its samples at z_0 w, rotated by
    z_0^-k, gives c_k.  A sample at a node is that node's value, and the
    kernel computes the others; on the roots of z^n = tau every sample is
    a node and the cost is the FFT alone.  Rounding of the weights perturbs
    L by a Laurent polynomial in the same window, which the n samples
    recover exactly, so the coefficients are as accurate as the samples."""
    samples = _evaluate(I, _samples(I.system))
    L = coefficients_from_samples(samples, I.plan.p)
    rotate = _phase_powers(I.system.nodes[0], -L.exponents)
    return LaurentPolynomial(p=L.p, q=L.q, coeffs=L.coeffs * rotate)


def interpolation_error(I: CircleInterpolant, F, grid_size: int = 8192) -> float:
    """max over a uniform circle grid of |F(z) - L(z)|.  F takes the points
    z, through F.on_circle where it has one (a corpus function takes angles)."""
    z = np.exp(1j * _uniform_angles(_check_count("grid_size", grid_size, 1)))
    f = getattr(F, "on_circle", F)(z)
    return float(np.max(np.abs(_complex_points("F's values", f) - eval_interpolant(I, z))))
