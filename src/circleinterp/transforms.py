"""Transfers between circle, interval, and trigonometric interpolation.

The Joukowski map x = (z + 1/z)/2 carries the unit circle two-to-one onto
[-1, 1].  An interval weight w(x) transforms to the circle weight
(1/2) w(cos theta) |sin theta|; the zeros of the associated para-orthogonal
polynomials project to classical interval node families:

    mu1 variant: omega_{2n}(z, +1)   -> n interior nodes,
    mu2 variant: omega_{2n+2}(z, -1) -> n interior nodes plus both endpoints,
    mu3 variant: omega_{2n+1}(z, -1) -> n interior nodes plus +1,
    mu4 variant: omega_{2n+1}(z, +1) -> n interior nodes plus -1.

Trigonometric interpolants arise as the real part of a circle interpolant
with a parity-matched exponent window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SymmetryError, ValidationError
from .interp import interpolant_coefficients, interpolate
from .laurent import (DegreePlan, LaurentPolynomial, _check_count, _real_points, _real_values,
                      eval_laurent)
from .nodal import NodalSystem
from .opuc import MeasureSpec, ParaOrthogonalSpec, paraorthogonal_nodes, verblunsky_coefficients

__all__ = [
    "IntervalNodalSystem",
    "TrigPolynomial",
    "szego_transform_weight",
    "interval_nodes_from_measure",
    "interval_interpolate",
    "trig_nodes_symmetric",
    "trig_interpolate_symmetric",
    "trig_interpolate_paraorthogonal",
]

_VARIANT_TABLE = {
    # variant -> (degree for n interior nodes, tau, minus-one flag, plus-one flag)
    "mu1": (lambda n: 2 * n, 1.0, False, False),
    "mu2": (lambda n: 2 * n + 2, -1.0, True, True),
    "mu3": (lambda n: 2 * n + 1, -1.0, False, True),
    "mu4": (lambda n: 2 * n + 1, 1.0, True, False),
}
VARIANTS = tuple(_VARIANT_TABLE)
_ENDPOINT_IM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class IntervalNodalSystem:
    """Interior interval nodes plus the conjugate-closed circle system they
    came from; endpoints +-1 enter only through the variant's flags."""

    xs: np.ndarray = field(repr=False)  # interior nodes, strictly increasing
    circle_system: NodalSystem = field(repr=False)
    variant: str = "mu1"

    def __post_init__(self):
        if not np.all(np.diff(self.xs) > 0):  # interval_interpolate searches them
            raise ValidationError("the interior nodes xs must be strictly increasing")

    @property
    def has_minus_one(self) -> bool:
        return _VARIANT_TABLE[self.variant][2]

    @property
    def has_plus_one(self) -> bool:
        return _VARIANT_TABLE[self.variant][3]

    @property
    def all_nodes(self) -> np.ndarray:
        """Interior nodes and flagged endpoints, increasing."""
        minus = [-1.0] if self.has_minus_one else []
        plus = [1.0] if self.has_plus_one else []
        return np.concatenate([minus, self.xs, plus])


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """a_0 + sum_k (a_k cos k theta + b_k sin k theta), all real."""

    a: np.ndarray = field(repr=False)  # a[0..m]
    b: np.ndarray = field(repr=False)  # b[k-1] multiplies sin(k theta)

    def __post_init__(self):
        a, b = _real_points("a", self.a), _real_points("b", self.b)
        if len(b) != len(a) - 1:
            raise ValidationError(f"need len(b) == len(a)-1, got {len(b)} and {len(a)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def degree(self) -> int:
        return len(self.a) - 1

    def __call__(self, theta):
        """a_0 + Re sum_k (a_k - i b_k) e^{i k theta}, through eval_laurent at
        e^{i theta}: one FFT on uniform theta, Horner otherwise."""
        L = LaurentPolynomial(p=0, q=self.degree,
                              coeffs=np.concatenate([self.a[:1], self.a[1:] - 1j * self.b]))
        out = eval_laurent(L, np.exp(1j * _real_points("theta", theta)))
        return out.real


def szego_transform_weight(w) -> MeasureSpec:
    """Circle weight theta -> (1/2) w(cos theta) |sin theta| of an interval
    weight w on [-1, 1], as an "interval-weight" measure: the weight is even,
    so its moments are real and need only the half circle."""

    def circle_w(theta):
        theta = np.asarray(theta, dtype=float)
        wx = _real_values("interval weight", w(np.cos(theta)), theta.shape)
        return 0.5 * wx * np.abs(np.sin(theta))

    return MeasureSpec(kind="interval-weight", weight=circle_w, label="szego-transform")


def _szego_zeros(w, m: int, tau: float) -> NodalSystem:
    """The m para-orthogonal zeros, rotation tau, of the Szego transform of
    w: a "jacobi" or "interval-weight" MeasureSpec as it is (the former
    takes its alphas in closed form), a callable weight on [-1, 1] through
    ``szego_transform_weight`` and its moment quadrature."""
    if isinstance(w, MeasureSpec):
        if w.kind not in ("jacobi", "interval-weight"):
            raise ValidationError(f"an interval weight spec must be of kind 'jacobi' or "
                                  f"'interval-weight', got {w.kind!r}")
        spec = w
    elif callable(w):
        spec = szego_transform_weight(w)
    else:
        raise ValidationError(f"the interval weight must be a callable or a MeasureSpec, "
                              f"got {type(w).__name__}")
    alphas = verblunsky_coefficients(spec, m)
    return paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=m, tau=tau))


def interval_nodes_from_measure(w, n: int, variant: str = "mu1") -> IntervalNodalSystem:
    """Interval nodal system with n interior nodes from the weight w(x): a
    callable, or a "jacobi" (``jacobi_weight``) or "interval-weight"
    (``szego_transform_weight``) MeasureSpec.

    Takes the Verblunsky coefficients of the transformed measure, the
    para-orthogonal zeros of the variant's degree/rotation, and projects
    the upper-half-circle zeros to their real parts.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n = _check_count("the interior node count n", n, 1)
    degree_of, tau, want_minus, want_plus = _VARIANT_TABLE[variant]
    system = _szego_zeros(w, degree_of(n), tau)
    z = system.nodes
    half = np.where(np.abs(z.imag) > _ENDPOINT_IM_TOL, np.sign(z.imag), 0.0)
    upper, lower, real = z[half > 0], z[half < 0], z[half == 0].real
    if (len(upper), len(lower), any(real < 0), any(real > 0)) != (n, n, want_minus, want_plus):
        raise SymmetryError(
            f"variant {variant} expected {n} conjugate pairs with endpoints "
            f"(-1: {want_minus}, +1: {want_plus}); got {len(upper)} zeros above the real "
            f"axis, {len(lower)} below and {len(real)} on it"
        )
    up = upper[np.argsort(upper.real)]
    gap = np.max(np.abs(up - np.conj(lower[np.argsort(lower.real)])))
    if gap > 1e-9:
        raise SymmetryError(f"zeros fail conjugate symmetry by {gap:.3e}")
    xs = np.sort(np.clip(up.real, -1.0, 1.0))
    return IntervalNodalSystem(xs=xs, circle_system=system, variant=variant)


def _folded_fit(system: NodalSystem, values):
    """c_k and c_{-k}, k = 0..K, of the interpolant of values at the m
    nodes in the window (K, m-1-K), K = ceil((m-1)/2): 2n nodes take
    (n, n-1), 2n+2 nodes (n+1, n) and 2n+1 nodes (n, n)."""
    K = math.ceil((system.n - 1) / 2)
    L = interpolant_coefficients(interpolate(system, DegreePlan(p=K, q=system.n - 1 - K), values))
    c = np.zeros(2 * K + 1, dtype=complex)
    c[:len(L.coeffs)] = L.coeffs
    return c[K:], c[K::-1]


def interval_interpolate(sys: IntervalNodalSystem, f):
    """Polynomial interpolant of f at the interval nodes via the circle lift.

    Lifts f to F(z) = f((z + 1/z)/2), interpolates F on the conjugate-closed
    circle system, and symmetrizes (L(z) + L(1/z))/2, which collapses to a
    real algebraic polynomial in x through z^k + z^-k = 2 T_k(x).

    Returns a numpy Chebyshev series (stable to evaluate at high degree;
    call .convert() for power-basis coefficients when the degree is modest).
    """
    system = sys.circle_system
    # each circle node takes f at its nearest interval node: the two real parts of a pair can differ
    x = sys.all_nodes
    fx = _real_values("f", f(x), x.shape)
    values = fx[np.searchsorted(0.5 * (x[1:] + x[:-1]), system.nodes.real)]
    pos, neg = _folded_fit(system, values)
    d = 0.5 * (pos + neg)
    scale = max(float(np.max(np.abs(values))), 1.0)
    if np.max(np.abs(d.imag)) > 1e-9 * scale:
        raise SymmetryError(
            f"symmetrized coefficients have imaginary residue {np.max(np.abs(d.imag)):.3e}"
        )
    cheb = np.concatenate([[d[0].real], 2.0 * d[1:].real])
    return np.polynomial.chebyshev.Chebyshev(cheb)


def trig_nodes_symmetric(w, n: int) -> np.ndarray:
    """The 2n angles of the mu1 circle system of the weight w (as
    ``interval_nodes_from_measure`` takes it), increasing: theta_j =
    arccos x_j in (0, pi) for the interval nodes x_j and their mirror
    images 2 pi - theta_j."""
    n = _check_count("the interior node count n", n, 1)
    return np.sort(_szego_zeros(w, 2 * n, 1.0).thetas)


def _trig_fit(system: NodalSystem, f) -> TrigPolynomial:
    """The real part of the circle interpolant of f at the node angles:
    a_0 = Re c_0, a_k = Re(c_k + c_{-k}), b_k = -Im(c_k - c_{-k})."""
    pos, neg = _folded_fit(system, _real_values("f", f(system.thetas), (system.n,)))
    a = (pos + neg).real
    a[0] = pos[0].real
    return TrigPolynomial(a=a, b=-(pos - neg)[1:].imag)


def trig_interpolate_symmetric(w, n: int, f) -> TrigPolynomial:
    """Trig polynomial of degree <= n matching f at the 2n symmetric angles
    of the weight w (as ``interval_nodes_from_measure`` takes it): the
    para-orthogonal fit of its Szego transform at 2n nodes with tau = 1."""
    n = _check_count("the interior node count n", n, 1)
    return _trig_fit(_szego_zeros(w, 2 * n, 1.0), f)


def trig_interpolate_paraorthogonal(alphas, tau: complex, n: int, f) -> TrigPolynomial:
    """Trig polynomial of degree <= floor(n/2) matching f at the angles of the
    n para-orthogonal zeros of the Verblunsky coefficients alphas (the first
    n are used); the window is (n/2, n/2-1) for even n and ((n-1)/2, (n-1)/2)
    for odd n."""
    return _trig_fit(paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=n, tau=tau)), f)
