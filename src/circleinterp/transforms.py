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
from .laurent import DegreePlan, LaurentPolynomial, _check_count, eval_laurent
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
    "interval_nodes_csv",
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


@dataclass(frozen=True)
class IntervalNodalSystem:
    """Interior interval nodes plus the conjugate-closed circle system they
    came from; endpoints +-1 enter only through the variant's flags."""

    xs: np.ndarray = field(repr=False)  # interior nodes, strictly increasing
    circle_system: NodalSystem = field(repr=False)
    variant: str = "mu1"

    @property
    def has_minus_one(self) -> bool:
        return _VARIANT_TABLE[self.variant][2]

    @property
    def has_plus_one(self) -> bool:
        return _VARIANT_TABLE[self.variant][3]

    @property
    def all_nodes(self) -> np.ndarray:
        """Interior nodes and flagged endpoints, increasing."""
        parts = []
        if self.has_minus_one:
            parts.append([-1.0])
        parts.append(self.xs)
        if self.has_plus_one:
            parts.append([1.0])
        return np.concatenate(parts)


@dataclass(frozen=True)
class TrigPolynomial:
    """a_0 + sum_k (a_k cos k theta + b_k sin k theta), all real."""

    a: np.ndarray = field(repr=False)  # a[0..m]
    b: np.ndarray = field(repr=False)  # b[k-1] multiplies sin(k theta)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
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
        out = eval_laurent(L, np.exp(1j * np.asarray(theta, dtype=float)))
        return out.real


def szego_transform_weight(w, label: str = "szego-transform") -> MeasureSpec:
    """Circle weight theta -> (1/2) w(cos theta) |sin theta| of an interval
    weight w on [-1, 1], as an "interval-weight" measure: the weight is even,
    so its moments are real and need only the half circle."""

    def circle_w(theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * np.asarray(w(np.cos(theta)), dtype=float) * np.abs(np.sin(theta))

    return MeasureSpec(kind="interval-weight", weight=circle_w, label=label)


def _classify_zeros(nodes: np.ndarray):
    upper = nodes[nodes.imag > _ENDPOINT_IM_TOL]
    lower = nodes[nodes.imag < -_ENDPOINT_IM_TOL]
    real = nodes[np.abs(nodes.imag) <= _ENDPOINT_IM_TOL]
    return upper, lower, real


def interval_nodes_from_measure(w, n: int, variant: str = "mu1") -> IntervalNodalSystem:
    """Interval nodal system with n interior nodes from the weight w(x).

    Takes the Verblunsky coefficients of the transformed measure, the
    para-orthogonal zeros of the variant's degree/rotation, and projects
    the upper-half-circle zeros to their real parts.
    """
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n = _check_count("the interior node count n", n, 1)
    degree_of, tau, want_minus, want_plus = _VARIANT_TABLE[variant]
    m = degree_of(n)
    alphas = verblunsky_coefficients(szego_transform_weight(w), m)
    system = paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=m, tau=tau))
    upper, lower, real = _classify_zeros(system.nodes)
    if len(upper) != len(lower):
        raise SymmetryError("zeros are not conjugate-symmetric: half-plane counts differ")
    up = upper[np.argsort(upper.real)]
    low = np.conj(lower[np.argsort(lower.real)])
    if len(up) and np.max(np.abs(up - low)) > 1e-9:
        raise SymmetryError(
            f"zeros fail conjugate symmetry by {np.max(np.abs(up - low)):.3e}"
        )
    got_minus = bool(np.any(real.real < 0))
    got_plus = bool(np.any(real.real > 0))
    if got_minus != want_minus or got_plus != want_plus or len(upper) != n:
        raise SymmetryError(
            f"variant {variant} expected {n} conjugate pairs with endpoints "
            f"(-1: {want_minus}, +1: {want_plus}); zeros disagree"
        )
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
    values = np.asarray(f(np.clip(system.nodes.real, -1.0, 1.0)), dtype=complex)
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
    """The 2n angles of the mu1 circle system of the weight w, increasing:
    theta_j = arccos x_j in (0, pi) for the interval nodes x_j and their
    mirror images 2 pi - theta_j."""
    sys = interval_nodes_from_measure(w, n, "mu1")
    return np.sort(sys.circle_system.thetas)


def _trig_fit(system: NodalSystem, f) -> TrigPolynomial:
    """The real part of the circle interpolant of f at the node angles:
    a_0 = Re c_0, a_k = Re(c_k + c_{-k}), b_k = -Im(c_k - c_{-k})."""
    pos, neg = _folded_fit(system, np.asarray(f(system.thetas), dtype=float))
    a = (pos + neg).real
    a[0] = pos[0].real
    return TrigPolynomial(a=a, b=-(pos - neg)[1:].imag)


def trig_interpolate_symmetric(w, n: int, f) -> TrigPolynomial:
    """Trig polynomial of degree <= n matching f at the 2n symmetric angles
    derived from the mu1 interval nodes of the weight w; the circle
    system's nodes are exactly e^{i theta_j} for those angles."""
    return _trig_fit(interval_nodes_from_measure(w, n, "mu1").circle_system, f)


def trig_interpolate_paraorthogonal(alphas, tau: complex, n: int, f) -> TrigPolynomial:
    """Trig polynomial of degree <= floor(n/2) matching f at the angles of the
    n para-orthogonal zeros of the Verblunsky coefficients alphas (the first
    n are used); the window is (n/2, n/2-1) for even n and ((n-1)/2, (n-1)/2)
    for odd n."""
    return _trig_fit(paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=n, tau=tau)), f)


def interval_nodes_csv(sys: IntervalNodalSystem) -> str:
    """CSV export with columns (j, x_j, theta_j, endpoint_flag)."""
    lines = ["j,x_j,theta_j,endpoint_flag"]
    xs = sys.all_nodes
    for j, x in enumerate(xs):
        x = float(x)
        flag = int((x == -1.0 and sys.has_minus_one) or (x == 1.0 and sys.has_plus_one))
        lines.append(f"{j},{x!r},{math.acos(max(-1.0, min(1.0, x)))!r},{flag}")
    return "\n".join(lines) + "\n"
