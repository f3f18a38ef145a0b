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
from .opuc import (MeasureSpec, ParaOrthogonalSpec, paraorthogonal_nodes, szego_transform_weight,
                   verblunsky_coefficients)

__all__ = [
    "IntervalNodalSystem",
    "TrigPolynomial",
    "interval_nodes_from_measure",
    "interval_interpolate",
    "trig_interpolate_symmetric",
    "trig_interpolate_paraorthogonal",
]

_VARIANT_TABLE = {
    # variant -> (node at -1, node at +1).  With real alphas omega_m(z, tau)
    # vanishes at +1 exactly when tau = -1 and at -1 exactly when
    # tau = -(-1)^m, so n interior nodes take m = 2n + minus + plus zeros
    # and tau = -1 when +1 is a node, else 1.
    "mu1": (False, False),
    "mu2": (True, True),
    "mu3": (False, True),
    "mu4": (True, False),
}
VARIANTS = tuple(_VARIANT_TABLE)
_ENDPOINT_IM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class IntervalNodalSystem:
    """The interval nodes x = Re z of a circle system whose zeros are
    conjugate pairs, to 1e-9, plus at most one zero at each of -1 and +1;
    any other set of zeros raises SymmetryError.  The variant, the nodes,
    their angles and the pairing of zeros to nodes are read off the zeros
    once, when the system is built."""

    circle_system: NodalSystem = field(repr=False)
    variant: str = field(init=False)
    has_minus_one: bool = field(init=False, repr=False)
    has_plus_one: bool = field(init=False, repr=False)
    xs: np.ndarray = field(init=False, repr=False)  # interior nodes, increasing
    all_nodes: np.ndarray = field(init=False, repr=False)  # xs and the endpoint nodes
    thetas: np.ndarray = field(init=False, repr=False)  # the angles arccos(all_nodes)
    _index: np.ndarray = field(init=False, repr=False)  # each zero's place in all_nodes

    def __post_init__(self):
        z = self.circle_system.nodes
        # +-2 above and below the real axis, +-1 on it at +-1
        side = np.where(np.abs(z.imag) > _ENDPOINT_IM_TOL, 2 * np.sign(z.imag), np.sign(z.real))
        upper, lower, minus, plus = (np.flatnonzero(side == s) for s in (2.0, -2.0, -1.0, 1.0))
        if len(upper) != len(lower) or len(minus) > 1 or len(plus) > 1:
            raise SymmetryError(f"the circle zeros must be conjugate pairs plus at most one "
                                f"zero at each of -1 and +1; got {len(upper)} above the real axis, "
                                f"{len(lower)} below, {len(minus)} at -1 and {len(plus)} at +1")
        upper, lower = upper[np.argsort(z.real[upper])], lower[np.argsort(z.real[lower])]
        gap = np.max(np.abs(z[upper] - np.conj(z[lower])), initial=0.0)
        if gap > 1e-9:
            raise SymmetryError(f"zeros fail conjugate symmetry by {gap:.3e}")
        n, flags = len(upper), (len(minus) == 1, len(plus) == 1)
        index = np.empty(len(z), dtype=int)
        index[upper] = index[lower] = np.arange(n) + flags[0]
        index[minus], index[plus] = 0, n + flags[0]
        xs = np.clip(z.real[upper], -1.0, 1.0)
        for name, value in dict(
            variant=next(v for v, f in _VARIANT_TABLE.items() if f == flags),
            has_minus_one=flags[0], has_plus_one=flags[1], xs=xs, _index=index,
            all_nodes=np.concatenate([[-1.0] * flags[0], xs, [1.0] * flags[1]]),
            thetas=np.concatenate([[np.pi] * flags[0], np.angle(z[upper]), [0.0] * flags[1]]),
        ).items():
            object.__setattr__(self, name, value)


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


def _szego_zeros(w, m: int, tau: float) -> NodalSystem:
    """The m para-orthogonal zeros, rotation tau, of the Szego transform of
    w: a MeasureSpec as it is, a callable weight on [-1, 1] through
    ``szego_transform_weight``.  The Szego transforms are the measures with
    real Verblunsky coefficients; a nonreal alpha_k raises ValidationError."""
    alphas = verblunsky_coefficients(w if isinstance(w, MeasureSpec) else szego_transform_weight(w), m)
    nonreal = np.flatnonzero(alphas.imag)
    if len(nonreal):
        k = int(nonreal[0])
        raise ValidationError(f"alpha_{k} = {alphas[k]} is not real: w is not an interval weight")
    return paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=m, tau=tau))


def interval_nodes_from_measure(w, n: int, variant: str = "mu1") -> IntervalNodalSystem:
    """Interval nodal system with n interior nodes from the weight w(x): a
    callable, or a MeasureSpec with real Verblunsky coefficients (such as
    ``jacobi_weight`` or ``szego_transform_weight``), through the
    para-orthogonal zeros of its Szego transform at the variant's degree
    and rotation."""
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n = _check_count("the interior node count n", n, 1)
    minus, plus = _VARIANT_TABLE[variant]
    system = IntervalNodalSystem(_szego_zeros(w, 2 * n + minus + plus, -1.0 if plus else 1.0))
    if (system.variant, len(system.xs)) != (variant, n):
        raise SymmetryError(f"variant {variant} with {n} interior nodes expected; the zeros "
                            f"give {system.variant} with {len(system.xs)}")
    return system


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

    Returns a numpy Chebyshev series of degree len(sys.all_nodes) - 1, stable
    to evaluate at high degree (.convert() gives power-basis coefficients).
    The mu1 window (n, n-1) also reaches T_n, whose coefficient is rounding.
    """
    # both zeros of a pair take f at their interval node: their real parts can differ
    x = sys.all_nodes
    values = _real_values("f", f(x), x.shape)[sys._index]
    pos, neg = _folded_fit(sys.circle_system, values)
    d = 0.5 * (pos + neg)
    scale = max(float(np.max(np.abs(values))), 1.0)
    if np.max(np.abs(d.imag)) > 1e-9 * scale:
        raise SymmetryError(
            f"symmetrized coefficients have imaginary residue {np.max(np.abs(d.imag)):.3e}"
        )
    cheb = np.concatenate([[d[0].real], 2.0 * d[1:].real])
    return np.polynomial.chebyshev.Chebyshev(cheb[:len(x)])


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
