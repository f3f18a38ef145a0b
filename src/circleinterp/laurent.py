"""Laurent polynomials on the punctured plane and degree planning.

A Laurent polynomial here lives in the span of z^k for -p <= k <= q, stored
as a dense coefficient vector indexed by exponent.  The degree plan splits
n interpolation conditions into (p, q) with p + q = n - 1 according to a
target ratio r; n and s = min(p, q) follow from p and q.

Evaluation recognises a rotated uniform circle grid z_0 e^{2 pi i j/M}
from the points alone and takes one inverse FFT of length M there, at
O(M log M) for any number of coefficients; other points take Horner, at
O(1) per point and coefficient.  _uniform_angles builds the angles of the
unrotated grid for the whole library.
"""

from __future__ import annotations

import math
import numbers
import operator
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# A point set counts as a rotated uniform grid when every point lies within
# _GRID_TOL of it.  exp(2j pi (j + s) / M) leaves up to 8.6 eps at angles
# below 2 pi and 15.4 eps at angles up to 4 pi (measured, M <= 70000); the
# FFT's backward error in z is at most _GRID_TOL, below the 1e-14 within
# which an interpolant already takes a node's value.
_GRID_TOL = 32 * np.finfo(float).eps

__all__ = [
    "LaurentPolynomial",
    "DegreePlan",
    "make_degree_plan",
    "eval_laurent",
    "coefficients_from_samples",
]


@dataclass(frozen=True)
class DegreePlan:
    """The window [-p, q] for n = p + q + 1 nodes."""

    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "p", _check_count("p", self.p, 0))
        object.__setattr__(self, "q", _check_count("q", self.q, 0))

    @property
    def n(self) -> int:
        return self.p + self.q + 1

    @property
    def s(self) -> int:
        return min(self.p, self.q)


def _check_count(name: str, value, minimum: int) -> int:
    """value as a Python int, when it is a Python or numpy integer of at
    least minimum; ValidationError otherwise, also for a bool or an
    integral float."""
    try:
        if isinstance(value, bool):
            raise TypeError
        k = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if k < minimum:
        bound = "nonnegative" if minimum == 0 else f">= {minimum}"
        raise ValidationError(f"{name} must be {bound}, got {k}")
    return k


def _real_values(what: str, values, shape: tuple) -> np.ndarray:
    """values, real numbers one per point or one for all, as a float array."""
    v = np.asarray(values)
    if v.dtype.kind not in "biuf" or v.shape not in ((), shape):
        raise ValidationError(f"{what} must return one real number per point, got {v.dtype} "
                              f"values of shape {v.shape} for points of shape {shape}")
    return np.full(shape, v, dtype=float) if v.ndim == 0 else v.astype(float, copy=False)


def _real_points(what: str, x) -> np.ndarray:
    """x as a float array, refusing anything but real numbers: a cast drops
    the imaginary part of complex x, stores None as NaN and raises a bare
    ValueError on a string."""
    return _numbers(what, x, "biuf", "real numbers").astype(float, copy=False)


def _complex_points(what: str, x) -> np.ndarray:
    """x as a complex array, refusing anything but numbers (see _real_points)."""
    return _numbers(what, x, "biufc", "numbers").astype(complex, copy=False)


def _numbers(what: str, x, kinds: str, noun: str) -> np.ndarray:
    try:
        v = np.asarray(x)
    except ValueError:  # a ragged nesting
        v = None
    if v is None or v.dtype.kind not in kinds:
        raise ValidationError(f"{what} must be {noun}, got {reprlib.repr(x)}")
    return v


def _check_ratio(r: float) -> None:
    if isinstance(r, bool) or not isinstance(r, numbers.Real) or not (0.0 < r < 1.0):
        raise ValidationError(f"ratio r must be a number in (0, 1), got {r!r}")


def make_degree_plan(n: int, r: float) -> DegreePlan:
    """Build the plan with p = floor(r*(n-1)), q = n-1-p.

    Requires n >= 2 and 0 < r < 1.  The floor rounding is deterministic and
    monotone in n, and |p/(n-1) - r| <= 1/(n-1).
    """
    n = _check_count("the node count of a degree plan", n, 2)
    _check_ratio(r)
    p = math.floor(r * (n - 1))
    return DegreePlan(p=p, q=n - 1 - p)


@dataclass(frozen=True, eq=False)
class LaurentPolynomial:
    """Element of span{z^k : -p <= k <= q}.

    coeffs has length p + q + 1; coeffs[i] multiplies z^(i - p).
    """

    p: int
    q: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "p", _check_count("p", self.p, 0))
        object.__setattr__(self, "q", _check_count("q", self.q, 0))
        c = _complex_points("coeffs", self.coeffs)
        if c.ndim != 1 or len(c) != self.p + self.q + 1:
            raise ValidationError(
                f"coefficient vector must have length p+q+1={self.p + self.q + 1}, got {len(c)}"
            )
        object.__setattr__(self, "coeffs", c)

    def coefficient(self, k: int) -> complex:
        """Coefficient of z^k (zero outside the window)."""
        if -self.p <= k <= self.q:
            return complex(self.coeffs[k + self.p])
        return 0.0 + 0.0j

    @property
    def exponents(self) -> np.ndarray:
        return np.arange(-self.p, self.q + 1)

    def __call__(self, z):
        return eval_laurent(self, z)


def _uniform_angles(M: int) -> np.ndarray:
    """The angles 2 pi j / M, j = 0..M-1, of the uniform circle grid."""
    return 2.0 * np.pi * np.arange(M) / M


def _grid_rotation(z: np.ndarray):
    """(j0, a) when the points are the rotated uniform grid
    z_j = e^{ia} e^{2 pi i (j - j0)/M}, each within _GRID_TOL, with z_{j0}
    the point nearest 1 and a = arg z_{j0}, so |a| <= pi/M; else None.
    The first two points reject most other inputs before the reference
    grid is built."""
    if z.ndim != 1 or len(z) < 2:
        return None
    M = len(z)
    step = 2.0 * np.pi / M
    # written as "not <=" so that a NaN point rejects the grid
    if not (abs(z[1] - z[0] * np.exp(1j * step)) <= 2 * _GRID_TOL
            and abs(abs(z[0]) - 1.0) <= _GRID_TOL):
        return None
    j0 = int(round(-np.angle(z[0]) / step)) % M
    a = float(np.angle(z[j0]))
    # signed offsets from j0 keep the reference angles within [-pi, pi]
    k = np.roll(np.arange(M), j0)
    k[k > M // 2] -= M
    t = a + step * k
    if not np.max((z.real - np.cos(t)) ** 2 + (z.imag - np.sin(t)) ** 2) <= _GRID_TOL**2:
        return None
    return j0, a


def _fft_on_grid(L: LaurentPolynomial, M: int, j0: int, a: float) -> np.ndarray:
    """L at e^{ia} e^{2 pi i (j - j0)/M}, j = 0..M-1: with w the M-th
    roots of unity, L(e^{ia} w^m) = sum_k c_k e^{ika} w^{mk}, one inverse
    DFT of the c_k e^{ika} folded to index k mod M.  The fold starts at
    offset -p mod M, so no shift is needed."""
    c = L.coeffs
    if a != 0.0:
        c = c * np.exp(1j * a * L.exponents)
    start = -L.p % M
    folded = np.zeros(-(-(start + len(c)) // M) * M, dtype=complex)
    folded[start:start + len(c)] = c
    values = np.fft.ifft(folded.reshape(-1, M).sum(axis=0), norm="forward")
    return np.roll(values, j0)


def _horner(L: LaurentPolynomial, z: np.ndarray) -> np.ndarray:
    """The nonnegative-exponent part by Horner in z and the negative part
    by Horner in 1/z, so no power larger than needed is ever formed."""
    pos = L.coeffs[L.p:]  # a_k z^k for k = 0..q
    acc = np.full_like(z, pos[-1])
    # in place: the same roundings as acc = acc * z + c, without two
    # temporaries per coefficient
    for c in pos[-2::-1]:
        acc *= z
        acc += c
    if L.p > 0:
        # c_{-1} u + c_{-2} u^2 + ... with u = 1/z
        u = 1.0 / z
        neg = L.coeffs[:L.p]  # exponents -p..-1
        nacc = np.full_like(z, neg[0])
        for c in neg[1:]:
            nacc *= u
            nacc += c
        acc = acc + nacc * u
    return acc


def eval_laurent(L: LaurentPolynomial, z):
    """Evaluate L at z != 0 (scalar or array).

    On a rotated uniform grid, a one-dimensional array of M >= 2 points
    z_j = e^{ia} e^{2 pi i (j - j0)/M} in order, each within _GRID_TOL
    (32 eps), one inverse FFT of length M returns L at those ideal points
    (see _grid_rotation, _fft_on_grid).  Any other input runs Horner.
    """
    z = _complex_points("z", z)
    if np.any(z == 0):
        raise ValidationError("Laurent polynomials are undefined at z = 0")
    grid = _grid_rotation(z)
    if grid is not None:
        return _fft_on_grid(L, len(z), *grid)
    acc = _horner(L, z)
    return complex(acc) if acc.ndim == 0 else acc


def coefficients_from_samples(samples, p: int) -> LaurentPolynomial:
    """Recover the unique L in the window [-p, m-1-p] from m values at the
    m-th roots of unity e^{2*pi*i*j/m}, j = 0..m-1.

    z^p * L(z) is an ordinary polynomial of degree <= m-1, so its
    coefficients follow from one discrete Fourier inversion of the samples.
    The inversion gives the coefficient of z^k at index k mod m, so an
    exact cyclic shift by p puts it at k + p.
    """
    samples = _complex_points("samples", samples)
    if samples.ndim != 1 or len(samples) < 1:
        raise ValidationError("need a one-dimensional, nonempty sample vector")
    m, p = len(samples), _check_count("p", p, 0)
    if not (0 <= p <= m - 1):
        raise ValidationError(f"p must satisfy 0 <= p <= m-1={m - 1}, got {p}")
    # (1/m) sum_j samples_j z_j^{-k} is the forward FFT / m
    g = np.roll(np.fft.fft(samples) / m, p)
    return LaurentPolynomial(p=p, q=m - 1 - p, coeffs=g)
