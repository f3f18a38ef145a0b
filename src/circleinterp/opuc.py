"""Orthogonal polynomials on the unit circle and para-orthogonal nodal systems.

Monic orthogonal polynomials are generated from Verblunsky coefficients by
the recurrence

    phi_{k+1}(z) = z phi_k(z) - conj(alpha_k) phi_k*(z),

where phi* is the conjugated coefficient reversal.  This convention is fixed
here once; moment-driven recovery is validated by numeric orthogonality, not
by a sign convention.  Para-orthogonal polynomials omega_n(z, tau) =
phi_n + tau phi_n* (|tau| = 1) have n simple unimodular zeros, which serve
as interpolation nodal systems.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    MeasureValidityError,
    QuadratureError,
    RootFindingError,
    ValidationError,
)
from .laurent import _check_count, _real_values
from .nodal import DISTINCT_TOL, NodalSystem, _check_unimodular, make_nodal_system

__all__ = [
    "MeasureSpec",
    "ParaOrthogonalSpec",
    "lebesgue_measure",
    "finite_verblunsky",
    "quadrature_weight",
    "bernstein_szego",
    "load_measure_spec",
    "szego_recurrence",
    "verblunsky_coefficients",
    "paraorthogonal_nodes",
]

ALPHA_LIMIT = 1.0 - 1e-8  # beyond this the analytic-extension hypothesis is implausible
_TWO_PI = 2.0 * np.pi
# radians, ~2 ulps of 2 pi.  Near a steep phase jump a Newton step
# underestimates the distance to the zero: a 1e-13 stop left such zeros 5e-13
# off at |alpha| = 0.95, n = 64.
_NEWTON_TOL = 2e-15
_NEWTON_MAX_STEPS = 100
# a bracketing cell that holds several zeros is cut into this many parts
_SUBDIVISIONS = 8
# a Newton pass spends up to this many points on its last few zeros
_TAIL_POINTS = 256
# _phase_steps closes a group of nonzero alphas after _GROUP_ROWS steps, or
# before sum -log(1 - |alpha_k|) passes _GROUP_DECAY: |q| then stays within
# e^{+-300} and |q|^2 within double range.  A group is cut into segments
# whose arcsin|alpha_k| add up to less than _PRINCIPAL_TURN < pi, and each
# segment takes its winding from one principal arg.  The q rows of one
# block of points hold about _PHASE_BUDGET complex numbers (16 MB).
_GROUP_ROWS = 64
_GROUP_DECAY = 300.0
_PRINCIPAL_TURN = 3.0
_PHASE_BUDGET = 1 << 20
# moment quadrature converges when two levels differ by less than tol =
# _QUADRATURE_TOL times the mass.  It gives up beyond MAX_QUADRATURE_POINTS,
# or sooner when its relative differences d_i follow a power law that misses
# tol at the cap: the last _ORDER_RUN observed orders log2(d_{i-1} / d_i) lie
# within _ORDER_SPREAD of each other and above _MIN_ORDER, and the latest
# d_i, extrapolated to the cap at the latest order plus _ORDER_SPREAD, stays
# above _MISS_FACTOR tol.  The margins keep an order still creeping up, or
# rounding in the last levels, from declining a weight that converges.
# Spectral convergence doubles its order per level and never qualifies.
_QUADRATURE_TOL = 1e-12
MAX_QUADRATURE_POINTS = 2**20
_ORDER_RUN = 3
_ORDER_SPREAD = 0.1
_MIN_ORDER = 0.5
_MISS_FACTOR = 2.0


@dataclass(frozen=True)
class MeasureSpec:
    """A measure on [0, 2*pi): a finite Verblunsky sequence (Lebesgue measure
    has none, a Bernstein-Szego weight m), or a quadrature-computable
    nonnegative weight function of theta (an interval weight is the Szego
    transform of a weight on [-1, 1], with w(2 pi - theta) = w(theta))."""

    kind: str  # "finite-verblunsky" | "quadrature-weight" | "interval-weight"
    alphas: tuple = ()
    weight: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""


def lebesgue_measure() -> MeasureSpec:
    return MeasureSpec(kind="finite-verblunsky", label="lebesgue")


def finite_verblunsky(alphas: Sequence[complex]) -> MeasureSpec:
    # without a length, szego_recurrence names what alphas is instead
    checked = szego_recurrence(alphas, len(alphas) if hasattr(alphas, "__len__") else 0)
    return MeasureSpec(kind="finite-verblunsky", alphas=tuple(checked.tolist()), label="verblunsky")


def quadrature_weight(w: Callable, label: str = "quadrature") -> MeasureSpec:
    return MeasureSpec(kind="quadrature-weight", weight=w, label=label)


def bernstein_szego(h_coeffs: Sequence[complex]) -> MeasureSpec:
    """The weight 1/|h(e^{i theta})|^2 of a polynomial h (ascending
    coefficients) of degree m, as its m nonzero Verblunsky coefficients, read
    off phi_m* = h / h(0) by the inverse Szego (Schur-Cohn) recursion:
    alpha_k = -conj(phi_{k+1}(0)), phi_k* = (phi_{k+1}* + alpha_k phi_{k+1}) / (1 - |alpha_k|^2).
    An h with a zero in the closed disk (some |alpha_k| >= 1), not finite,
    zero or with h(0) = 0 raises ValidationError."""
    h = np.asarray(list(h_coeffs), dtype=complex)
    if h.ndim != 1 or not np.all(np.isfinite(h)) or not np.any(h) or h[0] == 0:
        raise ValidationError(f"h must be finite, nonzero and h(0) != 0, got {reprlib.repr(h_coeffs)}")
    star = np.trim_zeros(h / h[0], "b")
    alphas = np.zeros(len(star) - 1, dtype=complex)
    for k in reversed(range(len(alphas))):
        a = alphas[k] = -star[-1]
        if not abs(a) < 1.0:
            raise ValidationError(f"h has a zero in the closed unit disk (|alpha_{k}| = {abs(a)})")
        star = ((star + a * np.conj(star[::-1])) / (1.0 - abs(a) ** 2))[:-1]
    return MeasureSpec(kind="finite-verblunsky", alphas=tuple(alphas.tolist()), label="bernstein-szego")


def load_measure_spec(path) -> MeasureSpec:
    """Read a measure spec JSON file.

    Schema: {"kind": "lebesgue" | "verblunsky" | "bernstein-szego",
             "alphas": [[re, im], ...], "h_coeffs": [[re, im], ...]}.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValidationError("expected a JSON object")
        kind = data.get("kind")
        if kind == "lebesgue":
            return lebesgue_measure()
        if kind == "verblunsky":
            return finite_verblunsky([complex(re, im) for re, im in data.get("alphas", [])])
        if kind == "bernstein-szego":
            return bernstein_szego([complex(re, im) for re, im in data.get("h_coeffs", [])])
        raise ValidationError(f"unknown measure kind {kind!r}")
    except (OSError, ValueError, TypeError) as exc:
        raise ValidationError(f"measure file {path}: {exc}") from exc


def szego_recurrence(alphas: Sequence[complex], N: int) -> np.ndarray:
    """alpha_0..alpha_{N-1}, which fix the monic OPUC through degree N, as
    a complex copy, after checking that alphas is a 1-D sequence of
    numbers, that there are N of them and that each has |alpha_k| < 1."""
    try:
        a = np.asarray(alphas)
    except ValueError:  # a ragged nesting
        a = None
    if a is None or a.ndim != 1 or a.dtype.kind not in "iufc":
        raise ValidationError(f"Verblunsky coefficients must be a 1-D sequence of numbers, "
                              f"got {reprlib.repr(alphas)}")
    N = _check_count("N", N, 0)
    if len(a) < N:
        raise ValidationError(f"need {N} Verblunsky coefficients, got {len(a)}")
    a = a[:N].astype(complex)
    bad = np.nonzero(~(np.abs(a) < 1.0))[0]  # a NaN alpha fails too
    if len(bad):
        k = int(bad[0])
        raise ValidationError(f"|alpha_{k}| must be < 1, got {abs(a[k])}")
    return a


def _weight_values(w, theta: np.ndarray) -> np.ndarray:
    vals = _real_values("measure weight", w(theta), theta.shape)
    top = np.max(np.abs(vals))  # NaN or inf when some value is
    if not math.isfinite(top) or np.any(vals < -1e-12 * max(1.0, top)):
        raise ValidationError("measure weight must be finite and nonnegative on [0, 2*pi)")
    return vals


def _real_dft(vals: np.ndarray, k: np.ndarray) -> np.ndarray:
    """F_k = sum_j vals_j e^{-2 pi i j k / L} of real vals at integers
    k >= 0, from one rfft: F is L-periodic and F_k = conj(F_{L-k})."""
    L = len(vals)
    F = np.fft.rfft(vals)
    k = k % L
    top = k > L // 2
    Fk = F[np.where(top, L - k, k)]
    return np.where(top, np.conj(Fk), Fk)


def _midpoint_moments(w, m: int, k: np.ndarray) -> np.ndarray:
    """(2 pi / m) sum_j w(theta_j) e^{i k theta_j}, theta_j = 2 pi (j + 1/2) / m."""
    vals = _weight_values(w, 2.0 * np.pi * (np.arange(m) + 0.5) / m)
    return (2.0 * np.pi / m) * np.exp(1j * np.pi * k / m) * np.conj(_real_dft(vals, k))


def _even_moments(w, m: int, k: np.ndarray) -> np.ndarray:
    """The midpoint moments of a weight with w(2 pi - theta) = w(theta):
    (4 pi / m) sum_{j < m/2} w(theta_j) cos(k theta_j), a DCT-II of length
    M = m/2 at the first-kind Chebyshev angles.  Makhoul's reordering
    v = (x_0, x_2, ..., x_{M-2}, x_{M-1}, ..., x_3, x_1) of x_j = w(theta_j) gives
    DCT_k = Re(e^{-i pi k / m} V_k) with V the length-M DFT of v; w is
    evaluated straight in that order."""
    M = m // 2
    order = np.concatenate([np.arange(0, M, 2), np.arange(M - 1, 0, -2)])
    vals = _weight_values(w, np.pi * (2 * order + 1) / m)
    return (4.0 * np.pi / m) * (np.exp(-1j * np.pi * k / m) * _real_dft(vals, k)).real


def _check_power_law(diffs: list, m: int) -> None:
    """Raise QuadratureError when the relative differences diffs of the
    levels up to m points converge like a power law of m that cannot reach
    tol by MAX_QUADRATURE_POINTS points (the rule is stated there)."""
    if len(diffs) <= _ORDER_RUN:
        return
    d = np.asarray(diffs[-_ORDER_RUN - 1:])
    orders = np.log2(d[:-1] / d[1:])
    # written so that a NaN order never qualifies
    if not (orders.min() >= _MIN_ORDER and orders.max() - orders.min() <= _ORDER_SPREAD):
        return
    order = float(orders[-1])
    doublings_left = math.log2(MAX_QUADRATURE_POINTS / m)
    if d[-1] * 2.0 ** (-(order + _ORDER_SPREAD) * doublings_left) < _MISS_FACTOR * _QUADRATURE_TOL:
        return
    needed = round(math.log2(m) + math.ceil(math.log2(d[-1] / _QUADRATURE_TOL) / order))
    raise QuadratureError(
        f"moment quadrature converges like m^-{order:.2f} (an endpoint or kink "
        f"singularity of the weight); at {m} points successive estimates differ "
        f"by {d[-1]:.1e}, and tol {_QUADRATURE_TOL:g} needs about 2^{needed} points, above "
        f"the cap 2^{round(math.log2(MAX_QUADRATURE_POINTS))}"
    )


def _moments(spec: MeasureSpec, N: int) -> np.ndarray:
    """Moments m_k = int_0^{2 pi} e^{i k theta} w(theta) dtheta for k = 0..N
    of a weight measure, by periodic trapezoid quadrature with point-count
    doubling until two levels agree to tol (the rule, and the early
    QuadratureError for a power law that cannot reach tol, are stated at
    MAX_QUADRATURE_POINTS).  A weight that converges returns the same
    moments as without the early stop.

    The grid is shifted by half a step (periodic midpoint rule, same spectral
    accuracy) so that removable singularities of Szego-transformed weights at
    theta = 0 and theta = pi are never sampled.  Each level takes one rfft;
    an interval weight, which is even, only the half grid (``_even_moments``),
    and its moments are exactly real.
    """
    level = _even_moments if spec.kind == "interval-weight" else _midpoint_moments
    k = np.arange(N + 1)
    prev = None
    diffs = []
    m = 256
    while m <= N:  # need at least N+1 resolvable frequencies
        m *= 2
    while m <= MAX_QUADRATURE_POINTS:
        cur = np.asarray(level(spec.weight, m, k), dtype=complex)
        if prev is not None:
            scale = max(abs(cur[0].real), 1e-300)
            diff = np.max(np.abs(cur - prev))
            if diff < _QUADRATURE_TOL * scale:
                return cur
            diffs.append(diff / scale)
            _check_power_law(diffs, m)
        prev = cur
        m *= 2
    raise QuadratureError(
        f"moment quadrature did not converge below {_QUADRATURE_TOL} with up to "
        f"{MAX_QUADRATURE_POINTS} points"
    )


def _weight_alphas(spec: MeasureSpec, N: int) -> np.ndarray:
    """alpha_0..alpha_{N-1} of a weight measure, from its moments m_0..m_N
    (``_moments``) by the Levinson-type recursion

        conj(alpha_k) = <z phi_k, 1> / ||phi_k||^2,
        ||phi_{k+1}||^2 = (1 - |alpha_k|^2) ||phi_k||^2,

    where <f, g> = int f conj(g) dnu and <z^a, z^b> = m_{a-b}.  In double
    precision the alphas lose digits, even on exact moments and with no
    error, once ||phi_k||^2 / m_0 falls below about 1e-6.
    """
    m = _moments(spec, N)
    mass = m[0].real
    if mass <= 0:
        raise ValidationError("measure has nonpositive total mass")
    alphas = np.zeros(N, dtype=complex)
    # phi_k = buf[N - k:], right-aligned behind zeros, so that z phi_k is
    # buf[N - k - 1:]; rev[:k + 1] = phi_k* coefficients, then zeros
    buf = np.zeros(N + 1, dtype=complex)
    buf[N] = 1.0
    rev = np.zeros(N + 1, dtype=complex)
    rev[0] = 1.0
    tmp = np.empty(N + 1, dtype=complex)
    norm2 = mass
    for k in range(N):
        ip = np.dot(buf[N - k:], m[1:k + 2])  # <z phi_k, 1> = sum_j a_j m_{j+1}
        c = ip / norm2
        alpha = np.conj(c)
        if abs(alpha) >= ALPHA_LIMIT:
            raise MeasureValidityError(
                f"recovered |alpha_{k}| = {abs(alpha):.6f} >= {ALPHA_LIMIT} at ||phi_{k}||^2 / m_0 "
                f"= {norm2 / mass:.1e}: the moment recursion lost its digits (it does below "
                "about 1e-6), so the measure is numerically outside the admissible class"
            )
        alphas[k] = alpha
        # phi_{k+1} = z phi_k - c phi_k*
        nxt = buf[N - k - 1:]
        nxt -= np.multiply(c, rev[:k + 2], out=tmp[:k + 2])
        np.conjugate(nxt[::-1], out=rev[:k + 2])
        norm2 *= 1.0 - abs(alpha) ** 2
    return alphas


def verblunsky_coefficients(spec: MeasureSpec, N: int) -> np.ndarray:
    """First N Verblunsky coefficients of any supported measure family."""
    N = _check_count("N", N, 0)
    if spec.kind == "finite-verblunsky":
        head = np.array(spec.alphas[:N], dtype=complex)
        return np.pad(head, (0, N - len(head)))  # exact zeros past the last alpha
    if spec.kind in ("quadrature-weight", "interval-weight"):
        return _weight_alphas(spec, N)
    raise ValidationError(f"unknown measure kind {spec.kind!r}")


@dataclass(frozen=True)
class ParaOrthogonalSpec:
    """Degree n and rotation tau with |tau| = 1."""

    n: int
    tau: complex

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count("degree", self.n, 1))
        object.__setattr__(self, "tau", _check_unimodular(self.tau))


class _Group(NamedTuple):
    """A run of nonzero Verblunsky coefficients that _blaschke_phase steps
    through before it takes the winding and psi' in bulk.

    The group's q_0..q_m go to buffer rows so that the segment ends
    q_0 = q_{c_0}, q_{c_1}, .., q_{c_S} = q_m fill the last rows start..m
    in order, and the other q_k the rows before them."""

    alphas: list         # (alpha_k, conj(alpha_k)) per step, as Python complex
    rows: list           # buffer row of q_{k+1} per step
    start: int           # buffer row of q_0
    decay: np.ndarray    # per buffer row of q_k, k < m: prod_{j >= k} (1 - |alpha_j|^2)


def _group(alphas: list) -> _Group:
    """The _Group of a run of nonzero alphas, given as Python complex.  A
    segment ends before the step whose arcsin|alpha_k| would bring its sum
    to _PRINCIPAL_TURN; each |alpha_k| < 1 adds less than pi/2."""
    mag = np.abs(alphas)
    m = len(alphas)
    ends = np.zeros(m + 1, dtype=bool)
    ends[[0, m]] = True
    turn = 0.0
    for k, t in enumerate(np.arcsin(mag).tolist()):
        if turn + t >= _PRINCIPAL_TURN:
            ends[k] = True
            turn = 0.0
        turn += t
    start = m + 1 - int(ends.sum())
    row = np.empty(m + 1, dtype=int)
    row[~ends] = np.arange(start)
    row[ends] = np.arange(start, m + 1)
    decay = np.empty(m)
    decay[row[:m]] = np.cumprod(((1.0 - mag) * (1.0 + mag))[::-1])[::-1]
    return _Group([(a, a.conjugate()) for a in alphas], row[1:].tolist(), start, decay)


def _phase_steps(alphas: np.ndarray) -> list:
    """The recursion steps for alpha_0..alpha_{n-1}: each run of r zero
    alphas as the int r, and the nonzero alphas between them as _Groups of
    at most _GROUP_ROWS steps whose sum of -log(1 - |alpha_k|) stays within
    _GROUP_DECAY."""
    steps: list = []
    group: list = []
    run = 0
    cost = 0.0
    for a, c in zip(alphas.tolist(), (-np.log1p(-np.abs(alphas))).tolist()):
        if a == 0:
            run += 1
            continue
        if group and (run or len(group) == _GROUP_ROWS or cost + c > _GROUP_DECAY):
            steps.append(_group(group))
            group, cost = [], 0.0
        if run:
            steps.append(run)
            run = 0
        group.append(a)
        cost += c
    if group:
        steps.append(_group(group))
    if run:
        steps.append(run)
    return steps


def _blaschke_phase(steps: list, theta: np.ndarray, _slope: bool = True):
    """The phase psi_n(theta) = 2 pi w + phi of b_n = phi_n / phi_n* on the
    circle, as an exact integer winding w and a reduced phase phi in
    (-pi, pi], together with its derivative g = psi_n'(theta) (None when
    _slope is False).

    With z = e^{i theta} the Szego recursion carries the values
    p = phi_k(z) and q = phi_k*(z):

        p <- z p - conj(alpha_k) q,    q <- q - alpha_k z p,

    and a run of r zero alphas multiplies p by z^r.  On the circle
    |p| = |q|, and b_n = p / q.  Each step multiplies q by
    d_k = 1 - alpha_k z b_k, with Re d_k > 0 and |Arg d_k| <= arcsin|alpha_k|,
    so arg phi_n* = sum_k Arg d_k is continuous in theta and
    psi_n = n theta - 2 sum_k Arg d_k; that coarse sum only rounds the
    winding against Arg b_n.  psi_n' = g_n follows from G_k = g_k |q_k|^2,

        G_{k+1} = (1 - |alpha_k|^2) (G_k + |q_k|^2),

    with g > 0 (a Poisson kernel), so psi_n is strictly increasing and
    gains 2 pi n per turn.

    A step costs five array operations.  At the end of each _Group the
    group's sum of Arg d_k is one arctan2 over its segments: a segment
    from q_a to q_b has arcsin|alpha_k| adding up to less than
    _PRINCIPAL_TURN < pi, so the principal arg of q_b conj(q_a) is its sum
    of Arg d_k exactly.  G takes the group's |q_k|^2 against its suffix
    products.  Then p becomes p / q = b and q becomes 1.  The
    group bounds keep |q| within e^{+-_GROUP_DECAY}, so it neither
    underflows nor overflows.  Points run in blocks, so that the buffered
    q rows hold about _PHASE_BUDGET complex numbers.
    """
    w = np.empty(len(theta), dtype=np.int64)
    phi = np.empty(len(theta))
    g = np.empty(len(theta)) if _slope else None
    block = _PHASE_BUDGET // (_GROUP_ROWS + 1)
    qs = np.empty((_GROUP_ROWS + 1, min(block, len(theta))), dtype=complex)
    for start in range(0, len(theta), block):
        pts = slice(start, start + block)
        t = theta[pts]
        rows = list(qs[:, : len(t)])  # views into the buffer, one per q_k of a group
        z = np.exp(1j * t)
        p = np.ones_like(z)
        zp = np.empty_like(z)
        tmp = np.empty_like(z)
        arg_q = np.zeros_like(t)  # sum over the steps of Arg d_k
        G = np.zeros_like(t)
        total = 0
        for step in steps:
            if not isinstance(step, _Group):
                p *= np.exp((1j * step) * t)
                G += step
                total += step
                continue
            q = rows[step.start]
            q.fill(1.0)
            for (a, a_conj), r in zip(step.alphas, step.rows):
                np.multiply(z, p, out=zp)
                np.multiply(q, a_conj, out=p)
                np.subtract(zp, p, out=p)
                np.multiply(zp, a, out=tmp)
                q = np.subtract(q, tmp, out=rows[r])
            m = len(step.alphas)
            total += m
            buf = qs[: m + 1, : len(t)]
            ends = buf[step.start:]
            turns = ends[1:] * np.conj(ends[:-1])
            arg_q += np.arctan2(turns.imag, turns.real).sum(axis=0)
            if _slope:
                # the rows of q_0..q_{m-1} are spent: square them in place
                sq = buf[:-1].view(float)
                np.square(sq, out=sq)
                G *= step.decay[step.start]
                parts = np.einsum("k,kj->j", step.decay, sq)  # real and imaginary interleaved
                G += parts[::2] + parts[1::2]
                G /= q.real**2 + q.imag**2
            p /= q
        phi[pts] = np.angle(p)
        w[pts] = np.rint((total * t - 2.0 * arg_q - phi[pts]) / _TWO_PI)
        if _slope:
            g[pts] = G
    return w, phi, g


def _count_brackets(steps: list, n: int, c: float):
    """Sample angles t, increasing from 0 to 2 pi, and q = (psi_n - c) / 2 pi
    there, fine enough that each cell (t_i, t_{i+1}] holds at most one zero.

    psi_n is strictly increasing and its winding is exact, so a cell holds
    floor(q_{i+1}) - floor(q_i) zeros.  The start is a uniform grid of n
    cells; a cell holding two or more zeros is cut into _SUBDIVISIONS parts
    until it holds one, or until it is narrower than DISTINCT_TOL, where
    its zeros would collide anyway."""
    t = _TWO_PI * np.arange(n + 1) / n
    w, phi, _ = _blaschke_phase(steps, t[:n], _slope=False)
    q = w + (phi - c) / _TWO_PI
    q = np.append(q, q[0] + n)  # periodicity closes the last cell
    while True:
        # rounding must not make q decrease, or a cell would count < 0 zeros
        q = np.maximum.accumulate(q)
        width = np.diff(t)
        crowded = np.flatnonzero((np.diff(np.floor(q)) >= 2) & (width > DISTINCT_TOL))
        if len(crowded) == 0:
            return t, q
        parts = np.arange(1, _SUBDIVISIONS) / _SUBDIVISIONS
        new_t = (t[crowded, None] + width[crowded, None] * parts).ravel()
        w, phi, _ = _blaschke_phase(steps, new_t, _slope=False)
        at = np.repeat(crowded + 1, _SUBDIVISIONS - 1)
        t = np.insert(t, at, new_t)
        q = np.insert(q, at, w + (phi - c) / _TWO_PI)


def paraorthogonal_nodes(alphas: Sequence[complex], spec: ParaOrthogonalSpec) -> NodalSystem:
    """Zeros of omega_n(z, tau) = phi_n + tau phi_n* as a nodal system, for
    the Verblunsky coefficients alphas, of which the first n are used.  They
    are checked by ``szego_recurrence`` first, so ValidationError names
    fewer than n coefficients or one with |alpha_k| >= 1.

    The zeros are the solutions of b_n(e^{i theta}) = -tau, that is
    psi_n(theta) = arg(-tau) + 2 pi j for n consecutive integers j (see
    ``_blaschke_phase``).  Counting the zeros per cell of a uniform n-point
    grid, and cutting up only the cells that hold several, brackets each
    zero (``_count_brackets``).  Safeguarded Newton then refines all zeros
    at once, bisecting whenever a step leaves its closed bracket.  Each
    evaluation costs O(n) per point, O(m) when only m of the alphas are
    nonzero, and no polynomial coefficients are formed.  Zeros that collide within
    1e-10 raise DegeneracyError (from ``make_nodal_system``).
    """
    n = spec.n
    steps = _phase_steps(szego_recurrence(alphas, n))
    c = float(np.angle(-spec.tau))

    # zero j lies where q crosses j, for j = floor(q[0]) + 1 .. floor(q[0]) + n
    grid, q = _count_brackets(steps, n, c)
    j = np.floor(q[0]) + np.arange(1, n + 1)
    hi_idx = np.searchsorted(q, j, side="left")
    lo, hi = grid[hi_idx - 1], grid[hi_idx]
    f_lo = _TWO_PI * (q[hi_idx - 1] - j)
    f_hi = _TWO_PI * (q[hi_idx] - j)
    # regula falsi start; an exact grid hit (f_hi == 0) starts on the zero
    theta = hi - (hi - lo) * (f_hi / (f_hi - f_lo))

    todo = np.arange(n)
    for _ in range(_NEWTON_MAX_STEPS):
        # k-section of the tail: with few zeros left a pass costs mostly its
        # per-step overhead, so each zero also samples its bracket at
        # spread - 1 interior points, and Newton starts from its best sample
        spread = max(1, _TAIL_POINTS // len(todo))
        a, b = lo[todo, None], hi[todo, None]
        t = np.concatenate([theta[todo, None], a + (b - a) * (np.arange(1, spread) / spread)], axis=1)
        w, phi, g = (x.reshape(t.shape) for x in _blaschke_phase(steps, t.ravel()))
        f = _TWO_PI * (w - j[todo, None]) + (phi - c)
        a = np.where(f < 0, t, a).max(axis=1)
        b = np.where(f > 0, t, b).min(axis=1)
        lo[todo], hi[todo] = a, b
        pick = (np.arange(len(todo)), np.argmin(np.abs(f), axis=1))
        t, f, g = t[pick], f[pick], g[pick]
        nxt = t - f / g
        nxt = np.where((nxt < a) | (nxt > b), 0.5 * (a + b), nxt)
        theta[todo] = nxt
        done = (np.abs(nxt - t) <= _NEWTON_TOL) | (b - a <= _NEWTON_TOL)
        todo = todo[~done]
        if len(todo) == 0:
            break
    else:
        raise RootFindingError(
            f"{len(todo)} of {n} para-orthogonal zeros did not converge in "
            f"{_NEWTON_MAX_STEPS} safeguarded Newton steps"
        )
    z = np.exp(1j * np.sort(np.mod(theta, _TWO_PI)))
    return make_nodal_system(z, source="para-orthogonal")
