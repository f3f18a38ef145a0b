"""Reference computations that share no code with circleinterp.

Everything here uses numpy (and mpmath for the high-precision phase check)
directly, so a defect in the library cannot hide in its own oracle.  Each
function states the identity it relies on; ``perfbench/tests`` checks every
oracle against a known-good closed form before the benchmark trusts it.
"""

from __future__ import annotations

import math

import numpy as np

_MP_DPS = 40    # digits for the mpmath phase recursion
_CHUNK = 512    # rows of the term-by-term Laurent sum formed at once

# ---------------------------------------------------------------- circle phase


def blaschke_newton_step(alphas, tau, thetas):
    """Newton correction to each angle in ``thetas`` for the zeros of
    phi_n + tau phi_n*, computed in double precision.

    With b_k = phi_k / phi_k*, the Szego recursion gives
    b_{k+1} = (z b_k - conj a_k) / (1 - a_k z b_k), b_0 = 1, and |b_k| = 1 on
    the circle.  The zeros solve b_n(e^{it}) = -tau.  The phase derivative
    g_k = d arg b_k / dt obeys g_{k+1} = (1 + g_k) (1 - |a_k|^2) / |1 - a_k z b_k|^2,
    a Poisson kernel, so it stays positive and well scaled.  Returns the
    signed step (angle minus corrected angle); its size is the node error.
    """
    theta = np.asarray(thetas, dtype=float)
    z = np.exp(1j * theta)
    b = np.ones_like(z)
    g = np.zeros(len(theta))
    for a in np.asarray(alphas, dtype=complex):
        u = z * b
        den = 1.0 - a * u
        g = (1.0 + g) * (1.0 - abs(a) ** 2) / np.abs(den) ** 2
        b = (u - np.conj(a)) / den
    return np.angle(b / (-complex(tau))) / g


def blaschke_newton_step_mp(alphas, tau, thetas):
    """The same Newton correction evaluated in mpmath at ``_MP_DPS`` digits,
    for sequences where double-precision rounding in the recursion is not
    trusted (long sequences with no zero tail)."""
    import mpmath as mp

    out = np.empty(len(thetas))
    with mp.workdps(_MP_DPS):
        al = [mp.mpc(complex(a)) for a in alphas]
        t = mp.mpc(complex(tau))
        for i, th in enumerate(thetas):
            z = mp.expj(mp.mpf(float(th)))
            b = mp.mpc(1)
            g = mp.mpf(0)
            for a in al:
                u = z * b
                den = 1 - a * u
                g = (1 + g) * (1 - abs(a) ** 2) / abs(den) ** 2
                b = (u - mp.conj(a)) / den
            out[i] = float(mp.arg(b / (-t)) / g)
    return out


def angle_distance(a, b):
    """Elementwise distance between angles, modulo 2 pi."""
    d = np.mod(np.asarray(a) - np.asarray(b) + np.pi, 2.0 * np.pi) - np.pi
    return np.abs(d)


# ---------------------------------------------------------- Laurent members


def laurent_sum(coeffs, kmin: int, thetas):
    """sum_k c_k e^{i k t} for k = kmin .. kmin + len(coeffs) - 1, summed
    term by term (one complex exponential per term) in row chunks."""
    c = np.asarray(coeffs, dtype=complex)
    k = kmin + np.arange(len(c))
    t = np.asarray(thetas, dtype=float)
    out = np.empty(len(t), dtype=complex)
    for s in range(0, len(t), _CHUNK):
        out[s:s + _CHUNK] = np.exp(1j * np.outer(t[s:s + _CHUNK], k)) @ c
    return out


def trig_interpolant_at_roots(values, p: int, thetas, tau_angle: float = 0.0):
    """Laurent interpolant with window [-p, n-1-p] through values at the n
    roots of z^n = e^{i tau_angle}, evaluated at ``thetas``.

    The nodes are equispaced, so the coefficients are one DFT of the values
    (c_k = (1/n) sum_j u_j z_j^{-k}); they are then summed term by term.
    """
    u = np.asarray(values, dtype=complex)
    n = len(u)
    shift = tau_angle / n
    k = np.arange(-p, n - p)
    # z_j = e^{i (shift + 2 pi j / n)}; z_j^{-k} = e^{-i k shift} e^{-2 pi i j k / n}
    dft = np.fft.fft(u) / n  # index m holds (1/n) sum_j u_j e^{-2 pi i j m / n}
    c = dft[np.mod(k, n)] * np.exp(-1j * k * shift)
    return laurent_sum(c, -p, thetas)


# ----------------------------------------------------------- interval nodes

_CHEBYSHEV_KINDS = {(-0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (0.5, -0.5)}


def chebyshev_nodes(a: float, b: float, n: int) -> np.ndarray:
    """Zeros of the degree-n orthogonal polynomial for the weight
    (1-x)^a (1+x)^b with a, b in {-1/2, 1/2}: the four Chebyshev kinds."""
    j = np.arange(1, n + 1)
    if (a, b) == (-0.5, -0.5):      # T_n
        t = (2 * j - 1) * np.pi / (2 * n)
    elif (a, b) == (0.5, 0.5):      # U_n
        t = j * np.pi / (n + 1)
    elif (a, b) == (-0.5, 0.5):     # V_n, weight sqrt((1+x)/(1-x))
        t = (2 * j - 1) * np.pi / (2 * n + 1)
    elif (a, b) == (0.5, -0.5):     # W_n, weight sqrt((1-x)/(1+x))
        t = 2 * j * np.pi / (2 * n + 1)
    else:
        raise ValueError(f"no Chebyshev closed form for exponents ({a}, {b})")
    return np.sort(np.cos(t))


def gauss_jacobi_nodes(a: float, b: float, n: int) -> np.ndarray:
    """Golub-Welsch: eigenvalues of the symmetric Jacobi matrix of the
    Jacobi weight (1-x)^a (1+x)^b (numpy eigh), increasing."""
    s = a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (s + 2.0)
    k = np.arange(1, n, dtype=float)
    diag[1:] = (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2))
    beta = np.empty(n - 1)
    if n > 1:
        beta[0] = 4.0 * (1 + a) * (1 + b) / ((2 + s) ** 2 * (3 + s))
        k = k[1:]
        beta[1:] = 4 * k * (k + a) * (k + b) * (k + s) / (
            (2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
    off = np.sqrt(beta)
    J = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(J)


def interval_nodes(a: float, b: float, n: int) -> np.ndarray:
    """Gauss nodes of the Jacobi weight (1-x)^a (1+x)^b: the Chebyshev closed
    form when it exists, Golub-Welsch otherwise."""
    if (a, b) in _CHEBYSHEV_KINDS:
        return chebyshev_nodes(a, b, n)
    return gauss_jacobi_nodes(a, b, n)


def variant_exponents(a: float, b: float, variant: str):
    """Jacobi exponents whose Gauss nodes are the interior nodes of an
    interval variant: a fixed node at +1 (mu2, mu3) multiplies the weight by
    (1 - x), one at -1 (mu2, mu4) by (1 + x) (Gauss-Radau/Lobatto)."""
    return (a + (variant in ("mu2", "mu3")), b + (variant in ("mu2", "mu4")))


# ------------------------------------------------------ real interpolation


def barycentric_weights(xs) -> np.ndarray:
    """w_j = 1 / prod_{k != j} (x_j - x_k), summed in log space and scaled
    by the largest |w_j| (the second form is invariant to a common factor)."""
    xs = np.asarray(xs, dtype=float)
    d = xs[:, None] - xs[None, :]
    np.fill_diagonal(d, 1.0)
    logs = np.log(np.abs(d)).sum(axis=1)
    sign = np.prod(np.sign(d), axis=1)
    return sign * np.exp(-(logs - logs.min()))


def barycentric_eval(xs, fxs, x) -> np.ndarray:
    """Second (true) barycentric form of the polynomial through (xs, fxs)."""
    xs = np.asarray(xs, dtype=float)
    fxs = np.asarray(fxs, dtype=float)
    x = np.asarray(x, dtype=float)
    w = barycentric_weights(xs)
    d = x[:, None] - xs[None, :]
    exact = d == 0.0
    d[exact] = 1.0
    q = w[None, :] / d
    out = (q @ fxs) / q.sum(axis=1)
    rows, cols = np.nonzero(exact)
    out[rows] = fxs[cols]
    return out


def digits(err: float) -> float:
    """-log10 of an error, capped at 16 digits (an exact match)."""
    return -math.log10(max(float(err), 1e-16))
