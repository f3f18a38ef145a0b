import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def chebyshev1_weight(x):
    return 1.0 / np.sqrt(np.clip(1.0 - np.asarray(x) ** 2, 1e-300, None))


# the four Chebyshev weights as callables, which take the moment quadrature
CHEBYSHEV_WEIGHTS = {
    "chebyshev1": chebyshev1_weight,
    "chebyshev2": lambda x: np.sqrt(np.clip(1.0 - x * x, 0.0, None)),
    "chebyshev3": lambda x: np.sqrt(np.clip((1.0 + x) / np.clip(1.0 - x, 1e-300, None), 0.0, None)),
    "chebyshev4": lambda x: np.sqrt(np.clip((1.0 - x) / np.clip(1.0 + x, 1e-300, None), 0.0, None)),
}


def jacobi_recurrence(a, b, n):
    """Diagonal d_0..d_{n-1} and squared off-diagonal e_0^2..e_{n-1}^2 of
    the Jacobi matrix of the weight (1-x)^a (1+x)^b on [-1, 1], in closed
    form (e_j couples rows j and j + 1)."""
    s = a + b
    k = np.arange(1.0, n)
    diag = np.empty(n)
    diag[0] = (b - a) / (s + 2.0)
    diag[1:] = (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2))
    k = k + 1.0
    beta = np.empty(n)
    beta[0] = 4.0 * (1 + a) * (1 + b) / ((2 + s) ** 2 * (3 + s))
    beta[1:] = 4 * k * (k + a) * (k + b) * (k + s) / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
    return diag, beta


def golub_welsch_nodes(a, b, n):
    """Golub-Welsch oracle: the Gauss nodes of (1-x)^a (1+x)^b, increasing,
    as the eigenvalues of its n x n Jacobi matrix."""
    diag, beta = jacobi_recurrence(a, b, n)
    off = np.sqrt(beta[:-1])
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def geronimus_alphas(a, b, N):
    """Forward inverse Geronimus map: alpha_0..alpha_{N-1} of the Szego
    transform of (1-x)^a (1+x)^b from its Jacobi recurrence scaled to
    [-2, 2] (diagonal 2 d_j, off-diagonal 2 e_j), with alpha_{-1} = -1:
    alpha_{2j} = (2 d_j + (1 + alpha_{2j-1}) alpha_{2j-2}) / (1 - alpha_{2j-1}),
    alpha_{2j+1} = 4 e_j^2 / ((1 - alpha_{2j-1}) (1 - alpha_{2j}^2)) - 1."""
    diag, beta = jacobi_recurrence(a, b, N // 2 + 1)
    alphas = np.zeros(N)
    odd, even = -1.0, 0.0
    for k in range(N):
        j = k // 2
        if k % 2 == 0:
            even = alphas[k] = (2 * diag[j] + (1 + odd) * even) / (1 - odd)
        else:
            odd = alphas[k] = 4 * beta[j] / ((1 - odd) * (1 - even**2)) - 1
    return alphas


def midpoint_moments(w, m, N):
    """Full-circle oracle for the moments of a circle weight w at a fixed
    grid: (2 pi / m) sum_j w(theta_j) e^{i k theta_j} for k = 0..N < m,
    theta_j = 2 pi (j + 1/2) / m, by one complex FFT over all m points."""
    theta = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    vals = np.asarray(w(theta), dtype=float)
    k = np.arange(N + 1)
    return (2.0 * np.pi / m) * np.exp(1j * np.pi * k / m) * np.conj(np.fft.fft(vals)[: N + 1])


def plain_moments(spec, N, tol=1e-12):
    """opuc._moments without its early power-law decline: the
    plain doubling loop, which stops only when successive estimates differ
    by less than tol relative to the mass, or past MAX_QUADRATURE_POINTS
    points with QuadratureError.  Returns the moments and the point count
    of the level that converged."""
    from circleinterp import QuadratureError, opuc

    prev = None
    m = 256
    while m <= N:
        m *= 2
    while m <= opuc.MAX_QUADRATURE_POINTS:
        cur = opuc._midpoint_moments(spec.weight, m, N)
        if spec.kind == "interval-weight":
            cur = cur.real
        if prev is not None:
            scale = max(abs(cur[0].real), 1e-300)
            if np.max(np.abs(cur - prev)) < tol * scale:
                return cur, m
        prev = cur
        m *= 2
    raise QuadratureError(f"no convergence below {tol} with up to {opuc.MAX_QUADRATURE_POINTS} points")


def bernstein_szego_weight(h):
    """The weight 1/|h(e^{i theta})|^2 of ascending coefficients h, by
    Horner: the quadrature oracle for opuc.bernstein_szego."""
    h = np.asarray(h, dtype=complex)

    def w(theta):
        z = np.exp(1j * np.asarray(theta))
        hv = np.zeros_like(z)
        for c in h[::-1]:
            hv = hv * z + c
        return 1.0 / np.abs(hv) ** 2

    return w


def brute_force_lebesgue(nodes, z):
    """Direct-summation oracle for sum_j |l_j(z)|: explicit products, no
    shared code with the library's log-space path."""
    nodes = np.asarray(nodes)
    total = 0.0
    for j in range(len(nodes)):
        wprime = np.prod(nodes[j] - np.delete(nodes, j)) if len(nodes) > 1 else 1.0
        w = np.prod(z - nodes)
        total += abs(w / (wprime * (z - nodes[j])))
    return total


def brute_force_condition_ii(nodes, z):
    """Direct oracle for (|W(z)|^2/n^2) * sum_j 1/|z-z_j|^2."""
    nodes = np.asarray(nodes)
    n = len(nodes)
    w2 = abs(np.prod(z - nodes)) ** 2
    return w2 / n**2 * np.sum(1.0 / np.abs(z - nodes) ** 2)


def opuc_coefficients(alphas):
    """Coefficient oracle: ascending coefficient vectors phi_k and phi_k*
    for k = 0..len(alphas), from phi_{k+1} = z phi_k - conj(alpha_k) phi_k*,
    where phi* is the conjugated coefficient reversal."""
    phis = [np.ones(1, dtype=complex)]
    stars = [np.ones(1, dtype=complex)]
    for a in alphas:
        nxt = np.concatenate([[0.0], phis[-1]]) - np.conj(a) * np.concatenate([stars[-1], [0.0]])
        phis.append(nxt)
        stars.append(np.conj(nxt[::-1]))
    return phis, stars


def paraorthogonal_coefficients(alphas, n, tau):
    """Ascending coefficients of phi_n + tau phi_n* for alpha_0..alpha_{n-1}."""
    phis, stars = opuc_coefficients(alphas[:n])
    return phis[n] + complex(tau) * stars[n]


def real_barycentric(xs, fxs):
    """Classical real barycentric Lagrange interpolation (second form), used
    as an independent oracle for the circle-lift interval interpolant."""
    xs = np.asarray(xs, dtype=float)
    fxs = np.asarray(fxs, dtype=float)
    w = np.ones(len(xs))
    for j in range(len(xs)):
        w[j] = 1.0 / np.prod(xs[j] - np.delete(xs, j))

    def p(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(len(x))
        for i, xi in enumerate(x):
            d = xi - xs
            hit = np.argmin(np.abs(d))
            if abs(d[hit]) < 1e-14:
                out[i] = fxs[hit]
            else:
                c = w / d
                out[i] = np.sum(c * fxs) / np.sum(c)
        return out

    return p


def brute_force_interpolant(nodes, p, values, z):
    """Direct-product oracle for L(z) = sum_j u_j l_j(z) with
    l_j(z) = z_j^p W(z) / (W'(z_j) (z - z_j) z^p); no log space, no shared
    code with the library.  Keep n small enough that W does not overflow."""
    nodes = np.asarray(nodes)
    z = np.asarray(z, dtype=complex)
    w = np.prod(z[:, None] - nodes[None, :], axis=1)
    total = np.zeros(len(z), dtype=complex)
    for j in range(len(nodes)):
        wprime = np.prod(nodes[j] - np.delete(nodes, j))
        total += values[j] * nodes[j] ** p * w / (wprime * (z - nodes[j]) * z**p)
    return total


def joined_grid_sup_error(I, F, error_grid):
    """sup |F - L| as convergence_sweep took it with the uniform grid and
    the node midpoints joined into one array: the interpolant's
    coefficients evaluated there by Horner (the joined grid is not uniform,
    so eval_laurent takes no FFT), and a point within 1e-14 of a node given
    that node's value."""
    from circleinterp import interp, nodal

    z = nodal._grid_points(I.system, error_grid)
    approx = interp._evaluate(I, z, interp.interpolant_coefficients(I))
    return float(np.max(np.abs(F.on_circle(z) - approx)))
