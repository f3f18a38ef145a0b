import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def chebyshev1_weight(x):
    return 1.0 / np.sqrt(np.clip(1.0 - np.asarray(x) ** 2, 1e-300, None))


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

    level = opuc._even_moments if spec.kind == "interval-weight" else opuc._midpoint_moments
    k = np.arange(N + 1)
    prev = None
    m = 256
    while m <= N:
        m *= 2
    while m <= opuc.MAX_QUADRATURE_POINTS:
        cur = np.asarray(level(spec.weight, m, k), dtype=complex)
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


def levinson_reference(m, N):
    """The Levinson loop of opuc._weight_alphas as it was, with two
    concatenations per degree: alpha_0..alpha_{N-1} from the moments
    m_0..m_N.  The library's in-place loop must agree bit for bit."""
    alphas = np.zeros(N, dtype=complex)
    phi = np.ones(1, dtype=complex)
    norm2 = m[0].real
    for k in range(N):
        c = np.dot(phi, m[1:k + 2]) / norm2
        alphas[k] = np.conj(c)
        phi = np.concatenate([[0.0], phi]) - c * np.concatenate([np.conj(phi[::-1]), [0.0]])
        norm2 *= 1.0 - abs(alphas[k]) ** 2
    return alphas


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
