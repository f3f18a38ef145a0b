import json
import re

import numpy as np
import pytest

from circleinterp import (
    ConditioningError,
    DegeneracyError,
    MeasureSpec,
    MeasureValidityError,
    ParaOrthogonalSpec,
    QuadratureError,
    RootFindingError,
    ValidationError,
    bernstein_szego,
    finite_verblunsky,
    interpolate,
    jacobi_weight,
    lebesgue_measure,
    load_measure_spec,
    make_degree_plan,
    paraorthogonal_nodes,
    quadrature_weight,
    szego_recurrence,
    szego_transform_weight,
    verblunsky_coefficients,
)
from circleinterp import opuc
from conftest import (
    bernstein_szego_weight,
    chebyshev1_weight,
    geronimus_alphas,
    opuc_coefficients,
    paraorthogonal_coefficients,
    plain_moments,
)


def orthogonality_defect(alphas, weight, degree, m=4096):
    """Numeric oracle: max_{k<=degree, j<k} |<phi_k, z^j>| under the weight,
    by periodic midpoint quadrature, normalized by ||phi_k||."""
    theta = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    z = np.exp(1j * theta)
    w = np.asarray(weight(theta), dtype=float)
    worst = 0.0
    phis, _ = opuc_coefficients(alphas)
    for k in range(1, degree + 1):
        phi = np.zeros_like(z)
        for c in phis[k][::-1]:
            phi = phi * z + c
        norm = np.sqrt(np.sum(np.abs(phi) ** 2 * w) * 2 * np.pi / m)
        for j in range(k):
            ip = np.sum(phi * np.conj(z**j) * w) * 2 * np.pi / m
            worst = max(worst, abs(ip) / norm)
    return worst


def mpmath_paraorthogonal_angles(alphas, tau, dps=80):
    """Oracle: sorted angles of the zeros of phi_n + tau phi_n*, from the
    coefficient recurrence and polyroots in mpmath at dps digits.  np.roots
    on the rounded coefficients, projected to the circle, only seeds the
    Durand-Kerner iteration."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        phi = [mp.mpc(1)]
        for a in alphas:
            a = mp.mpc(complex(a))
            star = [mp.conj(c) for c in reversed(phi)] + [mp.mpc(0)]
            phi = [p - mp.conj(a) * s for p, s in zip([mp.mpc(0)] + phi, star)]
        t = mp.mpc(complex(tau))
        omega = [p + t * mp.conj(s) for p, s in zip(phi, reversed(phi))]
        descending = omega[::-1]
        seeds = np.roots(np.array([complex(c) for c in descending]))
        roots = mp.polyroots(descending, maxsteps=50, extraprec=dps,
                             roots_init=[mp.mpc(complex(r / abs(r))) for r in seeds])
        return np.sort([float(mp.arg(r) % (2 * mp.pi)) for r in roots])


def mpmath_blaschke_phase(alphas, theta, dps=50):
    """Oracle: psi_n(theta) and psi_n'(theta) at dps digits, from
    psi_{k+1} = theta + psi_k - 2 Arg(1 - alpha_k e^{i (theta + psi_k)}) and
    g_{k+1} = (1 + g_k) (1 - |alpha_k|^2) / |1 - alpha_k e^{i (theta + psi_k)}|^2,
    carrying psi unreduced."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        t = mp.mpf(float(theta))
        psi, g = mp.mpf(0), mp.mpf(0)
        for a in alphas:
            a = mp.mpc(complex(a))
            d = 1 - a * mp.expj(t + psi)
            g = (1 + g) * (1 - abs(a) ** 2) / abs(d) ** 2
            psi = t + psi - 2 * mp.arg(d)
        return psi, g


def cmv_paraorthogonal_angles(alphas, tau):
    """Oracle: sorted angles of the eigenvalues of the n x n CMV matrix
    whose last Verblunsky coefficient alpha_{n-1} is replaced by the
    unimodular beta = (alpha_{n-1} - conj(tau)) / (1 - conj(tau alpha_{n-1})).
    phi_n + tau phi_n* = (1 - tau alpha_{n-1}) (z phi_{n-1} - conj(beta) phi_{n-1}*),
    and the eigenvalues of that unitary CMV matrix are the zeros of the
    latter (Cantero, Moral & Velazquez 2003)."""
    alphas = np.array(alphas, dtype=complex)
    n = len(alphas)
    alphas[-1] = (alphas[-1] - np.conj(tau)) / (1.0 - np.conj(tau * alphas[-1]))
    rho = np.sqrt(1.0 - np.abs(alphas[:-1]) ** 2)

    def blocks(first):
        # diag(Theta_first, Theta_{first+2}, ...), Theta_k = [[conj a, rho], [rho, -a]],
        # and the 1 x 1 block conj(beta) for k = n - 1
        m = np.eye(n, dtype=complex)
        for k in range(first, n, 2):
            if k == n - 1:
                m[k, k] = np.conj(alphas[k])
            else:
                m[k:k + 2, k:k + 2] = [[np.conj(alphas[k]), rho[k]], [rho[k], -alphas[k]]]
        return m

    eig = np.linalg.eigvals(blocks(0) @ blocks(1))
    return np.sort(np.mod(np.angle(eig), 2 * np.pi))


def angle_distance(a, b):
    return np.abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi)


def alternating(n):
    return [0.7 * (-1) ** k for k in range(n)]


def random_095(n, seed=11):
    return 0.95 * np.exp(2j * np.pi * np.random.default_rng(seed).random(n))


def decaying(n):
    """alpha_k = 0.9 e^{2 pi i u_k} (k+1)^{-1.5}: every alpha nonzero, and
    the nodes stay usable at large n."""
    u = np.random.default_rng(0).random(n)
    return 0.9 * np.exp(2j * np.pi * u) * (np.arange(n) + 1.0) ** -1.5


def arcsin_turn(total):
    """A constant real alpha whose arcsin, summed over a full group of
    opuc._GROUP_ROWS steps, is total: below opuc._PRINCIPAL_TURN the group is
    one segment with one principal arg, from it on two segments."""
    return lambda n: [np.sin(total / opuc._GROUP_ROWS)] * n


def near_one(n):
    """A run of n - 40 alphas with |alpha| = 1 - 2^-27 (exact in binary),
    turning by i per step, between two runs of 20 with |alpha| = 0.5: the
    magnitude budget closes a group about every 16 steps of the run."""
    gen = np.random.default_rng(1)
    edge = 0.5 * np.exp(2j * np.pi * gen.random((2, 20)))
    run = (1.0 - 2.0**-27) * 1j ** np.arange(n - 40)
    return np.concatenate([edge[0], run, edge[1]])


def sparse(n):
    """Random alphas, |alpha| < 0.8, half of them zero: short groups with
    runs of zeros between them."""
    gen = np.random.default_rng(3)
    alphas = 0.8 * gen.random(n) * np.exp(2j * np.pi * gen.random(n))
    alphas[gen.random(n) < 0.5] = 0.0
    return alphas


# the six families of the para-nodes benchmark workload
PARA_NODES_FAMILIES = {
    "half": [0.5], "mixed3": [0.9, -0.5j, 0.3 + 0.3j], "near-one": [0.99],
    "alt16": alternating(16),
    "random8": list(0.8 * np.exp(2j * np.pi * np.random.default_rng(2).random(8))),
    "alt-inf": alternating(256),
}
FAMILIES = {"alternating": alternating, "random-0.95": random_095, "decaying": decaying,
            "constant-0.5": lambda n: [0.5] * n, "arcsin-2.99": arcsin_turn(2.99),
            "arcsin-3.01": arcsin_turn(3.01), "near-one": near_one, "sparse": sparse}


class TestSzegoRecurrence:
    def test_lebesgue_monomials(self):
        phis, _ = opuc_coefficients(np.zeros(5))
        for k in range(6):
            expected = np.zeros(k + 1)
            expected[-1] = 1.0
            assert np.allclose(phis[k], expected)

    def test_hand_expansion_single_alpha(self):
        # alpha_0 = 1/2: phi_1 = z - 1/2, phi_1* = 1 - z/2
        phis, stars = opuc_coefficients([0.5])
        assert np.allclose(phis[1], [-0.5, 1.0])
        assert np.allclose(stars[1], [1.0, -0.5])

    def test_hand_expansion_two_steps(self):
        # alpha = (1/2, 1/3):
        # phi_2 = z phi_1 - (1/3) phi_1* = z^2 - z/2 - (1/3)(1 - z/2)
        phis, _ = opuc_coefficients([0.5, 1.0 / 3.0])
        assert np.allclose(phis[2], [-1.0 / 3.0, -1.0 / 3.0, 1.0])

    def test_complex_alpha_conjugation(self):
        a = 0.3 + 0.4j
        phis, _ = opuc_coefficients([a])
        # phi_1 = z - conj(alpha_0)
        assert phis[1][0] == pytest.approx(-np.conj(a))

    def test_phi_at_zero(self):
        alphas = [0.5, -0.25, 0.1j]
        phis, stars = opuc_coefficients(alphas)
        # phi_{k+1}(0) = -conj(alpha_k) phi_k*(0), phi_k*(0) = conj(leading) = 1
        for k, a in enumerate(alphas):
            assert phis[k + 1][0] == pytest.approx(-np.conj(a) * stars[k][0])

    def test_rejects_large_alpha(self):
        with pytest.raises(ValidationError):
            szego_recurrence([1.0], 1)

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0), complex(0.0, np.nan)])
    def test_rejects_nan_alpha(self, bad):
        with pytest.raises(ValidationError, match="alpha_1"):
            szego_recurrence([0.5, bad], 2)

    def test_rejects_short_sequence(self):
        with pytest.raises(ValidationError):
            szego_recurrence([0.1], 3)


class TestMoments:
    def test_lebesgue_weight_moments(self):
        spec = quadrature_weight(lambda t: np.ones_like(t))
        m = opuc._moments(spec, 4)
        assert m[0] == pytest.approx(2 * np.pi, rel=1e-13)
        assert np.max(np.abs(m[1:])) < 1e-12

    def test_cosine_weight(self):
        # w = 1 + cos theta: m_0 = 2 pi, m_1 = pi, higher vanish
        spec = quadrature_weight(lambda t: 1.0 + np.cos(t))
        m = opuc._moments(spec, 3)
        assert m[0] == pytest.approx(2 * np.pi, rel=1e-12)
        assert m[1] == pytest.approx(np.pi, rel=1e-12)
        assert np.max(np.abs(m[2:])) < 1e-11

    def test_rejects_negative_weight(self):
        spec = quadrature_weight(lambda t: np.cos(t))
        with pytest.raises(ValidationError, match="nonnegative"):
            verblunsky_coefficients(spec, 2)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValidationError, match="nonpositive total mass"):
            verblunsky_coefficients(quadrature_weight(lambda t: 0 * t), 2)

    @pytest.mark.parametrize("spec,match", [
        (lambda: quadrature_weight(lambda t: 1 + 0.5j * np.cos(t)), "complex128"),
        (lambda: quadrature_weight(lambda t: np.where(t > 1.0, np.nan, 1.0)), "finite"),
        (lambda: quadrature_weight(lambda t: np.ones(3)), r"shape \(3,\)"),
        (lambda: quadrature_weight(lambda t: np.ones((len(t), 2))), r"shape \(256, 2\)"),
        (lambda: quadrature_weight(lambda t: np.full(t.shape, "1")), "<U1"),
        (lambda: quadrature_weight(lambda t: None), "object"),
        (lambda: szego_transform_weight(lambda x: 1 + 0j * x), "interval weight .* complex128"),
        (lambda: quadrature_weight(0.5), "measure weight must be a callable of theta, got float"),
        (lambda: quadrature_weight(None), "callable of theta, got NoneType"),
        (lambda: szego_transform_weight("x"), "interval weight must be a callable of x, got str"),
    ], ids=["complex", "nan", "three-values", "two-d", "strings", "none", "complex-interval",
            "number", "no-weight", "string-interval"])
    def test_weight_must_give_one_finite_real_per_angle(self, spec, match):
        """Each is refused when its spec is built (a weight that is not
        callable) or at the first quadrature level: not cast, and not run on
        to the cap."""
        with pytest.raises(ValidationError, match=match):
            verblunsky_coefficients(spec(), 4)

    def test_weight_specs_take_no_label(self):
        """The labels of the two weight kinds are fixed; nothing passed one."""
        assert quadrature_weight(np.ones_like).label == "quadrature"
        assert szego_transform_weight(chebyshev1_weight).label == "szego-transform"
        with pytest.raises(TypeError):
            quadrature_weight(np.ones_like, label="mine")
        with pytest.raises(TypeError):
            szego_transform_weight(chebyshev1_weight, label="mine")

    def test_scalar_weight_broadcasts(self):
        got = verblunsky_coefficients(quadrature_weight(lambda t: 2.0), 4)
        assert np.max(np.abs(got)) < 1e-15


def _seeded_weight(rng, kind):
    """A narrow bump or a kink on a background of 0, 1e-3 or 1, at a
    random angle: a von Mises ("gauss") or Poisson ("lorentz") bump of
    width 1e-2 to 3e-5, or |sin((theta - t0)/2)|^s with s in [1.5, 4]."""
    t0 = rng.uniform(0.0, 2.0 * np.pi)
    bg = float(rng.choice([0.0, 1e-3, 1.0]))
    width = 10.0 ** rng.uniform(np.log10(3e-5), -2.0)
    if kind == "gauss":
        return quadrature_weight(lambda t: bg + np.exp((np.cos(t - t0) - 1.0) / width**2))
    if kind == "lorentz":
        r = 1.0 - width
        return quadrature_weight(lambda t: bg + (1 - r * r) / (1 - 2 * r * np.cos(t - t0) + r * r))
    s = rng.uniform(1.5, 4.0)
    return quadrature_weight(lambda t: bg + np.abs(np.sin((t - t0) / 2.0)) ** s)


class TestQuadratureDecline:
    """opuc._moments declines a power law early; against the plain
    doubling loop it must change nothing else."""

    @pytest.mark.parametrize("kind", ["gauss", "lorentz", "kink"])
    def test_matches_plain_loop(self, kind):
        rng = np.random.default_rng({"gauss": 1501, "lorentz": 1502, "kink": 1503}[kind])
        resolved = 0
        for _ in range(8):
            spec = _seeded_weight(rng, kind)
            N = int(rng.choice([0, 8, 64, 256]))
            try:
                ref, _ = plain_moments(spec, N)
            except QuadratureError:
                with pytest.raises(QuadratureError):
                    opuc._moments(spec, N)
                continue
            resolved += 1
            assert opuc._moments(spec, N).tobytes() == ref.tobytes()
        assert resolved >= 4


class TestVerblunskyRecovery:
    def test_bernstein_szego_recovers_alphas(self):
        # w ~ 1/|1 - z/2|^2 has alpha = (1/2, 0, 0, ...)
        spec = quadrature_weight(bernstein_szego_weight([1.0, -0.5]))
        alphas = verblunsky_coefficients(spec, 6)
        assert alphas[0] == pytest.approx(0.5, abs=1e-10)
        assert np.max(np.abs(alphas[1:])) < 1e-10

    def test_complex_bernstein_szego(self):
        # w ~ 1/|1 - alpha_0 z|^2 recovers alpha = (alpha_0, 0, ...)
        a = 0.3 - 0.2j
        spec = quadrature_weight(bernstein_szego_weight([1.0, -a]))
        alphas = verblunsky_coefficients(spec, 4)
        assert alphas[0] == pytest.approx(a, abs=1e-10)
        assert np.max(np.abs(alphas[1:])) < 1e-10

    def test_recovered_polynomials_are_orthogonal(self):
        """Convention check: the recovered state must be orthogonal under the
        weight itself, measured by independent quadrature."""
        weight = lambda t: np.exp(np.cos(t))
        spec = quadrature_weight(weight)
        alphas = verblunsky_coefficients(spec, 8)
        assert orthogonality_defect(alphas, weight, 8) < 1e-9

    def test_dispatch(self):
        assert np.all(verblunsky_coefficients(lebesgue_measure(), 4) == 0)
        got = verblunsky_coefficients(finite_verblunsky([0.5, -0.2]), 4)
        assert np.allclose(got, [0.5, -0.2, 0.0, 0.0])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown measure kind 'foo'"):
            verblunsky_coefficients(MeasureSpec(kind="foo", weight=np.ones_like), 2)

    def test_invalid_count(self):
        with pytest.raises(ValidationError, match="integer"):
            verblunsky_coefficients(quadrature_weight(bernstein_szego_weight([1.0])), 2.0)

    def test_zero_count_is_empty(self):
        for spec in (lebesgue_measure(), quadrature_weight(np.ones_like),
                     szego_transform_weight(chebyshev1_weight), jacobi_weight(1.5, -0.3)):
            got = verblunsky_coefficients(spec, 0)
            assert got.shape == (0,) and got.dtype == complex

    @pytest.mark.parametrize("spec", [lebesgue_measure(), finite_verblunsky([0.5]),
                                      quadrature_weight(bernstein_szego_weight([1.0]))],
                             ids=["lebesgue", "finite-verblunsky", "quadrature-weight"])
    def test_negative_count(self, spec):
        with pytest.raises(ValidationError, match="nonnegative"):
            verblunsky_coefficients(spec, -3)

    def test_concentrated_measure_alphas_near_one(self):
        # a sharply peaked weight pushes |alpha_0| toward 1 without crossing
        # the admissibility limit
        spec = quadrature_weight(lambda t: np.exp(50.0 * np.cos(t)))
        alphas = verblunsky_coefficients(spec, 2)
        assert 0.97 < abs(alphas[0]) < 1.0

    def test_lost_digits_are_named(self):
        """The von Mises weight exp(50 (cos theta - 1)) is valid, but
        ||phi_k||^2 / m_0 falls to 1e-11 by k = 12, far below what
        double-precision Levinson on the moments resolves."""
        spec = quadrature_weight(lambda t: np.exp(50.0 * (np.cos(t) - 1.0)))
        with pytest.raises(MeasureValidityError) as info:
            verblunsky_coefficients(spec, 20)
        message = str(info.value)
        assert "lost its digits" in message
        # |alpha_12| = 1.60 at a ratio of 1.9e-11 with numpy 2.4 and OpenBLAS
        found = re.search(r"\|alpha_(\d+)\| = .* at \|\|phi_\1\|\|\^2 / m_0 = (\S+):", message)
        assert float(found.group(2)) < 1e-6


def seeded_h(m, seed):
    """Ascending coefficients of c prod_j (z - zeta_j), m seeded zeros at
    radius 1.1 to 3.1 and a seeded complex factor c."""
    rng = np.random.default_rng(seed)
    zeros = rng.uniform(1.1, 3.1, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    c = complex(*rng.normal(size=2))
    return c * np.poly(zeros)[::-1]


class TestBernsteinSzego:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_zero_tail_and_forward_recursion(self, m):
        h = seeded_h(m, 2400 + m)
        spec = bernstein_szego(h)
        assert (spec.kind, spec.label, len(spec.alphas)) == ("finite-verblunsky", "bernstein-szego", m)
        alphas = verblunsky_coefficients(spec, 4 * m)
        assert np.all(alphas[m:] == 0)
        _, stars = opuc_coefficients(alphas[:m])
        assert np.max(np.abs(stars[m] - h / h[0])) < 1e-13

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_quadrature_oracle(self, m):
        h = seeded_h(m, 2400 + m)
        oracle = verblunsky_coefficients(quadrature_weight(bernstein_szego_weight(h)), m + 2)
        got = verblunsky_coefficients(bernstein_szego(h), m + 2)
        assert np.max(np.abs(got - oracle)) < 1e-12

    def test_one_zero_is_finite_verblunsky(self):
        assert bernstein_szego([1.0, -0.5]).alphas == finite_verblunsky([0.5]).alphas
        assert bernstein_szego([2.0, 0.0, 0.0]).alphas == ()

    @pytest.mark.parametrize("h", [[], [0.0, 0.0], [1.0, np.nan], [1.0, np.inf], [0.0, 1.0],
                                   [1.0, -1.0], [1.0, -2.0], [1.0, 0.0, 1.0]],
                             ids=["empty", "zero", "nan", "inf", "h0-zero", "on-circle",
                                  "inside", "pair-on-circle"])
    def test_refuses_at_once(self, h, monkeypatch):
        def spy(*args, **kwargs):
            pytest.fail("opuc._moments was called")

        monkeypatch.setattr(opuc, "_moments", spy)
        with pytest.raises(ValidationError):
            verblunsky_coefficients(bernstein_szego(h), 8)


class TestJacobiWeight:
    """jacobi_weight(a, b): the Szego transform of (1-x)^a (1+x)^b, whose
    alphas come in closed form, with no quadrature."""

    @pytest.mark.parametrize("N", [1, 2, 257, 258, 8191, 8192])
    def test_chebyshev_closed_forms(self, N):
        """Chebyshev-1: all 0.  Chebyshev-2: 0 at even k, -2/(k+3) at odd
        k.  Chebyshev-3: (-1)^k/(k+2).  Chebyshev-4: -1/(k+2).  The zeros
        are exactly 0."""
        k = np.arange(N)
        got = {name: verblunsky_coefficients(jacobi_weight(a, b), N)
               for name, (a, b) in {"1": (-0.5, -0.5), "2": (0.5, 0.5),
                                    "3": (-0.5, 0.5), "4": (0.5, -0.5)}.items()}
        assert all(g.dtype == complex and g.shape == (N,) and np.all(g.imag == 0) for g in got.values())
        assert np.all(got["1"] == 0)
        assert np.all(got["2"][::2] == 0)
        np.testing.assert_allclose(got["2"][1::2].real, -2.0 / (k[1::2] + 3), rtol=1e-15, atol=0)
        np.testing.assert_allclose(got["3"].real, (-1.0) ** k / (k + 2), rtol=1e-15, atol=0)
        np.testing.assert_allclose(got["4"].real, -1.0 / (k + 2), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.5, -0.3), (-0.5, -0.5), (0.5, 0.5),
                                     (-0.5, 0.5), (0.5, -0.5), (-0.9, 3.0)])
    def test_matches_the_forward_geronimus_map(self, a, b):
        """The closed form solves the inverse Geronimus relations of the
        Jacobi recurrence; run forward, the map drifts with k (measured
        1.1e-14 at N = 512 for Jacobi(1.5, -0.3), 1.7e-13 at N = 8192)."""
        got = verblunsky_coefficients(jacobi_weight(a, b), 512)
        ref = geronimus_alphas(a, b, 512)
        assert np.max(np.abs(got - ref)) < 1e-13
        assert np.array_equal(got == 0, ref == 0)

    def test_matches_mpmath_levinson(self):
        """Jacobi(1.5, -0.3) at N = 20 against a 40-digit Levinson
        recursion on its exact moments m_k = int T_k(x) (1-x)^a (1+x)^b dx,
        taken with x = cos 2s, up to the common factor 2^{a+b+2}, as
        int_0^{pi/2} cos(2ks) sin^{2a+1}(s) cos^{2b+1}(s) ds."""
        mp = pytest.importorskip("mpmath")
        a, b, N = 1.5, -0.3, 20
        got = verblunsky_coefficients(jacobi_weight(a, b), N)
        with mp.workdps(40):
            A, B = 2 * mp.mpf(a) + 1, 2 * mp.mpf(b) + 1
            m = [mp.quad(lambda s: mp.cos(2 * k * s) * mp.sin(s) ** A * mp.cos(s) ** B,
                         [0, mp.pi / 4, mp.pi / 2]) for k in range(N + 1)]
            phi, norm2, ref = [mp.mpf(1)], m[0], []
            for k in range(N):
                c = mp.fsum(p * mk for p, mk in zip(phi, m[1:k + 2])) / norm2
                ref.append(float(c))  # real moments: alpha_k = conj(c) = c
                phi = [x - c * y for x, y in zip([0] + phi, phi[::-1] + [0])]
                norm2 *= 1 - c**2
        assert np.max(np.abs(got - ref)) < 1e-15

    @pytest.mark.parametrize("a,b", [(-1.0, 0.0), (0.0, -1.5), (np.nan, 0.0), (0.0, np.inf),
                                     (True, 0.0), ("0.5", 0.0), (1j, 0.0)])
    def test_rejects_bad_exponents(self, a, b):
        with pytest.raises(ValidationError, match="Jacobi exponent"):
            jacobi_weight(a, b)

    def test_spec(self):
        spec = jacobi_weight(1, np.float64(-0.3))
        assert spec.kind == "jacobi" and spec.exponents == (1.0, -0.3)
        assert spec.label == "jacobi(1.0, -0.3)"


class TestParaOrthogonal:
    def test_lebesgue_coefficients(self):
        omega = paraorthogonal_coefficients(np.zeros(4), 4, 1.0)
        assert np.allclose(omega, [1.0, 0, 0, 0, 1.0])  # z^4 + 1

    def test_lebesgue_zeros_are_roots_of_minus_tau(self):
        for n, tau in [(4, 1.0), (7, -1.0), (5, np.exp(0.4j))]:
            alphas = szego_recurrence(np.zeros(n), n)
            sys = paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=n, tau=tau))
            assert np.max(np.abs(sys.nodes**n + tau)) < 1e-12

    def test_single_alpha_degree_one(self):
        # omega_1(z, 1) = (z - 1/2) + (1 - z/2) = (z/2)(1) ... solve: z = -1
        alphas = szego_recurrence([0.5], 1)
        sys = paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=1, tau=1.0))
        assert abs(sys.nodes[0] + 1.0) < 1e-14

    def test_zeros_unimodular_and_sorted(self):
        alphas = szego_recurrence([0.5] + [0.0] * 63, 64)
        sys = paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=64, tau=1.0))
        assert np.max(np.abs(np.abs(sys.nodes) - 1.0)) < 1e-12
        assert np.all(np.diff(sys.thetas) > 0)

    @pytest.mark.parametrize("alphas", [np.array([1.0, 0.2]), np.array([0.2])],
                             ids=["unimodular", "too-short"])
    def test_solver_checks_raw_coefficients(self, alphas):
        with pytest.raises(ValidationError):
            paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=2, tau=1.0))

    @pytest.mark.parametrize("family", PARA_NODES_FAMILIES)
    def test_raw_coefficients_give_the_checked_nodes(self, family):
        n = 256
        alphas = verblunsky_coefficients(finite_verblunsky(PARA_NODES_FAMILIES[family]), n)
        spec = ParaOrthogonalSpec(n=n, tau=1.0)
        direct = paraorthogonal_nodes(alphas, spec).nodes
        checked = paraorthogonal_nodes(szego_recurrence(alphas, n), spec).nodes
        assert np.all(direct == checked)

    def test_zeros_are_true_zeros(self):
        alphas = szego_recurrence([0.3, -0.2, 0.1], 3)
        spec = ParaOrthogonalSpec(n=3, tau=-1.0)
        omega = paraorthogonal_coefficients(alphas, 3, spec.tau)
        sys = paraorthogonal_nodes(alphas, spec)
        vals = np.polynomial.polynomial.polyval(sys.nodes, omega)
        assert np.max(np.abs(vals)) < 1e-12

    @pytest.mark.parametrize("tau", [1.0, np.exp(0.7j)])
    @pytest.mark.parametrize("family", ["alternating", "random-0.95"])
    def test_matches_mpmath_roots(self, family, tau):
        n = 64
        alphas = FAMILIES[family](n)
        sys = paraorthogonal_nodes(szego_recurrence(alphas, n), ParaOrthogonalSpec(n=n, tau=tau))
        ref = mpmath_paraorthogonal_angles(alphas, tau)
        assert np.max(angle_distance(np.sort(sys.thetas), ref)) <= 1e-13

    def test_phase_steps_groups(self):
        """How _phase_steps cuts the families of the phase tests below: each
        group as its length and the steps at which its segments end.  A
        segment's arcsin|alpha_k| add up to less than _PRINCIPAL_TURN, and
        one more step would bring them to it."""
        def shape(alphas):
            alphas = np.asarray(alphas, dtype=complex)
            out, k = [], 0
            for s in opuc._phase_steps(alphas):
                if isinstance(s, int):
                    out.append(s)
                    k += s
                    continue
                ends = [0] + [i + 1 for i, r in enumerate(s.rows) if r >= s.start]
                turn = np.arcsin(np.abs(alphas[k:k + len(s.alphas)]))
                for a, b in zip(ends, ends[1:]):
                    assert turn[a:b].sum() < opuc._PRINCIPAL_TURN
                    if b < len(turn):
                        assert turn[a:b + 1].sum() >= opuc._PRINCIPAL_TURN
                out.append((len(s.alphas), ends))
                k += len(s.alphas)
            return out

        assert shape(FAMILIES["arcsin-2.99"](128)) == [(64, [0, 64])] * 2
        assert shape(FAMILIES["arcsin-3.01"](128)) == [(64, [0, 63, 64])] * 2
        assert [m for m, _ in shape(FAMILIES["near-one"](74))] == [35, 16, 23]
        assert shape(FAMILIES["decaying"](4096)) == [(64, [0, 64])] * 64
        assert shape(FAMILIES["alternating"](256)) == [(64, list(range(0, 64, 3)) + [64])] * 4
        # a run of up to _FOLDED_ZEROS = 20 zeros between nonzero alphas
        # stays in its group while the group has room; a longer one splits it
        r = opuc._FOLDED_ZEROS
        for gap, want in ((r, [64, 20, 43, 1]), (r + 1, [1, 21] * 5 + [1, 17])):
            alphas = np.where(np.arange(128) % (gap + 1) == 0, 0.5, 0.0)
            assert [s if isinstance(s, int) else s[0] for s in shape(alphas)] == want

    @pytest.mark.parametrize("alphas,want", [
        (np.pad(alternating(16), (0, 1008)), [(16,), 1008]),
        (opuc._jacobi_alphas(0.5, 0.5, 258), [1, (63,)] * 4 + [1, (1,)]),
        (np.concatenate([[0.5] * 5, [0.0] * 21, [-0.3j] * 4, [0.0] * 30, [0.9], [0.0] * 39]),
         [(5,), 21, (4,), 30, (1,), 39]),
    ], ids=["alt16-zeros", "chebyshev2-258", "21-zero-run"])
    def test_phase_steps_pinned(self, alphas, want):
        """The step lists of three families: each zero run as its length,
        each group as (its length,) and equal to the _group of the alphas it
        covers.  A Chebyshev-2 group of 63 leaves no row for the zero after
        it, and a run of 21 zeros is not folded."""
        alphas = np.asarray(alphas, dtype=complex)
        steps = opuc._phase_steps(alphas)
        assert [s if isinstance(s, int) else (len(s.alphas),) for s in steps] == want
        k = 0
        for s in steps:
            if not isinstance(s, int):
                ref = opuc._group(alphas[k:k + len(s.alphas)].tolist())
                assert (s.alphas, s.rows, s.start) == (ref.alphas, ref.rows, ref.start)
                assert s.decay.tobytes() == ref.decay.tobytes()
            k += s if isinstance(s, int) else len(s.alphas)
        assert k == len(alphas)

    @pytest.mark.parametrize("family,n,floor", [
        ("alternating", 256, 0.0),
        ("random-0.95", 64, 1.0),
        ("arcsin-2.99", 128, 0.0),
        ("arcsin-3.01", 128, 0.0),
        ("near-one", 74, 1.0),
        ("sparse", 128, 0.0),
        ("decaying", 4096, 0.0),
    ])
    def test_phase_matches_mpmath(self, family, n, floor):
        """psi_n = 2 pi w + phi at 40 seeded angles (3 for n > 1024, where
        the oracle takes 0.5 s per angle) against 50-digit mpmath.
        The phase error divided by psi' is the shift it causes in a zero
        there; it must stay below 1e-15 rad (measured 4.8e-16 for
        alternating).  Where psi' < 1 (down to 0.026 for random-0.95) one
        ulp of phi is already 4.4e-16 rad, so there the bound is absolute.
        Overflow, division by zero or an invalid value in the recursion
        raises."""
        alphas = FAMILIES[family](n)
        theta = np.random.default_rng(7).uniform(0, 2 * np.pi, 40 if n <= 1024 else 3)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            w, phi, g = opuc._blaschke_phase(opuc._phase_steps(np.asarray(alphas, dtype=complex)), theta)
        mp = pytest.importorskip("mpmath")
        for k, t in enumerate(theta):
            psi, dpsi = mpmath_blaschke_phase(alphas, t)
            with mp.workdps(50):
                err = abs(float(psi - 2 * mp.pi * int(w[k]) - float(phi[k])))
            assert err <= 1e-15 * max(float(dpsi), floor)
            assert g[k] == pytest.approx(float(dpsi), rel=1e-12)

    @pytest.mark.parametrize("family", ["alternating", "near-one", "sparse"])
    def test_point_blocks_agree(self, monkeypatch, family):
        """Points split into blocks of 7 give the phase and psi' of one
        block."""
        steps = opuc._phase_steps(np.asarray(FAMILIES[family](74), dtype=complex))
        theta = np.random.default_rng(7).uniform(0, 2 * np.pi, 40)
        w, phi, g = opuc._blaschke_phase(steps, theta)
        monkeypatch.setattr(opuc, "_PHASE_BUDGET", 7 * (opuc._GROUP_ROWS + 1))
        w7, phi7, g7 = opuc._blaschke_phase(steps, theta)
        assert np.array_equal(w7, w)
        assert np.allclose(phi7, phi, rtol=0, atol=1e-15) and np.allclose(g7, g, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("family,n", [("alternating", 256), ("random-0.95", 64),
                                          ("constant-0.5", 64), ("arcsin-2.99", 128),
                                          ("arcsin-3.01", 128), ("near-one", 74),
                                          ("sparse", 128), ("decaying", 4096)])
    def test_count_brackets_separate_zeros(self, family, n):
        """Every cell of the bracketing samples holds at most one zero,
        except cells narrower than DISTINCT_TOL, and the cells hold n zeros
        in all."""
        steps = opuc._phase_steps(np.asarray(FAMILIES[family](n), dtype=complex))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            t, q = opuc._count_brackets(steps, n, np.pi)
        assert t[0] == 0.0 and t[-1] == 2 * np.pi and np.all(np.diff(t) > 0)
        counts = np.diff(np.floor(q))
        assert counts.sum() == n
        assert np.all((counts <= 1) | (np.diff(t) <= opuc.DISTINCT_TOL))

    @pytest.mark.parametrize("n,tau", [(1, 1.0), (2, -1.0), (5, np.exp(0.7j)), (16, 1j)])
    def test_cmv_oracle_matches_paraorthogonal(self, n, tau):
        """The beta of cmv_paraorthogonal_angles, checked against the roots
        of the coefficients of phi_n + tau phi_n*."""
        gen = np.random.default_rng(n)
        alphas = 0.6 * gen.random(n) * np.exp(2j * np.pi * gen.random(n))
        omega = paraorthogonal_coefficients(alphas, n, tau)
        roots = np.sort(np.mod(np.angle(np.roots(omega[::-1])), 2 * np.pi))
        assert np.max(angle_distance(cmv_paraorthogonal_angles(alphas, tau), roots)) <= 1e-13

    @pytest.mark.parametrize("family,n,tau", [
        ("alternating", 256, np.exp(0.7j)),
        ("random-0.95", 256, np.exp(0.7j)),
        ("decaying", 256, np.exp(0.7j)),
        ("decaying", 512, 1.0),
    ])
    def test_matches_cmv_eigenvalues(self, family, n, tau):
        alphas = FAMILIES[family](n)
        sys = paraorthogonal_nodes(szego_recurrence(alphas, n), ParaOrthogonalSpec(n=n, tau=tau))
        ref = cmv_paraorthogonal_angles(alphas, tau)
        # measured at most 1.1e-14
        assert np.max(angle_distance(np.sort(sys.thetas), ref)) <= 1e-13

    @pytest.mark.parametrize("n", [256, 257])
    @pytest.mark.parametrize("family,tau", [("odd-0.5", np.exp(0.7j)), ("odd-0.5", 1j),
                                            ("chebyshev2", 1.0), ("chebyshev2", -1.0)])
    def test_interleaved_zeros_match_cmv_eigenvalues(self, family, tau, n):
        """Zero alphas between nonzero ones run as plain steps inside their
        group: alpha_k = 0.5 at odd k only, and the exact Chebyshev-2
        alphas (0 at even k, -2/(k+3) at odd k).  (The first family has a
        double zero at z = 1 for tau = 1, in the CMV oracle too.)"""
        if family == "odd-0.5":
            alphas = np.where(np.arange(n) % 2 == 1, 0.5, 0.0).astype(complex)
        else:
            alphas = verblunsky_coefficients(jacobi_weight(0.5, 0.5), n)
        sys = paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=n, tau=tau))
        ref = cmv_paraorthogonal_angles(alphas, tau)
        # a turn of 1 rad keeps zeros at z = +-1 off the cut at 2 pi
        turn = lambda t: np.sort(np.mod(t + 1.0, 2 * np.pi))
        assert np.max(angle_distance(turn(sys.thetas), turn(ref))) <= 1e-13

    def test_zero_on_flat_phase_converges(self):
        """|alpha| = 0.966: one zero sits where psi' = 0.12, so a phase
        error of 1e-15 moves it by 1e-14.  The 2e-15 stop then needs a
        phase accurate to about 2e-16; with a less accurate phase, Newton
        cycled between two bracket ends there and raised RootFindingError."""
        alphas = [-0.2287989984574767 + 0.9386911847445085j,
                  -0.4588299495647806 + 0.8502736026683261j,
                  -0.42577208479693146 - 0.8672994026400965j]
        spec = ParaOrthogonalSpec(n=3, tau=-0.36591702480526844 + 0.9306474794236863j)
        sys = paraorthogonal_nodes(szego_recurrence(alphas, 3), spec)
        omega = paraorthogonal_coefficients(alphas, 3, spec.tau)
        roots = np.sort(np.mod(np.angle(np.roots(omega[::-1])), 2 * np.pi))
        assert np.max(angle_distance(np.sort(sys.thetas), roots)) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_colliding_zeros_raise_degeneracy(self, alpha):
        # constant alphas: the exact zeros collide within ~1e-15
        alphas = szego_recurrence([alpha] * 64, 64)
        with pytest.raises(DegeneracyError):
            paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=64, tau=1.0))

    def test_non_convergence_raises_root_finding(self, monkeypatch):
        monkeypatch.setattr(opuc, "_NEWTON_MAX_STEPS", 1)
        alphas = szego_recurrence(alternating(64), 64)
        with pytest.raises(RootFindingError, match="did not converge"):
            paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=64, tau=1.0))

    def test_alternating_family_large_n(self):
        alphas = szego_recurrence(alternating(512), 512)
        sys = paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=512, tau=1.0))
        assert sys.n == 512
        assert np.all(np.diff(sys.thetas) > 1e-10)

    def test_ill_conditioned_nodes_decline_interpolation(self):
        plan = make_degree_plan(64, 0.5)
        spec = ParaOrthogonalSpec(n=64, tau=1.0)
        # 0.7 (-1)^k for k < 16 only: Lebesgue constant ~ 8e5, still accepted
        head = paraorthogonal_nodes(szego_recurrence(alternating(16) + [0.0] * 48, 64), spec)
        interpolate(head, plan, np.ones(64))
        full = paraorthogonal_nodes(szego_recurrence(alternating(64), 64), spec)
        with pytest.raises(ConditioningError, match="Lebesgue function"):
            interpolate(full, plan, np.ones(64))

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            ParaOrthogonalSpec(n=0, tau=1.0)
        with pytest.raises(ValidationError):
            ParaOrthogonalSpec(n=2, tau=2.0)


class TestMeasureSpecIO:
    def test_load_verblunsky(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "verblunsky", "alphas": [[0.5, 0.0], [0.0, -0.25]]}))
        spec = load_measure_spec(path)
        assert spec.kind == "finite-verblunsky"
        assert spec.alphas == (0.5 + 0j, -0.25j)

    def test_load_bernstein_szego(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "bernstein-szego", "h_coeffs": [[1, 0], [-0.5, 0]]}))
        spec = load_measure_spec(path)
        alphas = verblunsky_coefficients(spec, 3)
        assert alphas[0] == pytest.approx(0.5, abs=1e-10)

    def test_load_lebesgue_and_unknown(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "lebesgue"}))
        spec = load_measure_spec(path)
        assert spec == lebesgue_measure()
        assert (spec.kind, spec.alphas, spec.label) == ("finite-verblunsky", (), "lebesgue")
        path.write_text(json.dumps({"kind": "gaussian"}))
        with pytest.raises(ValidationError):
            load_measure_spec(path)
