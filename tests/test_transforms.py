import re
import tracemalloc

import numpy as np
import pytest

from circleinterp import (
    LaurentPolynomial,
    IntervalNodalSystem,
    QuadratureError,
    SymmetryError,
    TrigPolynomial,
    ValidationError,
    interval_interpolate,
    interval_nodes_csv,
    interval_nodes_from_measure,
    make_nodal_system,
    roots_of_unimodular,
    szego_transform_weight,
    szego_recurrence,
    trig_interpolate_paraorthogonal,
    trig_interpolate_symmetric,
    trig_nodes_symmetric,
    verblunsky_coefficients,
)

from circleinterp import laurent, opuc, transforms
from circleinterp.cli import INTERVAL_WEIGHTS
from circleinterp.opuc import _even_moments
from conftest import (
    chebyshev1_weight,
    midpoint_moments,
    plain_moments,
    real_barycentric,
)


def legendre_weight(x):
    return np.ones_like(np.asarray(x, dtype=float))


def cheb_closed_form(variant: str, n: int) -> np.ndarray:
    """Interior interval nodes of the Chebyshev-1 weight, in closed form."""
    j = np.arange(1, n + 1)
    if variant == "mu1":
        return np.cos((2 * j - 1) * np.pi / (2 * n))
    if variant == "mu2":
        return np.cos(j * np.pi / (n + 1))
    if variant == "mu3":
        return np.cos(2 * np.pi * j / (2 * n + 1))
    if variant == "mu4":
        return np.cos((2 * j - 1) * np.pi / (2 * n + 1))
    raise ValueError(variant)


class TestSzegoTransform:
    def test_chebyshev1_maps_to_constant(self):
        """(1/2) (1-x^2)^{-1/2} |sin theta| with x = cos theta is 1/2 away
        from the removable singularities at theta = 0, pi."""
        spec = szego_transform_weight(chebyshev1_weight)
        theta = 2.0 * np.pi * (np.arange(32) + 0.5) / 32
        assert np.max(np.abs(spec.weight(theta) - 0.5)) < 1e-12

    def test_mass(self, monkeypatch):
        # |sin theta| has a kink, so the quadrature converges only
        # algebraically; a looser tolerance keeps this cheap
        monkeypatch.setattr(opuc, "_QUADRATURE_TOL", 1e-9)
        spec = szego_transform_weight(lambda x: np.ones_like(x))
        m = opuc._moments(spec, 0)
        # int (1/2)|sin theta| dtheta = 2
        assert m[0].real == pytest.approx(2.0, rel=1e-8)


class TestIntervalMoments:
    """Interval weights are even on the circle: their moments come from the
    half grid by one real cosine transform and are exactly real."""

    @pytest.mark.parametrize("name", sorted(INTERVAL_WEIGHTS))
    def test_alphas_exactly_real(self, name):
        nu = szego_transform_weight(INTERVAL_WEIGHTS[name])
        for N in (256, 257, 258):
            alphas = verblunsky_coefficients(nu, N)
            assert np.all(alphas.imag == 0)

    @pytest.mark.parametrize("w", [legendre_weight] + [
        INTERVAL_WEIGHTS[name] for name in ("chebyshev2", "chebyshev3", "chebyshev4")
    ], ids=["legendre", "chebyshev2", "chebyshev3", "chebyshev4"])
    @pytest.mark.parametrize("m", [256, 1024])
    def test_half_grid_matches_full_circle(self, w, m):
        """Every k < m, so the aliased moments above m/4 and m/2 are checked
        too."""
        circle_w = szego_transform_weight(w).weight
        ref = midpoint_moments(circle_w, m, m - 1)
        got = _even_moments(circle_w, m, np.arange(m))
        assert np.max(np.abs(got - ref)) <= 1e-15 * ref[0].real

    @pytest.mark.parametrize("name,mp_weight", [
        ("chebyshev2", lambda mp, x: mp.sqrt(1 - x * x)),
        ("chebyshev3", lambda mp, x: mp.sqrt((1 + x) / (1 - x))),
        ("chebyshev4", lambda mp, x: mp.sqrt((1 - x) / (1 + x))),
    ], ids=["chebyshev2", "chebyshev3", "chebyshev4"])
    def test_chebyshev_moments_match_mpmath(self, name, mp_weight):
        """The moments of the Szego transform are int w(x) T_k(x) dx."""
        mp = pytest.importorskip("mpmath")
        got = opuc._moments(szego_transform_weight(INTERVAL_WEIGHTS[name]), 24)
        assert np.all(got.imag == 0)
        ks = [0, 1, 2, 3, 7, 12, 24]
        with mp.workdps(30):
            ref = [float(mp.quad(lambda x: mp_weight(mp, x) * mp.chebyt(k, x), [-1, 0, 1]))
                   for k in ks]
        assert np.max(np.abs(got[ks].real - ref)) < 1e-13

    def test_failing_quadrature_memory(self):
        """The Legendre weight converges like m^-2, which cannot reach tol
        1e-12 by 2^20 points: the doubling stops at 2^15 points or sooner,
        and the peak stays at a few MB (measured 0.8 MB), not the 21 MB
        that running every level to 2^20 took."""
        nu = szego_transform_weight(legendre_weight)
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError) as info:
                verblunsky_coefficients(nu, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "converges like m^-2.00" in str(info.value)
        points = int(re.search(r"at (\d+) points", str(info.value)).group(1))
        assert points <= 2**15
        assert peak < 3e6

    @pytest.mark.parametrize("a,b,order", [(0.0, 0.0, "2.00"), (1.5, -0.3, "1.40")])
    @pytest.mark.parametrize("N", [129, 257])
    def test_power_law_declined_early(self, a, b, order, N):
        """The Szego transform of (1-x)^a (1+x)^b behaves like |theta|^{2a+1}
        and |theta - pi|^{2b+1}, so the midpoint rule converges like
        m^-(2 min(a, b) + 2).  The plain loop fails too, at 2^20 points."""
        def w(x):
            return (1.0 - x) ** a * (1.0 + x) ** b
        nu = szego_transform_weight(w)
        with pytest.raises(QuadratureError) as info:
            verblunsky_coefficients(nu, N)
        message = str(info.value)
        assert f"converges like m^-{order}" in message
        assert int(re.search(r"at (\d+) points", message).group(1)) <= 2**15
        assert "above the cap 2^20" in message
        with pytest.raises(QuadratureError):
            plain_moments(nu, N)

    def test_border_converges_at_the_cap(self, monkeypatch):
        """Legendre at tol 1e-11 converges at exactly 2^20 points; its
        power law must not decline it on the way."""
        nu = szego_transform_weight(legendre_weight)
        ref, points = plain_moments(nu, 128, tol=1e-11)
        assert points == 2**20
        monkeypatch.setattr(opuc, "_QUADRATURE_TOL", 1e-11)
        assert opuc._moments(nu, 128).tobytes() == ref.tobytes()


class TestIntervalNodes:
    @pytest.mark.parametrize("variant,endpoints", [
        ("mu1", (False, False)),
        ("mu2", (True, True)),
        ("mu3", (False, True)),
        ("mu4", (True, False)),
    ])
    def test_chebyshev_closed_forms(self, variant, endpoints):
        for n in (1, 2, 5, 8):
            sys = interval_nodes_from_measure(chebyshev1_weight, n, variant)
            assert (sys.has_minus_one, sys.has_plus_one) == endpoints
            expected = np.sort(cheb_closed_form(variant, n))
            assert np.max(np.abs(sys.xs - expected)) < 1e-11

    def test_interior_nodes_sorted_open_interval(self):
        sys = interval_nodes_from_measure(chebyshev1_weight, 6, "mu2")
        assert np.all(np.diff(sys.xs) > 0)
        assert np.all(np.abs(sys.xs) < 1.0)
        assert sys.all_nodes[0] == -1.0 and sys.all_nodes[-1] == 1.0
        assert len(sys.all_nodes) == 8

    def test_invalid_variant(self):
        with pytest.raises(ValidationError):
            interval_nodes_from_measure(chebyshev1_weight, 3, "mu5")

    @pytest.mark.parametrize("thetas,match", [
        ([0.5, 1.0, 1.5, -1.0], "half-plane counts differ"),
        ([0.5, 1.0, -0.5, -1.2], "fail conjugate symmetry by 1.997e-01"),
        ([0.0, 1.0, -1.0, np.pi], r"expected 2 conjugate pairs with endpoints \(-1: False, \+1: False\)"),
    ], ids=["counts", "pairing", "endpoints"])
    def test_asymmetric_zeros_raise(self, monkeypatch, thetas, match):
        """Solver output that a real weight cannot give: a mu1 system of
        n = 2 needs two conjugate pairs and no real zero."""
        system = make_nodal_system(np.exp(1j * np.array(thetas)))
        monkeypatch.setattr(transforms, "paraorthogonal_nodes", lambda alphas, spec: system)
        with pytest.raises(SymmetryError, match=match):
            interval_nodes_from_measure(chebyshev1_weight, 2, "mu1")

    def test_csv_export(self):
        sys = interval_nodes_from_measure(chebyshev1_weight, 2, "mu2")
        text = interval_nodes_csv(sys)
        lines = text.strip().splitlines()
        assert lines[0] == "j,x_j,theta_j,endpoint_flag"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[1] == "-1.0" and first[3] == "1"


class TestIntervalInterpolation:
    def test_exact_on_polynomials(self):
        sys = interval_nodes_from_measure(chebyshev1_weight, 6, "mu1")
        poly = interval_interpolate(sys, lambda x: x**3 - 2 * x + 1)
        xg = np.linspace(-1, 1, 301)
        assert np.max(np.abs(poly(xg) - (xg**3 - 2 * xg + 1))) < 1e-12

    def test_matches_real_barycentric_oracle(self):
        for variant in ("mu1", "mu2", "mu3", "mu4"):
            sys = interval_nodes_from_measure(chebyshev1_weight, 8, variant)
            f = np.exp
            poly = interval_interpolate(sys, f)
            oracle = real_barycentric(sys.all_nodes, f(sys.all_nodes))
            xg = np.linspace(-1, 1, 401)
            assert np.max(np.abs(poly(xg) - oracle(xg))) < 1e-9

    def test_rejects_complex_values(self):
        sys = interval_nodes_from_measure(chebyshev1_weight, 4, "mu1")
        with pytest.raises(ValidationError, match="f must return one real number"):
            interval_interpolate(sys, lambda x: 1j * x)

    def test_asymmetric_circle_system_leaves_imaginary_residue(self):
        """Nodes that are not conjugate-closed do not fold to a real
        polynomial in x."""
        circle = roots_of_unimodular(8, np.exp(0.3j))
        sys = IntervalNodalSystem(xs=np.sort(circle.nodes.real[:4]), circle_system=circle)
        with pytest.raises(SymmetryError, match="imaginary residue"):
            interval_interpolate(sys, np.exp)

    def test_interpolates_node_values(self):
        sys = interval_nodes_from_measure(chebyshev1_weight, 10, "mu2")
        f = lambda x: np.abs(x) ** 0.6
        poly = interval_interpolate(sys, f)
        assert np.max(np.abs(poly(sys.all_nodes) - f(sys.all_nodes))) < 1e-10

    def test_endpoint_accuracy_at_high_degree(self):
        """At x = +-1 the mu1 interpolant extrapolates past its outermost
        nodes.  For the Chebyshev-2 weight at n = 128 and a Hoelder member
        it matches 40-digit Lagrange interpolation through the same nodes
        and values there to 3e-14 (9e-15 measured).  The circle kernel's
        node powers z_j^p set this error."""
        mp = pytest.importorskip("mpmath")
        f = lambda x: np.abs(np.sin(np.arccos(np.clip(x, -1.0, 1.0)) / 2.0)) ** 0.8
        sys = interval_nodes_from_measure(INTERVAL_WEIGHTS["chebyshev2"], 128, "mu1")
        poly = interval_interpolate(sys, f)
        with mp.workdps(40):
            xs = [mp.mpf(float(x)) for x in sys.xs]
            fs = [mp.mpf(float(v)) for v in f(sys.xs)]

            def lagrange(t):
                total = 0
                for j, xj in enumerate(xs):
                    term = fs[j]
                    for k, xk in enumerate(xs):
                        if k != j:
                            term *= (t - xk) / (xj - xk)
                    total += term
                return float(total)

            for t in (-1.0, 1.0):
                assert abs(poly(t) - lagrange(mp.mpf(t))) < 3e-14

    def test_rough_function_converges(self):
        f = lambda x: np.abs(x) ** 0.6
        errs = []
        for n in (8, 64):
            sys = interval_nodes_from_measure(chebyshev1_weight, n, "mu1")
            poly = interval_interpolate(sys, f)
            xg = np.linspace(-1, 1, 2001)
            errs.append(np.max(np.abs(poly(xg) - f(xg))))
        assert errs[1] < 0.5 * errs[0]


class TestTrig:
    def test_symmetric_angles_mirror(self):
        theta = trig_nodes_symmetric(chebyshev1_weight, 4)
        assert len(theta) == 8
        assert np.all(np.diff(theta) > 0)
        assert np.max(np.abs((theta + theta[::-1]) - 2 * np.pi)) < 1e-12

    @pytest.mark.parametrize("n", [3, 8, 33])
    def test_symmetric_angles_are_the_circle_system(self, n):
        """The 2n angles are those of the mu1 circle system, not re-derived
        from the interval nodes."""
        circle = interval_nodes_from_measure(chebyshev1_weight, n, "mu1").circle_system
        np.testing.assert_array_equal(trig_nodes_symmetric(chebyshev1_weight, n),
                                      np.sort(circle.thetas))

    def test_chebyshev_symmetric_angles_closed_form(self):
        theta = trig_nodes_symmetric(chebyshev1_weight, 3)
        j = np.arange(1, 4)
        expected = (2 * j - 1) * np.pi / 6
        assert np.max(np.abs(theta[:3] - expected)) < 1e-11

    def test_interpolation_conditions(self):
        F = lambda t: np.exp(np.sin(t)) + 0.3 * np.cos(2 * t)
        n = 6
        tp = trig_interpolate_symmetric(chebyshev1_weight, n, F)
        theta = trig_nodes_symmetric(chebyshev1_weight, n)
        assert tp.degree <= n
        assert np.max(np.abs(tp(theta) - F(theta))) < 1e-11

    def test_rejects_complex_values(self):
        """A cast would keep the real part: the zero polynomial here."""
        with pytest.raises(ValidationError, match="f must return one real number"):
            trig_interpolate_symmetric(chebyshev1_weight, 4, lambda t: 1j * np.cos(t))

    def test_reproduces_cosine(self):
        tp = trig_interpolate_symmetric(chebyshev1_weight, 3, np.cos)
        tg = np.linspace(0, 2 * np.pi, 97)
        assert np.max(np.abs(tp(tg) - np.cos(tg))) < 1e-12

    def test_para_variant_conditions(self):
        alphas = szego_recurrence(np.zeros(9), 9)
        F = lambda t: 1.0 / (2.0 + np.cos(t))
        for n in (8, 9):
            tp = trig_interpolate_paraorthogonal(alphas, 1.0, n, F)
            assert tp.degree == n // 2
            # nodes are the n-th roots of -1 here
            theta = np.sort(np.mod(np.angle(np.exp(1j * (np.pi + 2 * np.pi * np.arange(n)) / n)), 2 * np.pi))
            assert np.max(np.abs(tp(theta) - F(theta))) < 1e-11

    @pytest.mark.parametrize("weight", ["chebyshev1", "chebyshev3"])
    @pytest.mark.parametrize("n", [3, 16])
    def test_symmetric_is_paraorthogonal_on_the_weights_alphas(self, weight, n):
        """The symmetric transfer is the para-orthogonal one on the
        Verblunsky coefficients of the Szego-transformed weight, with
        tau = 1 and 2n nodes, bit for bit."""
        w, F = INTERVAL_WEIGHTS[weight], lambda t: np.exp(np.sin(t)) + 0.3 * np.cos(2 * t)
        alphas = verblunsky_coefficients(szego_transform_weight(w), 2 * n)
        sym = trig_interpolate_symmetric(w, n, F)
        para = trig_interpolate_paraorthogonal(alphas, 1.0, 2 * n, F)
        np.testing.assert_array_equal(sym.a, para.a)
        np.testing.assert_array_equal(sym.b, para.b)

    def test_coefficients_are_real(self):
        tp = trig_interpolate_symmetric(chebyshev1_weight, 5, lambda t: np.sin(3 * t))
        assert tp.a.dtype == float and tp.b.dtype == float
        tg = np.linspace(0, 2 * np.pi, 64)
        assert np.max(np.abs(tp(tg) - np.sin(3 * tg))) < 1e-11

    def test_trig_polynomial_validation(self):
        with pytest.raises(ValidationError):
            TrigPolynomial(a=[1.0, 2.0], b=[])

    @pytest.mark.parametrize("degree", [0, 1, 64])
    def test_trig_polynomial_matches_cos_sin_sum(self, degree):
        """a_0 + Re sum_k (a_k - i b_k) e^{ik theta} against the cos and sin
        sum, on arrays of any shape, on a scalar and on a rotated uniform
        grid, which takes the FFT."""
        gen = np.random.default_rng(degree)
        a, b = gen.standard_normal(degree + 1), gen.standard_normal(degree)
        tp = TrigPolynomial(a=a, b=b)

        def loop(theta):
            k = np.arange(1, degree + 1)
            kt = np.multiply.outer(theta, k)
            return a[0] + (np.cos(kt) * a[1:]).sum(axis=-1) + (np.sin(kt) * b).sum(axis=-1)

        tol = 1e-13 * (np.sum(np.abs(a)) + np.sum(np.abs(b)))
        theta = gen.uniform(0, 2 * np.pi, (3, 50))
        got = tp(theta)
        assert got.shape == theta.shape and got.dtype == float
        assert np.max(np.abs(got - loop(theta))) <= tol
        scalar = tp(1.25)
        assert isinstance(scalar, float)
        assert abs(scalar - loop(np.float64(1.25))) <= tol
        # uniform theta takes the FFT, and matches Horner and the loop
        uniform = 2 * np.pi * (np.arange(257) + 0.37) / 257
        got = tp(uniform)
        L = LaurentPolynomial(p=0, q=degree, coeffs=np.concatenate([a[:1], a[1:] - 1j * b]))
        assert laurent._grid_rotation(np.exp(1j * uniform)) is not None
        assert np.max(np.abs(got - laurent._horner(L, np.exp(1j * uniform)).real)) <= tol
        assert np.max(np.abs(got - loop(uniform))) <= tol

