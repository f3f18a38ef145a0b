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
    bernstein_szego,
    finite_verblunsky,
    interval_interpolate,
    interval_nodes_from_measure,
    jacobi_weight,
    lebesgue_measure,
    make_nodal_system,
    quadrature_weight,
    roots_of_unimodular,
    szego_transform_weight,
    szego_recurrence,
    trig_interpolate_paraorthogonal,
    trig_interpolate_symmetric,
    verblunsky_coefficients,
)

from circleinterp import laurent, opuc, transforms
from circleinterp.cli import INTERVAL_WEIGHTS
from conftest import (
    CHEBYSHEV_WEIGHTS,
    chebyshev1_weight,
    golub_welsch_nodes,
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
    """Interval weights are even on the circle, so their moments are real:
    the quadrature keeps the real part of each full-circle FFT, and the
    alphas are exactly real."""

    @pytest.mark.parametrize("name", sorted(CHEBYSHEV_WEIGHTS))
    def test_alphas_exactly_real(self, name):
        nu = szego_transform_weight(CHEBYSHEV_WEIGHTS[name])
        for N in (256, 257, 258):
            alphas = verblunsky_coefficients(nu, N)
            assert np.all(alphas.imag == 0)

    @pytest.mark.parametrize("N", [258, 2050])
    def test_chebyshev_callables_match_closed_form(self, N):
        """Quadrature and Levinson on the four Chebyshev callables against
        their closed-form alphas (measured at most 1.8e-13 at N = 2050)."""
        exponents = {"chebyshev1": (-0.5, -0.5), "chebyshev2": (0.5, 0.5),
                     "chebyshev3": (-0.5, 0.5), "chebyshev4": (0.5, -0.5)}
        for name, (a, b) in exponents.items():
            got = verblunsky_coefficients(szego_transform_weight(CHEBYSHEV_WEIGHTS[name]), N)
            assert np.max(np.abs(got - opuc._jacobi_alphas(a, b, N))) < 3e-13

    @pytest.mark.parametrize("w", [legendre_weight] + [
        CHEBYSHEV_WEIGHTS[name] for name in ("chebyshev2", "chebyshev3", "chebyshev4")
    ], ids=["legendre", "chebyshev2", "chebyshev3", "chebyshev4"])
    @pytest.mark.parametrize("m", [256, 1024])
    def test_half_grid_matches_full_circle(self, w, m):
        """The half grid fixes the moments of an even weight, which are
        real: the imaginary parts that the full-circle FFT leaves, and the
        quadrature drops, are rounding.  Every k < m, so the aliased
        moments above m/4 and m/2 are checked too."""
        got = midpoint_moments(szego_transform_weight(w).weight, m, m - 1)
        assert np.max(np.abs(got.imag)) <= 1e-15 * got[0].real

    @pytest.mark.parametrize("name,mp_weight", [
        ("chebyshev2", lambda mp, x: mp.sqrt(1 - x * x)),
        ("chebyshev3", lambda mp, x: mp.sqrt((1 + x) / (1 - x))),
        ("chebyshev4", lambda mp, x: mp.sqrt((1 - x) / (1 + x))),
    ], ids=["chebyshev2", "chebyshev3", "chebyshev4"])
    def test_chebyshev_moments_match_mpmath(self, name, mp_weight):
        """The moments of the Szego transform are int w(x) T_k(x) dx."""
        mp = pytest.importorskip("mpmath")
        got = opuc._moments(szego_transform_weight(CHEBYSHEV_WEIGHTS[name]), 24)
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
    @pytest.mark.parametrize("N", [128, 129, 256, 257])
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
        ([0.5, 1.0, 1.5, -1.0], r"got 3 above the real axis, 1 below, 0 at -1 and 0 at \+1"),
        ([0.5, 1.0, -0.5, -1.2], "fail conjugate symmetry by 1.997e-01"),
        ([0.0, 1.0, -1.0, np.pi], "variant mu1 with 2 interior nodes expected; the zeros give "
                                  "mu2 with 1"),
    ], ids=["counts", "pairing", "endpoints"])
    def test_asymmetric_zeros_raise(self, monkeypatch, thetas, match):
        """Solver output that a real weight cannot give: the zeros must be
        as many above the real axis as below, and the two halves conjugate;
        and a mu1 system of n = 2 needs two pairs and no zero on the axis."""
        system = make_nodal_system(np.exp(1j * np.array(thetas)))
        monkeypatch.setattr(transforms, "paraorthogonal_nodes", lambda alphas, spec: system)
        with pytest.raises(SymmetryError, match=match):
            interval_nodes_from_measure(chebyshev1_weight, 2, "mu1")

    def test_non_conjugate_circle_system_raises(self):
        """The roots of z^8 = e^{0.3i} lie four above the real axis and four
        below, but no two are conjugate."""
        with pytest.raises(SymmetryError, match="fail conjugate symmetry by 6.956e-01"):
            IntervalNodalSystem(roots_of_unimodular(8, np.exp(0.3j)))

    @pytest.mark.parametrize("weight", sorted(INTERVAL_WEIGHTS))
    @pytest.mark.parametrize("variant", ["mu1", "mu2", "mu3", "mu4"])
    def test_variant_is_read_off_the_zeros(self, weight, variant):
        """Rebuilt from its circle system alone, a system gives back the
        requested variant and its nodes and angles, bit for bit; the
        angles are the arccos of the nodes."""
        sys = interval_nodes_from_measure(INTERVAL_WEIGHTS[weight], 9, variant)
        again = IntervalNodalSystem(sys.circle_system)
        assert sys.variant == again.variant == variant
        assert len(again.all_nodes) == 9 + again.has_minus_one + again.has_plus_one
        for name in ("xs", "all_nodes", "thetas"):
            assert getattr(again, name).tobytes() == getattr(sys, name).tobytes()
        assert np.max(np.abs(np.cos(sys.thetas) - sys.all_nodes)) < 1e-15

    def test_nodes_come_from_the_zeros_only(self):
        """xs and variant are read off the circle system, not given: a
        hand-built system with xs scaled by 0.9 gave a fit 0.18 off f at
        its own nodes, with no error."""
        sys = interval_nodes_from_measure(chebyshev1_weight, 6, "mu1")
        with pytest.raises(TypeError):
            IntervalNodalSystem(circle_system=sys.circle_system, xs=0.9 * sys.xs)
        with pytest.raises(TypeError):
            IntervalNodalSystem(sys.circle_system, variant="mu2")


def upper_angles(sys):
    """The angles in (0, pi) of the circle zeros above the real axis,
    increasing: arccos of the interior nodes, without the cancellation
    arccos has next to x = +-1."""
    z = sys.circle_system.nodes
    return np.sort(np.angle(z[z.imag > 1e-12]))


def symmetric_angles(w, n):
    """The 2n angles of the mu1 circle system of w, increasing."""
    return np.sort(interval_nodes_from_measure(w, n).circle_system.thetas)


class TestJacobiRoute:
    """A "jacobi" spec takes its alphas in closed form: no moment
    quadrature, no Levinson recursion."""

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.5, -0.3)], ids=["legendre", "jacobi"])
    @pytest.mark.parametrize("variant", ["mu1", "mu2", "mu3", "mu4"])
    def test_matches_golub_welsch(self, a, b, variant):
        """The interior nodes are the Gauss nodes of the weight times (1 - x)
        for a node at +1 and (1 + x) for one at -1 (Gauss-Radau/Lobatto);
        measured at most 3.3e-13 rad at n = 2048."""
        for n in (64, 512, 2048):
            sys = interval_nodes_from_measure(jacobi_weight(a, b), n, variant)
            A, B = a + (variant in ("mu2", "mu3")), b + (variant in ("mu2", "mu4"))
            ref = np.sort(np.arccos(golub_welsch_nodes(A, B, n)))
            assert np.max(np.abs(upper_angles(sys) - ref)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 4096])
    def test_chebyshev1_nodes_to_the_last_bit(self, n):
        """All alphas are 0, so the mu1 zeros solve 2n theta = pi mod 2 pi:
        theta_j = (2j - 1) pi / (2n) to 1e-15 rad."""
        sys = interval_nodes_from_measure(INTERVAL_WEIGHTS["chebyshev1"], n, "mu1")
        ref = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
        assert np.max(np.abs(upper_angles(sys) - ref)) <= 1e-15

    def test_takes_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("moment quadrature called")

        monkeypatch.setattr(opuc, "_moments", refuse)
        F = lambda t: np.cos(t)
        for name, w in INTERVAL_WEIGHTS.items():
            interval_nodes_from_measure(w, 8, "mu2")
            trig_interpolate_symmetric(w, 8, F)

    def test_interval_weight_spec_is_taken_as_it_is(self):
        """A Szego-transformed callable gives the callable's nodes, bit for bit."""
        spec = szego_transform_weight(CHEBYSHEV_WEIGHTS["chebyshev3"])
        got = interval_nodes_from_measure(spec, 5, "mu3").circle_system.nodes
        want = interval_nodes_from_measure(CHEBYSHEV_WEIGHTS["chebyshev3"], 5, "mu3").circle_system.nodes
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("w,match", [
        (finite_verblunsky([0.5, 0.3j]), r"alpha_1 = 0.3j is not real"),
        (quadrature_weight(lambda t: 1.0 + 0.5 * np.sin(t)), r"alpha_0 = \(.*j\) is not real"),
        (0.5, "interval weight must be a callable of x, got float"),
    ], ids=["finite-verblunsky", "quadrature-weight", "number"])
    def test_refuses_other_weights(self, w, match):
        """A measure is an interval weight when its alphas are real: the first
        nonreal alpha_k is named.  A number is refused as a weight."""
        for call in (lambda: interval_nodes_from_measure(w, 3),
                     lambda: trig_interpolate_symmetric(w, 3, np.cos)):
            with pytest.raises(ValidationError, match=match):
                call()


def bernstein_szego_interval(r):
    """1 / ((1 + r^2 - 2 r x) sqrt(1 - x^2)) as a callable: its Szego
    transform is 1 / (2 |1 - r e^{i theta}|^2), whose alphas are exactly
    (r, 0, 0, ..) (bernstein_szego([1, -r]))."""
    return lambda x: 1.0 / ((1.0 + r * r - 2.0 * r * x) * np.sqrt(1.0 - x * x))


class TestRealAlphas:
    """An interval measure is one with real Verblunsky coefficients: any
    MeasureSpec whose alphas are real is taken."""

    @pytest.mark.parametrize("r,last_level", [(0.9, 1024), (0.95, 4096)])
    def test_quadrature_meets_the_bernstein_szego_alphas(self, monkeypatch, r, last_level):
        """The callable is not a trigonometric polynomial, so the doubling
        loop runs from 256 points to last_level.  Its alphas and node angles
        agree with the exact ones to 1e-13 (measured 2.3e-14 and 1.7e-14)."""
        levels = []
        midpoint_moments = opuc._midpoint_moments
        monkeypatch.setattr(opuc, "_midpoint_moments",
                            lambda w, m, N: levels.append(m) or midpoint_moments(w, m, N))
        w, exact = bernstein_szego_interval(r), bernstein_szego([1.0, -r])
        for n in (8, 64):
            levels.clear()
            got = verblunsky_coefficients(szego_transform_weight(w), n)
            assert levels == [256 * 2**i for i in range(len(levels))] and levels[-1] == last_level
            assert np.max(np.abs(got - verblunsky_coefficients(exact, n))) < 1e-13
            for variant in transforms.VARIANTS:
                got, want = (interval_nodes_from_measure(v, n, variant).thetas for v in (w, exact))
                assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("variant", transforms.VARIANTS)
    def test_three_specs_of_chebyshev1_give_the_same_bits(self, variant):
        """Lebesgue measure, the constant circle weight and jacobi_weight(-0.5, -0.5)
        all have alphas 0, so they give the same nodes bit for bit."""
        for n in (1, 3, 8, 64, 257, 1024):
            specs = (jacobi_weight(-0.5, -0.5), lebesgue_measure(), quadrature_weight(np.ones_like))
            systems = [interval_nodes_from_measure(w, n, variant) for w in specs]
            for sys in systems[1:]:
                assert sys.circle_system.nodes.tobytes() == systems[0].circle_system.nodes.tobytes()
                assert sys.all_nodes.tobytes() == systems[0].all_nodes.tobytes()


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

    def test_asymmetric_circle_system_leaves_imaginary_residue(self, monkeypatch):
        """Nodes that are not conjugate-closed do not fold to a real
        polynomial in x.  Such a system can no longer be built, so the fit
        it would give, c_k and c_{-k} not conjugate, is patched in: the
        residue check stays as a safety net."""
        sys = interval_nodes_from_measure(chebyshev1_weight, 4, "mu1")
        pos = np.array([1.0, 0.5j, 0.25])
        monkeypatch.setattr(transforms, "_folded_fit", lambda system, values: (pos, pos.real))
        with pytest.raises(SymmetryError, match="imaginary residue 2.500e-01"):
            interval_interpolate(sys, np.exp)

    def test_interpolates_node_values(self):
        sys = interval_nodes_from_measure(chebyshev1_weight, 10, "mu2")
        f = lambda x: np.abs(x) ** 0.6
        poly = interval_interpolate(sys, f)
        assert np.max(np.abs(poly(sys.all_nodes) - f(sys.all_nodes))) < 1e-10

    @pytest.mark.parametrize("variant", ["mu1", "mu2"])
    def test_node_value_of_a_pair_with_unequal_real_parts(self, variant):
        """On the Chebyshev-2 weight at n = 33 the middle node is
        x = 6.1e-17, but the real part of its conjugate partner is
        -1.8e-16.  f at both real parts gave the interpolant 2.74e-10 there,
        where f is 1.87e-10; each circle node now takes f at its interval
        node."""
        f = lambda x: np.abs(x) ** 0.6
        sys = interval_nodes_from_measure(INTERVAL_WEIGHTS["chebyshev2"], 33, variant)
        z = sys.circle_system.nodes
        assert len(set(z.real[np.abs(z.real) < 1e-15].tolist())) == 2
        poly = interval_interpolate(sys, f)
        assert np.max(np.abs(poly(sys.all_nodes) - f(sys.all_nodes))) < 1e-14

    @pytest.mark.parametrize("n,tol", [(33, 1e-14), (129, 4e-14)])
    def test_meets_f_at_its_nodes(self, n, tol):
        """Each interpolant of |x|^0.6 takes f at its own nodes, on the four
        weights and mu1 to mu4, and f runs once per interval node.  Its
        degree is one less than the node count, mu1 included, whose window
        also reaches T_n."""
        calls = []

        def f(x):
            calls.append(len(x))
            return np.abs(x) ** 0.6

        for weight in sorted(INTERVAL_WEIGHTS):
            for variant in ("mu1", "mu2", "mu3", "mu4"):
                sys = interval_nodes_from_measure(INTERVAL_WEIGHTS[weight], n, variant)
                calls.clear()
                poly = interval_interpolate(sys, f)
                assert calls == [len(sys.all_nodes)]
                assert poly.degree() == len(sys.all_nodes) - 1
                assert np.max(np.abs(poly(sys.all_nodes) - f(sys.all_nodes))) < tol

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
        theta = symmetric_angles(chebyshev1_weight, 4)
        assert len(theta) == 8
        assert np.all(np.diff(theta) > 0)
        assert np.max(np.abs((theta + theta[::-1]) - 2 * np.pi)) < 1e-12

    @pytest.mark.parametrize("n", [3, 8, 33])
    def test_symmetric_angles_are_the_circle_system(self, n):
        """The interval system's node angles are the n symmetric angles in
        (0, pi) of its mu1 circle system, not re-derived from the interval
        nodes."""
        sys = interval_nodes_from_measure(chebyshev1_weight, n, "mu1")
        np.testing.assert_array_equal(sys.thetas[::-1], np.sort(sys.circle_system.thetas)[:n])

    def test_chebyshev_symmetric_angles_closed_form(self):
        theta = symmetric_angles(chebyshev1_weight, 3)
        j = np.arange(1, 4)
        expected = (2 * j - 1) * np.pi / 6
        assert np.max(np.abs(theta[:3] - expected)) < 1e-11

    def test_interpolation_conditions(self):
        F = lambda t: np.exp(np.sin(t)) + 0.3 * np.cos(2 * t)
        n = 6
        tp = trig_interpolate_symmetric(chebyshev1_weight, n, F)
        theta = symmetric_angles(chebyshev1_weight, n)
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

    @pytest.mark.parametrize("weight", ["chebyshev1", "chebyshev3",
                                        "chebyshev2-jacobi", "chebyshev3-jacobi"])
    @pytest.mark.parametrize("n", [3, 16])
    def test_symmetric_is_paraorthogonal_on_the_weights_alphas(self, weight, n):
        """The symmetric transfer is the para-orthogonal one on the
        Verblunsky coefficients of the Szego-transformed weight, with
        tau = 1 and 2n nodes, bit for bit: for a callable and for a
        "jacobi" spec."""
        if weight.endswith("-jacobi"):
            w = spec = INTERVAL_WEIGHTS[weight.removesuffix("-jacobi")]
        else:
            w = CHEBYSHEV_WEIGHTS[weight]
            spec = szego_transform_weight(w)
        F = lambda t: np.exp(np.sin(t)) + 0.3 * np.cos(2 * t)
        alphas = verblunsky_coefficients(spec, 2 * n)
        sym = trig_interpolate_symmetric(w, n, F)
        para = trig_interpolate_paraorthogonal(alphas, 1.0, 2 * n, F)
        np.testing.assert_array_equal(sym.a, para.a)
        np.testing.assert_array_equal(sym.b, para.b)

    def test_symmetric_transfers_skip_the_interval_classification(self, monkeypatch):
        """The symmetric trig transfer takes the para-orthogonal zeros
        directly; it never classifies them as interval nodes."""
        def refuse(*args, **kwargs):
            raise AssertionError("interval_nodes_from_measure called")

        want = symmetric_angles(chebyshev1_weight, 4)
        monkeypatch.setattr(transforms, "interval_nodes_from_measure", refuse)
        tp = trig_interpolate_symmetric(chebyshev1_weight, 4, np.cos)
        assert np.max(np.abs(tp(want) - np.cos(want))) < 1e-13

    @pytest.mark.parametrize("bad", [2.5, 0, "4"])
    def test_symmetric_transfers_check_n(self, bad):
        with pytest.raises(ValidationError, match="interior node count n"):
            interval_nodes_from_measure(chebyshev1_weight, bad)
        with pytest.raises(ValidationError, match="interior node count n"):
            trig_interpolate_symmetric(chebyshev1_weight, bad, np.cos)

    def test_coefficients_are_real(self):
        tp = trig_interpolate_symmetric(chebyshev1_weight, 5, lambda t: np.sin(3 * t))
        assert tp.a.dtype == float and tp.b.dtype == float
        tg = np.linspace(0, 2 * np.pi, 64)
        assert np.max(np.abs(tp(tg) - np.sin(3 * tg))) < 1e-11

    def test_trig_polynomial_validation(self):
        with pytest.raises(ValidationError):
            TrigPolynomial(a=[1.0, 2.0], b=[])

    @pytest.mark.parametrize("build,match", [
        (lambda: TrigPolynomial(a=[1.0, 1.0], b=[0.0])(np.array([1j])), "theta must be real"),
        (lambda: TrigPolynomial(a=[1.0, 1j], b=[0.0]), "a must be real"),
    ], ids=["point", "coefficient"])
    def test_trig_polynomial_refuses_complex_input(self, build, match):
        """A cast would drop the imaginary part (the value at theta = 0 for
        the point 1j) or raise a bare TypeError (a complex coefficient)."""
        with pytest.raises(ValidationError, match=match):
            build()

    @pytest.mark.parametrize("coeff", [None, "x"])
    def test_trig_polynomial_refuses_non_numbers(self, coeff):
        """A cast would store None as a NaN coefficient, or raise a bare
        ValueError on a string."""
        with pytest.raises(ValidationError, match="a must be real numbers"):
            TrigPolynomial(a=[1.0, coeff], b=[0.0])

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

