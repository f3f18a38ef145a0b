import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleinterp import (
    CircleInterpolant,
    ConditioningError,
    DegeneracyError,
    LaurentPolynomial,
    NodalSystem,
    ParaOrthogonalSpec,
    ValidationError,
    eval_interpolant,
    eval_laurent,
    fundamental_polynomial,
    interpolant_coefficients,
    interpolate,
    interpolation_error,
    make_degree_plan,
    make_nodal_system,
    paraorthogonal_nodes,
    roots_of_unimodular,
    coefficients_from_samples,
    corpus,
    szego_recurrence,
)
from circleinterp import interp, laurent, nodal

from conftest import brute_force_interpolant


class TestFundamentalPolynomials:
    def test_delta_property_small(self):
        sys = roots_of_unimodular(8, 1.0)
        plan = make_degree_plan(8, 0.5)
        for j in range(8):
            for k in range(8):
                val = fundamental_polynomial(sys, plan, j, sys.nodes[k])
                assert abs(val - (1.0 if j == k else 0.0)) < 1e-12

    def test_partition_of_unity(self, rng):
        """The constant 1 lies in every window, so sum_j l_j(z) = 1."""
        sys = roots_of_unimodular(16, 1.0)
        plan = make_degree_plan(16, 0.3)
        for t in rng.uniform(0, 2 * np.pi, 10):
            z = np.exp(1j * t)
            total = sum(fundamental_polynomial(sys, plan, j, z) for j in range(16))
            assert total == pytest.approx(1.0, abs=1e-11)

    def test_at_node_rule_skips_the_kernel(self, monkeypatch):
        """The kernel runs once for a point off the nodes, and not at all for
        a point at a node or 1e-15 from one."""
        sys = roots_of_unimodular(16, np.exp(0.3j))
        plan = make_degree_plan(16, 0.4)
        calls = _spy_kernel(monkeypatch)
        assert fundamental_polynomial(sys, plan, 2, sys.nodes[2]) == 1.0
        assert fundamental_polynomial(sys, plan, 2, sys.nodes[5] + 1e-15) == 0.0
        assert calls == []
        fundamental_polynomial(sys, plan, 2, np.exp(0.1j))
        assert calls == [1]

    def test_index_validation(self):
        sys = roots_of_unimodular(4, 1.0)
        plan = make_degree_plan(4, 0.5)
        with pytest.raises(ValidationError):
            fundamental_polynomial(sys, plan, 4, 1j)
        with pytest.raises(ValidationError):
            fundamental_polynomial(sys, plan, 0, 0.0)


class TestInterpolate:
    def test_reproduces_node_values(self, rng):
        sys = roots_of_unimodular(32, 1.0)
        plan = make_degree_plan(32, 0.5)
        values = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        I = interpolate(sys, plan, values)
        got = eval_interpolant(I, sys.nodes)
        assert np.max(np.abs(got - values)) < 1e-12

    def test_near_node_stability(self):
        sys = roots_of_unimodular(16, 1.0)
        plan = make_degree_plan(16, 0.5)
        values = np.cos(sys.thetas)
        I = interpolate(sys, plan, values)
        # a point 1e-14 away from a node must return the node value, not NaN
        z = sys.nodes[3] * np.exp(1e-14j)
        assert I(z) == pytest.approx(values[3], abs=1e-10)

    def test_exactness_on_window_member(self, rng):
        n = 20
        sys = roots_of_unimodular(n, 1.0)
        plan = make_degree_plan(n, 0.5)
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        G = LaurentPolynomial(p=plan.p, q=plan.q, coeffs=coeffs)
        I = interpolate(sys, plan, eval_laurent(G, sys.nodes))
        err = interpolation_error(I, lambda z: eval_laurent(G, z), grid_size=512)
        assert err < 1e-12 * np.sum(np.abs(coeffs))

    def test_aliasing_outside_window(self):
        """z^q+1 is outside [-p, q]; at the n-th roots of unity it aliases to
        z^(q+1-n) = z^{-p}, so the interpolant is exactly that monomial."""
        n = 12
        sys = roots_of_unimodular(n, 1.0)
        plan = make_degree_plan(n, 0.5)  # p=5, q=6
        I = interpolate(sys, plan, sys.nodes ** (plan.q + 1))
        L = interpolant_coefficients(I)
        assert L.coefficient(-plan.p) == pytest.approx(1.0, abs=1e-12)

    def test_dual_path_consistency(self, rng):
        """Barycentric evaluation and DFT coefficient recovery must agree on
        a transcendental target."""
        n = 24
        sys = roots_of_unimodular(n, np.exp(0.3j))
        plan = make_degree_plan(n, 0.4)
        F = lambda z: np.exp(z)
        I = interpolate(sys, plan, F(sys.nodes))
        L = interpolant_coefficients(I)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        assert np.max(np.abs(eval_interpolant(I, z) - eval_laurent(L, z))) < 1e-11

    def test_mismatched_sizes(self):
        sys = roots_of_unimodular(4, 1.0)
        for build in (interpolate, CircleInterpolant):
            with pytest.raises(ValidationError, match="plan is for n=5"):
                build(sys, make_degree_plan(5, 0.5), np.zeros(5))
            with pytest.raises(ValidationError, match="shape"):
                build(sys, make_degree_plan(4, 0.5), np.zeros(3))
            assert build(sys, make_degree_plan(4, 0.5), [1, 2, 3, 4]).values.dtype == complex

    @pytest.mark.parametrize("shape", [(4, 1), (4, 2), (1, 4), ()])
    def test_values_must_be_one_per_node(self, shape):
        sys = roots_of_unimodular(4, 1.0)
        with pytest.raises(ValidationError, match="shape"):
            interpolate(sys, make_degree_plan(4, 0.5), np.ones(shape))

    @pytest.mark.parametrize("shape", [(4, 50), (25, 8), (2, 3), (1, 1)])
    def test_points_of_any_shape(self, shape):
        """An array of points gives values of its shape, equal to those of
        the points one by one; at least 64 points on the circle take the
        coefficients, fewer the kernel."""
        sys = roots_of_unimodular(16, np.exp(0.3j))
        I = interpolate(sys, make_degree_plan(16, 0.5), np.cos(3 * sys.thetas))
        z = np.exp(1j * np.random.default_rng(5).uniform(0, 2 * np.pi, shape))
        got = eval_interpolant(I, z)
        assert got.shape == shape
        np.testing.assert_allclose(got.ravel(), [I(w) for w in z.ravel()], rtol=0, atol=1e-13)
        np.testing.assert_array_equal(got.ravel(), eval_interpolant(I, z.ravel()))

    def test_rejects_origin(self):
        sys = roots_of_unimodular(4, 1.0)
        I = interpolate(sys, make_degree_plan(4, 0.5), np.ones(4))
        with pytest.raises(ValidationError):
            eval_interpolant(I, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("z", [np.array([np.nan, 1j]), np.nan, np.array([np.inf]),
                                   complex(1.0, -np.inf)],
                             ids=["nan-array", "nan", "inf", "inf-imag"])
    def test_rejects_non_finite_points(self, z):
        sys = roots_of_unimodular(4, 1.0)
        plan = make_degree_plan(4, 0.5)
        I = interpolate(sys, plan, np.ones(4))
        with pytest.raises(ValidationError, match="finite"):
            eval_interpolant(I, z)
        if np.ndim(z) == 0:
            with pytest.raises(ValidationError, match="finite"):
                fundamental_polynomial(sys, plan, 0, z)

    def test_weights_are_formed_only_off_the_nodes(self):
        """The weights z_j^p / W_n'(z_j) are derived from the nodes and the
        window, the first time a point off the nodes needs them."""
        sys = roots_of_unimodular(16, np.exp(0.3j))
        plan = make_degree_plan(16, 0.4)
        I = interpolate(sys, plan, np.cos(3 * sys.thetas))
        I(sys.nodes)
        interpolant_coefficients(I)  # every sample is a node
        assert "weights" not in I.__dict__
        I(np.exp(0.1j))
        np.testing.assert_array_equal(I.__dict__["weights"],
                                      interp._phase_powers(sys.nodes, plan.p) / sys.derivs)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 64), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
    def test_exactness_property(self, n, r, seed):
        gen = np.random.default_rng(seed)
        sys = roots_of_unimodular(n, 1.0)
        plan = make_degree_plan(n, r)
        coeffs = gen.uniform(-1, 1, n) + 1j * gen.uniform(-1, 1, n)
        G = LaurentPolynomial(p=plan.p, q=plan.q, coeffs=coeffs)
        I = interpolate(sys, plan, eval_laurent(G, sys.nodes))
        z = np.exp(1j * gen.uniform(0, 2 * np.pi, 32))
        err = np.max(np.abs(eval_interpolant(I, z) - eval_laurent(G, z)))
        assert err <= 1e-10 * np.sum(np.abs(coeffs))

    def test_large_n_stable(self):
        n = 1024
        sys = roots_of_unimodular(n, 1.0)
        plan = make_degree_plan(n, 0.5)
        F = lambda z: np.exp(np.cos(np.angle(z)))
        I = interpolate(sys, plan, F(sys.nodes))
        assert interpolation_error(I, F, grid_size=4096) < 1e-10

    def test_error_of_a_corpus_function_takes_its_circle_lift(self):
        """A corpus function takes angles when called, so interpolation_error
        evaluates it through on_circle: 0.135 for holder:0.6 on 16 roots of
        unity, not the 0.812 of its call on the real parts of the points."""
        sys, F = roots_of_unimodular(16, 1.0), corpus("holder", 0.6)
        I = interpolate(sys, make_degree_plan(16, 0.5), F.on_circle(sys.nodes))
        z = np.exp(1j * laurent._uniform_angles(256))
        err = interpolation_error(I, F, grid_size=256)
        assert err == float(np.max(np.abs(F.on_circle(z) - eval_interpolant(I, z))))
        assert err == pytest.approx(0.135, abs=1e-3)


def _first_form_reference(I, z):
    """The first barycentric form with one complex log per factor z - z_j,
    and the size of its largest terms, |W(z) z^-p| sum_j |w_j u_j / (z - z_j)|."""
    d = z[:, None] - I.system.nodes[None, :]
    scale = np.exp(np.log(d).sum(axis=1) - I.plan.p * np.log(z))
    terms = I.weights * I.values / d
    return scale * terms.sum(axis=1), np.abs(scale) * np.abs(terms).sum(axis=1)


class TestPhasePowers:
    @pytest.mark.parametrize("p", [-1024, -129, 128, 4096])
    def test_matches_mpmath(self, p):
        """z^p on the unit circle to |p| (pi/4) eps against 40-digit mpmath.
        Angles just below 2 pi are where a power taken from arg z in
        [0, 2 pi) errs most, about 4 times this bound at these p."""
        mp = pytest.importorskip("mpmath")
        gen = np.random.default_rng(3)
        theta = np.concatenate([2.0 * np.pi - np.geomspace(1e-3, 1.0, 8),
                                gen.uniform(-np.pi, np.pi, 24)])
        z = np.exp(1j * theta)
        with mp.workdps(40):
            ref = np.array([complex((mp.mpc(v) / abs(mp.mpc(v))) ** p) for v in z])
        got = interp._phase_powers(z, p)
        assert np.max(np.abs(got - ref)) <= abs(p) * (np.pi / 4) * np.finfo(float).eps


class TestConditioningGate:
    def test_underflowing_derivatives_decline(self):
        """64 of 128 nodes 1.1e-10 apart: W'(z_j) underflows to 0 there.
        make_nodal_system names the underflow; a system assembled directly
        has an infinite Lebesgue function, and the gate must say so."""
        n = 128
        theta = 2.0 * np.pi * np.arange(n) / n
        theta[1:65] = theta[1] + 1.1e-10 * np.arange(64)
        nodes = np.exp(1j * theta)
        with pytest.raises(DegeneracyError, match="underflows to 0 at 64 of 128 nodes"):
            make_nodal_system(nodes)
        sys = NodalSystem(nodes=nodes, derivs=nodal._derivs_product(nodes))
        assert np.any(sys.derivs == 0)
        with pytest.raises(ConditioningError, match="1einf"):
            interpolate(sys, make_degree_plan(n, 0.5), np.ones(n))


class TestFirstForm:
    def test_window_member_on_clustered_nodes(self, monkeypatch):
        """Para-orthogonal nodes of 0.7(-1)^k, k < 16 (Lebesgue constant
        ~7e5): the blocked kernel loses no more than the per-factor
        reference.  On this member the second form
        sum_j w_j u_j/(z - z_j) / sum_j w_j/(z - z_j) has 3.8 times the
        reference's error, which is why evaluation keeps the first form."""
        n = 256
        alphas = np.zeros(n)
        alphas[:16] = 0.7 * (-1.0) ** np.arange(16)
        sys = paraorthogonal_nodes(szego_recurrence(alphas, n), ParaOrthogonalSpec(n=n, tau=1.0))
        plan = make_degree_plan(n, 0.25)
        gen = np.random.default_rng(2)
        coeffs = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) / np.sqrt(2 * n)
        G = LaurentPolynomial(p=plan.p, q=plan.q, coeffs=coeffs)
        I = interpolate(sys, plan, eval_laurent(G, sys.nodes))
        z = np.exp(2j * np.pi * (np.arange(4096) + 0.37) / 4096)
        exact = eval_laurent(G, z)
        ref = np.max(np.abs(_first_form_reference(I, z)[0] - exact))
        # 4096 points and 256 nodes: Horner on coefficients sampled by the
        # kernel at z_0 e^{2 pi i j/256}, of which z_0 = nodes[0] is a node
        calls = _spy_kernel(monkeypatch)
        err = np.max(np.abs(eval_interpolant(I, z) - exact))
        assert calls == [n - 1]
        assert err <= 2.0 * ref
        # the kernel itself on every point
        assert np.max(np.abs(_kernel(I, z) - exact)) <= 2.0 * ref

    def test_node_gaps_near_distinct_tol(self):
        """Sixteen nodes 1.2e-10 apart, evaluated between them and at
        |z| = 1e20, where a run of 16 factors z - z_j overflows a double."""
        n = 32
        theta = 2.0 * np.pi * np.arange(n) / n
        theta[1:17] = theta[1] + 1.2e-10 * np.arange(16)
        sys = make_nodal_system(np.exp(1j * theta))
        plan = make_degree_plan(n, 0.9)
        values = np.cos(3.0 * theta) + 0.5j * np.sin(theta)
        # the Lebesgue constant is far above the interpolate() gate, so
        # the interpolant is assembled directly
        I = CircleInterpolant(system=sys, plan=plan, values=values)
        t = np.concatenate([theta[1] + 1.2e-10 * (np.arange(16) + 0.5),
                            2.0 * np.pi * (np.arange(16) + 0.3) / 16])
        z = np.concatenate([np.exp(1j * t), 1e20 * np.exp(1j * t[::3])])
        ref, scale = _first_form_reference(I, z)
        assert np.all(np.isfinite(ref))
        # measured 3e-14
        assert np.all(np.abs(eval_interpolant(I, z) - ref) <= 1e-12 * scale)


def _spy_kernel(monkeypatch):
    """Record the number of points of every call to the first-form kernel."""
    calls = []
    kernel = interp._first_form

    def spy(system, p, wu, zz):
        calls.append(len(zz))
        return kernel(system, p, wu, zz)

    monkeypatch.setattr(interp, "_first_form", spy)
    return calls


def _kernel(I, z):
    return interp._first_form(I.system, I.plan.p, I.weights * I.values, z)


def _member(plan, seed):
    gen = np.random.default_rng(seed)
    coeffs = (gen.standard_normal(plan.n) + 1j * gen.standard_normal(plan.n)) / np.sqrt(2 * plan.n)
    return LaurentPolynomial(p=plan.p, q=plan.q, coeffs=coeffs)


def _other_nodes(n, how):
    """Roots of z^n = e^{0.7i}, shuffled or perturbed by 1e-9 rad, or the
    shuffled roots of z^n = 1; with values."""
    nodes = roots_of_unimodular(n, 1.0 if how == "shuffled-unity" else np.exp(0.7j)).nodes
    gen = np.random.default_rng(4)
    if how.startswith("shuffled"):
        nodes = gen.permutation(nodes)
    else:
        nodes = nodes * np.exp(1e-9j * gen.standard_normal(n))
    sys = make_nodal_system(nodes)
    values = np.cos(3.0 * sys.thetas) + 0.5j * np.sin(sys.thetas)
    return sys, make_degree_plan(n, 0.5), values


class TestRotatedFastPath:
    """Nodes z_0 e^{2 pi i j/n} in any order: FFT coefficients and Horner
    for at least 64 points on the circle.  Other nodes: coefficients from
    the kernel at the samples z_0 e^{2 pi i j/n} that are not nodes and
    Horner for more than n such points, the first-form kernel otherwise."""

    @pytest.mark.parametrize("tau", [np.exp(0.7j), -1.0, 1j])
    def test_matches_kernel_and_window_member(self, monkeypatch, tau):
        n = 512
        sys = roots_of_unimodular(n, tau)
        plan = make_degree_plan(n, 0.5)
        G = _member(plan, 5)
        I = interpolate(sys, plan, eval_laurent(G, sys.nodes))
        z = np.exp(2j * np.pi * (np.arange(1000) + 0.37) / 1000)
        exact = eval_laurent(G, z)
        kernel = _kernel(I, z)
        calls = _spy_kernel(monkeypatch)
        got = eval_interpolant(I, z)
        assert calls == []
        # measured 1.7e-13 against the member, 2.3e-13 against the kernel
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(got - exact)) <= 1e-12 * scale
        assert np.max(np.abs(got - kernel)) <= 1e-12 * scale

    @pytest.mark.parametrize("how", ["shuffled", "perturbed", "shuffled-unity"])
    def test_other_nodes_fall_back_to_kernel(self, monkeypatch, how):
        """More points than nodes: Horner evaluates the coefficients of the
        samples z_0 e^{2 pi i j/n}, z_0 = nodes[0].  Shuffled roots are
        still every sample, so each takes its node's value; of the
        perturbed roots only z_0 is, and the kernel samples the others."""
        n = 64
        sys, plan, values = _other_nodes(n, how)
        I = interpolate(sys, plan, values)
        z = np.exp(2j * np.pi * (np.arange(200) + 0.37) / 200)
        calls = _spy_kernel(monkeypatch)
        got = eval_interpolant(I, z)
        assert calls == ([n - 1] if how == "perturbed" else [])
        brute = brute_force_interpolant(sys.nodes, plan.p, values, z)
        assert np.max(np.abs(got - brute)) <= 1e-12 * np.max(np.abs(brute))

    @pytest.mark.parametrize("m", [100, 128])
    def test_no_more_points_than_nodes_take_kernel(self, monkeypatch, m):
        n = 128
        sys, plan, values = _other_nodes(n, "perturbed")
        I = interpolate(sys, plan, values)
        z = np.exp(2j * np.pi * (np.arange(m) + 0.37) / m)
        calls = _spy_kernel(monkeypatch)
        got = eval_interpolant(I, z)
        assert calls == [m]
        brute = brute_force_interpolant(sys.nodes, plan.p, values, z)
        assert np.max(np.abs(got - brute)) <= 1e-12 * np.max(np.abs(brute))

    def test_few_or_off_circle_points_take_kernel(self, monkeypatch):
        n = 128
        sys = roots_of_unimodular(n, np.exp(0.7j))
        plan = make_degree_plan(n, 0.5)
        I = interpolate(sys, plan, eval_laurent(_member(plan, 6), sys.nodes))
        z = np.exp(2j * np.pi * (np.arange(64) + 0.37) / 64)
        calls = _spy_kernel(monkeypatch)
        eval_interpolant(I, z[:63])
        eval_interpolant(I, z)
        eval_interpolant(I, np.append(z, 1.5))
        eval_interpolant(I, z[0])
        assert calls == [63, 65, 1]

    @pytest.mark.parametrize("n", [64, 1000])
    def test_nodes_return_their_values_exactly(self, monkeypatch, n):
        sys = roots_of_unimodular(n, np.exp(0.7j))
        values = np.random.default_rng(n).standard_normal(n) + 0.5j
        I = interpolate(sys, make_degree_plan(n, 0.3), values)
        calls = _spy_kernel(monkeypatch)
        np.testing.assert_array_equal(eval_interpolant(I, sys.nodes), values)
        assert calls == []

    @pytest.mark.parametrize("tau", [1.0, np.exp(0.7j)])
    def test_grid_through_every_node(self, monkeypatch, tau):
        """A uniform grid of 4n points through the roots of z^n = tau takes
        one FFT; its every fourth point is a node and returns the node's
        value exactly."""
        n = 256
        sys = roots_of_unimodular(n, tau)
        plan = make_degree_plan(n, 0.5)
        G = _member(plan, 8)
        values = eval_laurent(G, sys.nodes)
        I = interpolate(sys, plan, values)
        z = np.exp(1j * (np.angle(tau) / n + laurent._uniform_angles(4 * n)))
        calls = []
        fft = laurent._fft_on_grid
        monkeypatch.setattr(laurent, "_fft_on_grid", lambda *a: calls.append(a[1]) or fft(*a))
        got = eval_interpolant(I, z)
        assert calls == [4 * n]
        np.testing.assert_array_equal(got[::4], values)
        exact = eval_laurent(G, z)
        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("tau", [1.0, np.exp(0.3j)])
    def test_coefficients_match_sampled_kernel(self, tau):
        """interpolant_coefficients takes the FFT of the values directly;
        sampling the kernel at the n-th roots of unity that are not nodes
        is an independent path."""
        n = 256
        sys = roots_of_unimodular(n, tau)
        plan = make_degree_plan(n, 0.4)
        I = interpolate(sys, plan, np.exp(sys.nodes))
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        at = np.abs(roots - sys.nodes) < nodal.AT_NODE_TOL
        sampled = I.values.copy()
        sampled[~at] = _kernel(I, roots[~at])
        ref = coefficients_from_samples(sampled, plan.p).coeffs
        got = interpolant_coefficients(I).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestAtNodeRule:
    """Only a point within AT_NODE_TOL = 1e-14 of a node takes that node's
    value; the first form stays accurate at any larger distance."""

    def test_jittered_roots_reproduce_window_member(self):
        """Roots of z^1000 = e^{0.7i} jittered by 1e-12 rad: every sample
        z_0 e^{2 pi i j/n} but z_0 = nodes[0] lies about 1e-12 from a node
        and is computed by the kernel.  Measured 6e-13; taking node values
        within 1e-13 n of a node gives 9e-10."""
        n = 1000
        plan = make_degree_plan(n, 0.5)
        G = _member(plan, 7)
        nodes = roots_of_unimodular(n, np.exp(0.7j)).nodes
        jitter = np.exp(1e-12j * np.random.default_rng(8).standard_normal(n))
        sys = make_nodal_system(nodes * jitter)
        I = interpolate(sys, plan, eval_laurent(G, sys.nodes))
        z = np.exp(2j * np.pi * (np.arange(2048) + 0.37) / 2048)
        exact = eval_laurent(G, z)
        assert np.max(np.abs(eval_interpolant(I, z) - exact)) <= 1e-11 * np.max(np.abs(exact))

    def test_point_near_node_matches_reference(self):
        """5e-11 rad from a node at n = 1000 the kernel matches the
        per-factor reference to 2e-13; the node value is 7e-9 off there."""
        n = 1000
        sys = roots_of_unimodular(n, np.exp(0.7j))
        plan = make_degree_plan(n, 0.5)
        I = interpolate(sys, plan, eval_laurent(_member(plan, 7), sys.nodes))
        z = sys.nodes[[3, 500]] * np.exp(5e-11j)
        ref = _first_form_reference(I, z)[0]
        assert np.all(np.abs(eval_interpolant(I, z) - ref) <= 1e-12 * np.abs(ref))
