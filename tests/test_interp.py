import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleinterp import (
    CircleInterpolant,
    ConditioningError,
    LaurentPolynomial,
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
    szego_recurrence,
)


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
        with pytest.raises(ValidationError):
            interpolate(sys, make_degree_plan(5, 0.5), np.zeros(5))
        with pytest.raises(ValidationError):
            interpolate(sys, make_degree_plan(4, 0.5), np.zeros(3))

    def test_rejects_origin(self):
        sys = roots_of_unimodular(4, 1.0)
        I = interpolate(sys, make_degree_plan(4, 0.5), np.ones(4))
        with pytest.raises(ValidationError):
            eval_interpolant(I, np.array([1.0, 0.0]))

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


def _first_form_reference(I, z):
    """The first barycentric form with one complex log per factor z - z_j,
    and the size of its largest terms, |W(z) z^-p| sum_j |w_j u_j / (z - z_j)|."""
    d = z[:, None] - I.system.nodes[None, :]
    scale = np.exp(np.log(d).sum(axis=1) - I.plan.p * np.log(z))
    terms = I.weights * I.values / d
    return scale * terms.sum(axis=1), np.abs(scale) * np.abs(terms).sum(axis=1)


class TestConditioningGate:
    def test_underflowing_derivatives_decline(self):
        """64 of 128 nodes 1.1e-10 apart: W'(z_j) underflows to 0 there, so
        the Lebesgue function is infinite and the gate must say so."""
        n = 128
        theta = 2.0 * np.pi * np.arange(n) / n
        theta[1:65] = theta[1] + 1.1e-10 * np.arange(64)
        sys = make_nodal_system(np.exp(1j * theta))
        assert np.any(sys.derivs == 0)
        with pytest.raises(ConditioningError, match="1einf"):
            interpolate(sys, make_degree_plan(n, 0.5), np.ones(n))


class TestFirstForm:
    def test_window_member_on_clustered_nodes(self):
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
        err = np.max(np.abs(eval_interpolant(I, z) - exact))
        ref = np.max(np.abs(_first_form_reference(I, z)[0] - exact))
        assert err <= 2.0 * ref

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
        I = CircleInterpolant(system=sys, plan=plan, values=values,
                              weights=np.exp(1j * plan.p * sys.thetas) / sys.derivs)
        t = np.concatenate([theta[1] + 1.2e-10 * (np.arange(16) + 0.5),
                            2.0 * np.pi * (np.arange(16) + 0.3) / 16])
        z = np.concatenate([np.exp(1j * t), 1e20 * np.exp(1j * t[::3])])
        ref, scale = _first_form_reference(I, z)
        assert np.all(np.isfinite(ref))
        # measured 3e-14
        assert np.all(np.abs(eval_interpolant(I, z) - ref) <= 1e-12 * scale)
