import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleinterp import (
    DegeneracyError,
    ParaOrthogonalSpec,
    ValidationError,
    estimate_conditions,
    eval_nodal_poly,
    lebesgue_function,
    make_degree_plan,
    make_nodal_system,
    paraorthogonal_nodes,
    roots_of_unimodular,
    scaled_to_complex,
    szego_recurrence,
)
from circleinterp import nodal

from conftest import brute_force_condition_ii, brute_force_lebesgue


class TestValidation:
    def test_rejects_interior_point(self):
        with pytest.raises(ValidationError):
            make_nodal_system([1.0, 0.5 + 0.0j])

    def test_rejects_coincident_nodes(self):
        with pytest.raises(DegeneracyError):
            make_nodal_system([1.0 + 0.0j, np.exp(1e-12j)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_nodal_system([])

    def test_accepts_roots_of_unity(self):
        sys = make_nodal_system(np.exp(2j * np.pi * np.arange(7) / 7))
        assert sys.n == 7


class TestDerivatives:
    @pytest.mark.parametrize("n", [2, 5, 16, 64, 257])
    def test_closed_form_roots_of_unity(self, n):
        """W(z) = z^n - 1 gives W'(z_j) = n z_j^{n-1}; the general product
        formula must match the closed form."""
        closed = roots_of_unimodular(n, 1.0)
        general = make_nodal_system(closed.nodes)
        assert np.max(np.abs(closed.derivs - general.derivs)) < 1e-10 * n

    def test_rotated_closed_form(self):
        tau = np.exp(0.7j)
        sys = roots_of_unimodular(9, tau)
        expected = 9 * sys.nodes ** 8
        assert np.max(np.abs(sys.derivs - expected)) < 1e-12

    def test_memory_bounded_at_large_n(self):
        """The products run over blocks of rows, so no n x n temporary."""
        nodes = roots_of_unimodular(4096, 1.0).nodes
        tracemalloc.start()
        try:
            sys = make_nodal_system(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.max(np.abs(sys.derivs - 4096.0 / nodes)) < 1e-10 * 4096

    def test_large_n_no_overflow(self):
        sys = make_nodal_system(roots_of_unimodular(2048, 1.0).nodes)
        assert np.all(np.isfinite(sys.derivs))
        assert np.max(np.abs(np.abs(sys.derivs) - 2048.0)) < 1e-6


class TestEvalNodalPoly:
    def test_matches_direct_product(self, rng):
        nodes = np.exp(1j * np.sort(rng.uniform(0, 2 * np.pi, 12)))
        sys = make_nodal_system(nodes)
        z = np.exp(0.3j)
        mant, expo = eval_nodal_poly(sys, z)
        assert scaled_to_complex(mant, expo) == pytest.approx(np.prod(z - nodes), rel=1e-12)

    def test_huge_degree_scaling(self):
        sys = roots_of_unimodular(4000, 1.0)
        mant, expo = eval_nodal_poly(sys, 2.0)  # |W| = 2^4000 - 1, overflows a double
        assert 0.5 <= abs(mant) < 2.0
        # log2|W(2)| = log2(2^4000 - 1) ~ 4000
        assert (np.log2(abs(mant)) + expo) == pytest.approx(4000.0, abs=1e-9)

    def test_zero_at_node(self):
        sys = roots_of_unimodular(8, 1.0)
        mant, _ = eval_nodal_poly(sys, 1.0)
        assert mant == 0


class TestConditionEstimates:
    def test_roots_of_unity_b_hat(self):
        report = estimate_conditions(roots_of_unimodular(64, 1.0))
        assert report.b_hat_nodes == pytest.approx(1.0, abs=1e-12)
        # |W'| / n dips between nodes but the node values are the binding ones
        assert report.b_hat <= report.b_hat_nodes + 1e-12

    def test_condition_ii_against_brute_force(self, rng):
        sys = roots_of_unimodular(16, 1.0)
        report = estimate_conditions(sys, grid_size=64)
        brute = max(
            brute_force_condition_ii(sys.nodes, np.exp(1j * t))
            for t in 2.0 * np.pi * (np.arange(64) + 0.37) / 64
        )
        # different grids, same order of magnitude and the library grid
        # includes midpoints where the quantity peaks
        assert report.l_hat >= brute * 0.9
        assert report.l_hat < 10.0

    def test_lebesgue_against_brute_force(self):
        sys = roots_of_unimodular(12, 1.0)
        plan = make_degree_plan(12, 0.5)
        for t in (0.1, 1.7, 3.9, 5.5):
            z = np.exp(1j * t)
            lib = lebesgue_function(sys, plan, z)
            brute = brute_force_lebesgue(sys.nodes, z)
            assert lib == pytest.approx(brute, rel=1e-9)

    def test_lebesgue_is_one_at_nodes(self):
        sys = roots_of_unimodular(10, 1.0)
        plan = make_degree_plan(10, 0.5)
        for z in sys.nodes:
            assert lebesgue_function(sys, plan, z) == 1.0

    def test_bound_holds_on_shared_grid(self):
        for n in (8, 32, 100):
            report = estimate_conditions(roots_of_unimodular(n, 1.0))
            bound = np.sqrt(report.l_hat) / report.b_hat * np.sqrt(n)
            assert report.lebesgue_max <= bound * (1.0 + 1e-6)

    def test_reliability_flag(self):
        report = estimate_conditions(roots_of_unimodular(16, 1.0), grid_size=8)
        assert not report.reliable
        report = estimate_conditions(roots_of_unimodular(16, 1.0), grid_size=64)
        assert report.reliable

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 40), st.floats(0, 2 * np.pi))
    def test_random_rotation_invariance(self, n, phase):
        """Conditions of rotated roots of unity match the unrotated ones;
        everything in sight is rotation-equivariant."""
        base = estimate_conditions(roots_of_unimodular(n, 1.0), grid_size=512)
        rot = estimate_conditions(roots_of_unimodular(n, np.exp(1j * phase)), grid_size=512)
        assert rot.b_hat_nodes == pytest.approx(base.b_hat_nodes, rel=1e-9)
        assert rot.l_hat == pytest.approx(base.l_hat, rel=1e-6)


def _para_system(alphas, n=64):
    padded = np.zeros(n, dtype=complex)
    padded[: min(n, len(alphas))] = alphas[:n]
    return paraorthogonal_nodes(szego_recurrence(padded, n), ParaOrthogonalSpec(n=n, tau=1.0))


PARA_FAMILIES = {
    "alt16": [0.7 * (-1) ** k for k in range(16)],  # Lebesgue constant ~ 7e5
    "random-0.95": 0.95 * np.exp(2j * np.pi * np.random.default_rng(11).random(64)),  # ~ 3e12
    "half": [0.5],
}


class TestConditionKernelOracles:
    """The condition kernel on clustered para-orthogonal nodes against
    direct summation, per point of the uniform grid plus node midpoints."""

    @pytest.mark.parametrize("family", sorted(PARA_FAMILIES))
    def test_rows_match_brute_force(self, family):
        sys = _para_system(PARA_FAMILIES[family])
        t = np.sort(sys.thetas)
        mids = t + 0.5 * np.diff(t, append=t[0] + 2.0 * np.pi)
        z = np.exp(1j * np.concatenate([2.0 * np.pi * np.arange(1024) / 1024, mids]))
        brute_leb = np.array([brute_force_lebesgue(sys.nodes, p) for p in z])
        brute_ii = np.array([brute_force_condition_ii(sys.nodes, p) for p in z])
        _, cond2, log_leb = nodal._condition_rows(z, sys)
        # measured 6e-15; the partial-fraction shortcut
        # |W| = 1 / |sum_j 1/(W'(z_j)(z - z_j))| is off by 1e-3 on random-0.95
        np.testing.assert_allclose(np.exp(log_leb), brute_leb, rtol=1e-12)
        np.testing.assert_allclose(cond2, brute_ii, rtol=1e-12)
        plan = make_degree_plan(sys.n, 0.5)
        for k in range(0, len(z), 97):
            assert lebesgue_function(sys, plan, z[k]) == pytest.approx(brute_leb[k], rel=1e-12)
        report = estimate_conditions(sys, grid_size=1024)
        assert report.lebesgue_max == pytest.approx(brute_leb.max(), rel=1e-12)
        assert report.l_hat == pytest.approx(brute_ii.max(), rel=1e-12)

    @pytest.mark.parametrize("family", sorted(PARA_FAMILIES))
    def test_near_node_patch(self, family):
        sys = _para_system(PARA_FAMILIES[family])
        j = 10
        z = np.array([sys.nodes[j] * np.exp(1e-9j), sys.nodes[j]])
        wprime, cond2, log_leb = nodal._condition_rows(z, sys)
        # within NEAR_NODE_TOL the j-th summands take their limits at z_j,
        # which moves them by a relative |z - z_j| sum_k 1/|z_j - z_k| to
        # first order, and twice that for the squares in (ii)
        slack = 1e-9 * np.sum(1.0 / np.abs(np.delete(sys.nodes - sys.nodes[j], j)))
        assert np.exp(log_leb[0]) == pytest.approx(
            brute_force_lebesgue(sys.nodes, z[0]), rel=2.0 * slack)
        assert cond2[0] == pytest.approx(brute_force_condition_ii(sys.nodes, z[0]), rel=2.0 * slack)
        # at the node itself every value is the limit
        assert np.exp(log_leb[1]) == pytest.approx(1.0, rel=1e-12)
        assert cond2[1] == pytest.approx(abs(sys.derivs[j]) ** 2 / sys.n**2, rel=1e-12)
        assert np.all(wprime == np.abs(sys.derivs[j]))
