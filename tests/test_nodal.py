import concurrent.futures
import multiprocessing
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleinterp import (
    DegeneracyError,
    ParaOrthogonalSpec,
    ValidationError,
    estimate_conditions,
    eval_interpolant,
    fundamental_polynomial,
    interpolant_coefficients,
    interpolate,
    make_degree_plan,
    make_nodal_system,
    paraorthogonal_nodes,
    roots_of_unimodular,
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

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0), complex(1.0, np.nan)])
    def test_rejects_nan_node(self, bad):
        with pytest.raises(ValidationError, match="not unimodular"):
            make_nodal_system([1.0, 1j, bad])

    def test_rejects_nodes_not_one_dimensional(self):
        with pytest.raises(ValidationError, match="1-D"):
            make_nodal_system(np.exp(2j * np.pi * np.arange(8) / 8).reshape(2, 4))

    @pytest.mark.parametrize("tau", [np.nan, complex(np.nan, 0.0), complex(1.0, np.nan)])
    def test_rejects_nan_tau(self, tau):
        with pytest.raises(ValidationError, match="tau"):
            roots_of_unimodular(4, tau)
        with pytest.raises(ValidationError, match="tau"):
            paraorthogonal_nodes(np.zeros(4), ParaOrthogonalSpec(n=4, tau=tau))

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
        z = np.exp(1j * np.array([0.1, 1.7, 3.9, 5.5]))
        log_leb = nodal._condition_rows(z, sys)[2]
        brute = [brute_force_lebesgue(sys.nodes, p) for p in z]
        np.testing.assert_allclose(np.exp(log_leb), brute, rtol=1e-9)

    def test_lebesgue_at_origin_rejected(self):
        """z = 0 is a pole of every l_j, and so of the Lebesgue function."""
        sys = roots_of_unimodular(8, 1.0)
        with pytest.raises(ValidationError, match="z = 0"):
            fundamental_polynomial(sys, make_degree_plan(8, 0.5), 3, 0.0)

    def test_lebesgue_is_one_at_nodes(self):
        sys = roots_of_unimodular(10, 1.0)
        assert np.all(nodal._condition_rows(sys.nodes, sys)[2] == 0.0)

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
        _, log_cond2, log_leb = nodal._condition_rows(z, sys)
        # measured 6e-15; the partial-fraction shortcut
        # |W| = 1 / |sum_j 1/(W'(z_j)(z - z_j))| is off by 1e-3 on random-0.95
        np.testing.assert_allclose(np.exp(log_leb), brute_leb, rtol=1e-12)
        np.testing.assert_allclose(np.exp(log_cond2), brute_ii, rtol=1e-12)
        # one point at a time, as the interpolate() gate reads it
        for k in range(0, len(z), 97):
            one = nodal._condition_rows(z[k:k + 1], sys)[2][0]
            assert np.exp(one) == pytest.approx(brute_leb[k], rel=1e-12)
        report = estimate_conditions(sys, grid_size=1024)
        assert report.lebesgue_max == pytest.approx(brute_leb.max(), rel=1e-12)
        assert report.l_hat == pytest.approx(brute_ii.max(), rel=1e-12)

    @pytest.mark.parametrize("family", sorted(PARA_FAMILIES))
    def test_near_node_patch(self, family):
        sys = _para_system(PARA_FAMILIES[family])
        j = 10
        z = np.array([sys.nodes[j] * np.exp(1e-9j), sys.nodes[j] * np.exp(1e-12j), sys.nodes[j]])
        log_wprime, log_cond2, log_leb = nodal._condition_rows(z, sys)
        # 1e-9 and 1e-12 from z_j the direct formulas hold: a first-order
        # limit there was off by up to 2.6e-6 relative
        for k in (0, 1):
            direct = abs(np.prod(z[k] - sys.nodes) * np.sum(1.0 / (z[k] - sys.nodes)))
            assert np.exp(log_leb[k]) == pytest.approx(
                brute_force_lebesgue(sys.nodes, z[k]), rel=1e-12)
            assert np.exp(log_cond2[k]) == pytest.approx(
                brute_force_condition_ii(sys.nodes, z[k]), rel=1e-12)
            assert np.exp(log_wprime[k]) == pytest.approx(direct, rel=1e-12)
        # at the node itself every value is the limit
        assert np.exp(log_leb[2]) == pytest.approx(1.0, rel=1e-12)
        assert np.exp(log_cond2[2]) == pytest.approx(abs(sys.derivs[j]) ** 2 / sys.n**2, rel=1e-12)
        assert log_wprime[2] == np.log(np.abs(sys.derivs))[j]


def _log_space_rows(nodes, z):
    """Oracle for the logs of the Lebesgue function and of (ii) at z,
    summed straight from the node differences in log space, so that
    nothing overflows at any n; no shared code with the library."""
    n = len(nodes)
    d = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(d, 1.0)
    log_wprime = np.log(d).sum(axis=1)
    log_leb, log_ii = [], []
    for chunk in np.array_split(z, -(-len(z) // 256)):
        log_q = np.log(np.abs(chunk[:, None] - nodes[None, :]))
        log_w = log_q.sum(axis=1)
        log_leb.append(log_w + np.logaddexp.reduce(-log_wprime - log_q, axis=1))
        log_ii.append(2.0 * (log_w - np.log(n)) + np.logaddexp.reduce(-2.0 * log_q, axis=1))
    return np.concatenate(log_leb), np.concatenate(log_ii)


class TestLogReport:
    """log10_l_hat and log10_lebesgue_max stay finite where l_hat and
    lebesgue_max overflow."""

    def test_alternating_family_past_overflow(self):
        """alpha_k = 0.7 (-1)^k at n = 1024: the Lebesgue function peaks
        near 1e385, beyond the largest double."""
        sys = _para_system([0.7 * (-1) ** k for k in range(1024)], n=1024)
        report = estimate_conditions(sys, grid_size=4096)
        log_leb, log_ii = _log_space_rows(sys.nodes, nodal._grid_points(sys, 4096))
        assert report.l_hat == np.inf and report.lebesgue_max == np.inf
        assert report.log10_lebesgue_max > 308
        assert report.log10_lebesgue_max == pytest.approx(log_leb.max() / np.log(10), rel=1e-12)
        assert report.log10_l_hat == pytest.approx(log_ii.max() / np.log(10), rel=1e-12)

    @pytest.mark.parametrize("family", sorted(PARA_FAMILIES))
    def test_logs_match_linear_values(self, family):
        sys = _para_system(PARA_FAMILIES[family])
        report = estimate_conditions(sys)
        assert report.log10_l_hat == pytest.approx(np.log10(report.l_hat), rel=1e-13, abs=1e-13)
        assert report.log10_lebesgue_max == pytest.approx(
            np.log10(report.lebesgue_max), rel=1e-13, abs=1e-13)

    def test_roots_of_unity(self):
        """For z^n = 1, (ii) is 1 on the whole circle and the Lebesgue
        maximum is finite."""
        report = estimate_conditions(roots_of_unimodular(16, 1.0))
        assert report.log10_l_hat == pytest.approx(0.0, abs=1e-14)
        assert report.log10_lebesgue_max == pytest.approx(np.log10(report.lebesgue_max), rel=1e-13)


class TestOnePeriodGrid:
    """On nodes z_0 e^{2 pi i j/n} with n dividing the grid size the
    estimator runs one period of the grid; the full grid is the oracle."""

    @staticmethod
    def _spy_rows(monkeypatch):
        calls = []
        rows = nodal._condition_rows

        def spy(z, system):
            calls.append((z, rows(z, system)))
            return calls[-1][1]

        monkeypatch.setattr(nodal, "_condition_rows", spy)
        return calls

    @pytest.mark.parametrize("n", [16, 512, 2048])
    @pytest.mark.parametrize("tau", [1.0, -1.0, np.exp(0.7j)])
    def test_matches_full_grid(self, monkeypatch, n, tau):
        sys = roots_of_unimodular(n, tau)
        grid = max(4096, 16 * n)  # the default grid
        full = nodal._condition_rows(nodal._grid_points(sys, grid), sys)
        calls = self._spy_rows(monkeypatch)
        report = estimate_conditions(sys)
        period = grid // n
        [(z, one)] = calls
        assert len(z) == period + 1
        # the period is the full grid's own first points, with the same rows
        for got, want in zip(one, full):
            np.testing.assert_array_equal(got[:period], want[:period])
        # Over one orbit of the rotation the full grid's rows vary by
        # rounding alone, by up to about 10 n eps (3.5e-12 at n = 2048,
        # 1.2e-12 at n = 512).  That bounds how far the extrema of one
        # period can sit from those of the full grid.
        rtol = 16 * n * np.finfo(float).eps
        log_wprime, log_cond2, log_leb = full
        assert report.grid_size == grid and report.reliable
        assert report.b_hat == pytest.approx(np.exp(log_wprime.min()) / n, rel=rtol)
        assert report.l_hat == pytest.approx(np.exp(log_cond2.max()), rel=rtol)
        assert report.lebesgue_max == pytest.approx(np.exp(log_leb.max()), rel=rtol)
        # for the roots of z^n = tau, |W'(z)| = n and (ii) = 1 on the circle
        assert report.b_hat == pytest.approx(1.0, rel=rtol)
        assert report.l_hat == pytest.approx(1.0, rel=rtol)

    def test_grid_not_a_multiple_of_n_takes_full_grid(self, monkeypatch):
        calls = self._spy_rows(monkeypatch)
        estimate_conditions(roots_of_unimodular(100, 1.0))
        assert [len(z) for z, _ in calls] == [4096 + 100]

    def test_shuffled_roots_take_one_period(self, monkeypatch):
        """A permutation of the roots leaves every sample z_0 e^{2 pi i j/n}
        a node, so it runs one period too and reports what the roots in
        their stored order do."""
        n = 64
        ordered = roots_of_unimodular(n, np.exp(0.7j))
        sys = make_nodal_system(np.random.default_rng(3).permutation(ordered.nodes))
        want = estimate_conditions(ordered)
        calls = self._spy_rows(monkeypatch)
        report = estimate_conditions(sys)
        assert [len(z) for z, _ in calls] == [4096 // n + 1]
        rtol = 16 * n * np.finfo(float).eps
        for name in ("b_hat", "b_hat_nodes", "l_hat", "lebesgue_max"):
            assert getattr(report, name) == pytest.approx(getattr(want, name), rel=rtol)

    def test_samples_are_nodes(self):
        """Roots of z^n = tau pass in their stored order and in any other,
        and so do the para-orthogonal nodes of the Lebesgue measure; a
        1e-9 perturbation does not."""
        tau = np.exp(0.7j)
        sys = roots_of_unimodular(1000, tau)
        assert sys._rotation_symmetric
        lebesgue = szego_recurrence(np.zeros(64), 64)
        assert paraorthogonal_nodes(lebesgue, ParaOrthogonalSpec(n=64, tau=tau))._rotation_symmetric
        assert make_nodal_system(sys.nodes[::-1])._rotation_symmetric
        jitter = np.exp(1e-9j * (np.arange(1000) % 2))
        assert not make_nodal_system(sys.nodes * jitter)._rotation_symmetric


def stacked_nearest_nodes(system, z):
    """The gather _nearest_nodes used to do: both neighbours in argument
    stacked as two rows, and argmin over them."""
    order = np.argsort(system.thetas)
    i = np.searchsorted(system.thetas[order], np.mod(np.angle(z), 2.0 * np.pi))
    cand = np.stack([order[i % system.n], order[i - 1]])
    dist = np.abs(z - system.nodes[cand])
    pick = np.argmin(dist, axis=0)
    cols = np.arange(len(z))
    return cand[pick, cols], dist[pick, cols]


@pytest.mark.parametrize("system", ["random", "roots", "para-0.5"])
def test_nearest_nodes_match_the_stacked_gather(system):
    """Indices and distances are identical to the stacked gather, also for
    points at, between (ties) and inside the nodes, and for one point."""
    if system == "random":
        sys = make_nodal_system(np.exp(1j * np.random.default_rng(5).uniform(0, 2 * np.pi, 256)))
    elif system == "roots":
        sys = roots_of_unimodular(256, 1.0)
    else:
        sys = _para_system([0.5], 256)
    t = np.sort(sys.thetas)
    z = np.exp(1j * np.random.default_rng(1).uniform(0, 2 * np.pi, 8192))
    ties = np.exp(0.5j * (t + np.roll(t, -1)))
    for pts in (z, 0.5 * z, sys.nodes, ties, z[:1], sys.nodes[:1], ties[:1]):
        got, want = nodal._nearest_nodes(sys, pts), stacked_nearest_nodes(sys, pts)
        assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()



def _jittered_nodes(n, seed=0):
    """n nodes, each moved by up to 0.3 of a gap from the n-th roots of
    unity: neither rotation-symmetric nor crowded."""
    rng = np.random.default_rng(seed)
    return np.exp(2j * np.pi * (np.arange(n) + 0.3 * rng.random(n)) / n)


class TestThreadedKernel:
    """A pair-kernel call of at least PARALLEL_PAIRS pairs spreads its
    blocks over max_workers() threads; one below it runs in the caller."""

    @staticmethod
    def _spy(monkeypatch):
        """A list that grows by one at each threaded call, which starts one
        thread pool."""
        asked = []

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                asked.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(nodal.concurrent.futures, "ThreadPoolExecutor", Counted)
        return asked

    def test_bit_identical_at_any_thread_count(self, monkeypatch):
        """make_nodal_system, interpolant_coefficients, estimate_conditions
        and eval_interpolant off the circle at n = 1024 give the same bits
        on one, two and three threads.  The crossover is lowered so that
        all four take the threaded path."""
        monkeypatch.setattr(nodal, "PARALLEL_PAIRS", 1 << 18)
        asked = self._spy(monkeypatch)
        n = 1024
        nodes = _jittered_nodes(n)
        values = np.cos(3.0 * np.angle(nodes)) + 0.5j
        z = 1.01 * np.exp(2j * np.pi * (np.arange(4096) + 0.25) / 4096)
        outputs = []
        for threads in (1, 2, 3):
            monkeypatch.setenv("CIRCLE_INTERP_THREADS", str(threads))
            asked.clear()
            system = make_nodal_system(nodes)
            I = interpolate(system, make_degree_plan(n, 0.5), values)
            outputs.append((system.derivs, interpolant_coefficients(I).coeffs,
                            estimate_conditions(system), eval_interpolant(I, z)))
            assert len(asked) == (0 if threads == 1 else 4)
        for derivs, coeffs, report, evals in outputs[1:]:
            assert derivs.tobytes() == outputs[0][0].tobytes()
            assert coeffs.tobytes() == outputs[0][1].tobytes()
            assert report == outputs[0][2]
            assert evals.tobytes() == outputs[0][3].tobytes()

    def test_serial_below_the_crossover(self, monkeypatch):
        """Nothing at n = 256 starts a thread, the 4096 + 256 point
        condition grid included; that grid at n = 512 does."""
        monkeypatch.setenv("CIRCLE_INTERP_THREADS", "2")
        asked = self._spy(monkeypatch)
        system = make_nodal_system(_jittered_nodes(256))
        I = interpolate(system, make_degree_plan(256, 0.5), np.cos(system.thetas))
        interpolant_coefficients(I)
        eval_interpolant(I, np.exp(2j * np.pi * np.arange(4096) / 4096))
        eval_interpolant(I, 1.01 * np.exp(2j * np.pi * np.arange(4096) / 4096))
        assert estimate_conditions(system).grid_size == 4096
        assert not asked
        estimate_conditions(make_nodal_system(_jittered_nodes(512)))
        assert len(asked) == 1

    def test_exception_in_a_worker_reaches_the_caller(self, monkeypatch):
        """A RuntimeWarning raised as an error in a block on a worker
        thread reaches the caller, and the next threaded call works."""
        monkeypatch.setenv("CIRCLE_INTERP_THREADS", "2")
        asked = self._spy(monkeypatch)
        n = 1024
        system = make_nodal_system(_jittered_nodes(n))
        I = interpolate(system, make_degree_plan(n, 0.5), np.cos(system.thetas))
        z = 1.01 * np.exp(2j * np.pi * (np.arange(4096) + 0.25) / 4096)
        bad = z.copy()
        # block 1, which the worker thread runs: |W(z)| / |z|^p overflows
        bad[nodal.PAIR_BUDGET // n] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                eval_interpolant(I, bad)
        got = eval_interpolant(I, z)
        assert len(asked) == 2
        monkeypatch.setenv("CIRCLE_INTERP_THREADS", "1")
        assert got.tobytes() == eval_interpolant(I, z).tobytes()

    def test_workers_keep_the_callers_error_state(self, monkeypatch):
        """Under the caller's np.errstate(over="ignore") the overflow in a
        block on a worker thread is ignored there too, as on one thread."""
        monkeypatch.setenv("CIRCLE_INTERP_THREADS", "2")
        asked = self._spy(monkeypatch)
        n = 1024
        system = make_nodal_system(_jittered_nodes(n))
        I = interpolate(system, make_degree_plan(n, 0.5), np.cos(system.thetas))
        z = 1.01 * np.exp(2j * np.pi * (np.arange(4096) + 0.25) / 4096)
        z[nodal.PAIR_BUDGET // n] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore", invalid="ignore"):
                got = eval_interpolant(I, z)
        assert len(asked) == 1
        assert not np.isfinite(got[nodal.PAIR_BUDGET // n])

    def test_no_kernel_thread_outlives_its_call(self, monkeypatch):
        """A threaded call has joined the threads it started when it returns."""
        monkeypatch.setenv("CIRCLE_INTERP_THREADS", "2")
        asked = self._spy(monkeypatch)
        estimate_conditions(make_nodal_system(_jittered_nodes(512)))
        assert len(asked) == 1
        assert not [t for t in threading.enumerate() if t.name.startswith("circleinterp-pairs")]

    def test_concurrent_callers_get_the_serial_bits(self, monkeypatch):
        """Two threads of the caller's own, each making threaded calls at the
        same time, get the bits of one thread."""
        n = 1024
        z = 1.01 * np.exp(2j * np.pi * (np.arange(4096) + 0.25) / 4096)

        def run(seed):
            system = make_nodal_system(_jittered_nodes(n, seed))
            I = interpolate(system, make_degree_plan(n, 0.5), np.cos(system.thetas))
            return estimate_conditions(system), eval_interpolant(I, z).tobytes()

        monkeypatch.setenv("CIRCLE_INTERP_THREADS", "1")
        want = [run(seed) for seed in (0, 1)]
        monkeypatch.setenv("CIRCLE_INTERP_THREADS", "2")
        asked = self._spy(monkeypatch)
        start = threading.Barrier(2)
        got = [None, None]

        def run_together(seed):
            start.wait()
            got[seed] = run(seed)

        callers = [threading.Thread(target=run_together, args=(seed,)) for seed in (0, 1)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join()
        assert len(asked) == 4
        assert got == want

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_forked_child_completes_a_threaded_call(self, monkeypatch):
        """A child forked after a threaded call in the parent runs a threaded
        call of its own to the parent's result instead of hanging."""
        monkeypatch.setenv("CIRCLE_INTERP_THREADS", "2")
        asked = self._spy(monkeypatch)
        system = make_nodal_system(_jittered_nodes(1024))
        want = estimate_conditions(system)
        assert len(asked) == 1

        def child():
            if estimate_conditions(system) != want:
                raise SystemExit(3)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=10)
            pytest.fail("the forked child hung in the pair kernel")
        assert proc.exitcode == 0
