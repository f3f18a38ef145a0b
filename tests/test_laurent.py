import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleinterp import (
    DegreePlan,
    LaurentPolynomial,
    NodalFamily,
    ParaOrthogonalSpec,
    ValidationError,
    bernstein_szego,
    coefficients_from_samples,
    convergence_sweep,
    corpus,
    estimate_conditions,
    eval_interpolant,
    eval_laurent,
    finite_verblunsky,
    fundamental_polynomial,
    interpolate,
    interpolation_error,
    interval_nodes_from_measure,
    lebesgue_measure,
    make_degree_plan,
    make_nodal_system,
    near_best_error,
    roots_of_unimodular,
    szego_recurrence,
    verblunsky_coefficients,
)
from circleinterp import laurent
from conftest import chebyshev1_weight


class TestDegreePlan:
    def test_n9_half(self):
        plan = make_degree_plan(9, 0.5)
        assert (plan.p, plan.q, plan.s) == (4, 4, 4)

    def test_n10_half_floor(self):
        plan = make_degree_plan(10, 0.5)
        assert (plan.p, plan.q, plan.s) == (4, 5, 4)

    def test_n101_r07(self):
        plan = make_degree_plan(101, 0.7)
        assert (plan.p, plan.q, plan.s) == (70, 30, 30)
        # for r > 1/2 the limiting ratio of s is 1 - r
        assert plan.s / (plan.n - 1) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("n,r", [(1, 0.5), (2, 0.0), (2, 1.0), (5, -0.1)])
    def test_invalid_arguments(self, n, r):
        with pytest.raises(ValidationError):
            make_degree_plan(n, r)

    def test_n_and_s_follow_from_p_and_q(self):
        plan = DegreePlan(p=3, q=4)
        assert (plan.n, plan.s) == (8, 3)
        assert not hasattr(plan, "r")

    @given(st.integers(2, 2000), st.floats(1e-6, 1 - 1e-6))
    def test_ratio_tracking(self, n, r):
        plan = make_degree_plan(n, r)
        assert plan.p + plan.q == n - 1
        assert abs(plan.p / (n - 1) - r) <= 1.0 / (n - 1)
        assert plan.s == min(plan.p, plan.q)


class TestEvalLaurent:
    def test_z(self):
        L = LaurentPolynomial(p=0, q=1, coeffs=[0, 1])
        assert eval_laurent(L, 1j) == pytest.approx(1j)

    def test_one_over_z(self):
        L = LaurentPolynomial(p=1, q=0, coeffs=[1, 0])
        assert eval_laurent(L, 1j) == pytest.approx(-1j)

    def test_mixed(self):
        L = LaurentPolynomial(p=1, q=1, coeffs=[2, 3, 4])  # 2/z + 3 + 4z
        assert eval_laurent(L, 1.0) == pytest.approx(9.0)

    def test_rejects_origin(self):
        L = LaurentPolynomial(p=1, q=0, coeffs=[1, 0])
        with pytest.raises(ValidationError):
            eval_laurent(L, 0.0)

    def test_triangle_inequality_on_circle(self, rng):
        coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        L = LaurentPolynomial(p=4, q=4, coeffs=coeffs)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        assert np.all(np.abs(eval_laurent(L, z)) <= np.sum(np.abs(coeffs)) + 1e-12)
        # calling L evaluates it the same way
        assert L(z).tobytes() == eval_laurent(L, z).tobytes()

    def test_in_place_horner_is_bit_identical(self, rng):
        """The in-place Horner does the same roundings as the form with two
        temporaries per coefficient."""
        p, q = 7, 12
        coeffs = rng.standard_normal(p + q + 1) + 1j * rng.standard_normal(p + q + 1)
        L = LaurentPolynomial(p=p, q=q, coeffs=coeffs)
        z = np.concatenate([np.exp(1j * rng.uniform(0, 2 * np.pi, 40)),
                            rng.uniform(0.5, 2.0, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10))])
        acc = np.full_like(z, coeffs[-1])
        for c in coeffs[p:-1][::-1]:
            acc = acc * z + c
        u = 1.0 / z
        nacc = np.full_like(z, coeffs[0])
        for c in coeffs[1:p]:
            nacc = nacc * u + c
        expected = acc + nacc * u
        np.testing.assert_array_equal(eval_laurent(L, z), expected)
        assert eval_laurent(L, z[3]) == expected[3]


def _spy_paths(monkeypatch):
    """Record which evaluation path each eval_laurent call takes."""
    calls = []
    horner, fft = laurent._horner, laurent._fft_on_grid

    def spy_horner(L, z):
        calls.append("horner")
        return horner(L, z)

    def spy_fft(L, M, j0, a):
        calls.append("fft")
        return fft(L, M, j0, a)

    monkeypatch.setattr(laurent, "_horner", spy_horner)
    monkeypatch.setattr(laurent, "_fft_on_grid", spy_fft)
    return calls


def _random_member(n, seed):
    """n coefficients of unit total variance on the window [-n//2, ...]."""
    gen = np.random.default_rng(seed)
    coeffs = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) / np.sqrt(2 * n)
    return LaurentPolynomial(p=n // 2, q=n - 1 - n // 2, coeffs=coeffs)


class TestUniformGrid:
    """A rotated uniform grid z_j = e^{ia} e^{2 pi i (j - j0)/M} takes one
    inverse FFT, which returns L at those ideal points; z_{j0} is the point
    nearest 1 and a = arg z_{j0}."""

    @pytest.mark.parametrize("n,M", [(5, 3), (257, 4096), (1024, 4096), (4097, 2048)])
    @pytest.mark.parametrize("offset", [0.0, 0.37, 0.5, "near -1"])
    def test_fft_matches_mpmath_and_horner(self, monkeypatch, n, M, offset):
        """Against 40-digit mpmath at the ideal points, on up to 8 of them
        (measured 5e-16 with unit total variance), and against Horner at the
        stored points within 1e-12 sum|c_k|: the two differ by
        |L'| |z_j - ideal|, which is rounding of the input points."""
        mp = pytest.importorskip("mpmath")
        s = M / 2 + 0.3 if offset == "near -1" else offset
        z = np.exp(2j * np.pi * (np.arange(M) + s) / M)
        L = _random_member(n, M)
        calls = _spy_paths(monkeypatch)
        got = eval_laurent(L, z)
        assert calls == ["fft"]
        j0, a = laurent._grid_rotation(z)
        assert abs(a) <= np.pi / M * (1 + 1e-12)
        assert np.abs(z[j0] - 1) <= np.min(np.abs(z - 1)) + 1e-15
        sample = np.random.default_rng(n).choice(M, size=min(M, 8), replace=False)
        with mp.workdps(40):
            worst = 0.0
            for j in sample.tolist():
                x = mp.expj(mp.mpf(a)) * mp.expjpi(mp.mpf(2 * (j - j0)) / M)
                acc = mp.mpc(0)
                for c in L.coeffs[::-1].tolist():
                    acc = acc * x + c
                worst = max(worst, abs(complex(acc * x**(-L.p)) - got[j]))
        assert worst <= 1e-14 * np.linalg.norm(L.coeffs)
        horner = laurent._horner(L, z)
        assert np.max(np.abs(got - horner)) <= 1e-12 * np.sum(np.abs(L.coeffs))

    @pytest.mark.parametrize("how", ["reversed", "shuffled", "moved", "nan", "radius", "2-D",
                                     "scalar", "one point"])
    def test_other_points_take_horner(self, monkeypatch, how):
        M = 64
        z = np.exp(2j * np.pi * (np.arange(M) + 0.37) / M)
        if how == "reversed":
            z = z[::-1]
        elif how == "shuffled":
            z = np.random.default_rng(0).permutation(z)
        elif how == "moved":
            z[17] += 1e-12
        elif how == "nan":
            z[17] = np.nan
        elif how == "radius":
            z = z * (1 + 1e-9)
        elif how == "2-D":
            z = z.reshape(8, 8)
        elif how == "scalar":
            z = z[5]
        else:
            z = z[:1]
        L = _random_member(9, 0)
        calls = _spy_paths(monkeypatch)
        with np.errstate(invalid="ignore"):  # Horner divides by the NaN point
            got = eval_laurent(L, z)
            assert calls == ["horner"]
            np.testing.assert_array_equal(got, laurent._horner(L, np.asarray(z)))

    def test_uniform_angles_take_fft(self):
        """Every grid of the library's one builder is recognised unrotated."""
        for M in [*range(2, 300), 1000, 4096, 8192, 8193, 12345, 16384, 65536]:
            assert laurent._grid_rotation(np.exp(1j * laurent._uniform_angles(M))) == (0, 0.0)


class TestCoefficientRecovery:
    def test_pure_square(self):
        m = 4
        z = np.exp(2j * np.pi * np.arange(m) / m)
        L = coefficients_from_samples(z**2, p=1)
        expected = np.zeros(m, dtype=complex)
        expected[3] = 1.0  # exponent +2 at index 2 - (-1)... offset p=1
        assert np.allclose(L.coeffs, expected, atol=1e-14)
        assert L.coefficient(2) == pytest.approx(1.0)

    def test_single_sample_constant(self):
        L = coefficients_from_samples([5.0], p=0)
        assert L.p == 0 and L.q == 0
        assert L.coefficient(0) == pytest.approx(5.0)

    def test_negative_and_positive_exponents(self):
        m = 8
        z = np.exp(2j * np.pi * np.arange(m) / m)
        L = coefficients_from_samples(3.0 / z + 2.0 * z**3, p=2)
        assert L.coefficient(-1) == pytest.approx(3.0, abs=1e-13)
        assert L.coefficient(3) == pytest.approx(2.0, abs=1e-13)
        others = [L.coefficient(k) for k in range(-2, 6) if k not in (-1, 3)]
        assert np.max(np.abs(others)) < 1e-13
        # outside the window [-p, q] every coefficient is 0
        assert L.coefficient(-L.p - 1) == L.coefficient(L.q + 1) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_round_trip(self, p, q, seed):
        gen = np.random.default_rng(seed)
        coeffs = gen.uniform(-1, 1, p + q + 1) + 1j * gen.uniform(-1, 1, p + q + 1)
        L = LaurentPolynomial(p=p, q=q, coeffs=coeffs)
        m = p + q + 1
        z = np.exp(2j * np.pi * np.arange(m) / m)
        back = coefficients_from_samples(eval_laurent(L, z), p)
        assert np.max(np.abs(back.coeffs - coeffs)) <= 1e-12 * m

    @pytest.mark.parametrize("m,p", [(256, 127), (2048, 1023), (2048, 2047)])
    def test_exact_shift(self, m, p):
        """Recovery from samples rounded from 40 digits.  Multiplying the
        samples by a rounded z_j^p cost 2e-14 to 3.5e-13 here; the cyclic
        shift by p is exact and leaves about 2e-16.

        L(z) = sum_{k=0}^{q} (a z)^k + sum_{k=1}^{p} (b/z)^k, summed in
        closed form at each root of unity."""
        mp = pytest.importorskip("mpmath")
        q = m - 1 - p
        samples = []
        with mp.workdps(40):
            a = mp.mpf("0.9") * mp.expjpi(mp.mpf("0.1"))
            b = mp.mpf("0.85") * mp.expjpi(mp.mpf("-0.35"))
            for j in range(m):
                x = a * mp.expjpi(mp.mpf(2 * j) / m)
                y = b * mp.expjpi(mp.mpf(-2 * j) / m)
                samples.append(complex((1 - x**(q + 1)) / (1 - x)
                                       + (1 - y**(p + 1)) / (1 - y) - 1))
            exact = [complex(b**(p - i)) for i in range(p)] + [complex(a**k) for k in range(q + 1)]
        L = coefficients_from_samples(np.array(samples), p)
        assert np.max(np.abs(L.coeffs - np.array(exact))) <= 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            coefficients_from_samples([1.0, 2.0], p=5)


ROOTS = NodalFamily(kind="roots-of-unimodular")


@pytest.mark.parametrize("count,bad", [
    (lambda v: roots_of_unimodular(v, 1.0), 2.5),
    (lambda v: make_degree_plan(v, 0.5), 2.5),
    (lambda v: DegreePlan(p=v, q=1), 2.5),
    (lambda v: convergence_sweep(ROOTS, 0.5, [v], corpus("smooth-exp"), error_grid=256), 16.5),
    (lambda v: convergence_sweep(ROOTS, 0.5, [8], corpus("smooth-exp"), error_grid=v), 256.5),
    (lambda v: ParaOrthogonalSpec(n=v, tau=1.0), 2.5),
    (lambda v: estimate_conditions(roots_of_unimodular(8, 1.0), grid_size=v), 100.5),
    (lambda v: interpolation_error(interpolate(roots_of_unimodular(4, 1.0), make_degree_plan(4, 0.5),
                                               np.ones(4)), np.cos, grid_size=v), 100.5),
    (lambda v: near_best_error(corpus("smooth-exp"), make_degree_plan(4, 0.5), grid_size=v), 100.5),
    (lambda v: interval_nodes_from_measure(chebyshev1_weight, v), 2.5),
    (lambda v: szego_recurrence([0.5] * 8, v), 2.5),
    (lambda v: verblunsky_coefficients(lebesgue_measure(), v), 2.5),
], ids=["roots", "plan", "plan-window", "sweep-ns", "sweep-grid", "para-spec", "conditions-grid",
        "error-grid", "near-best-grid", "interval", "szego", "verblunsky"])
def test_counts_must_be_integers(count, bad):
    """A non-integral count is rejected, not truncated or used as a float:
    roots_of_unimodular(2.5, 1) gave 3 nodes whose derivatives assumed
    n = 2.5.  Python and numpy integers pass."""
    with pytest.raises(ValidationError, match="must be an integer"):
        count(bad)
    with pytest.raises(ValidationError, match="must be an integer"):
        count(float(int(bad)))
    count(np.int64(8))


ROOTS4 = roots_of_unimodular(4, 1.0)


@pytest.mark.parametrize("call", [
    lambda: fundamental_polynomial(ROOTS4, make_degree_plan(4, 0.5), 1.5, 0.3j),
    lambda: ParaOrthogonalSpec(n=4, tau="x"),
    lambda: ParaOrthogonalSpec(n=4, tau=None),
    lambda: ParaOrthogonalSpec(n=4, tau=True),
    lambda: roots_of_unimodular(4, "x"),
    lambda: roots_of_unimodular(True, 1.0),
    lambda: szego_recurrence([[0.1, 0.2]], 1),
    lambda: szego_recurrence([0.1, [0.2]], 2),
    lambda: finite_verblunsky(["x"]),
    lambda: finite_verblunsky(0.5),
    lambda: make_degree_plan(4, "x"),
    lambda: DegreePlan(p=True, q=1),
    lambda: coefficients_from_samples([1, 2, 3], "1"),
], ids=["node-index", "tau-str", "tau-none", "tau-bool", "roots-tau-str", "roots-n-bool",
        "szego-nested", "szego-ragged", "verblunsky-str", "verblunsky-scalar", "ratio-str",
        "plan-bool", "samples-p-str"])
def test_malformed_scalars_raise_validation_error(call):
    """A value of the wrong type is bad input: ValidationError names it,
    where numpy or Python raised IndexError, ValueError or TypeError."""
    with pytest.raises(ValidationError):
        call()


PLAN4 = make_degree_plan(4, 0.5)


@pytest.mark.parametrize("bad", [["1", "2", "3", "4"], "1j", [None, 1, 2, 3], "x",
                                 [[1, 2], [3], 4, 5]],
                         ids=["numeric-strs", "numeric-str", "none", "str", "ragged"])
@pytest.mark.parametrize("call", [
    lambda v: LaurentPolynomial(p=1, q=2, coeffs=v),
    lambda v: eval_laurent(LaurentPolynomial(p=1, q=2, coeffs=np.ones(4)), v),
    lambda v: coefficients_from_samples(v, 1),
    lambda v: make_nodal_system(v),
    lambda v: interpolate(ROOTS4, PLAN4, v),
    lambda v: eval_interpolant(interpolate(ROOTS4, PLAN4, np.ones(4)), v),
    lambda v: bernstein_szego(v),
    lambda v: interpolation_error(interpolate(ROOTS4, PLAN4, np.ones(4)), lambda z: v, grid_size=4),
    lambda v: near_best_error(lambda theta: v, PLAN4),
    lambda v: corpus("smooth-exp").on_circle(v),
], ids=["laurent-coeffs", "laurent-points", "samples", "nodes", "values", "interpolant-points",
        "bernstein-szego-h", "interpolation-error-values", "near-best-values", "corpus-points"])
def test_complex_arrays_must_be_numbers(call, bad):
    """A complex array input holds numbers only: a cast accepted numeric
    strings, stored None as NaN and raised a bare ValueError on 'x' or a
    ragged list."""
    with pytest.raises(ValidationError, match="must be numbers"):
        call(bad)
