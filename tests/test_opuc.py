import json

import numpy as np
import pytest

from circleinterp import (
    ConditioningError,
    DegeneracyError,
    ParaOrthogonalSpec,
    RootFindingError,
    ValidationError,
    bernstein_szego,
    finite_verblunsky,
    interpolate,
    lebesgue_measure,
    load_measure_spec,
    make_degree_plan,
    moments_to_verblunsky,
    paraorthogonal,
    paraorthogonal_nodes,
    quadrature_weight,
    szego_recurrence,
    trigonometric_moments,
    verblunsky_coefficients,
)
from circleinterp import opuc


def orthogonality_defect(state, weight, degree, m=4096):
    """Numeric oracle: max_{k<=degree, j<k} |<phi_k, z^j>| under the weight,
    by periodic midpoint quadrature, normalized by ||phi_k||."""
    theta = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    z = np.exp(1j * theta)
    w = np.asarray(weight(theta), dtype=float)
    worst = 0.0
    for k in range(1, degree + 1):
        phi = np.zeros_like(z)
        for c in state.phis[k][::-1]:
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


def alternating(n):
    return [0.7 * (-1) ** k for k in range(n)]


class TestSzegoRecurrence:
    def test_lebesgue_monomials(self):
        state = szego_recurrence(np.zeros(5), 5)
        for k in range(6):
            expected = np.zeros(k + 1)
            expected[-1] = 1.0
            assert np.allclose(state.phis[k], expected)

    def test_hand_expansion_single_alpha(self):
        # alpha_0 = 1/2: phi_1 = z - 1/2, phi_1* = 1 - z/2
        state = szego_recurrence([0.5], 1)
        assert np.allclose(state.phis[1], [-0.5, 1.0])
        assert np.allclose(state.phi_stars[1], [1.0, -0.5])

    def test_hand_expansion_two_steps(self):
        # alpha = (1/2, 1/3):
        # phi_2 = z phi_1 - (1/3) phi_1* = z^2 - z/2 - (1/3)(1 - z/2)
        state = szego_recurrence([0.5, 1.0 / 3.0], 2)
        assert np.allclose(state.phis[2], [-1.0 / 3.0, -1.0 / 3.0, 1.0])

    def test_complex_alpha_conjugation(self):
        a = 0.3 + 0.4j
        state = szego_recurrence([a], 1)
        # phi_1 = z - conj(alpha_0)
        assert state.phis[1][0] == pytest.approx(-np.conj(a))

    def test_phi_at_zero(self):
        alphas = [0.5, -0.25, 0.1j]
        state = szego_recurrence(alphas, 3)
        # phi_{k+1}(0) = -conj(alpha_k) phi_k*(0), phi_k*(0) = conj(leading) = 1
        for k, a in enumerate(alphas):
            assert state.phis[k + 1][0] == pytest.approx(
                -np.conj(a) * state.phi_stars[k][0]
            )
        assert np.allclose(state.phi_at_zero, [p[0] for p in state.phis])

    def test_rejects_large_alpha(self):
        with pytest.raises(ValidationError):
            szego_recurrence([1.0], 1)

    def test_rejects_short_sequence(self):
        with pytest.raises(ValidationError):
            szego_recurrence([0.1], 3)


class TestMoments:
    def test_lebesgue_weight_moments(self):
        spec = quadrature_weight(lambda t: np.ones_like(t))
        m = trigonometric_moments(spec, 4)
        assert m[0] == pytest.approx(2 * np.pi, rel=1e-13)
        assert np.max(np.abs(m[1:])) < 1e-12

    def test_cosine_weight(self):
        # w = 1 + cos theta: m_0 = 2 pi, m_1 = pi, higher vanish
        spec = quadrature_weight(lambda t: 1.0 + np.cos(t))
        m = trigonometric_moments(spec, 3)
        assert m[0] == pytest.approx(2 * np.pi, rel=1e-12)
        assert m[1] == pytest.approx(np.pi, rel=1e-12)
        assert np.max(np.abs(m[2:])) < 1e-11

    def test_rejects_negative_weight(self):
        spec = quadrature_weight(lambda t: np.cos(t))
        with pytest.raises(ValidationError):
            trigonometric_moments(spec, 2)

    def test_requires_quadrature_kind(self):
        with pytest.raises(ValidationError):
            trigonometric_moments(lebesgue_measure(), 2)


class TestVerblunskyRecovery:
    def test_bernstein_szego_recovers_alphas(self):
        # w ~ 1/|1 - z/2|^2 has alpha = (1/2, 0, 0, ...)
        spec = bernstein_szego([1.0, -0.5])
        alphas = moments_to_verblunsky(spec, 6)
        assert alphas[0] == pytest.approx(0.5, abs=1e-10)
        assert np.max(np.abs(alphas[1:])) < 1e-10

    def test_complex_bernstein_szego(self):
        # w ~ 1/|1 - alpha_0 z|^2 recovers alpha = (alpha_0, 0, ...)
        a = 0.3 - 0.2j
        spec = bernstein_szego([1.0, -a])
        alphas = moments_to_verblunsky(spec, 4)
        assert alphas[0] == pytest.approx(a, abs=1e-10)
        assert np.max(np.abs(alphas[1:])) < 1e-10

    def test_recovered_polynomials_are_orthogonal(self):
        """Convention check: the recovered state must be orthogonal under the
        weight itself, measured by independent quadrature."""
        weight = lambda t: np.exp(np.cos(t))
        spec = quadrature_weight(weight)
        alphas = verblunsky_coefficients(spec, 8)
        state = szego_recurrence(alphas, 8)
        assert orthogonality_defect(state, weight, 8) < 1e-9

    def test_dispatch(self):
        assert np.all(verblunsky_coefficients(lebesgue_measure(), 4) == 0)
        got = verblunsky_coefficients(finite_verblunsky([0.5, -0.2]), 4)
        assert np.allclose(got, [0.5, -0.2, 0.0, 0.0])

    def test_invalid_count(self):
        with pytest.raises(ValidationError):
            moments_to_verblunsky(bernstein_szego([1.0]), 0)

    def test_concentrated_measure_alphas_near_one(self):
        # a sharply peaked weight pushes |alpha_0| toward 1 without crossing
        # the admissibility limit
        spec = quadrature_weight(lambda t: np.exp(50.0 * np.cos(t)))
        alphas = moments_to_verblunsky(spec, 2)
        assert 0.97 < abs(alphas[0]) < 1.0


class TestParaOrthogonal:
    def test_lebesgue_coefficients(self):
        state = szego_recurrence(np.zeros(4), 4)
        omega = paraorthogonal(state, ParaOrthogonalSpec(n=4, tau=1.0))
        assert np.allclose(omega, [1.0, 0, 0, 0, 1.0])  # z^4 + 1

    def test_lebesgue_zeros_are_roots_of_minus_tau(self):
        for n, tau in [(4, 1.0), (7, -1.0), (5, np.exp(0.4j))]:
            state = szego_recurrence(np.zeros(n), n)
            sys = paraorthogonal_nodes(state, ParaOrthogonalSpec(n=n, tau=tau))
            assert np.max(np.abs(sys.nodes**n + tau)) < 1e-12

    def test_single_alpha_degree_one(self):
        # omega_1(z, 1) = (z - 1/2) + (1 - z/2) = (z/2)(1) ... solve: z = -1
        state = szego_recurrence([0.5], 1)
        sys = paraorthogonal_nodes(state, ParaOrthogonalSpec(n=1, tau=1.0))
        assert abs(sys.nodes[0] + 1.0) < 1e-14

    def test_zeros_unimodular_and_sorted(self):
        state = szego_recurrence([0.5] + [0.0] * 63, 64)
        sys = paraorthogonal_nodes(state, ParaOrthogonalSpec(n=64, tau=1.0))
        assert np.max(np.abs(np.abs(sys.nodes) - 1.0)) < 1e-12
        assert np.all(np.diff(sys.thetas) > 0)

    def test_zeros_are_true_zeros(self):
        state = szego_recurrence([0.3, -0.2, 0.1], 3)
        spec = ParaOrthogonalSpec(n=3, tau=-1.0)
        omega = paraorthogonal(state, spec)
        sys = paraorthogonal_nodes(state, spec)
        vals = np.polynomial.polynomial.polyval(sys.nodes, omega)
        assert np.max(np.abs(vals)) < 1e-12

    @pytest.mark.parametrize("tau", [1.0, np.exp(0.7j)])
    @pytest.mark.parametrize("family", ["alternating", "random-0.95"])
    def test_matches_mpmath_roots(self, family, tau):
        n = 64
        if family == "alternating":
            alphas = alternating(n)
        else:
            alphas = 0.95 * np.exp(2j * np.pi * np.random.default_rng(11).random(n))
        sys = paraorthogonal_nodes(szego_recurrence(alphas, n), ParaOrthogonalSpec(n=n, tau=tau))
        ref = mpmath_paraorthogonal_angles(alphas, tau)
        dist = np.abs(np.mod(np.sort(sys.thetas) - ref + np.pi, 2 * np.pi) - np.pi)
        assert np.max(dist) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_colliding_zeros_raise_degeneracy(self, alpha):
        # constant alphas: the exact zeros collide within ~1e-15
        state = szego_recurrence([alpha] * 64, 64)
        with pytest.raises(DegeneracyError):
            paraorthogonal_nodes(state, ParaOrthogonalSpec(n=64, tau=1.0))

    def test_non_convergence_raises_root_finding(self, monkeypatch):
        monkeypatch.setattr(opuc, "_NEWTON_MAX_STEPS", 1)
        state = szego_recurrence(alternating(64), 64)
        with pytest.raises(RootFindingError, match="did not converge"):
            paraorthogonal_nodes(state, ParaOrthogonalSpec(n=64, tau=1.0))

    def test_alternating_family_large_n(self):
        state = szego_recurrence(alternating(512), 512)
        sys = paraorthogonal_nodes(state, ParaOrthogonalSpec(n=512, tau=1.0))
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
        assert load_measure_spec(path).kind == "lebesgue"
        path.write_text(json.dumps({"kind": "gaussian"}))
        with pytest.raises(ValidationError):
            load_measure_spec(path)
