import csv
import io
import json
import os

import numpy as np
import pytest

from circleinterp import (
    NodalFamily,
    ValidationError,
    convergence_sweep,
    corpus,
    estimate_modulus,
    finite_verblunsky,
    make_degree_plan,
    near_best_error,
    parse_corpus,
    sweep_to_csv,
    sweep_to_json,
)
from circleinterp import experiments, interp, laurent, nodal
from circleinterp.experiments import CorpusFunction
from circleinterp.interp import interpolate
from circleinterp.nodal import max_workers
from conftest import joined_grid_sup_error


class TestCorpus:
    def test_labels_and_parsing(self):
        F = parse_corpus("holder:0.6")
        assert F.label == "holder:0.6"
        assert parse_corpus("smooth-exp").label == "smooth-exp"
        assert parse_corpus("boundary-half").param == 0.5

    def test_holder_values(self):
        F = corpus("holder", 0.6)
        assert F(np.pi) == pytest.approx(1.0)
        assert F(0.0) == pytest.approx(0.0)

    def test_steep_step_smooth_saturates_without_overflow(self):
        """exp(-k cos theta) overflows to inf where cos theta < -0.71 at
        k = 1000, which gives the ramp's limit 0; other values keep their bits."""
        t = np.linspace(0.0, 2.0 * np.pi, 257)
        got = corpus("step-smooth", 1000.0)(t)
        assert got[128] == 0.0 and got[0] == 1.0 and np.all((got >= 0) & (got <= 1))
        with np.errstate(over="ignore"):
            assert got.tobytes() == (1.0 / (1.0 + np.exp(-1000.0 * np.cos(t)))).tobytes()

    def test_lipschitz_triangle(self):
        F = corpus("lipschitz")
        assert F(np.pi) == pytest.approx(np.pi)
        assert F(0.0) == pytest.approx(0.0)
        t = np.linspace(0, 2 * np.pi, 100)
        slopes = np.diff(F(t)) / np.diff(t)
        assert np.max(np.abs(slopes)) <= 1.0 + 1e-12

    def test_circle_and_interval_lifts(self):
        F = corpus("smooth-exp")
        assert F.on_circle(np.exp(0.5j)) == pytest.approx(np.exp(np.cos(0.5)))
        assert F.on_interval(np.cos(0.5)) == pytest.approx(np.exp(np.cos(0.5)))

    def test_call_rejects_complex_points(self):
        """A call takes angles; a complex point would lose its imaginary
        part in the cast to float, so it is refused."""
        F = corpus("holder", 0.6)
        with pytest.raises(ValidationError, match="on_circle"):
            F(np.exp(1j * np.linspace(0.0, 1.0, 4)))
        with pytest.raises(ValidationError, match="on_circle"):
            F(1j)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            corpus("holder", 1.5)
        with pytest.raises(ValidationError):
            corpus("gaussian-bump")
        # a parameter for a function that takes none, or a non-finite one,
        # is refused rather than dropped or relabelled
        for spec in ("lipschitz:0.3", "smooth-exp:5", "boundary-half:0.9", "boundary-half:0.5",
                     "step-smooth:nan", "step-smooth:inf", "holder:nan"):
            with pytest.raises(ValidationError):
                parse_corpus(spec)

    @pytest.mark.parametrize("name,param", [
        ("holder", "0.6"), ("holder", True), ("step-smooth", 1j), ("step-smooth", "x"),
        ("step-smooth", False), ("holder", [0.6]),
    ], ids=["holder-str", "holder-bool", "step-complex", "step-str", "step-bool", "holder-list"])
    def test_parameter_must_be_a_real_number(self, name, param):
        with pytest.raises(ValidationError, match="real number"):
            corpus(name, param)


class TestModulus:
    @pytest.mark.parametrize("beta", [0.6, 0.8, 1.0])
    def test_holder_exponent(self, beta):
        F = corpus("holder", beta)
        deltas = np.logspace(-3, -1, 9)
        profile = estimate_modulus(F, deltas, grid_size=2**16)
        assert abs(profile.exponent_fit - beta) < 0.05

    def test_monotone_in_delta(self):
        F = corpus("lipschitz")
        profile = estimate_modulus(F, np.logspace(-3, 0, 12))
        # deltas stored decreasing, estimates must be nonincreasing with them
        assert np.all(np.diff(profile.lambda_hat) <= 1e-15)

    def test_rejects_complex_values(self):
        F = CorpusFunction("complex", None, lambda t: 1j * np.cos(t))
        with pytest.raises(ValidationError, match="complex must return one real number"):
            estimate_modulus(F, [0.1, 0.01])

    def test_validation(self, capfd):
        F = corpus("smooth-exp")
        for deltas in ([0.1, -0.2], [], [np.nan], [0.1, np.inf], 0.1, [[0.1]]):
            with pytest.raises(ValidationError, match="deltas"):
                estimate_modulus(F, deltas)
        with pytest.raises(ValidationError):
            estimate_modulus(F, [0.1], grid_size=100)
        # nothing reaches LAPACK, which prints to stderr on an inf delta
        assert capfd.readouterr().err == ""


class TestNearBest:
    def test_reproduces_window_member(self):
        plan = make_degree_plan(33, 0.5)
        F = corpus("smooth-exp")
        # cos(3 theta) = (z^3 + z^-3)/2 lives inside the window
        from circleinterp.experiments import CorpusFunction

        G = CorpusFunction("window-member", None, lambda t: np.cos(3 * t))
        assert near_best_error(G, plan) < 1e-12
        assert near_best_error(F, plan) < 1e-10  # analytic: spectral decay

    def test_lower_bounds_interpolation_error(self):
        """The proxy underestimates realized interpolation error up to the
        operator-norm factor; for a rough target both are moderate."""
        plan = make_degree_plan(128, 0.5)
        F = corpus("holder", 0.6)
        e = near_best_error(F, plan)
        assert 0 < e < 0.1

    @pytest.mark.parametrize("grid", [0, -8])
    def test_rejects_empty_grid(self, grid):
        """Doubling a grid of no points never reaches the window's size."""
        with pytest.raises(ValidationError, match="grid_size"):
            near_best_error(corpus("smooth-exp"), make_degree_plan(8, 0.5), grid_size=grid)


class TestSweep:
    def test_roots_of_unity_sweep(self):
        family = NodalFamily(kind="roots-of-unimodular", tau=1.0)
        F = corpus("holder", 0.6)
        result = convergence_sweep(family, 0.5, [8, 16, 32], F, error_grid=2048)
        assert result.statuses == ("ok", "ok", "ok")
        assert np.all(np.diff(result.sup_errors) < 0)
        assert np.max(np.abs(result.b_hats - result.b_hats[0])) < 0.3

    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
    def test_ratio_checked_before_any_n(self, r):
        """A ratio outside (0, 1) is invalid input for the whole sweep: it
        raises before any n is built, not as an error recorded at every n."""
        family = NodalFamily(kind="roots-of-unimodular", tau=1.0)
        with pytest.raises(ValidationError, match="ratio r"):
            convergence_sweep(family, r, [8, 16], corpus("smooth-exp"), error_grid=256)

    def test_para_orthogonal_family(self):
        family = NodalFamily(kind="para-orthogonal", tau=1.0,
                             measure=finite_verblunsky([0.5]))
        sys = family.build(8)
        assert sys.n == 8
        assert np.max(np.abs(np.abs(sys.nodes) - 1.0)) < 1e-12

    @pytest.mark.parametrize("family", [
        NodalFamily(kind="roots-of-unimodular", tau=1.0),
        NodalFamily(kind="roots-of-unimodular", tau=np.exp(0.7j)),
        NodalFamily(kind="para-orthogonal", tau=1.0, measure=finite_verblunsky([0.5])),
    ], ids=["roots", "roots-0.7", "para-0.5"])
    def test_sup_error_matches_joined_grid(self, monkeypatch, family):
        """The uniform grid and the node midpoints, evaluated apart from one
        set of coefficients, give the sup error of the joined grid under
        Horner within 1e-12 relative.  The pair kernel runs once per n for
        para-orthogonal nodes, at the samples of the coefficients, and never
        for roots; the midpoints of roots form a rotated uniform grid."""
        ns, r, F = (32, 256, 1024), 0.5, corpus("holder", 0.6)
        kernel_calls = []
        kernel = interp._first_form
        monkeypatch.setattr(interp, "_first_form",
                            lambda system, *a: kernel_calls.append(system.n) or kernel(system, *a))
        result = convergence_sweep(family, r, ns, F)
        roots = family.kind == "roots-of-unimodular"
        assert sorted(kernel_calls) == ([] if roots else list(ns))
        monkeypatch.setattr(interp, "_first_form", kernel)
        for n, got in zip(ns, result.sup_errors):
            system = family.build(n)
            I = interpolate(system, make_degree_plan(n, r), F.on_circle(system.nodes))
            ref = joined_grid_sup_error(I, F, result.error_grid)
            assert abs(got - ref) <= 1e-12 * ref
            mids = laurent._grid_rotation(np.exp(1j * nodal._node_midpoints(system)))
            assert (mids is not None) == roots

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_target_runs_once_on_the_shared_grid(self, monkeypatch, threads):
        """F sees the 8192-point error grid once per sweep.  Per n it sees
        only the nodes and node midpoints that are not bit-equal to a grid
        point, each at most once.  On the roots of unity that is nothing:
        their midpoints are the odd points of the uniform 2n-point grid, and
        8192 / (2n) is a power of two.  It is some of the roots of
        z^n = -1 and every para-orthogonal [0.5] node."""
        monkeypatch.setenv("CIRCLE_INTERP_THREADS", threads)
        ns, holder = (32, 256, 1024), corpus("holder", 0.6)
        for tau, kind, seen in ((1.0, "roots-of-unimodular", "none"),
                                (-1.0, "roots-of-unimodular", "some"),
                                (1.0, "para-orthogonal", "all")):
            calls, built = [], []

            class Tagged(NodalFamily):
                def build(self, n):
                    built.append(n)
                    return super().build(n)

            def f_theta(t):
                calls.append((built[-1] if built else None, np.array(t)))
                return holder(t)

            family = Tagged(kind=kind, tau=tau, measure=finite_verblunsky([0.5]))
            result = convergence_sweep(family, 0.5, ns, CorpusFunction("spy", None, f_theta))
            assert result.statuses == ("ok",) * len(ns)
            assert built == list(ns)
            assert [np.size(t) for n, t in calls if n is None] == [result.error_grid]
            for n in ns:
                seen_at = np.concatenate([t for m, t in calls if m == n] + [[]])
                system = family.build(n)
                mids = np.mod(np.angle(np.exp(1j * nodal._node_midpoints(system))), 2 * np.pi)
                per_node, per_mid = (np.array([np.count_nonzero(seen_at == t) for t in points])
                                     for points in (system.thetas, mids))
                assert per_node.max() <= 1 and per_mid.max() <= 1
                count = per_node.sum()
                assert {"none": len(seen_at) == 0, "some": 0 < count < n,
                        "all": count == n}[seen]

    @pytest.mark.parametrize("family", [
        NodalFamily(kind="roots-of-unimodular", tau=1.0),
        NodalFamily(kind="roots-of-unimodular", tau=-1.0),
        NodalFamily(kind="roots-of-unimodular", tau=np.exp(0.7j)),
        NodalFamily(kind="para-orthogonal", tau=1.0, measure=finite_verblunsky([0.5])),
    ], ids=["roots", "roots-neg", "roots-0.7", "para-0.5"])
    def test_sup_errors_equal_a_grid_per_n(self, family):
        """Every sup error is == the one from the uniform grid and the node
        midpoints evaluated for that n alone, each point first matched to
        its nearest node.  A one-point grid takes Horner, the others the
        FFT; on the roots of unity some or all grid points lie at nodes."""
        ns, r, F = (32, 256, 1024), 0.5, corpus("holder", 0.6)
        for M in (1, 2, 3000, 4096):
            result = convergence_sweep(family, r, ns, F, error_grid=M)
            for n, got in zip(ns, result.sup_errors):
                system = family.build(n)
                I = interpolate(system, make_degree_plan(n, r), F.on_circle(system.nodes))
                L = interp.interpolant_coefficients(I)
                ref = max(float(np.max(np.abs(F.on_circle(z) - interp._evaluate(I, z, L))))
                          for z in (np.exp(1j * laurent._uniform_angles(M)),
                                    np.exp(1j * nodal._node_midpoints(system))))
                assert got == ref

    def test_grid_points_at_nodes_take_the_node_values(self, monkeypatch):
        """A grid point at a node takes that node's value, not the FFT's:
        with NaN in place of the FFT's values there, the sup errors of the
        roots of unity are unchanged.  The sup error alone cannot show it,
        as the FFT misses a node's value by rounding only."""
        family = NodalFamily(kind="roots-of-unimodular", tau=1.0)
        ns, F = (32, 256), corpus("holder", 0.6)
        want = convergence_sweep(family, 0.5, ns, F, error_grid=4096).sup_errors
        fft = experiments._fft_on_grid

        def poisoned(L, M, j0, a):
            values = fft(L, M, j0, a)
            values[::M // (L.p + L.q + 1)] = np.nan  # the grid points at the nodes
            return values

        monkeypatch.setattr(experiments, "_fft_on_grid", poisoned)
        got = convergence_sweep(family, 0.5, ns, F, error_grid=4096).sup_errors
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_target_failing_on_the_grid(self, monkeypatch, threads):
        """A library error F raises on the error grid is recorded at every
        n; an n whose family fails first keeps its own message."""
        monkeypatch.setenv("CIRCLE_INTERP_THREADS", threads)
        M = 512

        def f_theta(t):
            if np.size(t) == M:
                raise ValidationError("no grid today")
            return np.cos(t)

        F = CorpusFunction("grid-shy", None, f_theta)

        class FailsAt16(NodalFamily):
            def build(self, n):
                if n == 16:
                    raise ValidationError("boom")
                return super().build(n)

        for family in (NodalFamily(kind="roots-of-unimodular", tau=1.0),
                       FailsAt16(kind="roots-of-unimodular", tau=1.0)):
            result = convergence_sweep(family, 0.5, [8, 16, 32], F, error_grid=M)
            assert np.all(np.isnan(result.sup_errors))
            build_failed = isinstance(family, FailsAt16)
            assert result.statuses == ("error: no grid today",
                                       "error: boom" if build_failed else "error: no grid today",
                                       "error: no grid today")

    @pytest.mark.parametrize("every_n_fails", [False, True])
    def test_target_raising_other_errors_propagates(self, every_n_fails):
        """A non-library error F raises on the error grid propagates, from
        before any n runs: also when every n would have failed first."""
        def f_theta(t):
            if np.size(t) == 512:
                raise ZeroDivisionError("not a library error")
            return np.cos(t)

        class FailsAlways(NodalFamily):
            def build(self, n):
                raise ValidationError("boom")

        family = (FailsAlways if every_n_fails else NodalFamily)(kind="roots-of-unimodular",
                                                                 tau=1.0)
        with pytest.raises(ZeroDivisionError):
            convergence_sweep(family, 0.5, [8, 16], CorpusFunction("bad", None, f_theta),
                              error_grid=512)

    def test_failed_n_recorded_not_fatal(self):
        family = NodalFamily(kind="roots-of-unimodular", tau=1.0)
        F = corpus("smooth-exp")
        # n=2 with r tiny still works; use a poisoned family instead
        class Bad(NodalFamily):
            def build(self, n):
                if n == 16:
                    raise ValidationError("boom")
                return super().build(n)

        bad = Bad(kind="roots-of-unimodular", tau=1.0)
        result = convergence_sweep(bad, 0.5, [8, 16, 32], F, error_grid=1024)
        assert result.statuses[0] == "ok"
        assert result.statuses[1].startswith("error:")
        assert np.isnan(result.sup_errors[1])
        assert result.statuses[2] == "ok"

    def test_csv_and_json_serialization(self):
        family = NodalFamily(kind="roots-of-unimodular", tau=1.0)
        result = convergence_sweep(family, 0.5, [4, 8], corpus("smooth-exp"),
                                   error_grid=1024)
        csv = sweep_to_csv(result)
        lines = csv.strip().splitlines()
        assert lines[0] == "n,p,q,s,sup_error,lebesgue_max,B_hat,L_hat,status"
        assert len(lines) == 3
        assert "np.float64" not in csv
        payload = json.loads(sweep_to_json(result, metadata={"seed": 1}))
        assert [row["n"] for row in payload["rows"]] == [4, 8]
        assert payload["metadata"]["seed"] == 1

        # a failed n serializes as strict JSON: null values, never NaN tokens
        class FailsAt8(NodalFamily):
            def build(self, n):
                if n == 8:
                    raise ValidationError("boom")
                return super().build(n)

        failed = convergence_sweep(FailsAt8(kind="roots-of-unimodular", tau=1.0), 0.5,
                                   [4, 8], corpus("smooth-exp"), error_grid=1024)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        rows = json.loads(sweep_to_json(failed), parse_constant=reject)["rows"]
        assert rows[0]["status"] == "ok" and rows[0]["sup_error"] is not None
        assert rows[1]["status"].startswith("error:")
        assert [rows[1][k] for k in ("sup_error", "lebesgue_max", "B_hat", "L_hat")] == [None] * 4

    def test_thread_count_leaves_output_unchanged(self, monkeypatch):
        """The sweep's CSV and JSON, a failed n included, are byte-identical
        on one thread and on two."""
        class FailsAt16(NodalFamily):
            def build(self, n):
                if n == 16:
                    raise ValidationError("boom")
                return super().build(n)

        family = FailsAt16(kind="para-orthogonal", tau=1.0, measure=finite_verblunsky([0.5]))
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CIRCLE_INTERP_THREADS", threads)
            result = convergence_sweep(family, 0.5, [8, 16, 32, 64], corpus("holder", 0.6),
                                       error_grid=1024)
            outputs.append((sweep_to_csv(result), sweep_to_json(result)))
        assert outputs[0] == outputs[1]
        assert "error: boom" in outputs[0][0]

    def test_csv_records_failure_reason(self):
        """A failed n keeps its error message in the CSV's status column,
        quoted, so that commas and quotes in the message survive."""
        class FailsAt8(NodalFamily):
            def build(self, n):
                if n == 8:
                    raise ValidationError('boom, "quoted"')
                return super().build(n)

        failed = convergence_sweep(FailsAt8(kind="roots-of-unimodular", tau=1.0), 0.5,
                                   [4, 8], corpus("smooth-exp"), error_grid=1024)
        rows = list(csv.DictReader(io.StringIO(sweep_to_csv(failed))))
        assert [row["n"] for row in rows] == ["4", "8"]
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == failed.statuses[1]
        assert rows[1]["status"].startswith("error:") and 'boom, "quoted"' in rows[1]["status"]
        assert rows[1]["sup_error"] == "nan" and rows[1]["p"] == ""

    def test_rejects_bad_ns(self):
        family = NodalFamily(kind="roots-of-unimodular", tau=1.0)
        with pytest.raises(ValidationError, match=r"no n repeated .* got \[4, 8, 8\]"):
            convergence_sweep(family, 0.5, [8, 4, 8], corpus("smooth-exp"))
        with pytest.raises(ValidationError, match="nonempty"):
            convergence_sweep(family, 0.5, [], corpus("smooth-exp"))

    def test_runs_ns_in_increasing_order(self):
        family = NodalFamily(kind="roots-of-unimodular", tau=1.0)
        result = convergence_sweep(family, 0.5, [16, 8], corpus("smooth-exp"), error_grid=256)
        assert result.ns.tolist() == [8, 16] and result.statuses == ("ok", "ok")

    def test_family_refuses_an_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown family kind 'foo'"):
            NodalFamily("foo")

    @pytest.mark.parametrize("ns", [[1], [1, 8, 64], np.arange(1, 5)])
    def test_rejects_n_below_two_before_any_n_runs(self, ns, monkeypatch):
        """make_degree_plan needs n >= 2, so n = 1 could only fail."""
        monkeypatch.setattr(experiments, "_sweep_one", lambda *a: pytest.fail("an n ran"))
        family = NodalFamily(kind="roots-of-unimodular", tau=1.0)
        with pytest.raises(ValidationError, match="each n in ns must be >= 2"):
            convergence_sweep(family, 0.5, ns, corpus("holder", 0.6))

    @pytest.mark.parametrize("grid", [0, -5])
    def test_rejects_nonpositive_error_grid(self, grid):
        """A grid of no uniform points would measure the error at the node
        midpoints only: 0.2320 instead of 0.2635 for holder:0.5 at n = 8."""
        family = NodalFamily(kind="roots-of-unimodular", tau=1.0)
        with pytest.raises(ValidationError, match="error_grid"):
            convergence_sweep(family, 0.5, [8], corpus("holder", 0.5), error_grid=grid)


class TestMaxWorkers:
    def test_affinity_mask_bounds_the_default(self, monkeypatch):
        """The default counts the CPUs the process may run on, not the host's."""
        monkeypatch.delenv("CIRCLE_INTERP_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert max_workers() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("CIRCLE_INTERP_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert max_workers() == 64

    @pytest.mark.parametrize("raw, want", [("3", 3), ("0", 1), ("x", 1)])
    def test_environment_first(self, monkeypatch, raw, want):
        monkeypatch.setenv("CIRCLE_INTERP_THREADS", raw)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert max_workers() == want
