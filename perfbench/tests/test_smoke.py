"""Smoke tests for the benchmark: oracles against closed forms, oracles
against the library on known-good inputs, and a tiny-n run of every
workload that must emit exactly the metric names in BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import circleinterp as ci  # noqa: E402
from circleinterp import cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------- oracles vs closed forms


@pytest.mark.parametrize("ab", sorted(oracles._CHEBYSHEV_KINDS))
def test_golub_welsch_matches_chebyshev_closed_form(ab):
    assert np.max(np.abs(oracles.gauss_jacobi_nodes(*ab, 50) - oracles.chebyshev_nodes(*ab, 50))) < 1e-14


def test_golub_welsch_legendre_against_numpy_gauss():
    ref = np.polynomial.legendre.leggauss(40)[0]
    assert np.max(np.abs(oracles.gauss_jacobi_nodes(0.0, 0.0, 40) - ref)) < 1e-14


def test_blaschke_step_is_exact_for_lebesgue():
    # alpha = 0: b_n = z^n, the phase is n*t, and one Newton step is exact
    n = 12
    zeros = (2 * np.arange(n) + 1) * np.pi / n   # z^n = -1
    shift = 1e-3 * np.sin(np.arange(n))
    step = oracles.blaschke_newton_step(np.zeros(n), 1.0, zeros + shift)
    assert np.max(np.abs(step - shift)) < 1e-14


def test_blaschke_double_agrees_with_mpmath():
    alphas = [0.7 * (-1) ** k for k in range(24)]
    thetas = np.linspace(0.1, 6.0, 7)
    d = oracles.blaschke_newton_step(alphas, 1.0, thetas)
    m = oracles.blaschke_newton_step_mp(alphas, 1.0, thetas)
    assert np.max(np.abs(d - m)) < 1e-12 * max(1.0, np.max(np.abs(m)))


def test_trig_interpolant_reproduces_member():
    rng = np.random.default_rng(0)
    n, p = 24, 9
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tau_angle = 0.7
    nodes = (tau_angle + 2 * np.pi * np.arange(n)) / n
    t = np.linspace(0, 2 * np.pi, 101)
    got = oracles.trig_interpolant_at_roots(oracles.laurent_sum(c, -p, nodes), p, t, tau_angle)
    assert np.max(np.abs(got - oracles.laurent_sum(c, -p, t))) < 1e-12 * np.max(np.abs(c)) * n


def test_laurent_sum_against_polyval():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    t = np.linspace(0, 2 * np.pi, 17)
    z = np.exp(1j * t)
    ref = np.polynomial.polynomial.polyval(z, c) * z ** -3
    assert np.max(np.abs(oracles.laurent_sum(c, -3, t) - ref)) < 1e-13


def test_barycentric_reproduces_polynomial():
    xs = oracles.chebyshev_nodes(-0.5, -0.5, 30)
    coeffs = np.random.default_rng(2).standard_normal(30)
    x = np.linspace(-1, 1, 401)
    got = oracles.barycentric_eval(xs, np.polynomial.chebyshev.chebval(xs, coeffs), x)
    assert np.max(np.abs(got - np.polynomial.chebyshev.chebval(x, coeffs))) < 1e-12


# ----------------------------------------- oracles vs library, known-good input


def test_paraorthogonal_nodes_against_blaschke_oracle():
    n = 32
    alphas = ci.verblunsky_coefficients(ci.finite_verblunsky([0.5, 0.2j]), n)
    system = ci.paraorthogonal_nodes(ci.szego_recurrence(alphas, n), ci.ParaOrthogonalSpec(n=n, tau=1.0))
    assert np.max(np.abs(oracles.blaschke_newton_step(alphas, 1.0, system.thetas))) < 1e-12


@pytest.mark.parametrize("weight", sorted(workloads.CLI_WEIGHTS))
@pytest.mark.parametrize("variant", ["mu1", "mu2", "mu3", "mu4"])
def test_interval_nodes_against_oracle(weight, variant):
    n = 16
    a, b = workloads.CLI_WEIGHTS[weight]
    got = ci.interval_nodes_from_measure(cli.INTERVAL_WEIGHTS[weight], n, variant).xs
    ref = oracles.interval_nodes(*oracles.variant_exponents(a, b, variant), n)
    assert np.max(np.abs(np.sort(got) - ref)) < 1e-12


def test_eval_interpolant_against_trig_oracle():
    n = 64
    system = ci.roots_of_unimodular(n, 1.0)
    plan = ci.make_degree_plan(n, 0.3)
    values = np.cos(3 * system.thetas) + np.abs(np.sin(system.thetas / 2))
    t = np.linspace(0, 2 * np.pi, 333)
    got = ci.eval_interpolant(ci.interpolate(system, plan, values), np.exp(1j * t))
    ref = oracles.trig_interpolant_at_roots(values, plan.p, t)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_interval_interpolate_against_barycentric():
    n = 20
    system = ci.interval_nodes_from_measure(cli.INTERVAL_WEIGHTS["chebyshev1"], n, "mu1")
    f = np.exp
    x = np.linspace(-1, 1, 301)
    ref = oracles.barycentric_eval(oracles.chebyshev_nodes(-0.5, -0.5, n),
                                   f(oracles.chebyshev_nodes(-0.5, -0.5, n)), x)
    assert np.max(np.abs(ci.interval_interpolate(system, f)(x) - ref)) < 1e-12


# ---------------------------------------------------------- tiny-n benchmark


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
