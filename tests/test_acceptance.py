"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the suite doubles as a report:
run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from circleinterp import (
    LaurentPolynomial,
    NodalFamily,
    ParaOrthogonalSpec,
    corpus,
    estimate_conditions,
    estimate_modulus,
    eval_interpolant,
    eval_laurent,
    finite_verblunsky,
    fundamental_polynomial,
    interpolate,
    interval_interpolate,
    interval_nodes_from_measure,
    convergence_sweep,
    make_degree_plan,
    paraorthogonal_nodes,
    roots_of_unimodular,
    szego_recurrence,
    trig_interpolate_paraorthogonal,
    trig_interpolate_symmetric,
    verblunsky_coefficients,
)
from circleinterp.cli import main as cli_main

from conftest import chebyshev1_weight, real_barycentric


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def bernstein_alphas(n: int):
    return szego_recurrence(verblunsky_coefficients(finite_verblunsky([0.5]), n), n)


def test_01_delta_property():
    t0 = time.time()
    worst = 0.0
    systems = [roots_of_unimodular(n, 1.0) for n in (8, 64, 256)]
    systems += [
        paraorthogonal_nodes(bernstein_alphas(n), ParaOrthogonalSpec(n=n, tau=1.0))
        for n in (8, 64)
    ]
    for sys in systems:
        plan = make_degree_plan(sys.n, 0.5)
        for j in range(sys.n):
            row = np.array(
                [fundamental_polynomial(sys, plan, j, z) for z in sys.nodes]
            )
            expect = np.zeros(sys.n)
            expect[j] = 1.0
            worst = max(worst, float(np.max(np.abs(row - expect))))
    elapsed = time.time() - t0
    report("delta property", worst <= 1e-11 and elapsed < 5.0,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_02_exactness_random_members():
    t0 = time.time()
    gen = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 513))
        r = float(gen.uniform(0.1, 0.9))
        sys = roots_of_unimodular(n, np.exp(1j * gen.uniform(0, 2 * np.pi)))
        plan = make_degree_plan(n, r)
        coeffs = gen.uniform(-1, 1, n) + 1j * gen.uniform(-1, 1, n)
        G = LaurentPolynomial(p=plan.p, q=plan.q, coeffs=coeffs)
        I = interpolate(sys, plan, eval_laurent(G, sys.nodes))
        z = np.exp(1j * gen.uniform(0, 2 * np.pi, 128))
        err = float(np.max(np.abs(eval_interpolant(I, z) - eval_laurent(G, z))))
        worst = max(worst, err / float(np.sum(np.abs(coeffs))))
    elapsed = time.time() - t0
    report("exactness on random window members", worst <= 1e-10 and elapsed < 30.0,
           f"worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_03_paraorthogonal_zeros():
    ok = True
    details = []
    for n in (4, 16, 128):
        for tau in (1.0, -1.0, np.exp(0.3j)):
            alphas = szego_recurrence(np.zeros(n), n)
            sys = paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=n, tau=tau))
            dev = float(np.max(np.abs(sys.nodes**n + tau)))
            ok &= dev <= 1e-12
            details.append(f"lebesgue n={n} dev {dev:.1e}")
    sys1 = paraorthogonal_nodes(bernstein_alphas(1), ParaOrthogonalSpec(n=1, tau=1.0))
    ok &= abs(sys1.nodes[0] + 1.0) <= 1e-14
    alphas = szego_recurrence(
        verblunsky_coefficients(finite_verblunsky([0.5, -0.3j]), 512), 512
    )
    sys512 = paraorthogonal_nodes(alphas, ParaOrthogonalSpec(n=512, tau=1.0))
    off = float(np.max(np.abs(np.abs(sys512.nodes) - 1.0)))
    gaps = np.abs(np.diff(np.concatenate([sys512.nodes, sys512.nodes[:1]])))
    ok &= off <= 1e-10 and float(np.min(gaps)) > 1e-8
    report("para-orthogonal zeros", ok,
           f"lebesgue max dev {max(float(d.split()[-1]) for d in details):.1e}, "
           f"n=512 |z|-1 max {off:.1e}")


def test_04_condition_constants():
    ok = True
    worst_b = 0.0
    for n in (8, 64, 512):
        rep = estimate_conditions(roots_of_unimodular(n, 1.0))
        worst_b = max(worst_b, abs(rep.b_hat - 1.0))
        ok &= abs(rep.b_hat - 1.0) <= 1e-9
    systems = [roots_of_unimodular(n, -1.0) for n in (16, 100, 512)]
    systems.append(
        paraorthogonal_nodes(bernstein_alphas(128), ParaOrthogonalSpec(n=128, tau=1.0))
    )
    for sys in systems:
        rep = estimate_conditions(sys)
        bound = np.sqrt(rep.l_hat) / rep.b_hat * np.sqrt(sys.n) * (1.0 + 1e-6)
        ok &= rep.lebesgue_max <= bound
    report("sufficiency-condition constants", ok,
           f"roots-of-unity |B_hat - 1| max {worst_b:.1e}")


def test_05_convergence_sweep():
    t0 = time.time()
    F = corpus("holder", 0.6)
    ns = [32, 64, 128, 256, 512, 1024]
    ok = True
    details = []
    families = [
        NodalFamily(kind="roots-of-unimodular", tau=1.0),
        NodalFamily(kind="para-orthogonal", tau=1.0,
                    measure=finite_verblunsky([0.5])),
    ]
    for family in families:
        result = convergence_sweep(family, 0.5, ns, F)
        errs = result.sup_errors
        halved = errs[-1] <= 0.5 * errs[0]
        ratios = errs[1:] / errs[:-1]
        violations = int(np.sum(ratios > 1.05))
        ok &= halved and violations <= 1
        details.append(f"{family.kind}: e32={errs[0]:.3f} e1024={errs[-1]:.3f}")
    elapsed = time.time() - t0
    ok &= elapsed < 180.0
    report("convergence sweep halves the error", ok,
           "; ".join(details) + f", {elapsed:.0f}s")


def test_06_interval_oracle_equivalence():
    targets = [
        ("x^2", lambda x: x**2),
        ("|x|^0.6", lambda x: np.abs(x) ** 0.6),
        ("exp", np.exp),
    ]
    worst = 0.0
    for variant, n in (("mu1", 16), ("mu2", 64), ("mu1", 128)):
        sys = interval_nodes_from_measure(chebyshev1_weight, n, variant)
        xg = np.linspace(-1, 1, 1001)
        for _, f in targets:
            poly = interval_interpolate(sys, f)
            oracle = real_barycentric(sys.all_nodes, f(sys.all_nodes))
            scale = float(np.max(np.abs(f(sys.all_nodes))))
            worst = max(worst, float(np.max(np.abs(poly(xg) - oracle(xg)))) / scale)
    report("interval interpolation matches barycentric oracle", worst <= 1e-9,
           f"worst relative deviation {worst:.2e}")


def test_07_chebyshev_closed_forms():
    worst = 0.0
    for n in (1, 4, 16, 64):
        j = np.arange(1, n + 1)
        cases = {
            "mu1": (np.cos((2 * j - 1) * np.pi / (2 * n)), False, False),
            "mu2": (np.cos(j * np.pi / (n + 1)), True, True),
            "mu3": (np.cos(2 * np.pi * j / (2 * n + 1)), False, True),
            "mu4": (np.cos((2 * j - 1) * np.pi / (2 * n + 1)), True, False),
        }
        for variant, (expected, wm, wp) in cases.items():
            sys = interval_nodes_from_measure(chebyshev1_weight, n, variant)
            assert (sys.has_minus_one, sys.has_plus_one) == (wm, wp)
            worst = max(worst, float(np.max(np.abs(sys.xs - np.sort(expected)))))
    report("Chebyshev-family closed forms", worst <= 1e-11,
           f"max node deviation {worst:.2e}")


def test_08_trig_interpolation():
    ok = True
    F = corpus("holder", 0.6)
    # interpolation conditions and realness, symmetric variant
    tp = trig_interpolate_symmetric(chebyshev1_weight, 8, F)
    theta = np.sort(interval_nodes_from_measure(chebyshev1_weight, 8).circle_system.thetas)
    cond = float(np.max(np.abs(tp(theta) - F(theta))))
    ok &= cond <= 1e-11
    ok &= tp.a.dtype == float and tp.b.dtype == float
    # imaginary residue bound is enforced inside the coefficient extraction;
    # verify explicitly against the complex circle interpolant
    alphas = szego_recurrence(np.zeros(9), 9)
    tp9 = trig_interpolate_paraorthogonal(alphas, -1.0, 9, F)
    nodes9 = np.sort(np.mod(2 * np.pi * np.arange(9) / 9, 2 * np.pi))
    ok &= float(np.max(np.abs(tp9(nodes9) - F(nodes9)))) <= 1e-11
    # cos theta reproduced exactly for n >= 2
    tg = np.linspace(0, 2 * np.pi, 181)
    for n in (2, 3, 7):
        tpc = trig_interpolate_symmetric(chebyshev1_weight, n, np.cos)
        ok &= float(np.max(np.abs(tpc(tg) - np.cos(tg)))) <= 1e-12
    # sup error decreases from smallest to largest n
    errs = {}
    for n in (16, 256):
        tpn = trig_interpolate_symmetric(chebyshev1_weight, n, F)
        errs[n] = float(np.max(np.abs(tpn(tg) - F(tg))))
    ok &= errs[256] < errs[16]
    report("trigonometric interpolation", ok,
           f"condition residual {cond:.1e}, e16={errs[16]:.3f} e256={errs[256]:.4f}")


def test_09_modulus_exponents():
    worst = 0.0
    for beta in (0.6, 0.8, 1.0):
        profile = estimate_modulus(corpus("holder", beta),
                                   np.logspace(-3, -1, 9), grid_size=2**16)
        worst = max(worst, abs(profile.exponent_fit - beta))
    report("modulus-of-continuity exponents", worst <= 0.05,
           f"worst exponent deviation {worst:.3f}")


def test_10_cli_determinism(tmp_path):
    args = ["sweep", "--family", "roots-of-unity", "--ns", "8:64",
            "--corpus", "holder:0.6", "--grid", "2048"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    report("CLI sweep determinism", same,
           f"{len(a.read_bytes())} bytes, byte-identical: {same}")
