#!/usr/bin/env python3
"""Interval and trigonometric interpolation study.

Compares the four interval node variants (interior-only, both endpoints,
one endpoint each) on [-1, 1] targets of increasing roughness under the
Chebyshev weight, then runs the symmetric trigonometric interpolant on the
matching periodic targets.  It exits nonzero when an interval fit has a
degree other than its node count less one.  Last, it checks three routes
to the same nodes, and exits nonzero when one fails:
- the Chebyshev-2 weight given as a callable must give the node angles of
  jacobi_weight(0.5, 0.5) to NODE_GAP_TOL (moment quadrature against the
  closed form);
- lebesgue_measure() must give the node angles of jacobi_weight(-0.5, -0.5)
  bit for bit: both have all alphas 0, and the transfers take any measure
  with real alphas;
- the Bernstein-Szego weight 1 / ((1 + r^2 - 2 r x) sqrt(1 - x^2)), r = 0.95,
  given as a callable must give the node angles of bernstein_szego([1, -r])
  to NODE_GAP_TOL (the quadrature's doubling loop against exact alphas).

Usage:
    python scripts/run_interval_study.py --n-max 128
"""

import argparse

import numpy as np

from circleinterp import (
    bernstein_szego,
    interval_interpolate,
    interval_nodes_from_measure,
    jacobi_weight,
    lebesgue_measure,
    trig_interpolate_symmetric,
)

# (1 - x^2)^(-1/2), whose Verblunsky coefficients are exactly 0
chebyshev1 = jacobi_weight(-0.5, -0.5)
# radians; the two routes to the Chebyshev-2 nodes agree to 1.05e-15 for
# n <= 128, those to the Bernstein-Szego nodes to 3.2e-15
NODE_GAP_TOL = 1e-13
R = 0.95


def chebyshev2(x):
    """(1 - x^2)^(1/2) as a callable, which takes the moment quadrature."""
    return np.sqrt(np.clip(1.0 - x * x, 0.0, None))


def bernstein_szego_interval(x):
    """1 / ((1 + R^2 - 2 R x) sqrt(1 - x^2)) as a callable; its alphas are
    exactly (R, 0, 0, ..), those of bernstein_szego([1, -R])."""
    return 1.0 / ((1.0 + R * R - 2.0 * R * x) * np.sqrt(1.0 - x * x))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=128, help="largest interior node count")
    args = ap.parse_args()

    targets = {
        "x^2": lambda x: x**2,
        "|x|^0.6": lambda x: np.abs(x) ** 0.6,
        "exp(x)": np.exp,
        "runge": lambda x: 1.0 / (1.0 + 25.0 * x * x),
    }
    xg = np.linspace(-1.0, 1.0, 4001)
    ns = []
    n = 8
    while n <= args.n_max:
        ns.append(n)
        n *= 2

    print("interval interpolation, sup error on [-1, 1]:")
    print(f"{'variant':<8} {'target':<9} " + " ".join(f"n={n:<8}" for n in ns))
    wrong_degree = []
    for variant in ("mu1", "mu2", "mu3", "mu4"):
        for name, f in targets.items():
            errs = []
            for n in ns:
                sys = interval_nodes_from_measure(chebyshev1, n, variant)
                poly = interval_interpolate(sys, f)
                if poly.degree() != len(sys.all_nodes) - 1:
                    wrong_degree.append(f"{variant} {name} n={n}: degree {poly.degree()} "
                                        f"for {len(sys.all_nodes)} nodes")
                errs.append(float(np.max(np.abs(poly(xg) - f(xg)))))
            row = " ".join(f"{e:<10.2e}" for e in errs)
            print(f"{variant:<8} {name:<9} {row}")
    if wrong_degree:
        raise SystemExit("interval fits of the wrong degree: " + "; ".join(wrong_degree))

    print("\ntrigonometric interpolation, sup error on [0, 2*pi):")
    tg = np.linspace(0.0, 2.0 * np.pi, 4001)
    periodic = {
        "exp(cos)": lambda t: np.exp(np.cos(t)),
        "|sin t/2|^0.6": lambda t: np.abs(np.sin(t / 2)) ** 0.6,
    }
    for name, f in periodic.items():
        errs = []
        for n in ns:
            tp = trig_interpolate_symmetric(chebyshev1, n, f)
            errs.append(float(np.max(np.abs(tp(tg) - f(tg)))))
        row = " ".join(f"{e:<10.2e}" for e in errs)
        print(f"{'':<8} {name:<13} {row}")
    # sanity: node counts double with n
    print(f"\nnode count at n={ns[-1]}: "
          f"{interval_nodes_from_measure(chebyshev1, ns[-1]).circle_system.n}")

    routes = (("Chebyshev-2", chebyshev2, jacobi_weight(0.5, 0.5)),
              (f"Bernstein-Szego r = {R}", bernstein_szego_interval, bernstein_szego([1.0, -R])))
    for name, w, exact in routes:
        gaps = [np.max(np.abs(interval_nodes_from_measure(w, n).thetas
                              - interval_nodes_from_measure(exact, n).thetas)) for n in ns]
        gap = float(np.max(gaps))  # a NaN gap stays NaN and fails the test below
        print(f"{name} node angles, quadrature against exact alphas: largest gap {gap:.2e} rad")
        if not gap <= NODE_GAP_TOL:
            raise SystemExit(f"the {name} quadrature route is off by more than {NODE_GAP_TOL:g} rad")
    same = all(interval_nodes_from_measure(lebesgue_measure(), n).thetas.tobytes()
               == interval_nodes_from_measure(chebyshev1, n).thetas.tobytes() for n in ns)
    print(f"Lebesgue measure and jacobi_weight(-0.5, -0.5), node angles bit for bit: {same}")
    if not same:
        raise SystemExit("lebesgue_measure() and jacobi_weight(-0.5, -0.5) give different nodes")


if __name__ == "__main__":
    main()
