#!/usr/bin/env python3
"""Interval and trigonometric interpolation study.

Compares the four interval node variants (interior-only, both endpoints,
one endpoint each) on [-1, 1] targets of increasing roughness under the
Chebyshev weight, then runs the symmetric trigonometric interpolant on the
matching periodic targets.  Last, it checks the moment quadrature against
the closed form: the Chebyshev-2 weight given as a callable must give the
node angles of jacobi_weight(0.5, 0.5) to NODE_GAP_TOL, or the script
exits nonzero.

Usage:
    python scripts/run_interval_study.py --n-max 128
"""

import argparse

import numpy as np

from circleinterp import (
    interval_interpolate,
    interval_nodes_from_measure,
    jacobi_weight,
    trig_interpolate_symmetric,
)

# (1 - x^2)^(-1/2), whose Verblunsky coefficients are exactly 0
chebyshev1 = jacobi_weight(-0.5, -0.5)
# radians; the two routes to the Chebyshev-2 nodes agree to 1.05e-15 for n <= 128
NODE_GAP_TOL = 1e-13


def chebyshev2(x):
    """(1 - x^2)^(1/2) as a callable, which takes the moment quadrature."""
    return np.sqrt(np.clip(1.0 - x * x, 0.0, None))


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
    for variant in ("mu1", "mu2", "mu3", "mu4"):
        for name, f in targets.items():
            errs = []
            for n in ns:
                sys = interval_nodes_from_measure(chebyshev1, n, variant)
                poly = interval_interpolate(sys, f)
                errs.append(float(np.max(np.abs(poly(xg) - f(xg)))))
            row = " ".join(f"{e:<10.2e}" for e in errs)
            print(f"{variant:<8} {name:<9} {row}")

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

    gaps = []
    for n in ns:
        quad = interval_nodes_from_measure(chebyshev2, n).thetas
        exact = interval_nodes_from_measure(jacobi_weight(0.5, 0.5), n).thetas
        gaps.append(np.max(np.abs(quad - exact)))
    gap = float(np.max(gaps))  # a NaN gap stays NaN and fails the test below
    print(f"Chebyshev-2 node angles, quadrature against closed form: largest gap {gap:.2e} rad")
    if not gap <= NODE_GAP_TOL:
        raise SystemExit(f"the quadrature route is off by more than {NODE_GAP_TOL:g} rad")


if __name__ == "__main__":
    main()
