#!/usr/bin/env python3
"""Convergence study across nodal families and test functions.

For each (family, function) pair, sweep n over powers of two, record the
sup-grid interpolation error together with the sufficiency-condition
constants, and write one CSV plus one JSON per pair into the output
directory.  The printed table shows the fitted error-decay exponent next to
the modulus-of-continuity exponent of the target, which is the comparison
the sufficiency theory is about.

Usage:
    python scripts/run_convergence_study.py --out results/ --ns 16:512
"""

import argparse
import pathlib

import numpy as np

from circleinterp import (
    NodalFamily,
    convergence_sweep,
    estimate_modulus,
    finite_verblunsky,
    parse_corpus,
    sweep_to_csv,
    sweep_to_json,
)
from circleinterp.cli import _parse_ns


def decay_exponent(ns, errors):
    mask = np.isfinite(errors) & (errors > 0)
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(ns[mask]), np.log(errors[mask]), 1)[0])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--ns", default="16:512", help="power-of-two range lo:hi or a comma list")
    ap.add_argument("--r", type=float, default=0.5, help="window ratio")
    args = ap.parse_args()

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ns = _parse_ns(args.ns)

    families = {
        "roots-of-unity": NodalFamily(kind="roots-of-unimodular", tau=1.0),
        "bernstein-szego": NodalFamily(
            kind="para-orthogonal", tau=1.0, measure=finite_verblunsky([0.5])
        ),
    }
    targets = ["holder:0.6", "holder:0.8", "lipschitz", "smooth-exp", "boundary-half"]

    print(f"{'family':<16} {'target':<14} {'err@min':>10} {'err@max':>10} "
          f"{'decay':>7} {'modulus':>8}")
    for fam_name, family in families.items():
        for target in targets:
            F = parse_corpus(target)
            result = convergence_sweep(family, args.r, ns, F)
            profile = estimate_modulus(F, np.logspace(-3, -1, 9))
            # not Path.with_suffix: it would read ".6" in "holder-0.6" as a suffix
            stem = f"{fam_name}_{target.replace(':', '-')}"
            (outdir / f"{stem}.csv").write_text(sweep_to_csv(result))
            (outdir / f"{stem}.json").write_text(sweep_to_json(result))
            slope = decay_exponent(result.ns, result.sup_errors)
            print(f"{fam_name:<16} {target:<14} {result.sup_errors[0]:>10.3e} "
                  f"{result.sup_errors[-1]:>10.3e} {slope:>7.2f} "
                  f"{profile.exponent_fit:>8.2f}")
    print(f"\nwrote per-sweep CSV/JSON files to {outdir}/")


if __name__ == "__main__":
    main()
