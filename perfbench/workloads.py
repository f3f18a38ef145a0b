"""The three benchmark workloads: generated inputs, op lists and checks.

Each op calls circleinterp's public functions in pipeline order on the
previous call's outputs (``run``, timed) and compares what came back with an
oracle from ``oracles`` (``check``, untimed).  The seed picks the window
members, the random Verblunsky phases, the evaluation-grid offset and the
Hoelder exponent of the transfers; the library only sees those inputs.

Why these workloads (see README.md for the layer table):
- roots-sweep: closed-form nodes, so the time is all in evaluation and the
  condition estimators, run through the sweep's own thread pool.
- para-nodes: the para-orthogonal node solver on six Verblunsky families,
  including the valid infinite alternating family it rejects today.
- transfers: moments, Levinson, the interval and trig transfers, the
  coefficient DFT and the CLI, including the Legendre and Jacobi weights
  whose moment quadrature fails today.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import circleinterp as ci
from circleinterp import cli

import oracles

REL_TOL = 1e-6     # an interpolant must keep six digits against its oracle
NODE_TOL = 1e-9    # radians, a node against its oracle
COND_TOL = 1e-10   # B_hat and L_hat of roots of unity against exactly 1


@dataclass
class Check:
    """Outcome of comparing one op's output with its oracle."""

    err: float                     # largest relative error found
    ok: bool
    node_err: float | None = None  # radians, when the op produced nodes
    message: str = ""


@dataclass
class Op:
    name: str
    n: int
    run: Callable[[], object]
    check: Callable[[object], Check]


@dataclass
class Workload:
    """An op list; top_n_s times the ops at the largest n."""

    name: str
    ops: list
    warmup: Callable[[], object]


class Declined(Exception):
    """The library reported a failure through a return value (a sweep
    status, a CLI exit code) instead of raising."""

    def __init__(self, error_class: str, message: str):
        super().__init__(message)
        self.error_class = error_class


def _verdict(errs: dict, tols: dict) -> Check:
    """Compare each error with its tolerance; a NaN or infinite error counts
    as a total loss (1.0).  The "nodes" error, if any, is the node error."""
    errs = {k: v if math.isfinite(v) else 1.0 for k, v in errs.items()}
    bad = [f"{k}={errs[k]:.3e} > {tols[k]:.0e}" for k in errs if errs[k] > tols[k]]
    return Check(err=max(errs.values()), ok=not bad, node_err=errs.get("nodes"),
                 message="; ".join(bad))


def _member_coeffs(rng, m: int):
    """A random Laurent member with m coefficients of unit total variance."""
    return (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2 * m)


def _window_p(n: int, r: float) -> int:
    return math.floor(r * (n - 1))


# ------------------------------------------------------------- roots-sweep


def roots_sweep(seed: int, small: bool) -> Workload:
    ns = (16, 32, 64) if small else (256, 512, 1024, 2048)
    rng = np.random.default_rng([seed, 1])
    r = 0.5
    family = ci.NodalFamily(kind="roots-of-unimodular", tau=1.0)
    holder = ci.parse_corpus("holder:0.6")
    # a member of the smallest window lies in every larger window too
    p0 = _window_p(ns[0], r)
    coeffs = _member_coeffs(rng, ns[0])
    member = ci.CorpusFunction("window-member", None,
                               lambda t: oracles.laurent_sum(coeffs, -p0, t))
    error_grid = 8192
    oracle_sup: dict = {}

    def sweep_grid(n):
        theta = 2.0 * np.pi * np.arange(error_grid) / error_grid
        mids = (2.0 * np.arange(n) + 1.0) * np.pi / n
        return np.concatenate([theta, mids])

    def holder_theta(t):
        return np.abs(np.sin(np.asarray(t) / 2.0)) ** 0.6

    def sweep(ns_, F):
        def run():
            res = ci.convergence_sweep(family, r, ns_, F, error_grid=error_grid)
            bad = [f"n={n}: {s}" for n, s in zip(res.ns, res.statuses) if s != "ok"]
            if bad:
                raise Declined("sweep-status", "; ".join(bad))
            return res
        return run

    def check_sweep(res, reference):
        errs = {"B_hat": float(np.max(np.abs(res.b_hats - 1.0))),
                "L_hat": float(np.max(np.abs(res.l_hats - 1.0)))}
        sup = 0.0
        for n, got in zip(res.ns, res.sup_errors):
            sup = max(sup, abs(float(got) - reference(int(n))))
        errs["sup_error"] = sup
        return _verdict(errs, {"B_hat": COND_TOL, "L_hat": COND_TOL, "sup_error": REL_TOL})

    def holder_reference(n):
        # sup |F - L| on the sweep's grid, with L from the closed-form DFT
        if n not in oracle_sup:
            nodes = 2.0 * np.pi * np.arange(n) / n
            t = sweep_grid(n)
            L = oracles.trig_interpolant_at_roots(holder_theta(nodes), _window_p(n, r), t)
            oracle_sup[n] = float(np.max(np.abs(holder_theta(t) - L)))
        return oracle_sup[n]

    ops = [
        Op("sweep-holder", max(ns), sweep(ns, holder),
           lambda res: check_sweep(res, holder_reference)),
        # the window member is reproduced, so its sup error is rounding only;
        # its coefficients have unit total variance, so that error is relative
        Op("sweep-member", max(ns), sweep(ns, member),
           lambda res: check_sweep(res, lambda n: 0.0)),
    ]
    return Workload("roots-sweep", ops, sweep([ns[0]], holder))


# -------------------------------------------------------------- para-nodes


def _para_families(rng, max_n: int):
    phases = rng.random(8)
    return [
        ("half", [0.5], False),
        ("mixed3", [0.9, -0.5j, 0.3 + 0.3j], False),
        ("near-one", [0.99], False),
        ("alt16", [0.7 * (-1) ** k for k in range(16)], False),
        ("random8", list(0.8 * np.exp(2j * np.pi * phases)), False),
        # a valid measure with no zero tail: its recursion is checked in mpmath
        ("alt-inf", [0.7 * (-1) ** k for k in range(max_n)], True),
    ]


def para_nodes(seed: int, small: bool) -> Workload:
    ns = (16, 32) if small else (256, 1024)
    rs = (0.25, 0.5)
    n_eval = 256 if small else 4096
    rng = np.random.default_rng([seed, 2])
    families = _para_families(rng, max(ns))
    offset = rng.random()
    theta_eval = 2.0 * np.pi * (np.arange(n_eval) + offset) / n_eval
    z_eval = np.exp(1j * theta_eval)
    mp_sample = 32  # nodes per op checked in mpmath
    ops = []
    for name, seq, exact in families:
        measure = ci.finite_verblunsky(seq)
        for n in ns:
            alphas = np.zeros(n, dtype=complex)
            head = min(n, len(seq))
            alphas[:head] = seq[:head]
            members = [(r, _window_p(n, r), _member_coeffs(rng, n)) for r in rs]
            sample = np.sort(rng.choice(n, size=min(n, mp_sample), replace=False))
            ops.append(Op(f"{name}-{n}", n,
                          _para_run(measure, n, members, z_eval),
                          _para_check(alphas, members, theta_eval, exact, sample)))
    half = ci.finite_verblunsky([0.5])
    warm_n = ns[0]
    return Workload("para-nodes", ops,
                    lambda: ci.paraorthogonal_nodes(
                        ci.szego_recurrence(ci.verblunsky_coefficients(half, warm_n), warm_n),
                        ci.ParaOrthogonalSpec(n=warm_n, tau=1.0)))


def _para_run(measure, n, members, z_eval):
    def run():
        alphas = ci.verblunsky_coefficients(measure, n)
        state = ci.szego_recurrence(alphas, n)
        system = ci.paraorthogonal_nodes(state, ci.ParaOrthogonalSpec(n=n, tau=1.0))
        evals = []
        for r, p, coeffs in members:
            plan = ci.make_degree_plan(n, r)
            # the member's values at the nodes just found: input generation
            # inside the timed op, under 1% of its time at n = 1024
            values = oracles.laurent_sum(coeffs, -p, system.thetas)
            evals.append(ci.eval_interpolant(ci.interpolate(system, plan, values), z_eval))
        return system.thetas, evals
    return run


def _para_check(alphas, members, theta_eval, exact, sample):
    cache: dict = {}

    def check(out):
        thetas, evals = out
        if "ref" not in cache:
            # reference angles: one Newton step of the Blaschke phase
            if exact:
                idx = sample
                step = oracles.blaschke_newton_step_mp(alphas, 1.0, thetas[idx])
            else:
                idx = np.arange(len(thetas))
                step = oracles.blaschke_newton_step(alphas, 1.0, thetas)
            cache["idx"], cache["ref"] = idx, thetas[idx] - step
            cache["members"] = [oracles.laurent_sum(c, -p, theta_eval) for _, p, c in members]
        node_err = float(np.max(oracles.angle_distance(thetas[cache["idx"]], cache["ref"])))
        errs = {"nodes": node_err}
        tols = {"nodes": NODE_TOL}
        for (r, _, _), got, ref in zip(members, evals, cache["members"]):
            errs[f"member r={r}"] = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
            tols[f"member r={r}"] = REL_TOL
        return _verdict(errs, tols)
    return check


# --------------------------------------------------------------- transfers

# cli.INTERVAL_WEIGHTS as Jacobi exponents (a, b) of (1-x)^a (1+x)^b
CLI_WEIGHTS = {
    "chebyshev1": (-0.5, -0.5),
    "chebyshev2": (0.5, 0.5),
    "chebyshev3": (-0.5, 0.5),
    "chebyshev4": (0.5, -0.5),
}
LIBRARY_WEIGHTS = {
    "legendre": (0.0, 0.0),
    "jacobi(1.5,-0.3)": (1.5, -0.3),
}


def _jacobi_weight(a, b):
    def w(x):
        x = np.asarray(x, dtype=float)
        return (np.clip(1.0 - x, 1e-300, None) ** a) * (np.clip(1.0 + x, 1e-300, None) ** b)
    return w


def _strict_json(text: str) -> dict:
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _cli_run(argv):
    """In-process cli.main with stdout/stderr captured; a nonzero exit code
    is the CLI's report of a library error (1 invalid input, 2 numerical)."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            raise Declined(f"cli-exit-{rc}", err.getvalue().strip())
        return out.getvalue()
    return run


def _read_csv(path):
    with open(path) as fh:
        next(fh)
        return np.array([[float(v) for v in line.split(",")] for line in fh])


def transfers(seed: int, small: bool, workdir: str) -> Workload:
    n_cli = 8 if small else 128
    ns_lib = (8, 16) if small else (64, 128)
    rng = np.random.default_rng([seed, 3])
    beta = round(0.55 + 0.4 * rng.random(), 3)
    corpus = f"holder:{beta}"

    def f_interval(x):
        return np.abs(np.sin(np.arccos(np.clip(x, -1.0, 1.0)) / 2.0)) ** beta

    def f_theta(t):
        return np.abs(np.sin(np.asarray(t) / 2.0)) ** beta

    ops = []
    for w, (a, b) in CLI_WEIGHTS.items():
        for v in ("mu1", "mu2", "mu3", "mu4"):
            stem = os.path.join(workdir, f"interval-{w}-{v}")
            argv = ["interval", "--n", str(n_cli), "--weight", w, "--variant", v,
                    "--corpus", corpus, "--dense", stem + "-dense.csv",
                    "--nodes-out", stem + "-nodes.csv"]
            ops.append(Op(f"cli-interval-{w}-{v}", n_cli, _cli_run(argv),
                          _interval_cli_check(a, b, v, n_cli, stem, f_interval)))
    for v, m, p, degree in (("symmetric", 2 * n_cli, n_cli, n_cli),
                            ("para", n_cli, n_cli // 2, n_cli // 2)):
        dense = os.path.join(workdir, f"trig-{v}-dense.csv")
        argv = ["trig", "--n", str(n_cli), "--variant", v, "--corpus", corpus, "--dense", dense]
        ops.append(Op(f"cli-trig-{v}", n_cli, _cli_run(argv),
                      _trig_cli_check(v, m, p, degree, n_cli, dense, f_theta)))
    for w, (a, b) in LIBRARY_WEIGHTS.items():
        for n in ns_lib:
            coeffs = rng.standard_normal(n) / math.sqrt(n)  # degree n-1: interpolated exactly
            ops.append(Op(f"lib-interval-{w}-{n}", n,
                          _lib_interval_run(_jacobi_weight(a, b), n, coeffs),
                          _lib_interval_check(a, b, n, coeffs)))
    return Workload("transfers", ops, ops[0].run)


def _interval_cli_check(a, b, variant, n, stem, f):
    want_minus = variant in ("mu2", "mu4")
    want_plus = variant in ("mu2", "mu3")
    cache: dict = {}

    def check(stdout):
        report = _strict_json(stdout)
        meta = {"n_interior": report["n_interior"] == n, "variant": report["variant"] == variant,
                "endpoints": report["endpoints"] == {"minus_one": want_minus, "plus_one": want_plus}}
        if not all(meta.values()):
            return Check(err=1.0, ok=False, message=f"report fields disagree: {meta}")
        nodes = _read_csv(stem + "-nodes.csv")
        dense = _read_csv(stem + "-dense.csv")
        if "nodes" not in cache:
            interior = oracles.interval_nodes(*oracles.variant_exponents(a, b, variant), n)
            xs = np.concatenate([[-1.0] * want_minus, interior, [1.0] * want_plus])
            cache["nodes"] = np.arccos(xs)
            cache["dense"] = oracles.barycentric_eval(xs, f(xs), dense[:, 0])
        node_err = float(np.max(np.abs(nodes[:, 2] - cache["nodes"])))
        scale = float(np.max(np.abs(dense[:, 1])))
        errs = {"nodes": node_err,
                "interpolant": float(np.max(np.abs(dense[:, 2] - cache["dense"]))) / scale,
                "sup_error": abs(report["sup_error"] - float(np.max(dense[:, 3])))}
        return _verdict(errs, {"nodes": NODE_TOL, "interpolant": REL_TOL, "sup_error": 0.0})
    return check


def _trig_cli_check(variant, m, p, degree, n, dense_path, f):
    cache: dict = {}

    def check(stdout):
        report = _strict_json(stdout)
        if (report["n"], report["variant"], report["degree"]) != (n, variant, degree):
            return Check(err=1.0, ok=False, message=f"report fields disagree: {report}")
        dense = _read_csv(dense_path)
        if "ref" not in cache:
            # both variants' nodes are the m roots of z^m = -1
            nodes = (2.0 * np.arange(m) + 1.0) * np.pi / m
            cache["ref"] = oracles.trig_interpolant_at_roots(
                f(nodes), p, dense[:, 0], tau_angle=np.pi).real
        scale = float(np.max(np.abs(dense[:, 1])))
        errs = {"interpolant": float(np.max(np.abs(dense[:, 2] - cache["ref"]))) / scale,
                "sup_error": abs(report["sup_error"] - float(np.max(dense[:, 3])))}
        return _verdict(errs, {"interpolant": REL_TOL, "sup_error": 0.0})
    return check


def _lib_interval_run(w, n, coeffs):
    def run():
        system = ci.interval_nodes_from_measure(w, n, "mu1")
        member = np.polynomial.chebyshev.Chebyshev(coeffs)
        return system.xs, ci.interval_interpolate(system, member)
    return run


def _lib_interval_check(a, b, n, coeffs):
    x = np.linspace(-1.0, 1.0, 2001)
    cache: dict = {}

    def check(out):
        xs, poly = out
        if "nodes" not in cache:
            cache["nodes"] = np.arccos(oracles.gauss_jacobi_nodes(a, b, n))
            cache["exact"] = np.polynomial.chebyshev.chebval(x, coeffs)
        exact = cache["exact"]
        node_err = float(np.max(np.abs(np.arccos(np.sort(xs)) - cache["nodes"])))
        errs = {"nodes": node_err,
                "interpolant": float(np.max(np.abs(poly(x) - exact)) / np.max(np.abs(exact)))}
        return _verdict(errs, {"nodes": NODE_TOL, "interpolant": REL_TOL})
    return check


def build(name: str, seed: int, small: bool, workdir: str) -> Workload:
    if name == "roots-sweep":
        return roots_sweep(seed, small)
    if name == "para-nodes":
        return para_nodes(seed, small)
    if name == "transfers":
        return transfers(seed, small, workdir)
    raise ValueError(f"unknown workload {name!r}")

