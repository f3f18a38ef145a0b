"""Test-function corpus, modulus-of-continuity estimation, near-best
diagnostics, and convergence sweeps.

The corpus functions are parametrized by how rough they are: the sufficiency
theory asks for a modulus of continuity that is o(delta^(1/2)), so the
Hoelder family |sin(theta/2)|^beta crosses the boundary exactly at beta = 1/2.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CircleInterpError, ValidationError
from .interp import eval_interpolant, interpolate
from .laurent import DegreePlan, make_degree_plan
from .nodal import NodalSystem, _grid_points, estimate_conditions, roots_of_unimodular
from .opuc import (
    MeasureSpec,
    ParaOrthogonalSpec,
    lebesgue_measure,
    paraorthogonal_nodes,
    szego_recurrence,
    verblunsky_coefficients,
)

__all__ = [
    "CorpusFunction",
    "ModulusProfile",
    "NodalFamily",
    "SweepResult",
    "corpus",
    "estimate_modulus",
    "near_best_error",
    "convergence_sweep",
    "sweep_to_csv",
    "sweep_to_json",
    "max_workers",
]

CORPUS_NAMES = ("holder", "smooth-exp", "step-smooth", "lipschitz", "boundary-half")


@dataclass(frozen=True)
class CorpusFunction:
    """A named 2*pi-periodic test function with lifts to the circle and to
    [-1, 1] (via x = cos theta)."""

    name: str
    param: float | None
    f_theta: callable = field(repr=False)

    def __call__(self, theta):
        return self.f_theta(np.asarray(theta, dtype=float))

    def on_circle(self, z):
        return self.f_theta(np.mod(np.angle(np.asarray(z, dtype=complex)), 2.0 * np.pi))

    def on_interval(self, x):
        return self.f_theta(np.arccos(np.clip(np.asarray(x, dtype=float), -1.0, 1.0)))

    @property
    def label(self) -> str:
        return self.name if self.param is None else f"{self.name}:{self.param:g}"


def corpus(name: str, param: float | None = None) -> CorpusFunction:
    """Named test functions on [0, 2*pi).

    holder(beta):  |sin(theta/2)|^beta, modulus O(delta^beta);
    smooth-exp:    exp(cos theta), analytic;
    step-smooth:   a steep logistic ramp of cos theta, smooth but sharp;
    lipschitz:     triangle wave pi - |theta - pi|, Lipschitz constant 1;
    boundary-half: holder with beta = 1/2 exactly (hypothesis NOT satisfied).
    """
    if name == "holder":
        if param is None or not (0.0 < param <= 1.0):
            raise ValidationError(f"holder needs beta in (0, 1], got {param}")
        beta = float(param)
        return CorpusFunction(name, beta, lambda t: np.abs(np.sin(t / 2.0)) ** beta)
    if name == "smooth-exp":
        return CorpusFunction(name, None, lambda t: np.exp(np.cos(t)))
    if name == "step-smooth":
        k = 10.0 if param is None else float(param)
        return CorpusFunction(name, k, lambda t: 1.0 / (1.0 + np.exp(-k * np.cos(t))))
    if name == "lipschitz":
        return CorpusFunction(name, None, lambda t: np.pi - np.abs(np.mod(t, 2 * np.pi) - np.pi))
    if name == "boundary-half":
        return CorpusFunction(name, 0.5, lambda t: np.abs(np.sin(t / 2.0)) ** 0.5)
    raise ValidationError(f"unknown corpus function {name!r}; known: {CORPUS_NAMES}")


def parse_corpus(spec: str) -> CorpusFunction:
    """Parse "name" or "name:param" strings, e.g. "holder:0.6"."""
    if ":" in spec:
        name, raw = spec.split(":", 1)
        return corpus(name, float(raw))
    return corpus(spec)


@dataclass(frozen=True)
class ModulusProfile:
    """Estimated modulus of continuity lambda(F, delta) on a chordal scale."""

    deltas: np.ndarray = field(repr=False)       # decreasing
    lambda_hat: np.ndarray = field(repr=False)   # matching order
    exponent_fit: float = float("nan")


def estimate_modulus(F: CorpusFunction, deltas, grid_size: int = 2**14) -> ModulusProfile:
    """Windowed grid maximum of |F(z_a) - F(z_b)| over chordal |z_a - z_b| < delta.

    The estimate is a cumulative maximum over window widths, hence
    automatically nondecreasing in delta.
    """
    deltas = np.sort(np.asarray(deltas, dtype=float))[::-1]
    if np.any(deltas <= 0):
        raise ValidationError("deltas must be positive")
    if grid_size < 1024:
        raise ValidationError(f"grid_size must be >= 1024, got {grid_size}")
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    vals = np.asarray(F(theta), dtype=float)

    def window(delta: float) -> int:
        # chord between grid points i and i+s is 2 sin(pi s / M)
        d = min(delta, 2.0)
        return min(int(grid_size * math.asin(d / 2.0) / math.pi), grid_size // 2)

    wmax = window(float(deltas[0]))
    step_max = np.zeros(wmax + 1)
    for s in range(1, wmax + 1):
        step_max[s] = float(np.max(np.abs(vals - np.roll(vals, s))))
    cummax = np.maximum.accumulate(step_max)
    lam = np.array([cummax[window(float(d))] for d in deltas])
    mask = lam > 0
    if mask.sum() >= 2:
        slope = float(np.polyfit(np.log(deltas[mask]), np.log(lam[mask]), 1)[0])
    else:
        slope = float("nan")
    return ModulusProfile(deltas=deltas, lambda_hat=lam, exponent_fit=slope)


def _vp_taper(p: int, q: int, M: int) -> np.ndarray:
    """de la Vallee Poussin-type taper: 1 on [-p, q], linear decay to zero
    over one extra window length on each side."""
    k = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    t = np.zeros(M)
    dp, dq = max(p, 1), max(q, 1)
    pos = k >= 0
    t[pos] = np.clip(1.0 - (k[pos] - q) / (dq + 1.0), 0.0, 1.0)
    t[~pos] = np.clip(1.0 - (-k[~pos] - p) / (dp + 1.0), 0.0, 1.0)
    return t


def near_best_error(F: CorpusFunction, plan: DegreePlan, grid_size: int = 8192) -> float:
    """Sup-grid error of the de la Vallee Poussin-type mean of F on the
    window [-p, q]: a computable near-best proxy for the best-approximation
    error from that window.

    The taper is flat across the whole window, so members of the window are
    reproduced exactly; the decay region keeps the operator norm bounded.
    """
    M = grid_size
    while M < 4 * (max(plan.p, plan.q) + 2):
        M *= 2
    theta = 2.0 * np.pi * np.arange(M) / M
    vals = np.asarray(F(theta), dtype=complex)
    c = np.fft.fft(vals) / M
    approx = np.fft.ifft(c * _vp_taper(plan.p, plan.q, M) * M)
    return float(np.max(np.abs(vals - approx)))


@dataclass(frozen=True)
class NodalFamily:
    """Descriptor of a nodal-system family indexed by n."""

    kind: str  # "roots-of-unimodular" | "para-orthogonal"
    tau: complex = 1.0
    measure: MeasureSpec = field(default_factory=lebesgue_measure)

    def build(self, n: int) -> NodalSystem:
        if self.kind == "roots-of-unimodular":
            return roots_of_unimodular(n, self.tau)
        if self.kind == "para-orthogonal":
            state = szego_recurrence(verblunsky_coefficients(self.measure, n), n)
            return paraorthogonal_nodes(state, ParaOrthogonalSpec(n=n, tau=self.tau))
        raise ValidationError(f"unknown family kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "roots-of-unimodular":
            return f"roots-of-unimodular(tau={self.tau})"
        return f"para-orthogonal({self.measure.label}, tau={self.tau})"


@dataclass(frozen=True)
class SweepResult:
    family: str
    r: float
    corpus_name: str
    ns: np.ndarray = field(repr=False)
    plans: tuple = field(repr=False)
    sup_errors: np.ndarray = field(repr=False)
    lebesgue_maxima: np.ndarray = field(repr=False)
    b_hats: np.ndarray = field(repr=False)
    l_hats: np.ndarray = field(repr=False)
    statuses: tuple = ()
    error_grid: int = 8192
    condition_grid: tuple = ()


def max_workers() -> int:
    raw = os.environ.get("CIRCLE_INTERP_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return max(1, os.cpu_count() or 1)


def _sweep_one(family: NodalFamily, r: float, n: int, F: CorpusFunction, error_grid: int):
    system = family.build(n)
    plan = make_degree_plan(n, r)
    I = interpolate(system, plan, F.on_circle(system.nodes))
    # error grid: uniform angles plus node midpoints, where the error peaks
    z = _grid_points(system, error_grid)
    sup_error = float(np.max(np.abs(F.on_circle(z) - eval_interpolant(I, z))))
    report = estimate_conditions(system)
    return plan, sup_error, report


def convergence_sweep(family: NodalFamily, r: float, ns, F: CorpusFunction,
                      error_grid: int = 8192) -> SweepResult:
    """For each n: build nodes, plan, and interpolant; record the sup-grid
    error and the condition constants.  A failing n is recorded with its
    error message and the sweep continues."""
    ns = np.asarray(sorted(int(n) for n in ns))
    if len(ns) == 0 or np.any(np.diff(ns) <= 0):
        raise ValidationError("ns must be a nonempty strictly increasing collection")
    results: list = [None] * len(ns)

    def run(i: int):
        return _sweep_one(family, r, int(ns[i]), F, error_grid)

    workers = min(max_workers(), len(ns))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(run, i): i for i in range(len(ns))}
            for fut in concurrent.futures.as_completed(futures):
                i = futures[fut]
                try:
                    results[i] = fut.result()
                except CircleInterpError as exc:
                    results[i] = exc
    else:
        for i in range(len(ns)):
            try:
                results[i] = run(i)
            except CircleInterpError as exc:
                results[i] = exc

    plans, sup, leb, bh, lh, statuses, cond_grids = [], [], [], [], [], [], []
    for n, res in zip(ns, results):
        if isinstance(res, Exception):
            plans.append(None)
            sup.append(float("nan"))
            leb.append(float("nan"))
            bh.append(float("nan"))
            lh.append(float("nan"))
            cond_grids.append(0)
            statuses.append(f"error: {res}")
        else:
            plan, sup_error, report = res
            plans.append(plan)
            sup.append(sup_error)
            leb.append(report.lebesgue_max)
            bh.append(report.b_hat)
            lh.append(report.l_hat)
            cond_grids.append(report.grid_size)
            statuses.append("ok")
    return SweepResult(
        family=family.label,
        r=r,
        corpus_name=F.label,
        ns=ns,
        plans=tuple(plans),
        sup_errors=np.array(sup),
        lebesgue_maxima=np.array(leb),
        b_hats=np.array(bh),
        l_hats=np.array(lh),
        statuses=tuple(statuses),
        error_grid=error_grid,
        condition_grid=tuple(cond_grids),
    )


def sweep_to_csv(result: SweepResult) -> str:
    lines = ["n,p,q,s,sup_error,lebesgue_max,B_hat,L_hat"]
    for i, n in enumerate(result.ns):
        plan = result.plans[i]
        p, q, s = (plan.p, plan.q, plan.s) if plan is not None else ("", "", "")
        lines.append(
            f"{n},{p},{q},{s},{float(result.sup_errors[i])!r},"
            f"{float(result.lebesgue_maxima[i])!r},"
            f"{float(result.b_hats[i])!r},{float(result.l_hats[i])!r}"
        )
    return "\n".join(lines) + "\n"


def _json_number(x) -> float | None:
    """A float for strict JSON: null where the value is missing (NaN) or
    infinite."""
    x = float(x)
    return x if math.isfinite(x) else None


def sweep_to_json(result: SweepResult, metadata: dict | None = None) -> str:
    """The sweep as strict JSON; a failed n has null values and its error
    message in "status"."""
    payload = {
        "family": result.family,
        "r": result.r,
        "corpus": result.corpus_name,
        "error_grid": result.error_grid,
        "condition_grids": list(result.condition_grid),
        "rows": [
            {
                "n": int(n),
                "p": result.plans[i].p if result.plans[i] else None,
                "q": result.plans[i].q if result.plans[i] else None,
                "s": result.plans[i].s if result.plans[i] else None,
                "sup_error": _json_number(result.sup_errors[i]),
                "lebesgue_max": _json_number(result.lebesgue_maxima[i]),
                "B_hat": _json_number(result.b_hats[i]),
                "L_hat": _json_number(result.l_hats[i]),
                "status": result.statuses[i],
            }
            for i, n in enumerate(result.ns)
        ],
    }
    if metadata:
        payload["metadata"] = metadata
    return json.dumps(payload, indent=2, default=float, allow_nan=False) + "\n"
