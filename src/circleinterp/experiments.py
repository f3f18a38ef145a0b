"""Test-function corpus, modulus-of-continuity estimation, near-best
diagnostics, and convergence sweeps.

The corpus functions are parametrized by how rough they are: the sufficiency
theory asks for a modulus of continuity that is o(delta^(1/2)), so the
Hoelder family |sin(theta/2)|^beta crosses the boundary exactly at beta = 1/2.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import CircleInterpError, ValidationError
from .interp import interpolant_coefficients, interpolate
from .laurent import (DegreePlan, _check_count, _check_ratio, _fft_on_grid, _real_values,
                      _uniform_angles, eval_laurent, make_degree_plan)
from .nodal import (AT_NODE_TOL, NodalSystem, _node_midpoints, estimate_conditions,
                    roots_of_unimodular)
from .opuc import (
    MeasureSpec,
    ParaOrthogonalSpec,
    lebesgue_measure,
    paraorthogonal_nodes,
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
        if np.iscomplexobj(theta):
            raise ValidationError(f"{self.label} takes real angles; call on_circle for points z")
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
    if param is not None and (isinstance(param, bool) or not isinstance(param, numbers.Real)):
        raise ValidationError(f"a corpus parameter must be a real number, got {param!r}")
    if param is not None and name in ("smooth-exp", "lipschitz", "boundary-half"):
        raise ValidationError(f"{name} takes no parameter, got {param}")
    if name == "holder":
        if param is None or not (0.0 < param <= 1.0):
            raise ValidationError(f"holder needs beta in (0, 1], got {param}")
        beta = float(param)
        return CorpusFunction(name, beta, lambda t: np.abs(np.sin(t / 2.0)) ** beta)
    if name == "smooth-exp":
        return CorpusFunction(name, None, lambda t: np.exp(np.cos(t)))
    if name == "step-smooth":
        k = 10.0 if param is None else float(param)
        if not math.isfinite(k):
            raise ValidationError(f"step-smooth needs a finite steepness k, got {param}")
        def step(t):
            with np.errstate(over="ignore"):  # exp(+inf) where the ramp is 0 for large k
                return 1.0 / (1.0 + np.exp(-k * np.cos(t)))
        return CorpusFunction(name, k, step)
    if name == "lipschitz":
        return CorpusFunction(name, None, lambda t: np.pi - np.abs(np.mod(t, 2 * np.pi) - np.pi))
    if name == "boundary-half":
        return CorpusFunction(name, 0.5, lambda t: np.abs(np.sin(t / 2.0)) ** 0.5)
    raise ValidationError(f"unknown corpus function {name!r}; known: {CORPUS_NAMES}")


def parse_corpus(spec: str) -> CorpusFunction:
    """Parse "name" or "name:param" strings, e.g. "holder:0.6"."""
    if ":" in spec:
        name, raw = spec.split(":", 1)
        try:
            param = float(raw)
        except ValueError as exc:
            raise ValidationError(f"corpus parameter must be a number, got {raw!r}") from exc
        return corpus(name, param)
    return corpus(spec)


@dataclass(frozen=True, eq=False)
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
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or len(deltas) == 0 or not np.all(np.isfinite(deltas) & (deltas > 0)):
        raise ValidationError(f"deltas must be a nonempty list of finite positive numbers, "
                              f"got {deltas}")
    deltas = np.sort(deltas)[::-1]
    grid_size = _check_count("grid_size", grid_size, 1024)
    theta = _uniform_angles(grid_size)
    vals = _real_values(F.label, F(theta), theta.shape)

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
    M = _check_count("grid_size", grid_size, 1)
    while M < 4 * (max(plan.p, plan.q) + 2):
        M *= 2
    theta = _uniform_angles(M)
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

    def __post_init__(self):
        if self.kind not in ("roots-of-unimodular", "para-orthogonal"):
            raise ValidationError(f"unknown family kind {self.kind!r}")

    def build(self, n: int) -> NodalSystem:
        if self.kind == "roots-of-unimodular":
            return roots_of_unimodular(n, self.tau)
        return paraorthogonal_nodes(verblunsky_coefficients(self.measure, n),
                                    ParaOrthogonalSpec(n=n, tau=self.tau))

    @property
    def label(self) -> str:
        if self.kind == "roots-of-unimodular":
            return f"roots-of-unimodular(tau={self.tau})"
        return f"para-orthogonal({self.measure.label}, tau={self.tau})"


@dataclass(frozen=True, eq=False)
class SweepResult:
    """What each n of a sweep produced: its plan, sup error, condition
    report and status, "ok" or the error message.  Where an n failed its
    plan and report are None and its sup error is NaN."""

    family: str
    r: float
    corpus_name: str
    ns: np.ndarray = field(repr=False)
    plans: tuple = field(repr=False)
    sup_errors: np.ndarray = field(repr=False)
    reports: tuple = field(repr=False)
    statuses: tuple = ()
    error_grid: int = 8192

    def _per_n(self, name: str, missing=float("nan")) -> list:
        return [missing if rep is None else getattr(rep, name) for rep in self.reports]

    @property
    def lebesgue_maxima(self) -> np.ndarray:
        return np.array(self._per_n("lebesgue_max"))

    @property
    def b_hats(self) -> np.ndarray:
        return np.array(self._per_n("b_hat"))

    @property
    def l_hats(self) -> np.ndarray:
        return np.array(self._per_n("l_hat"))

    @property
    def condition_grid(self) -> tuple:
        return tuple(self._per_n("grid_size", 0))


def _grid_index(z: np.ndarray, M: int) -> np.ndarray:
    """Per point z, the index of the point of the uniform M-point grid
    nearest to it in argument."""
    return np.rint(np.angle(z) * (M / (2.0 * np.pi))).astype(int) % M


def _target_on(F: CorpusFunction, z: np.ndarray, k: np.ndarray, z_grid: np.ndarray,
               f_grid) -> np.ndarray:
    """F at the points z, with k = _grid_index(z, len(z_grid)).  A point
    bit-equal to its grid point z_grid[k] takes the value F gave there,
    f_grid[k]; F runs on the other points only, and not at all when there
    are none.  When f_grid is the error F raised on the grid, F runs on
    every point."""
    if isinstance(f_grid, Exception):
        return F.on_circle(z)
    miss = z_grid[k] != z
    values = np.asarray(f_grid)[k]
    if miss.any():
        rest = F.on_circle(z[miss])
        values = values.astype(np.result_type(values, rest), copy=False)
        values[miss] = rest
    return values


def _sweep_one(family: NodalFamily, r: float, n: int, F: CorpusFunction,
               z_grid: np.ndarray, f_grid):
    """One n of the sweep; f_grid is F at the uniform error grid z_grid, or
    the library error F raised there, which every n that gets that far
    returns as its result rather than raising the one shared instance."""
    system = family.build(n)
    plan = make_degree_plan(n, r)
    M = len(z_grid)
    k = _grid_index(system.nodes, M)
    I = interpolate(system, plan, _target_on(F, system.nodes, k, z_grid, f_grid))
    # the error is measured on the uniform grid and at the node midpoints,
    # from one set of coefficients.  The grid is unrotated: one FFT, no
    # detection (Horner below two points).  Only grid point k_j can lie
    # within AT_NODE_TOL of node j, and no midpoint can lie that near a node
    L = interpolant_coefficients(I)
    if isinstance(f_grid, Exception):
        return f_grid
    on_grid = _fft_on_grid(L, M, 0, 0.0) if M >= 2 else eval_laurent(L, z_grid)
    at = np.abs(z_grid[k] - system.nodes) < AT_NODE_TOL
    on_grid[k[at]] = I.values[at]
    z_mids = np.exp(1j * _node_midpoints(system))
    f_mids = _target_on(F, z_mids, _grid_index(z_mids, M), z_grid, f_grid)
    sup_error = float(np.max([np.max(np.abs(f_grid - on_grid)),
                              np.max(np.abs(f_mids - eval_laurent(L, z_mids)))]))
    report = estimate_conditions(system)
    return plan, sup_error, report


def convergence_sweep(family: NodalFamily, r: float, ns, F: CorpusFunction,
                      error_grid: int = 8192) -> SweepResult:
    """For each n in increasing order: build nodes, plan, and interpolant;
    record the sup-grid error and the condition constants.  A failing n is
    recorded with its error message and the sweep continues.

    The n run one after another in the calling thread; the pair kernel
    spreads large calls over threads itself (nodal.max_workers).  F runs
    once per sweep on the uniform error grid and per n at those nodes and
    node midpoints that are not bit-equal to a grid point; the others take
    the value F gave at that grid point.  On the roots of z^n = 1 with
    error_grid / (2n) a power of two every node and midpoint is a grid
    point, so F runs per n not at all.  So F must be pointwise: its value
    at a point may not depend on the other points of the call.  It need
    not be thread-safe.  A library error that F raises on the grid is
    recorded at every n that gets that far.  Any other exception
    propagates; one that F raises on the grid does so before any n runs,
    even if every n would have failed first."""
    ns = np.asarray(sorted(_check_count("each n in ns", n, 2) for n in ns))
    if len(ns) == 0 or np.any(np.diff(ns) == 0):
        raise ValidationError(f"ns must be nonempty, no n repeated (they run sorted), got {ns.tolist()}")
    error_grid = _check_count("error_grid", error_grid, 1)
    _check_ratio(r)
    # the error grid is the same for every n.  A library error F raises on
    # it is returned by _sweep_one at each n, at the step that needs the
    # values, so that an n which fails earlier keeps its own message.  Its
    # traceback is dropped: it would hold this frame, and so f_grid itself
    z_grid = np.exp(1j * _uniform_angles(error_grid))
    try:
        f_grid = F.on_circle(z_grid)
    except CircleInterpError as exc:
        f_grid = exc.with_traceback(None)

    rows = []
    for n in ns:
        try:
            res = _sweep_one(family, r, int(n), F, z_grid, f_grid)
        except CircleInterpError as exc:
            res = exc
        failed = isinstance(res, Exception)
        rows.append((None, float("nan"), None, f"error: {res}") if failed else (*res, "ok"))
    plans, sup_errors, reports, statuses = zip(*rows)
    return SweepResult(family=family.label, r=r, corpus_name=F.label, ns=ns, plans=plans,
                       sup_errors=np.array(sup_errors), reports=reports, statuses=statuses,
                       error_grid=error_grid)


def _rows(result: SweepResult):
    """Per n, the columns of the sweep's CSV and JSON in order: None for
    the plan of a failed n, NaN for its numbers."""
    columns = zip(result.ns, result.plans, result.sup_errors, result.lebesgue_maxima,
                  result.b_hats, result.l_hats, result.statuses)
    for n, plan, sup_error, leb_max, b_hat, l_hat, status in columns:
        yield {
            "n": int(n),
            "p": plan.p if plan else None,
            "q": plan.q if plan else None,
            "s": plan.s if plan else None,
            "sup_error": float(sup_error),
            "lebesgue_max": float(leb_max),
            "B_hat": float(b_hat),
            "L_hat": float(l_hat),
            "status": status,
        }


def sweep_to_csv(result: SweepResult) -> str:
    rows = list(_rows(result))
    lines = [",".join(rows[0])]
    for row in rows:
        *values, status = row.values()
        cells = ["" if v is None else repr(v) for v in values]
        lines.append(",".join(cells) + ',"' + status.replace('"', '""') + '"')
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
        "rows": [{k: _json_number(v) if isinstance(v, float) else v for k, v in row.items()}
                 for row in _rows(result)],
    }
    if metadata:
        payload["metadata"] = metadata
    return json.dumps(payload, indent=2, default=float, allow_nan=False) + "\n"
