"""The core circle interpolation operator.

Fundamental polynomials l_{j,n-1}(z) = z_j^p W_n(z) / (W_n'(z_j) (z - z_j) z^p)
and the interpolant L(z) = sum_j l_j(z) u_j, evaluated in the first
barycentric (modified Lagrange) form

    L(z) = (W_n(z) / z^p) * sum_j w_j u_j / (z - z_j),  w_j = z_j^p / W_n'(z_j),

which is O(n) per point after the O(n^2) setup and stable near nodes.
W_n(z) is accumulated in log space with one complex log per run of 16
factors (nodal._log_product).  The second form, which divides by
sum_j w_j / (z - z_j) instead of multiplying by W_n(z), loses digits on
clustered nodes with large Lebesgue constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, ValidationError
from .laurent import DegreePlan
from .nodal import NodalSystem, _condition_rows, _log_product, _pair_blocks

__all__ = [
    "CircleInterpolant",
    "fundamental_polynomial",
    "interpolate",
    "eval_interpolant",
    "interpolation_error",
]


def _near_node_tol(n: int) -> float:
    # below this the quotient W_n(z)/(z - z_j) has no significant digits left
    return 1e-13 * n


# a Lebesgue constant above 1/sqrt(eps) ~ 6.7e7 costs at least half the digits
MAX_LEBESGUE = 1.0 / math.sqrt(np.finfo(float).eps)


def _log_lebesgue_at_widest_gap(system: NodalSystem) -> float:
    """log of the Lebesgue function at the midpoint z of the widest gap
    between adjacent nodes.  O(n)."""
    t = np.sort(system.thetas)
    gaps = np.diff(t, append=t[0] + 2.0 * np.pi)
    k = int(np.argmax(gaps))
    z = np.exp(1j * (t[k] + 0.5 * gaps[k]))
    return float(_condition_rows(np.array([z]), system)[2][0])


def _nearest_nodes(system: NodalSystem, z: np.ndarray):
    """Index of the node nearest to each z and the distance to it.  For any
    z != 0 the nearest node in distance is the nearest in argument, so a
    binary search over the sorted arguments finds it."""
    thetas = system.thetas
    order = np.argsort(thetas)
    i = np.searchsorted(thetas[order], np.mod(np.angle(z), 2.0 * np.pi))
    # the two neighbours in argument; index -1 and n wrap round the circle
    cand = np.stack([order[i % system.n], order[i - 1]])
    dist = np.abs(z - system.nodes[cand])
    pick = np.argmin(dist, axis=0)
    cols = np.arange(len(z))
    return cand[pick, cols], dist[pick, cols]


def _unit_powers(system: NodalSystem, p: int) -> np.ndarray:
    """z_j^p computed from the angles, avoiding repeated-multiplication drift."""
    return np.exp(1j * p * system.thetas)


@dataclass(frozen=True)
class CircleInterpolant:
    system: NodalSystem
    plan: DegreePlan
    values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)  # z_j^p / W_n'(z_j)

    @property
    def n(self) -> int:
        return self.system.n

    def __call__(self, z):
        return eval_interpolant(self, z)


def interpolate(system: NodalSystem, plan: DegreePlan, values) -> CircleInterpolant:
    """Set up the unique interpolant in the window [-p, q] with L(z_j) = u_j.

    Raises ConditioningError when the Lebesgue function, sampled at the
    midpoint of the widest node gap, exceeds MAX_LEBESGUE.
    """
    values = np.asarray(values, dtype=complex)
    if plan.n != system.n:
        raise ValidationError(f"plan is for n={plan.n} but system has n={system.n}")
    if len(values) != system.n:
        raise ValidationError(f"got {len(values)} values for {system.n} nodes")
    log_leb = _log_lebesgue_at_widest_gap(system)
    if log_leb > math.log(MAX_LEBESGUE):
        raise ConditioningError(
            f"the Lebesgue function reaches 1e{log_leb / math.log(10):.1f} at the widest "
            f"node gap, above 1/sqrt(eps) = {MAX_LEBESGUE:.1e}: the interpolant "
            "would lose at least half its digits"
        )
    weights = _unit_powers(system, plan.p) / system.derivs
    return CircleInterpolant(system=system, plan=plan, values=values, weights=weights)


def fundamental_polynomial(system: NodalSystem, plan: DegreePlan, j: int, z: complex) -> complex:
    """l_{j,n-1}(z) for the 0-based node index j; returns delta_{jk} at a node z_k."""
    if plan.n != system.n:
        raise ValidationError(f"plan is for n={plan.n} but system has n={system.n}")
    if not (0 <= j < system.n):
        raise ValidationError(f"node index must be in [0, {system.n}), got {j}")
    z = complex(z)
    if z == 0:
        raise ValidationError("fundamental polynomials are undefined at z = 0")
    d = z - system.nodes
    k = int(np.argmin(np.abs(d)))
    if abs(d[k]) < _near_node_tol(system.n):
        return 1.0 + 0.0j if k == j else 0.0 + 0.0j
    logw = np.sum(np.log(d.astype(complex)))
    zj_p = np.exp(1j * plan.p * system.thetas[j])
    return complex(np.exp(logw - plan.p * np.log(z)) * zj_p / (system.derivs[j] * d[j]))


def eval_interpolant(I: CircleInterpolant, z):
    """Evaluate the interpolant at z != 0 (scalar or array) in blocks of
    about PAIR_BUDGET point-node pairs, so that large evaluation grids never
    materialize an oversized difference matrix."""
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    zz = np.atleast_1d(zz)
    if np.any(zz == 0):
        raise ValidationError("the interpolant is undefined at z = 0")
    nearest, dist = _nearest_nodes(I.system, zz)
    near = dist < _near_node_tol(I.n)
    log_z = np.log(zz)
    # a point at a node takes the node value; its row is computed at the
    # origin instead, where every factor z - z_j is unimodular, and
    # overwritten below
    zz = np.where(near, 0.0, zz)
    nodes = I.system.nodes
    wu = I.weights * I.values
    out = np.empty(len(zz), dtype=complex)
    for rows, (d, work) in _pair_blocks(len(zz), I.n, complex, complex):
        np.subtract(zz[rows, None], nodes[None, :], out=d)
        log_w = _log_product(d, work)
        inv_d = np.divide(1.0, d, out=d)
        out[rows] = np.exp(log_w - I.plan.p * log_z[rows]) * np.einsum("ij,j->i", inv_d, wu)
    out[near] = I.values[nearest[near]]
    return complex(out[0]) if scalar else out


def interpolant_coefficients(I: CircleInterpolant):
    """Recover the interpolant's Laurent coefficients on the window [-p, q]
    by sampling at the n-th roots of unity and inverting the DFT."""
    from .laurent import coefficients_from_samples

    m = I.n
    z = np.exp(2j * np.pi * np.arange(m) / m)
    return coefficients_from_samples(eval_interpolant(I, z), I.plan.p)


def interpolation_error(I: CircleInterpolant, F, grid_size: int = 8192) -> float:
    """max over a uniform circle grid of |F(z) - L(z)|."""
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    z = np.exp(1j * theta)
    return float(np.max(np.abs(np.asarray(F(z), dtype=complex) - eval_interpolant(I, z))))
