"""Unimodular nodal systems and numerical condition diagnostics.

A nodal system is a set of distinct points on the unit circle together with
the derivative of the nodal polynomial W_n(z) = prod_j (z - z_j) at each
node.  The condition estimators measure, on a circle grid,

  (i)  a lower bound B_hat for |W_n'(z)| / n,
  (ii) an upper bound L_hat for (|W_n(z)|^2 / n^2) * sum_j 1/|z - z_j|^2,

which together bound the Lebesgue function by (sqrt(L_hat)/B_hat) sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, ValidationError
from .laurent import DegreePlan

__all__ = [
    "NodalSystem",
    "NodalConditionReport",
    "make_nodal_system",
    "roots_of_unimodular",
    "eval_nodal_poly",
    "scaled_to_complex",
    "estimate_conditions",
    "lebesgue_function",
    "default_grid_size",
]

UNIMODULAR_TOL = 1e-12
DISTINCT_TOL = 1e-10  # chordal; below this barycentric weights lose all digits
NEAR_NODE_TOL = 1e-8  # switch to the removable-singularity limit in (ii)

# The pair kernel walks evaluation points in blocks of about PAIR_BUDGET
# point-node pairs: one complex temporary is then 1 MB and stays in L2.  Its
# matrix-vector products use einsum, not BLAS: sweeps run the kernel on a
# thread pool, and BLAS threads under it would oversubscribe the cores.
PAIR_BUDGET = 1 << 16
# log prod_j (z - z_j) takes one complex log per run of 2**FACTOR_LEVELS = 16
# factors.  For z on the circle and nodes DISTINCT_TOL apart a run product
# stays between about 1e-150 and 2**16, so PRODUCT_RANGE trips only off the
# circle, where a row falls back to one log per factor.
FACTOR_LEVELS = 4
PRODUCT_RANGE = (1e-250, 1e250)


@dataclass(frozen=True)
class NodalSystem:
    """Distinct unimodular nodes z_j with cached derivatives W_n'(z_j)."""

    nodes: np.ndarray = field(repr=False)
    derivs: np.ndarray = field(repr=False)
    source: str = "user-supplied"

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def thetas(self) -> np.ndarray:
        """Node arguments in [0, 2*pi)."""
        return np.mod(np.angle(self.nodes), 2.0 * np.pi)


@dataclass(frozen=True)
class NodalConditionReport:
    n: int
    b_hat: float          # min over the full grid of |W'(z)|/n
    b_hat_nodes: float    # min over the nodes only (the reading used in the proof)
    l_hat: float          # max over the grid of the condition (ii) quantity
    lebesgue_max: float   # max over the grid of sum_j |l_j(z)|
    grid_size: int
    reliable: bool        # False when grid_size < n


def _validate_nodes(nodes: np.ndarray) -> None:
    if len(nodes) < 1:
        raise ValidationError("a nodal system needs at least one node")
    off = np.abs(np.abs(nodes) - 1.0)
    if np.max(off) > UNIMODULAR_TOL:
        j = int(np.argmax(off))
        raise ValidationError(
            f"node {j} is not unimodular: ||z|-1| = {off[j]:.3e} > {UNIMODULAR_TOL}"
        )
    if len(nodes) > 1:
        # On the circle the minimal pairwise chordal distance is attained by
        # angular neighbors, so sorting by argument suffices.
        order = np.argsort(np.mod(np.angle(nodes), 2.0 * np.pi))
        z = nodes[order]
        gaps = np.abs(np.diff(np.concatenate([z, z[:1]])))
        if np.min(gaps) <= DISTINCT_TOL:
            raise DegeneracyError(
                f"nodes are closer than {DISTINCT_TOL} (min gap {np.min(gaps):.3e})"
            )


def _pair_blocks(m: int, n: int, *dtypes):
    """Walk m points against n nodes in blocks of about PAIR_BUDGET
    point-node pairs.  Yields the slice of points and, per dtype, a scratch
    (rows, n) array.  The scratch arrays are allocated once and reused, so
    that memory is O(n) per call whatever m is and no block pays for fresh
    pages."""
    step = max(1, PAIR_BUDGET // max(n, 1))
    scratch = [np.empty((min(m, step), n), dtype=dtype) for dtype in dtypes]
    for start in range(0, m, step):
        rows = slice(start, min(start + step, m))
        yield rows, [buf[: rows.stop - start] for buf in scratch]


def _log_product(d: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Row sums of log d[:, j], i.e. log prod_j d[:, j] up to a multiple of
    2 pi i, with one logarithm per run of 2**FACTOR_LEVELS factors.  work is
    scratch of d's shape; d is left as it is.

    Halving the row FACTOR_LEVELS times multiplies column j with column
    j + width/2, so each run gathers columns spread over the whole row; for
    nodes sorted by argument its factors come from all round the circle.
    A row with a run product outside PRODUCT_RANGE is redone with one
    logarithm per factor."""
    x = d
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(FACTOR_LEVELS):
            width = x.shape[1]
            if width < 2:
                break
            half = width // 2
            y = np.multiply(x[:, :half], x[:, half:2 * half], out=work[:, :half])
            if width % 2:
                y[:, 0] *= x[:, -1]
            x = y
        mag = np.abs(x)
        out = np.log(mag).sum(axis=1) + 1j * np.arctan2(x.imag, x.real).sum(axis=1)
        lo, hi = PRODUCT_RANGE
        for i in np.flatnonzero(~np.all((mag >= lo) & (mag <= hi), axis=1)):
            out[i] = np.log(d[i]).sum()
    return out


def _derivs_product(nodes: np.ndarray) -> np.ndarray:
    """W_n'(z_j) = prod_{k != j} (z_j - z_k), accumulated in log space to
    dodge intermediate under/overflow for large n."""
    n = len(nodes)
    derivs = np.empty(n, dtype=complex)
    for rows, (d, work) in _pair_blocks(n, n, complex, complex):
        np.subtract(nodes[rows, None], nodes[None, :], out=d)
        own = np.arange(len(d))
        d[own, own + rows.start] = 1.0
        derivs[rows] = np.exp(_log_product(d, work))
    return derivs


def make_nodal_system(nodes, source: str = "user-supplied") -> NodalSystem:
    """Validate unimodularity/distinctness and cache W_n'(z_j)."""
    nodes = np.asarray(nodes, dtype=complex)
    _validate_nodes(nodes)
    return NodalSystem(nodes=nodes, derivs=_derivs_product(nodes), source=source)


def roots_of_unimodular(n: int, tau: complex) -> NodalSystem:
    """Nodal system of the n roots of z^n = tau with |tau| = 1.

    W_n(z) = z^n - tau, so the derivatives take the closed form
    W_n'(z_j) = n z_j^{n-1} = n tau / z_j.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    tau = complex(tau)
    if abs(abs(tau) - 1.0) > UNIMODULAR_TOL:
        raise ValidationError(f"|tau| must equal 1 within {UNIMODULAR_TOL}, got |tau|={abs(tau)}")
    theta0 = np.angle(tau) / n
    nodes = np.exp(1j * (theta0 + 2.0 * np.pi * np.arange(n) / n))
    derivs = n * tau / nodes
    return NodalSystem(nodes=nodes, derivs=derivs, source="roots-of-unimodular")


def eval_nodal_poly(system: NodalSystem, z: complex) -> tuple[complex, int]:
    """Evaluate W_n(z) = prod_j (z - z_j) as (mantissa, exponent) with the
    value equal to mantissa * 2**exponent.

    The mantissa is renormalized every 64 factors, so |W_n| up to 2^n never
    over- or underflows.
    """
    z = complex(z)
    factors = z - system.nodes
    mant = 1.0 + 0.0j
    expo = 0
    for start in range(0, len(factors), 64):
        block = factors[start:start + 64]
        # 64 factors of magnitude <= |z| + 1 stay well inside double range
        mant *= complex(np.prod(block))
        if mant == 0:
            return 0.0 + 0.0j, 0
        _, e = math.frexp(abs(mant))
        mant = complex(math.ldexp(mant.real, -e), math.ldexp(mant.imag, -e))
        expo += e
    return mant, expo


def scaled_to_complex(mantissa: complex, exponent: int) -> complex:
    """Collapse a (mantissa, exponent) pair to a plain complex value."""
    return complex(math.ldexp(mantissa.real, exponent), math.ldexp(mantissa.imag, exponent))


def default_grid_size(n: int) -> int:
    return max(4096, 16 * n)


def _grid_points(system: NodalSystem, grid_size: int) -> np.ndarray:
    """Uniform angles plus midpoints between adjacent node arguments."""
    thetas = np.sort(system.thetas)
    mids = 0.5 * (thetas + np.roll(thetas, -1))
    mids[-1] = 0.5 * (thetas[-1] + thetas[0] + 2.0 * np.pi)  # wrap-around gap
    uniform = 2.0 * np.pi * np.arange(grid_size) / grid_size
    return np.exp(1j * np.concatenate([uniform, mids]))


def _condition_rows(z: np.ndarray, system: NodalSystem):
    """Per point z: |W'(z)|, the condition (ii) quantity and the log of the
    Lebesgue function, with removable singularities patched near nodes.

    Per pair only real arithmetic is done on q = |z - z_j|^2:
      log|W(z)|        = (1/2) sum_j log q_j,
      sum_j 1/(z-z_j)  = sum_j conj(z - z_j) / q_j,
      condition (ii)   = |W|^2 / n^2 sum_j 1/q_j,
      Lebesgue         = |W| sum_j 1/(|W'(z_j)| sqrt(q_j)),
    the last as one matrix-vector product against exp(c - log|W'(z_j)|),
    with c the smallest log|W'(z_j)|, so that it cannot overflow."""
    nodes = system.nodes
    n = len(nodes)
    abs_derivs = np.abs(system.derivs)
    with np.errstate(divide="ignore"):
        log_abs_derivs = np.log(abs_derivs)
    shift = float(log_abs_derivs.min())
    if math.isfinite(shift):
        scaled_inv_derivs = np.exp(shift - log_abs_derivs)
    else:
        # a W'(z_j) that underflowed to 0 makes the Lebesgue function infinite
        scaled_inv_derivs = (abs_derivs == 0).astype(float)
    wprime = np.empty(len(z))
    cond2 = np.empty(len(z))
    log_leb = np.empty(len(z))
    for rows, (dr, di, q, work) in _pair_blocks(len(z), n, float, float, float, float):
        zc = z[rows]
        np.subtract(zc.real[:, None], nodes.real[None, :], out=dr)
        np.subtract(zc.imag[:, None], nodes.imag[None, :], out=di)
        np.multiply(dr, dr, out=q)
        q += np.multiply(di, di, out=work)
        near_rows = np.flatnonzero(q.min(axis=1) < NEAR_NODE_TOL**2)
        loc, cols = np.nonzero(q[near_rows] < NEAR_NODE_TOL**2)
        loc = near_rows[loc]
        with np.errstate(divide="ignore", over="ignore"):
            log_w = 0.5 * np.log(q, out=work).sum(axis=1)
            inv_q = np.divide(1.0, q, out=q)
            inv_q[loc, cols] = 0.0
            cond2[rows] = np.exp(2.0 * (log_w - math.log(n))) * inv_q.sum(axis=1)
            # |W'(z)| = |W(z)| * |sum_j 1/(z - z_j)| away from nodes
            wprime[rows] = np.exp(log_w) * np.hypot(
                np.einsum("ij,ij->i", dr, inv_q), np.einsum("ij,ij->i", di, inv_q))
            leb_sum = np.einsum("ij,j->i", np.sqrt(inv_q, out=inv_q), scaled_inv_derivs)
            log_leb[rows] = log_w + np.log(leb_sum) - shift
        if len(loc):
            # near z_j: the j-th summand of (ii) tends to |W'(z_j)|^2 / n^2,
            # |W'(z)| to |W'(z_j)| and the j-th Lebesgue summand to 1
            hit = loc + rows.start
            np.add.at(cond2, hit, (abs_derivs[cols] / n) ** 2)
            wprime[hit] = abs_derivs[cols]
            hit, count = np.unique(hit, return_counts=True)
            log_leb[hit] = np.logaddexp(log_leb[hit], np.log(count))
    return wprime, cond2, log_leb


def estimate_conditions(system: NodalSystem, grid_size: int | None = None) -> NodalConditionReport:
    """Estimate the sufficiency-condition constants on a circle grid.

    The grid is uniform plus node-argument midpoints.  Near a node the j-th
    summand of condition (ii) is replaced by its limit |W'(z_j)|^2 / n^2.
    """
    n = system.n
    if grid_size is None:
        grid_size = default_grid_size(n)
    if grid_size < 4:
        raise ValidationError(f"grid_size must be >= 4, got {grid_size}")
    wprime, cond2, log_leb = _condition_rows(_grid_points(system, grid_size), system)
    with np.errstate(over="ignore"):
        leb_max = float(np.exp(log_leb.max()))
    b_nodes = float(np.min(np.abs(system.derivs))) / n
    return NodalConditionReport(
        n=n,
        b_hat=float(wprime.min()) / n,
        b_hat_nodes=b_nodes,
        l_hat=float(cond2.max()),
        lebesgue_max=max(leb_max, 1.0),
        grid_size=grid_size,
        reliable=grid_size >= n,
    )


def lebesgue_function(system: NodalSystem, plan: DegreePlan, z: complex) -> float:
    """sum_j |l_{j,n-1}(z)| for |z| = 1; exactly 1 at a node.

    The z_j^p / z^p factors are unimodular on the circle, so only the
    magnitudes |W(z)| / (|W'(z_j)| |z - z_j|) enter.
    """
    if plan.n != system.n:
        raise ValidationError(f"plan is for n={plan.n} but system has n={system.n}")
    z = complex(z)
    d = np.abs(z - system.nodes)
    if d.min() < 1e-13 * max(system.n, 1):
        return 1.0
    with np.errstate(over="ignore"):
        return float(np.exp(_condition_rows(np.array([z]), system)[2][0]))
