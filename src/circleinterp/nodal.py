"""Unimodular nodal systems and numerical condition diagnostics.

A nodal system is a set of distinct points on the unit circle together with
the derivative of the nodal polynomial W_n(z) = prod_j (z - z_j) at each
node.  The condition estimators measure, on a circle grid,

  (i)  a lower bound B_hat for |W_n'(z)| / n,
  (ii) an upper bound L_hat for (|W_n(z)|^2 / n^2) * sum_j 1/|z - z_j|^2,

which together bound the Lebesgue function by (sqrt(L_hat)/B_hat) sqrt(n).
"""

from __future__ import annotations

import concurrent.futures
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, ValidationError
from .laurent import _check_count, _uniform_angles

__all__ = [
    "NodalSystem",
    "NodalConditionReport",
    "make_nodal_system",
    "roots_of_unimodular",
    "estimate_conditions",
    "max_workers",
]

UNIMODULAR_TOL = 1e-12
DISTINCT_TOL = 1e-10  # chordal; below this barycentric weights lose all digits
AT_NODE_TOL = 1e-14  # a point this close to a node takes that node's value

# The pair kernel walks evaluation points in blocks of about PAIR_BUDGET
# point-node pairs: one complex temporary is then 1 MB and stays in L2.  A
# call of at least PARALLEL_PAIRS pairs spreads its blocks over
# max_workers() threads.  Its matrix-vector products use einsum, not BLAS,
# whose own threads would oversubscribe the cores.
PAIR_BUDGET = 1 << 16
PARALLEL_PAIRS = 1 << 21
# log prod_j (z - z_j) takes one complex log per run of 2**FACTOR_LEVELS = 16
# factors.  For z on the circle and nodes DISTINCT_TOL apart a run product
# stays between about 1e-150 and 2**16, so PRODUCT_RANGE trips only off the
# circle, where a row falls back to one log per factor.
FACTOR_LEVELS = 4
PRODUCT_RANGE = (1e-250, 1e250)


@dataclass(frozen=True, eq=False)
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
    # log10 of l_hat and lebesgue_max, finite where those overflow to inf
    log10_l_hat: float
    log10_lebesgue_max: float

    @property
    def reliable(self) -> bool:
        return self.grid_size >= self.n


def _validate_nodes(nodes: np.ndarray) -> None:
    if nodes.ndim != 1 or len(nodes) < 1:
        raise ValidationError(f"nodes must be a nonempty 1-D array, got shape {nodes.shape}")
    off = np.abs(np.abs(nodes) - 1.0)
    # written as "not <=" so that a NaN node fails
    if not np.max(off) <= UNIMODULAR_TOL:
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


def max_workers() -> int:
    """CIRCLE_INTERP_THREADS when it is set to an integer, otherwise the
    number of CPUs this process may run on (its affinity mask where the
    platform has one, so that a pinned process does not oversubscribe)."""
    raw = os.environ.get("CIRCLE_INTERP_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        pass
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def _walk_pairs(m: int, n: int, dtypes, block) -> None:
    """Call block(rows, scratch) for the m points against n nodes in blocks
    of about PAIR_BUDGET point-node pairs: rows is the slice of points and
    scratch holds, per dtype, a (rows, n) array.  Each block may write only
    its own rows of the caller's outputs, so the result does not depend on
    which thread ran it.

    From PARALLEL_PAIRS pairs on, w = max_workers() workers take the blocks
    k, k + w, k + 2w, ... for k = 0..w-1: the calling thread the first set,
    w - 1 threads started for this call the others, under the caller's
    numpy error state (np.geterr, np.geterrcall): a new thread would start
    from numpy's defaults.  The caller allocates one set of scratch arrays
    per worker, once, so that memory is O(w n) whatever m is and no block
    pays for fresh pages.  An exception in any block reaches the caller
    once every worker has stopped, and no thread outlives the call."""
    step = max(1, PAIR_BUDGET // max(n, 1))
    starts = range(0, m, step)
    workers = min(max_workers(), len(starts)) if m * n >= PARALLEL_PAIRS else 1
    scratch = [[np.empty((min(m, step), n), dtype=dtype) for dtype in dtypes]
               for _ in range(workers)]

    def walk(k: int) -> None:
        for start in starts[k::workers]:
            rows = slice(start, min(start + step, m))
            block(rows, [buf[: rows.stop - start] for buf in scratch[k]])

    if workers == 1:
        return walk(0)
    state = {"call": np.geterrcall(), **np.geterr()}
    with concurrent.futures.ThreadPoolExecutor(
            workers - 1, thread_name_prefix="circleinterp-pairs") as pool:
        futures = [pool.submit(np.errstate(**state)(walk), k) for k in range(1, workers)]
        walk(0)
    for future in futures:
        future.result()


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

    def block(rows, scratch):
        d, work = scratch
        np.subtract(nodes[rows, None], nodes[None, :], out=d)
        own = np.arange(len(d))
        d[own, own + rows.start] = 1.0
        derivs[rows] = np.exp(_log_product(d, work))

    _walk_pairs(n, n, (complex, complex), block)
    return derivs


def make_nodal_system(nodes, source: str = "user-supplied") -> NodalSystem:
    """Validate unimodularity/distinctness and cache W_n'(z_j).

    Raises DegeneracyError when some W_n'(z_j) underflows to 0: nodes can
    clear DISTINCT_TOL and still crowd so many neighbours that the product
    drops below the smallest double, and the interpolant would be NaN."""
    nodes = np.asarray(nodes, dtype=complex)
    _validate_nodes(nodes)
    derivs = _derivs_product(nodes)
    zero = int(np.count_nonzero(derivs == 0))
    if zero:
        raise DegeneracyError(
            f"W'(z_j) underflows to 0 at {zero} of {len(nodes)} nodes: they crowd "
            "too many neighbours for the barycentric weights to be represented"
        )
    return NodalSystem(nodes=nodes, derivs=derivs, source=source)


def _check_unimodular(tau) -> complex:
    """tau as a Python complex, when it is a number with |tau| = 1 within
    UNIMODULAR_TOL; ValidationError otherwise, also for a bool."""
    if isinstance(tau, bool) or not isinstance(tau, numbers.Number):
        raise ValidationError(f"tau must be a number, got {tau!r}")
    tau = complex(tau)
    if not abs(abs(tau) - 1.0) <= UNIMODULAR_TOL:  # a NaN tau fails too
        raise ValidationError(f"|tau| must equal 1 within {UNIMODULAR_TOL}, got |tau|={abs(tau)}")
    return tau


def roots_of_unimodular(n: int, tau: complex) -> NodalSystem:
    """Nodal system of the n roots of z^n = tau with |tau| = 1.

    W_n(z) = z^n - tau, so the derivatives take the closed form
    W_n'(z_j) = n z_j^{n-1} = n tau / z_j.
    """
    n = _check_count("n", n, 1)
    tau = _check_unimodular(tau)
    theta0 = np.angle(tau) / n
    nodes = np.exp(1j * (theta0 + _uniform_angles(n)))
    derivs = n * tau / nodes
    return NodalSystem(nodes=nodes, derivs=derivs, source="roots-of-unimodular")


def _nearest_nodes(system: NodalSystem, z: np.ndarray):
    """Index of the node nearest to each z and the distance to it.  For any
    z != 0 the nearest node in distance is the nearest in argument, so a
    binary search over the sorted arguments finds it."""
    if len(z) == 1:  # one point: scanning the nodes costs less than sorting them
        d = np.abs(z - system.nodes)
        k = d.argmin(keepdims=True)
        return k, d[k]
    thetas = system.thetas
    order = np.argsort(thetas)
    i = np.searchsorted(thetas[order], np.mod(np.angle(z), 2.0 * np.pi))
    # the two neighbours in argument; index -1 and n wrap round the circle.
    # A tie goes to the node after.
    after, before = order[i % system.n], order[i - 1]
    d_after, d_before = np.abs(z - system.nodes[after]), np.abs(z - system.nodes[before])
    pick = d_before < d_after
    return np.where(pick, before, after), np.where(pick, d_before, d_after)


def _samples(system: NodalSystem) -> np.ndarray:
    """The n points z_0 e^{2 pi i j/n} with z_0 = nodes[0]."""
    n = system.n
    return system.nodes[0] * np.exp(2j * np.pi * np.arange(n) / n)


def _samples_are_nodes(system: NodalSystem) -> bool:
    """Whether each of the n samples z_0 e^{2 pi i j/n} lies within
    AT_NODE_TOL of a node, in any order: the nodes are then the roots of
    z^n = z_0^n.  The nodes are distinct, so no two samples share a node."""
    return bool(np.all(_nearest_nodes(system, _samples(system))[1] < AT_NODE_TOL))


def _node_midpoints(system: NodalSystem) -> np.ndarray:
    """The angles midway between adjacent node arguments, increasing.  For
    rotation-symmetric nodes (_samples_are_nodes) they are arg nodes[0] plus
    the odd points of the uniform 2n-point grid: on the roots of z^n = 1,
    points of the uniform M-point grid when M / (2n) is a power of two."""
    if _samples_are_nodes(system):
        return np.angle(system.nodes[0]) + _uniform_angles(2 * system.n)[1::2]
    thetas = np.sort(system.thetas)
    mids = 0.5 * (thetas + np.roll(thetas, -1))
    mids[-1] = 0.5 * (thetas[-1] + thetas[0] + 2.0 * np.pi)  # wrap-around gap
    return mids


def _grid_points(system: NodalSystem, grid_size: int) -> np.ndarray:
    """Uniform angles plus midpoints between adjacent node arguments."""
    return np.exp(1j * np.concatenate([_uniform_angles(grid_size), _node_midpoints(system)]))


def _condition_rows(z: np.ndarray, system: NodalSystem):
    """Per point z: |W'(z)|, the condition (ii) quantity, the log of the
    Lebesgue function and the log of (ii), with removable singularities
    patched at nodes.

    Per pair only real arithmetic is done on q = |z - z_j|^2:
      log|W(z)|        = (1/2) sum_j log q_j,
      sum_j 1/(z-z_j)  = sum_j conj(z - z_j) / q_j,
      condition (ii)   = |W|^2 / n^2 sum_j 1/q_j,
      Lebesgue         = |W| sum_j 1/(|W'(z_j)| sqrt(q_j)),
    the last as one matrix-vector product against exp(c - log|W'(z_j)|),
    with c the smallest log|W'(z_j)|, so that it cannot overflow.

    The coordinate differences of z and a node within a factor 2 of each
    other are exact (Sterbenz), so these formulas keep full relative
    accuracy down to rounding distance from a node.  Only a point within
    AT_NODE_TOL of z_j takes the limits of the j-th summands at z_j."""
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
    log_cond2 = np.empty(len(z))

    def block(rows, scratch):
        dr, di, q, work = scratch
        zc = z[rows]
        np.subtract(zc.real[:, None], nodes.real[None, :], out=dr)
        np.subtract(zc.imag[:, None], nodes.imag[None, :], out=di)
        np.multiply(dr, dr, out=q)
        q += np.multiply(di, di, out=work)
        near_rows = np.flatnonzero(q.min(axis=1) < AT_NODE_TOL**2)
        loc, cols = np.nonzero(q[near_rows] < AT_NODE_TOL**2)
        loc = near_rows[loc]
        with np.errstate(divide="ignore", over="ignore"):
            log_w = 0.5 * np.log(q, out=work).sum(axis=1)
            inv_q = np.divide(1.0, q, out=q)
            inv_q[loc, cols] = 0.0
            log_w2 = 2.0 * (log_w - math.log(n))  # log of |W|^2 / n^2
            sum_inv_q = inv_q.sum(axis=1)
            cond2[rows] = np.exp(log_w2) * sum_inv_q
            log_cond2[rows] = log_w2 + np.log(sum_inv_q)
            # |W'(z)| = |W(z)| * |sum_j 1/(z - z_j)| away from nodes
            wprime[rows] = np.exp(log_w) * np.hypot(
                np.einsum("ij,ij->i", dr, inv_q), np.einsum("ij,ij->i", di, inv_q))
            leb_sum = np.einsum("ij,j->i", np.sqrt(inv_q, out=inv_q), scaled_inv_derivs)
            log_leb[rows] = log_w + np.log(leb_sum) - shift
        if len(loc):
            # at z_j: the j-th summand of (ii) tends to |W'(z_j)|^2 / n^2,
            # |W'(z)| to |W'(z_j)| and the j-th Lebesgue summand to 1
            hit = loc + rows.start
            np.add.at(cond2, hit, (abs_derivs[cols] / n) ** 2)
            np.logaddexp.at(log_cond2, hit, 2.0 * (log_abs_derivs[cols] - math.log(n)))
            wprime[hit] = abs_derivs[cols]
            hit, count = np.unique(hit, return_counts=True)
            log_leb[hit] = np.logaddexp(log_leb[hit], np.log(count))

    _walk_pairs(len(z), n, (float,) * 4, block)
    return wprime, cond2, log_leb, log_cond2


def estimate_conditions(system: NodalSystem, grid_size: int | None = None) -> NodalConditionReport:
    """Estimate the sufficiency-condition constants on a circle grid.

    The grid is grid_size uniform points, max(4096, 16 n) by default, plus
    node-argument midpoints.  At a node, within AT_NODE_TOL, the j-th summand
    of condition (ii) is replaced by its limit |W'(z_j)|^2 / n^2.

    When every sample z_0 e^{2 pi i j/n}, z_0 = nodes[0], is a node (see
    _samples_are_nodes) and n divides grid_size, the rows run on one
    period only: the first grid_size / n uniform points and one midpoint.
    Every other grid point is one of these turned by a multiple of 2 pi / n,
    which permutes the nodes and leaves |W'(z)|, (ii) and the Lebesgue
    function (all |W'(z_j)| are equal) unchanged, so the extrema are those
    of the full grid up to rounding.
    """
    n = system.n
    if grid_size is None:
        grid_size = max(4096, 16 * n)
    grid_size = _check_count("grid_size", grid_size, 4)
    if grid_size % n == 0 and _samples_are_nodes(system):
        period = _uniform_angles(grid_size)[: grid_size // n]
        z = np.append(np.exp(1j * period), system.nodes[0] * np.exp(1j * np.pi / n))
    else:
        z = _grid_points(system, grid_size)
    wprime, cond2, log_leb, log_cond2 = _condition_rows(z, system)
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
        log10_l_hat=float(log_cond2.max()) / math.log(10.0),
        log10_lebesgue_max=max(float(log_leb.max()), 0.0) / math.log(10.0),
    )
