"""Scattered-data interpolation on S^d by rotations of a zonal basis function.

Given distinct points x_i, values f_i and a zonal kernel g that is strictly
positive definite on the target sphere, the interpolant is

    s(x) = sum_j c_j g(theta(x, x_j)),    M_X c = f,

solved by conjugate gradients when g's local support makes M_X sparse
enough, else by Cholesky.  A locally supported g's M_X is assembled on the
centers sorted along their widest coordinate, where it is a band, and the
direct route factors that band (George and Liu, "Computer Solution of Large
Sparse Positive Definite Systems", 1981) in float32 and refines the solution
against float64 residuals to the same residual as a float64 factor (Buttari
et al., "Mixed precision iterative refinement techniques for the solution of
dense linear systems", IJHPCA 2007), which halves the band's memory.  A
float32 factor that fails, or whose refinement misses LAPACK dsposv's
bound, gives way to a float64 factor of the band.
Every other M_X is factored dense in float64, which is also the test
oracle.  No polynomial augmentation is added: the plain system is uniquely
solvable exactly when g is strictly positive definite.

Evaluation follows the same split.  A locally supported s(x) only sums the
centers inside the support cap around x: kd-trees of the centers and of each
query block give the (query, center) pairs within the chord radius that M_X
is assembled at, and their distances give x = 1 - v^2 / 2, so memory grows
with the pairs and no queries x centers array is formed.  Any other g is
summed over the dot products of each query block with every center.

Queries are sorted along their widest coordinate, as the centers are, so
each fixed block of _QUERY_BLOCK queries covers a small patch of the
sphere, and the blocks are summed on one thread per CPU the process may run
on, the caller's and a pool's: the kd-tree searches, the kernel ufuncs and
the BLAS products release the GIL.  A block's sums depend only on its queries,
and the blocks do not depend on the worker count, so the values are the
same bits on any number of cores.  The block size is bounded by memory, not
speed: what a worker thread frees stays resident in its malloc arena.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import lapack

from .errors import AccuracyError, NotPositiveDefiniteError
from .spd import PointSet, gram_matrix, sparse_gram, support_chord
from .zonal import ZonalKernel

__all__ = ["Interpolant", "solve_interpolation", "evaluate_interpolant"]

_REFINEMENT_ROUNDS = 3
_MIXED_REFINEMENT_ROUNDS = 30  # LAPACK dsposv's ITERMAX
#: queries per evaluation block, bounded by memory: what a worker thread
#: frees stays resident in its malloc arena, so larger blocks raise peak RSS
_QUERY_BLOCK = 128
#: CG solves a sparse M_X when n^3 > _DENSE_COST * nnz, past the measured
#: tie of CG and Cholesky (CHANGES.md)
_DENSE_COST = 50_000
_CG_RTOL = 1e-13
_CG_MAX_ITER = 2000  # ~10x the most iterations seen (232 at n = 10^5)


@dataclass(frozen=True)
class Interpolant:
    """Solved interpolation problem: centers, kernel and coefficient vector."""

    centers: PointSet
    kernel: ZonalKernel
    coefficients: np.ndarray
    residual_inf: float

    def __call__(self, x):
        return evaluate_interpolant(self, x)

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel.descriptor,
            "sphere_dim": self.centers.d,
            "centers": self.centers.points.tolist(),
            "coefficients": self.coefficients.tolist(),
            "residual_inf": self.residual_inf,
        }


def solve_interpolation(
    pts: PointSet, values, kernel: ZonalKernel, residual_tol: float = 1e-9
) -> Interpolant:
    """Solve M_X c = f with ||M c - f||_inf <= residual_tol * ||f||_inf.

    A locally supported kernel's M_X (spd.sparse_gram) is assembled on the
    centers sorted along their widest coordinate and goes to CG when
    n^3 > _DENSE_COST * nnz, else to a banded Cholesky in that order (a
    float32 factor refined in float64, or a float64 one when that misses);
    a kernel without local support to dense Cholesky.  Both Cholesky routes
    refine iteratively.  No points, values that are not finite, or a
    residual_tol that is negative or NaN raise ValueError.  A kernel that is
    not strictly PD on the points raises NotPositiveDefiniteError: from a
    float64 Cholesky with the failing pivot (counted in the sorted order on
    the band), from CG (pivot 0) on a non-positive diagonal entry or
    curvature p.Mp.  A Cholesky solution that misses the contract raises it too
    (pivot 0); a CG solution that misses it raises AccuracyError with the
    residual reached, since CG stops at _CG_MAX_ITER steps on a PD M_X as
    well.  A system CG solves to contract is returned, even if it is
    indefinite.
    """
    f = np.asarray(values, dtype=float)
    if f.shape != (len(pts),):
        raise ValueError(f"expected {len(pts)} values, got shape {f.shape}")
    if len(pts) == 0:
        raise ValueError("interpolation needs at least one point")
    if not np.all(np.isfinite(f)):
        raise ValueError("interpolation values must be finite")
    if not residual_tol >= 0.0:  # NaN fails too
        raise ValueError(f"residual tolerance must be a non-negative number, got {residual_tol}")
    # support pairs are close in every coordinate, so in the widest one's
    # order they form a band
    order = _widest_order(pts.points)
    m = sparse_gram(kernel, pts, order)
    cg_steps = None
    if m is None:
        c, res_inf = _solve_cholesky(gram_matrix(kernel, pts), f)
    else:
        if len(pts) ** 3 > _DENSE_COST * m.nnz:
            c_sorted, res_inf, cg_steps = _solve_cg(m.tocsr(), f[order])
        else:
            c_sorted, res_inf = _solve_cholesky(m, f[order])
        c = np.empty_like(c_sorted)
        c[order] = c_sorted
    if not res_inf <= residual_tol * max(float(np.max(np.abs(f))), 1e-300):
        missed = f"solution residual {res_inf:.3e} exceeds {residual_tol:.1e} * ||f||"
        if cg_steps is not None:
            raise AccuracyError(f"CG did not converge in {cg_steps} iterations: {missed}", achieved=res_inf)
        raise NotPositiveDefiniteError(f"{missed}; Gram matrix is numerically singular", pivot=0)
    return Interpolant(centers=pts, kernel=kernel, coefficients=c, residual_inf=res_inf)


def _solve_cholesky(m, f: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky with iterative refinement: c and ||f - M c||_inf.

    A dense ndarray is factored whole (dpotrf).  A sparse M (COO, as from
    spd.sparse_gram) is factored as its lower band, b = max(i - j) over its
    pairs wide: O(n b^2) time and (b + 1) n storage, so the order of its
    rows sets the cost.  The band is factored in float32 (spbtrf) and the
    float32 corrections are refined against float64 residuals, up to
    _MIXED_REFINEMENT_ROUNDS times (Buttari et al., IJHPCA 2007, as in
    LAPACK dsposv).  If spbtrf fails or the refined residual misses dsposv's
    bound sqrt(n) eps ||M||_inf ||c||_inf, the float32 factor is freed and
    the band is factored again in float64 (dpbtrf), so a kernel that is not
    PD is reported from the float64 pivot.  Refinement multiplies by M in
    its given form and stops once progress stalls.
    """
    if isinstance(m, np.ndarray):
        chol, info = lapack.dpotrf(m, lower=1)
        _check_pivot(info)
        return _refine(m, f, partial(_triangular_solve, lapack.dpotrs, chol), _REFINEMENT_ROUNDS)
    chol, info = lapack.spbtrf(_lower_band(m, np.float32), lower=1, overwrite_ab=1)
    if info == 0:
        c, residual = _refine(m, f, partial(_triangular_solve, lapack.spbtrs, chol), _MIXED_REFINEMENT_ROUNDS)
        # dlamch("E") = 2^-53, the eps of dsposv's bound
        row_sums = np.bincount(m.row, weights=np.abs(m.data), minlength=len(f))
        bound = math.sqrt(len(f)) * 2.0**-53 * float(np.max(row_sums)) * float(np.max(np.abs(c)))
        if residual <= bound:
            return c, residual
    del chol  # freed before the float64 band is built
    chol, info = lapack.dpbtrf(_lower_band(m, np.float64), lower=1, overwrite_ab=1)
    _check_pivot(info)
    return _refine(m, f, partial(_triangular_solve, lapack.dpbtrs, chol), _REFINEMENT_ROUNDS)


def _check_pivot(info: int) -> None:
    if info != 0:
        raise NotPositiveDefiniteError(
            f"Cholesky failed at pivot {info}: kernel is not positive definite on this point set",
            pivot=int(info),
        )


def _triangular_solve(potrs, chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M^-1 rhs in float64 from a Cholesky factor of M in chol's precision.

    rhs is solved for divided by a power of two near its largest entry,
    which is exact and keeps it inside float32's range at any data scale.
    """
    scale = 2.0 ** math.frexp(float(np.max(np.abs(rhs), initial=0.0)))[1]
    sol, info = potrs(chol, (rhs / scale).astype(chol.dtype, copy=False), lower=1)
    if info != 0:
        raise RuntimeError(f"triangular solve failed with info={info}")
    return scale * sol.astype(float, copy=False)


def _refine(m, f: np.ndarray, solve, rounds: int) -> tuple[np.ndarray, float]:
    """c = solve(f), refined at most `rounds` times by c += solve(f - M c):
    c and ||f - M c||_inf.  Refinement runs toward machine level (rotated or
    permuted problems then agree far below the contract tolerance) and stops
    at 4 eps ||f||_inf or once a round fails to lower the residual."""
    c = solve(f)
    scale = float(np.max(np.abs(f), initial=0.0))
    residual = f - m @ c
    best = float(np.max(np.abs(residual), initial=0.0))
    for _ in range(rounds):
        if best <= 4.0 * np.finfo(float).eps * max(scale, 1e-300):
            break
        trial = c + solve(residual)
        trial_residual = f - m @ trial
        trial_norm = float(np.max(np.abs(trial_residual)))
        if trial_norm >= best:
            break
        c, residual, best = trial, trial_residual, trial_norm
    return c, best


def _lower_band(m, dtype=np.float32) -> np.ndarray:
    """LAPACK lower band storage of a symmetric COO matrix: ab[i - j, j] = M[i, j]
    for i >= j, shape (b + 1, n), of `dtype` and in Fortran order so that
    f2py passes it to ?pbtrf without a copy.  Duplicate entries add up, as in
    m @ x; no band of another dtype is formed on the way."""
    lower = m.row >= m.col
    flat_index = m.col[lower]  # j, then j (b + 1) + i - j: column-major in the band
    depth = m.row[lower] - flat_index
    b = int(np.max(depth, initial=0))
    flat_index *= b + 1
    flat_index += depth
    n = m.shape[0]
    flat = np.zeros((b + 1) * n, dtype=dtype)
    np.add.at(flat, flat_index, m.data[lower].astype(dtype, copy=False))
    return flat.reshape((b + 1, n), order="F")


def _solve_cg(m, f: np.ndarray) -> tuple[np.ndarray, float, int]:
    """CG on a sparse M: c, ||f - M c||_inf and the number of steps taken.

    Stops at a recurrence residual <= _CG_RTOL * ||f||_inf or after
    _CG_MAX_ITER steps.  It is not preconditioned: every diagonal entry of
    M_X is f(1), so Jacobi scaling would only scale the iterates.  A
    non-positive diagonal entry or curvature, which no PD matrix has, raises
    NotPositiveDefiniteError (pivot 0).
    """
    if not np.all(m.diagonal() > 0.0):
        raise NotPositiveDefiniteError("Gram matrix has a non-positive diagonal entry", pivot=0)
    c = np.zeros_like(f)
    r = f.copy()
    p = r.copy()
    rr = r @ r
    stop = _CG_RTOL * float(np.max(np.abs(f), initial=0.0))
    steps = 0
    while steps < _CG_MAX_ITER and float(np.max(np.abs(r), initial=0.0)) > stop:
        steps += 1
        q = m @ p
        curvature = float(p @ q)
        if not curvature > 0.0:
            raise NotPositiveDefiniteError(f"CG met curvature p.Mp = {curvature:.3e}: kernel is not PD here", pivot=0)
        alpha = rr / curvature
        c += alpha * p
        r -= alpha * q
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
    return c, float(np.max(np.abs(f - m @ c), initial=0.0)), steps


def evaluate_interpolant(itp: Interpolant, x) -> float | np.ndarray:
    """s(x) = sum_j c_j g(theta(x, x_j)) at one unit vector or a stack of them.

    The queries are sorted along their widest coordinate and cut into blocks
    of _QUERY_BLOCK, which _block_sums sums on min(_worker_count(), blocks)
    threads (_map_on_threads); the values come back in the caller's order.
    A locally supported g is summed over each block's support pairs
    (_support_pair_sums); any other g over the block's dot products with
    every center.  Non-unit (or NaN) query points raise; there is no silent
    renormalization.
    """
    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    if q.shape[1] != itp.centers.d + 1:
        raise ValueError(f"query points must live in R^{itp.centers.d + 1}")
    norms = np.linalg.norm(q, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-12):
        raise ValueError("query points must be unit vectors within 1e-12")
    vals = np.empty(len(q))
    if len(q) == 0:
        return vals
    tree = None
    if itp.kernel.support_edge > -1.0:
        # imported here: scipy.spatial at module level adds ~65 ms to `import sphkern`
        from scipy.spatial import cKDTree

        tree = cKDTree(itp.centers.points)
    order = _widest_order(q)
    q = q[order]
    blocks = [q[start : start + _QUERY_BLOCK] for start in range(0, len(q), _QUERY_BLOCK)]
    sums = _map_on_threads(partial(_block_sums, itp, tree), blocks, min(_worker_count(), len(blocks)))
    vals[order] = np.concatenate(sums)
    return float(vals[0]) if single else vals


def _widest_order(points: np.ndarray) -> np.ndarray:
    """Indices that sort points along their widest coordinate: nearby points
    end up close in this order (a band of M_X, compact query blocks)."""
    return np.argsort(points[:, np.argmax(np.ptp(points, axis=0))])


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _map_on_threads(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items] on `workers` threads: the caller and
    workers - 1 pool threads take the items in turn from one queue.

    The caller working too keeps one thread's malloc arena fewer resident.
    An exception empties the queue, so the other threads stop after their
    current item, and it is raised once every pool thread has finished.
    """
    if workers == 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    todo = queue.SimpleQueue()
    for k in range(len(items)):
        todo.put(k)

    def drain():
        try:
            while True:
                try:
                    k = todo.get_nowait()
                except queue.Empty:
                    return
                results[k] = fn(items[k])
        except BaseException:
            with suppress(queue.Empty):
                while True:
                    todo.get_nowait()
            raise

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
    for helper in helpers:
        helper.result()
    return results


def _block_sums(itp: Interpolant, tree, block: np.ndarray) -> np.ndarray:
    """s at each query of one block: over its support pairs with the centers
    in `tree` (a kd-tree), or, with no tree, over its dot products with every
    center."""
    if tree is None:
        return itp.kernel(_snap_pole(block @ itp.centers.points.T)) @ itp.coefficients
    return _support_pair_sums(itp, block, tree)


def _snap_pole(x: np.ndarray) -> np.ndarray:
    """Snap last-ulp coincidences onto the pole, in place: cusped profiles
    would otherwise turn an O(eps) x error into an O(sqrt(eps)) kernel error."""
    x[x > 1.0 - 4e-15] = 1.0
    return x


def _support_pair_sums(itp: Interpolant, block: np.ndarray, tree) -> np.ndarray:
    """s at each query of `block` from its pairs with the centers in `tree`
    (a kd-tree) within spd.support_chord of the kernel's support edge.

    x = 1 - v^2 / 2 from each pair's distance v has absolute error about
    eps (1 - x), no worse than a dot product's, and needs no gather of the
    points.  The pairs past the edge that the widening of the chord admits
    add c 0.0.  Memory is O(pairs), never queries x centers, and the
    temporaries are updated in place: fresh pages cost about as much as the
    arithmetic.
    """
    from scipy.spatial import cKDTree

    pairs = cKDTree(block).sparse_distance_matrix(tree, support_chord(itp.kernel.support_edge), output_type="ndarray")
    x = pairs["v"] ** 2
    x *= -0.5
    x += 1.0
    weights = itp.coefficients[pairs["j"]]
    weights *= itp.kernel(_snap_pole(x))
    return np.bincount(pairs["i"], weights=weights, minlength=len(block))
