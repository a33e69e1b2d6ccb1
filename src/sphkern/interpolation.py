"""Scattered-data interpolation on S^d by rotations of a zonal basis function.

Given distinct points x_i, values f_i and a zonal kernel g that is strictly
positive definite on the target sphere, the interpolant is

    s(x) = sum_j c_j g(theta(x, x_j)),    M_X c = f,

solved by dense Cholesky (desk scale, no fast summation).  No polynomial
augmentation is added: the plain system is uniquely solvable exactly when g
is strictly positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefiniteError
from .gegenbauer import clamp_x
from .spd import PointSet, gram_matrix
from .zonal import ZonalKernel

__all__ = ["Interpolant", "solve_interpolation", "evaluate_interpolant"]

_REFINEMENT_ROUNDS = 3
_QUERY_BLOCK = 1024


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
    """Cholesky-solve M_X c = f with iterative refinement.

    Raises NotPositiveDefiniteError (carrying the failing pivot) when the
    Gram matrix is not numerically positive definite -- the standard symptom
    of a kernel that is not strictly PD on the sphere carrying the points.
    The returned residual satisfies ||M c - f||_inf <= residual_tol * ||f||_inf.
    """
    f = np.asarray(values, dtype=float)
    if f.shape != (len(pts),):
        raise ValueError(f"expected {len(pts)} values, got shape {f.shape}")
    m = gram_matrix(kernel, pts)
    chol, info = lapack.dpotrf(m, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(
            f"Cholesky failed at pivot {info}: kernel is not positive definite on this point set",
            pivot=int(info),
        )

    def solve(rhs):
        sol, sinfo = lapack.dpotrs(chol, rhs, lower=1)
        if sinfo != 0:
            raise RuntimeError(f"triangular solve failed with info={sinfo}")
        return sol

    c = solve(f)
    scale = float(np.max(np.abs(f))) if f.size else 0.0
    # refine toward machine level (rotated/permuted problems then agree far
    # below the contract tolerance), stopping once progress stalls
    residual = f - m @ c
    best = float(np.max(np.abs(residual)))
    for _ in range(_REFINEMENT_ROUNDS):
        if best <= 4.0 * np.finfo(float).eps * max(scale, 1e-300):
            break
        trial = c + solve(residual)
        trial_residual = f - m @ trial
        trial_norm = float(np.max(np.abs(trial_residual)))
        if trial_norm >= best:
            break
        c, residual, best = trial, trial_residual, trial_norm
    res_inf = best if f.size else 0.0
    if res_inf > residual_tol * max(scale, 1e-300):
        raise NotPositiveDefiniteError(
            f"solution residual {res_inf:.3e} exceeds {residual_tol:.1e} * ||f||; "
            "Gram matrix is numerically singular",
            pivot=0,
        )
    return Interpolant(centers=pts, kernel=kernel, coefficients=c, residual_inf=res_inf)


def evaluate_interpolant(itp: Interpolant, x) -> float | np.ndarray:
    """s(x) = sum_j c_j g(theta(x, x_j)) at one unit vector or a stack of them.

    Non-unit (or NaN) query points raise; there is no silent renormalization.
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
    # query blocks bound the dots and every kernel temporary at block x centers
    for start in range(0, len(q), _QUERY_BLOCK):
        dots = clamp_x(q[start : start + _QUERY_BLOCK] @ itp.centers.points.T)
        # snap last-ulp coincidences onto the pole; cusped profiles would
        # otherwise turn an O(eps) dot error into an O(sqrt(eps)) kernel error
        dots[dots > 1.0 - 4e-15] = 1.0
        vals[start : start + _QUERY_BLOCK] = np.asarray(itp.kernel(dots)) @ itp.coefficients
    return float(vals[0]) if single else vals
