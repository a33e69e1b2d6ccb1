"""Computable evidence for (strict) positive definiteness of zonal kernels.

Schoenberg's characterization makes positive definiteness on S^d equivalent
to nonnegative Gegenbauer coefficients at lambda = (d-1)/2; the CMS cone
(infinitely many positive coefficients of each parity) characterizes strict
positive definiteness for d >= 2, and the CX cone (nonnegative function, all
coefficients positive) is a sufficient condition.  The infinite conditions
are not decidable from a truncation, so `classify` reports evidence up to N
and never claims more; `gram_min_eig` supplies the matrix-side evidence on
concrete point sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gegenbauer import GegenbauerParams, SeriesCoeffs, clamp_x, transform
from .zonal import ZonalKernel

__all__ = [
    "PointSet",
    "ClassificationReport",
    "classify",
    "gram_min_eig",
    "gram_matrix",
    "generate_points",
]

#: Default number of strictly positive coefficients per parity class that
#: counts as evidence for the "infinitely many" conditions.
EVIDENCE_MIN = 10


@dataclass(frozen=True)
class PointSet:
    """n distinct unit vectors in R^(d+1), i.e. points on S^d."""

    d: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d + 1:
            raise ValueError(f"points must have shape (n, {self.d + 1})")
        object.__setattr__(self, "points", pts)
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("all points must be unit vectors within 1e-12")
        if len(pts) > 1 and _max_offdiag_cos(pts) >= 1.0 - 1e-14:
            raise ValueError("point set contains (numerically) coincident points")

    def __len__(self) -> int:
        return len(self.points)

    def min_geodesic_separation(self) -> float:
        if len(self) < 2:
            return float(np.pi)
        return float(np.arccos(_max_offdiag_cos(self.points)))


def _max_offdiag_cos(pts: np.ndarray) -> float:
    """Largest x_i . x_j over i != j (n >= 2), capped at 1; one n x n product."""
    gram = pts @ pts.T
    np.fill_diagonal(gram, -1.0)
    return min(float(np.max(gram)), 1.0)


def generate_points(d: int, n: int, scheme: str = "random_seeded", seed: int = 0) -> PointSet:
    """Deterministic point sets on S^d.

    'random_seeded' draws normalized Gaussians from a seeded generator (any
    d); 'fibonacci_s2' is the quasi-uniform Fibonacci lattice, d = 2 only.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if scheme == "fibonacci_s2":
        if d != 2:
            raise ValueError("the Fibonacci lattice is defined on S^2 only")
        i = np.arange(n)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        lon = 2.0 * np.pi * i / golden
        colat = np.arccos(1.0 - 2.0 * (i + 0.5) / n)
        pts = np.column_stack(
            [np.sin(colat) * np.cos(lon), np.sin(colat) * np.sin(lon), np.cos(colat)]
        )
        return PointSet(d=d, points=pts)
    if scheme != "random_seeded":
        raise ValueError(f"unknown scheme {scheme!r}")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        raw = rng.standard_normal((n, d + 1))
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms < 1e-8):
            continue
        pts = raw / norms[:, None]
        try:
            return PointSet(d=d, points=pts)
        except ValueError:
            continue  # coincident draw; resample
    raise RuntimeError("failed to draw a distinct point set (seed pathologically bad)")


@dataclass(frozen=True)
class ClassificationReport:
    """Coefficient-sign evidence for Schoenberg / CMS / CX membership up to N.

    `expansion` holds the coefficients a_n of f ~ sum a_n C^lam_n;
    `coeff_errors` the per-coefficient quadrature error estimates; a
    coefficient counts as strictly positive only above 10x its estimate.
    """

    params: GegenbauerParams
    truncation: int
    coeffs: SeriesCoeffs
    expansion: np.ndarray
    coeff_errors: np.ndarray
    min_coeff: float
    neg_count: int
    pos_even: int
    pos_odd: int
    f_min_on_grid: float
    tol: float
    schoenberg_up_to_N: bool
    cms_evidence: bool
    cx_evidence: bool
    cms_caveat: str | None = None

    @property
    def flags(self) -> dict:
        return {
            "schoenberg_up_to_N": self.schoenberg_up_to_N,
            "cms_evidence": self.cms_evidence,
            "cx_evidence": self.cx_evidence,
        }

    def to_dict(self) -> dict:
        return {
            "lambda": self.params.lam,
            "truncation": self.truncation,
            "expansion_coeffs": self.expansion.tolist(),
            "coeff_error_estimates": self.coeff_errors.tolist(),
            "min_coeff": self.min_coeff,
            "neg_count": self.neg_count,
            "pos_even": self.pos_even,
            "pos_odd": self.pos_odd,
            "f_min_on_grid": self.f_min_on_grid,
            "tol": self.tol,
            "flags": self.flags,
            "cms_caveat": self.cms_caveat,
        }


def classify(
    f: ZonalKernel,
    params: GegenbauerParams,
    n_max: int,
    tol: float = 1e-10,
    order: int | None = None,
    evidence_min: int = EVIDENCE_MIN,
) -> ClassificationReport:
    """Coefficient scan of f up to degree n_max with honest error estimates.

    Coefficients come from the Fourier-Gegenbauer transform at two quadrature
    orders; their difference estimates the per-coefficient error.  A
    coefficient is treated as strictly positive when it exceeds 10x that
    estimate, and as negative when below -tol.  The CMS/CX flags are evidence
    up to the truncation, never proof of the infinite conditions; on S^1
    (lambda = 0) the CMS condition is necessary but not sufficient and the
    report says so.
    """
    if n_max < 10:
        raise ValueError("classification needs truncation >= 10")
    if order is None:
        order = max(200, 4 * n_max)
    coarse = transform(f, params, n_max, order=order)
    fine = transform(f, params, n_max, order=2 * order)
    scale = float(np.max(np.abs(fine.coeffs))) + 1e-300
    # the 1e-14 floor keeps quadrature roundoff from masquerading as a
    # strictly positive coefficient
    err_hat = np.abs(fine.coeffs - coarse.coeffs) + 1e-14 * scale
    expansion = fine.expansion_coeffs()
    err = SeriesCoeffs(params, err_hat, n_max).expansion_coeffs()

    # a dip narrower than the grid spacing shows at the breakpoints
    bps = np.array(f.interior_breakpoints(), dtype=float)
    grid = np.concatenate([np.linspace(-1.0, 1.0, 2001), bps, np.nextafter(bps, -2.0), np.nextafter(bps, 2.0)])
    f_min = float(np.min(f(grid)))

    neg_count = int(np.sum(expansion < -tol))
    positive = expansion > 10.0 * err
    pos_even = int(np.sum(positive[0::2]))
    pos_odd = int(np.sum(positive[1::2]))
    schoenberg = neg_count == 0
    cms = schoenberg and pos_even >= evidence_min and pos_odd >= evidence_min
    cx = schoenberg and bool(np.all(positive)) and f_min >= -max(tol, 1e-12)
    caveat = None
    if params.lam == 0.0:
        caveat = "necessary-only: CMS coefficients characterize strictness only for d >= 2, not on S^1"
    return ClassificationReport(
        params=params,
        truncation=n_max,
        coeffs=fine,
        expansion=expansion,
        coeff_errors=err,
        min_coeff=float(np.min(expansion)),
        neg_count=neg_count,
        pos_even=pos_even,
        pos_odd=pos_odd,
        f_min_on_grid=f_min,
        tol=tol,
        schoenberg_up_to_N=schoenberg,
        cms_evidence=cms,
        cx_evidence=cx,
        cms_caveat=caveat,
    )


def gram_matrix(f: ZonalKernel, pts: PointSet) -> np.ndarray:
    """M_X = [f(x_i . x_j)]; geodesic distances enter through clamped dots.

    Self-dots of unit vectors equal 1 exactly, so the diagonal is pinned
    there before the kernel is applied: profiles with a sqrt-type cusp at
    x = 1 (every compactly supported family here) would otherwise amplify
    the last-ulp dot error to ~1e-8.
    """
    gram = clamp_x(pts.points @ pts.points.T)
    np.fill_diagonal(gram, 1.0)
    m = np.asarray(f(gram), dtype=float)
    return 0.5 * (m + m.T)


def gram_min_eig(f: ZonalKernel, pts: PointSet) -> float:
    """Smallest eigenvalue of the kernel Gram matrix on the point set."""
    m = gram_matrix(f, pts)
    return float(np.linalg.eigvalsh(m)[0])
