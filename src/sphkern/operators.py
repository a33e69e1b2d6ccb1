"""The montee and descente operators between zonal kernels on S^d and S^(d+2).

Montee integrates from -1 ((I f)(x) = int_{-1}^{x} f(u) du) and raises
smoothness while stepping the sphere dimension down by two; descente
differentiates ((D f)(x) = f'(x)) and steps it up by two.  Both are provided
numerically, so they can serve as oracles against closed forms, together
with exact identities on the Gegenbauer family and the coefficient-level
derivative map.

All operations are pure; OperatorImage captures immutable sources and is
safe for concurrent evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gegenbauer import (
    GegenbauerParams,
    SeriesCoeffs,
    eval_gegenbauer,
    eval_gegenbauer_derivative,
    on_interval,
    transform,
    weight_w,
)
from .quadrature import cumulative_integral
from .zonal import ZonalKernel, gegenbauer_kernel

__all__ = [
    "OperatorImage",
    "mu",
    "montee_numeric",
    "descente_numeric",
    "check_D_on_gegenbauer",
    "check_I_on_gegenbauer",
    "coeff_map_derivative",
    "montee_positivity_shift",
]


def mu(params: GegenbauerParams) -> float:
    """Auxiliary index mu_lambda: lambda for lambda > 0, and 1 at lambda = 0."""
    return params.lam if params.lam > 0.0 else 1.0


# ---------------------------------------------------------------------------
# Ridders-style numerical differentiation


def _ridders_central(f, x: float, h0: float, steps: int = 10, shrink: float = 1.4):
    a = np.empty((steps, steps))
    hh = h0
    a[0, 0] = (f(x + hh) - f(x - hh)) / (2.0 * hh)
    ans, err = a[0, 0], math.inf
    for i in range(1, steps):
        hh /= shrink
        a[0, i] = (f(x + hh) - f(x - hh)) / (2.0 * hh)
        fac = shrink * shrink
        for j in range(1, i + 1):
            a[j, i] = (a[j - 1, i] * fac - a[j - 1, i - 1]) / (fac - 1.0)
            fac *= shrink * shrink
            errt = max(abs(a[j, i] - a[j - 1, i]), abs(a[j, i] - a[j - 1, i - 1]))
            if errt <= err:
                err, ans = errt, a[j, i]
        if abs(a[i, i] - a[i - 1, i - 1]) >= 2.0 * err:
            break
    return ans, err


def _one_sided(f, x: float, h: float, direction: float) -> float:
    # 5-point one-sided stencil, Richardson over h and h/2 (O(h^5)).
    def stencil(step: float) -> float:
        s = direction * step
        vals = np.array([f(x + k * s) for k in range(5)])
        return direction * (-25 * vals[0] + 48 * vals[1] - 36 * vals[2] + 16 * vals[3] - 3 * vals[4]) / (12.0 * step)

    d1 = stencil(h)
    d2 = stencil(0.5 * h)
    return (16.0 * d2 - d1) / 15.0


@dataclass(frozen=True)
class OperatorImage:
    """Result of applying montee or descente to a zonal kernel.

    provenance is 'analytic' when an exact fast path was available (a kernel
    that records its derivative), 'numeric' otherwise.  ``value_and_flag``
    exposes whether a one-sided stencil was used at a registered breakpoint.
    """

    source: ZonalKernel
    op: str
    provenance: str
    breakpoints: tuple
    evaluator: Callable
    flag_fn: Callable | None = None

    @on_interval
    def __call__(self, x):
        return np.asarray(self.evaluator(x), dtype=float)

    def value_and_flag(self, x: float):
        """Value at scalar x plus True when it came from a one-sided stencil."""
        if self.flag_fn is not None:
            return self.flag_fn(float(x))
        return self(float(x)), False

    def as_kernel(self) -> ZonalKernel:
        derivative = self.source if self.op == "montee" else None
        return ZonalKernel(
            fn=self.evaluator,
            name=f"{self.op}({self.source.name})",
            breakpoints=self.breakpoints,
            derivative=derivative,
        )


def montee_numeric(f: ZonalKernel, tol: float = 1e-10) -> OperatorImage:
    """Cumulative integral (I f)(x) = int_{-1}^{x} f by adaptive quadrature.

    The integration runs in x-space directly, with panels split at the
    kernel's registered breakpoints; per-panel Gauss refinement keeps the
    absolute error below tol (AccuracyError otherwise, carrying the achieved
    bound).  The image at x = -1 is exactly 0.
    """
    bps = f.interior_breakpoints()

    def eval_array(xs: np.ndarray) -> np.ndarray:
        return cumulative_integral(f, xs, tol, bps)

    return OperatorImage(
        source=f,
        op="montee",
        provenance="numeric",
        breakpoints=f.breakpoints,
        evaluator=eval_array,
    )


def descente_numeric(f: ZonalKernel, tol: float = 1e-8) -> OperatorImage:
    """Pointwise derivative (D f)(x) = f'(x).

    When the kernel records an exact derivative (montee images do) it is
    returned directly with provenance 'analytic'.  Otherwise a Ridders
    extrapolated central difference is used, switching to a flagged
    one-sided stencil at registered breakpoints and at the interval ends.
    """
    if f.derivative is not None:
        return OperatorImage(
            source=f,
            op="descente",
            provenance="analytic",
            breakpoints=f.breakpoints,
            evaluator=f.derivative,
        )

    bps = np.asarray(sorted(set(f.interior_breakpoints())), dtype=float)
    h_default = max(1e-5, tol ** 0.5 * 1e-2)

    def point(x: float):
        guards = np.concatenate([bps, [-1.0, 1.0]])
        dist = np.min(np.abs(guards - x)) if guards.size else math.inf
        at_break = bps.size and np.min(np.abs(bps - x)) < 1e-12
        if at_break or dist < 64.0 * np.finfo(float).eps:
            direction = 1.0 if x < 0.5 else -1.0
            room = (1.0 - x) if direction > 0 else (x + 1.0)
            h = min(h_default, room / 16.0)
            return _one_sided(f, x, h, direction), True
        h0 = min(h_default, 0.5 * dist)
        val, _ = _ridders_central(f, x, h0)
        return val, False

    def eval_array(xs: np.ndarray) -> np.ndarray:
        return np.array([point(float(x))[0] for x in xs.flat]).reshape(xs.shape)

    return OperatorImage(
        source=f,
        op="descente",
        provenance="numeric",
        breakpoints=f.breakpoints,
        evaluator=eval_array,
        flag_fn=point,
    )


# ---------------------------------------------------------------------------
# exact identities on the Gegenbauer family


def check_D_on_gegenbauer(params: GegenbauerParams, n: int, grid_size: int = 501) -> float:
    """Max grid deviation of d/dx C^lam_n - 2 mu_lam C^(lam+1)_(n-1).

    The left side uses the differentiated three-term recurrence, so the two
    sides are computed along independent paths.
    """
    if n < 1:
        raise ValueError("need degree n >= 1")
    up = GegenbauerParams(params.lam + 1.0)
    grid = np.linspace(-1.0, 1.0, grid_size)
    lhs = eval_gegenbauer_derivative(params, n, grid)
    rhs = 2.0 * mu(params) * np.asarray(eval_gegenbauer(up, n - 1, grid))
    return float(np.max(np.abs(lhs - rhs)))


def check_I_on_gegenbauer(params: GegenbauerParams, n: int, grid_size: int = 501) -> float:
    """Max grid deviation of I C^(lam+1)_(n-1) - (C^lam_n - C^lam_n(-1)) / (2 mu_lam)."""
    if n < 1:
        raise ValueError("need degree n >= 1")
    up = GegenbauerParams(params.lam + 1.0)
    image = montee_numeric(gegenbauer_kernel(up, n - 1), tol=1e-12)
    grid = np.linspace(-1.0, 1.0, grid_size)
    c_n = np.asarray(eval_gegenbauer(params, n, grid))
    c_at_minus1 = eval_gegenbauer(params, n, -1.0)
    rhs = (c_n - c_at_minus1) / (2.0 * mu(params))
    return float(np.max(np.abs(image(grid) - rhs)))


def coeff_map_derivative(a: SeriesCoeffs) -> SeriesCoeffs:
    """Coefficient-level descente: b_(n-1) = 2 mu_lam a_n.

    Maps expansion coefficients of f against C^lam_n onto those of f'
    against C^(lam+1)_n; the truncation drops by one and the constant term
    of f is discarded.
    """
    if a.truncation < 1:
        raise ValueError("coefficient vector must reach degree 1")
    factor = 2.0 * mu(a.params)
    return SeriesCoeffs(
        params=GegenbauerParams(a.params.lam + 1.0),
        coeffs=factor * a.coeffs[1:],
        truncation=a.truncation - 1,
    )


def montee_positivity_shift(f: ZonalKernel, params: GegenbauerParams, order: int = 256) -> float:
    """Smallest C >= 0 such that C + I f has a nonnegative constant coefficient.

    Integration shifts every positive-degree coefficient sign-consistently,
    so only the degree-0 coefficient of I f can go negative; the shift is
    max(0, -a_0) with a_0 = w_lam(0) * (I f)hat_lam(0).
    """
    image = montee_numeric(f, tol=1e-12)
    fhat0 = transform(image.as_kernel(), params, 0, order=order).coeffs[0]
    a0 = weight_w(params, 0) * fhat0
    return max(0.0, -float(a0))
