"""The montee and descente operators between zonal kernels on S^d and S^(d+2).

Montee integrates from -1 ((I f)(x) = int_{-1}^{x} f(u) du) and raises
smoothness while stepping the sphere dimension down by two; descente
differentiates ((D f)(x) = f'(x)) and steps it up by two.  Both are numeric
only, with no analytic shortcut, so they serve as independent oracles
against closed forms, together with exact identities on the Gegenbauer
family and the coefficient-level derivative map.  Both take arrays of x in
batches: the montee refines batches of panels with one kernel call each
(quadrature.cumulative_integral), and the descente runs one Ridders tableau
for all points, one kernel call per column, with flagged one-sided stencils
at and near the guards (breakpoints and x = +-1).

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
    clamp_x,
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
# Ridders-style numerical differentiation, batched over points

_RIDDERS_STEPS = 10
_RIDDERS_SHRINK = 1.4


def _ridders_central(f, x: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """Ridders' extrapolated central difference of f at every x in a 1-D array.

    Column i of the Neville tableau differences with each point's step
    h0 / 1.4^i, and the +-h pairs of every point still running share one
    call of f.  Each point keeps the entry of smallest error estimate and
    stops once its diagonal grows past twice that error; the stopping is a
    mask on the points, and only the previous column is kept.
    """

    def column(xs: np.ndarray, h: np.ndarray) -> np.ndarray:
        fx = f(np.concatenate([xs + h, xs - h]))
        return (fx[: xs.size] - fx[xs.size :]) / (2.0 * h)

    fac0 = _RIDDERS_SHRINK * _RIDDERS_SHRINK
    live = np.arange(x.size)
    prev = column(x, h0)[None]
    ans, err = prev[0].copy(), np.full(x.size, math.inf)
    hh = h0
    for i in range(1, _RIDDERS_STEPS):
        if not live.size:
            break
        hh = hh / _RIDDERS_SHRINK
        cur = np.empty((i + 1, live.size))
        cur[0] = column(x[live], hh[live])
        best, best_err = ans[live], err[live]
        fac = fac0
        for j in range(1, i + 1):
            cur[j] = (cur[j - 1] * fac - prev[j - 1]) / (fac - 1.0)
            fac *= fac0
            errt = np.maximum(np.abs(cur[j] - cur[j - 1]), np.abs(cur[j] - prev[j - 1]))
            better = errt <= best_err
            best, best_err = np.where(better, cur[j], best), np.where(better, errt, best_err)
        ans[live], err[live] = best, best_err
        running = ~(np.abs(cur[i] - prev[i - 1]) >= 2.0 * best_err)
        live, prev = live[running], cur[:, running]
    return ans


def _one_sided(f, x: np.ndarray, h: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """5-point one-sided stencils at every x, Richardson over h and h/2 (O(h^5)).

    Each step size takes one call of f for all points.
    """
    k = np.arange(5.0)[:, None]

    def stencil(step: np.ndarray) -> np.ndarray:
        pts = x + k * (direction * step)
        v = f(pts.ravel()).reshape(pts.shape)
        return direction * (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12.0 * step)

    d1 = stencil(h)
    d2 = stencil(0.5 * h)
    return (16.0 * d2 - d1) / 15.0


@dataclass(frozen=True)
class OperatorImage:
    """Result of applying montee or descente to a zonal kernel, numerically.

    ``value_and_flag`` exposes whether a one-sided stencil was used (at or
    near a registered breakpoint or an end of [-1, 1]); ``flag_fn`` maps an
    array of x to the values and those flags.
    """

    source: ZonalKernel
    op: str
    breakpoints: tuple
    evaluator: Callable
    flag_fn: Callable | None = None

    @on_interval
    def __call__(self, x):
        return np.asarray(self.evaluator(x), dtype=float)

    def value_and_flag(self, x: float):
        """Value at scalar x plus True when it came from a one-sided stencil.

        A numeric descente image answers through the same batched evaluator
        as an array call, on a one-element array.
        """
        if self.flag_fn is None:
            return self(float(x)), False
        value, flag = self.flag_fn(np.atleast_1d(clamp_x(float(x))))
        return float(value[0]), bool(flag[0])

    def as_kernel(self) -> ZonalKernel:
        return ZonalKernel(
            fn=self.evaluator,
            name=f"{self.op}({self.source.name})",
            breakpoints=self.breakpoints,
            support_edge=self.source.support_edge,
        )


def montee_numeric(f: ZonalKernel, tol: float = 1e-10) -> OperatorImage:
    """Cumulative integral (I f)(x) = int_{-1}^{x} f by adaptive quadrature.

    The integration runs in x-space directly, with panels split at the
    kernel's registered breakpoints; Gauss refinement of batched panels, one
    call of f per batch, keeps the absolute error below tol (AccuracyError,
    carrying the achieved bound, after 40 bisections).  The image at x = -1
    is exactly 0.
    """
    bps = f.interior_breakpoints()

    def eval_array(xs: np.ndarray) -> np.ndarray:
        return cumulative_integral(f, xs, tol, bps)

    return OperatorImage(
        source=f,
        op="montee",
        breakpoints=f.breakpoints,
        evaluator=eval_array,
    )


def descente_numeric(f: ZonalKernel, tol: float = 1e-8) -> OperatorImage:
    """Pointwise derivative (D f)(x) = f'(x), always numeric.

    No kernel records its derivative, so the image never depends on how f
    was built.  A Ridders extrapolated central difference (10 columns, step
    h = max(1e-5, 1e-2 sqrt(tol)) shrinking by 1.4) is used, batched over
    all x: one call of f per tableau column, with per-point early stopping
    as a mask.  The guards are the registered interior breakpoints and
    x = +-1.  Within 2h of a guard the first central step would have to
    shrink to half the distance, where roundoff takes over, so the value
    comes from a flagged 5-point one-sided stencil (one call of f per step
    size) instead, pointed away from the nearest guard.  The exception is
    an end the kernel lists in its breakpoints (sqrt-type behaviour there):
    the stencil would reach into that behaviour, so the shrinking central
    step stays.  At a guard itself (within 1e-12 of a breakpoint, 64 ulp of
    +-1) the stencil points towards x = 1 below x = 0.5 and towards -1
    from there on.  A stencil's step is at most 1/16 of the distance to
    the next guard ahead of it, so it never reaches past that guard.
    Below the kernel's support edge f vanishes on an open set, so the image
    is 0 there, even where a stencil at the edge would reach across it.
    """
    bps = np.asarray(sorted(set(f.interior_breakpoints())), dtype=float)
    guards = np.concatenate([bps, [-1.0, 1.0]])
    # an end the kernel registers as a breakpoint has sqrt-type behaviour,
    # rough on the scale of h from either side: the central steps shrink
    # towards it instead of stepping away
    step_away = np.array([True] * bps.size + [-1.0 not in f.breakpoints, 1.0 not in f.breakpoints])
    h_default = max(1e-5, tol ** 0.5 * 1e-2)

    def value_and_flag(xs: np.ndarray):
        x = xs.ravel()
        gap = x[:, None] - guards
        nearest = np.argmin(np.abs(gap), axis=1)
        offset = gap[np.arange(x.size), nearest]
        at_guard = (np.abs(offset) < 64.0 * np.finfo(float).eps) | (
            np.min(np.abs(gap[:, : bps.size]), axis=1, initial=math.inf) < 1e-12
        )
        dist = np.abs(offset)
        flagged = at_guard | ((dist < 2.0 * h_default) & step_away[nearest])
        out = np.empty(x.size)
        central = ~flagged
        if central.any():
            out[central] = _ridders_central(f, x[central], np.minimum(h_default, 0.5 * dist[central]))
        if flagged.any():
            xf = x[flagged]
            direction = np.where(
                at_guard[flagged], np.where(xf < 0.5, 1.0, -1.0), np.where(offset[flagged] > 0.0, 1.0, -1.0)
            )
            # distance to the next guard the stencil heads for; it reaches
            # a quarter of the way there at most
            ahead = -gap[flagged] * direction[:, None]
            room = np.min(np.where(ahead > 1e-12, ahead, math.inf), axis=1)
            out[flagged] = _one_sided(f, xf, np.minimum(h_default, room / 16.0), direction)
        out[x < f.support_edge] = 0.0
        return out.reshape(xs.shape), flagged.reshape(xs.shape)

    return OperatorImage(
        source=f,
        op="descente",
        breakpoints=f.breakpoints,
        evaluator=lambda xs: value_and_flag(xs)[0],
        flag_fn=value_and_flag,
    )


# ---------------------------------------------------------------------------
# exact identities on the Gegenbauer family


def check_D_on_gegenbauer(params: GegenbauerParams, n: int) -> float:
    """Max grid deviation of d/dx C^lam_n - 2 mu_lam C^(lam+1)_(n-1).

    The left side uses the differentiated three-term recurrence, so the two
    sides are computed along independent paths.
    """
    if n < 1:
        raise ValueError("need degree n >= 1")
    up = GegenbauerParams(params.lam + 1.0)
    grid = np.linspace(-1.0, 1.0, 501)
    lhs = eval_gegenbauer_derivative(params, n, grid)
    rhs = 2.0 * mu(params) * np.asarray(eval_gegenbauer(up, n - 1, grid))
    return float(np.max(np.abs(lhs - rhs)))


def check_I_on_gegenbauer(params: GegenbauerParams, n: int) -> float:
    """Max grid deviation of I C^(lam+1)_(n-1) - (C^lam_n - C^lam_n(-1)) / (2 mu_lam)."""
    if n < 1:
        raise ValueError("need degree n >= 1")
    up = GegenbauerParams(params.lam + 1.0)
    image = montee_numeric(gegenbauer_kernel(up, n - 1), tol=1e-12)
    grid = np.linspace(-1.0, 1.0, 501)
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
