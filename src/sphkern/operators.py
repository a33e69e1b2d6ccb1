"""The montee and descente operators between zonal kernels on S^d and S^(d+2).

Montee integrates from -1 ((I f)(x) = int_{-1}^{x} f(u) du) and raises
smoothness while stepping the sphere dimension down by two; descente
differentiates ((D f)(x) = f'(x)) and steps it up by two.  Both are numeric
only, with no analytic shortcut, so they serve as independent oracles
against closed forms, together with exact identities on the Gegenbauer
family and the coefficient-level derivative map.  Both images are built
once, at the call, by one panel builder: Chebyshev series on panels,
bisected until resolved, which montee integrates exactly (on theta panels)
and descente differentiates exactly (on x panels, and on theta panels next
to an end with sqrt-type behaviour).  Evaluating an image never calls the
kernel.

All operations are pure; OperatorImage captures immutable sources and is
safe for concurrent evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebint, chebpts2, chebval, chebvander

from .errors import AccuracyError, EvaluationError
from .gegenbauer import (
    GegenbauerParams,
    SeriesCoeffs,
    eval_gegenbauer,
    eval_gegenbauer_derivative,
    on_interval,
    transform,
    weight_w,
)
from .quadrature import kink_angles
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


@dataclass(frozen=True)
class OperatorImage:
    """Result of applying montee or descente to a zonal kernel, numerically."""

    source: ZonalKernel
    op: str
    breakpoints: tuple
    evaluator: Callable

    @property
    def name(self) -> str:
        return f"{self.op}({self.source.name})"

    @on_interval
    def __call__(self, x):
        return np.asarray(self.evaluator(x), dtype=float)

    def as_kernel(self) -> ZonalKernel:
        return ZonalKernel(
            fn=self.evaluator,
            name=self.name,
            breakpoints=self.breakpoints,
            support_edge=self.source.support_edge,
        )


# ---------------------------------------------------------------------------
# Chebyshev panels, shared by montee and descente

#: Chebyshev-Lobatto points per panel (a degree 32 series)
_CHEB_POINTS = 33
#: panels an image may use before AccuracyError
_MAX_PANELS = 4096
#: a tail that stopped shrinking is roundoff below this fraction of the
#: largest sample (about 4500 eps)
_PLATEAU = 1e-12
#: a descente panel is resolved once its tail is this fraction of the largest sample
_DESCENTE_TAIL = 1e-13
_LOBATTO = chebpts2(_CHEB_POINTS)
# right factors: samples at _LOBATTO -> Chebyshev coefficients -> those of
# int_s^1, and Chebyshev coefficients -> those of the derivative d/ds
_TO_CHEB = np.linalg.inv(chebvander(_LOBATTO, _CHEB_POINTS - 1)).T
_INTEGRATE = chebint(np.eye(_CHEB_POINTS), lbnd=1, scl=-1).T
_DIFFERENTIATE = chebder(np.eye(_CHEB_POINTS)).T


def _panels(sample, edges, weight, error, tol: float, what: str):
    """Chebyshev series on panels between increasing `edges`, bisected until resolved.

    Each round calls ``sample`` once, on the 33 Chebyshev-Lobatto points of
    every open panel (shape (panels, 33)).  Its values must be finite, or
    EvaluationError names ``what``; ``weight`` (None: 1) multiplies them
    after that check.  A panel is kept once ``error(half, tail, scale)`` is
    at most tol, where tail is the larger of its last two coefficients,
    half its half-width and scale the largest weighted sample so far, or
    once its tail stopped shrinking (above a quarter of its parent's) below
    _PLATEAU of scale: roundoff.  Past _MAX_PANELS panels AccuracyError
    carries the largest error of the open panels.  Returns the kept
    panels' lower edges, upper edges and coefficients, sorted by lower edge.
    """
    lo, hi = np.array(edges[:-1], dtype=float), np.array(edges[1:], dtype=float)
    parent_tail = np.full(lo.size, math.inf)
    kept, scale = [], 0.0
    while lo.size:
        half = 0.5 * (hi - lo)
        t = (0.5 * (hi + lo))[:, None] + half[:, None] * _LOBATTO
        vals = np.asarray(sample(t), dtype=float)
        if not np.isfinite(vals).all():
            raise EvaluationError(f"{what}: kernel produced non-finite samples")
        if weight is not None:
            vals = vals * weight(t)
        coeffs = vals @ _TO_CHEB
        tail = np.max(np.abs(coeffs[:, -2:]), axis=1)
        scale = max(scale, float(np.max(np.abs(vals))))
        ok = (error(half, tail, scale) <= tol) | ((tail > 0.25 * parent_tail) & (tail <= _PLATEAU * scale))
        kept.append((lo[ok], hi[ok], coeffs[ok]))
        lo, hi, half, parent_tail = lo[~ok], hi[~ok], half[~ok], tail[~ok]
        if sum(k[0].size for k in kept) + 2 * lo.size > _MAX_PANELS:
            achieved = float(np.max(error(half, parent_tail, scale)))
            raise AccuracyError(f"{what}: over {_MAX_PANELS} panels, achieved {achieved:.3e} > {tol:.3e}", achieved=achieved)
        lo, hi, parent_tail = np.concatenate([lo, lo + half]), np.concatenate([lo + half, hi]), np.tile(parent_tail, 2)
    lo, hi, coeffs = (np.concatenate(part) for part in zip(*kept))
    order = np.argsort(lo)
    return lo[order], hi[order], coeffs[order]


def _on_panels(edges: np.ndarray, coeffs: np.ndarray, t: np.ndarray, side: str):
    """Each t's value of the series of the panel that holds it, and that panel.

    ``edges`` are the panels' lower edges and the last upper edge; at a
    shared edge, side "left" picks the panel below it and "right" the one above.
    """
    p = np.clip(np.searchsorted(edges, t, side=side) - 1, 0, len(coeffs) - 1)
    lo, hi = edges[p], edges[p + 1]
    s = ((t - lo) - (hi - t)) / (hi - lo)
    return chebval(s, np.moveaxis(coeffs[p], -1, 0), tensor=False), p


def montee_numeric(f: ZonalKernel, tol: float = 1e-10) -> OperatorImage:
    """Cumulative integral (I f)(x) = int_{-1}^{x} f, built once on theta panels.

    (I f)(cos theta) = int_theta^pi f(cos phi) sin phi dphi.  [0, pi] is
    split at the kink angles of f, and _panels interpolates the integrand,
    bisecting a panel while pi times its half-width times its tail exceeds
    tol (one call of f per round; past _MAX_PANELS panels AccuracyError
    carries the achieved bound).  The series are integrated exactly and
    summed from pi down, so a value is one Clenshaw sum that never calls f
    and depends on its own x only; at x = -1 it is exactly 0.
    """
    lo, hi, coeffs = _panels(
        lambda phi: f(np.cos(phi)),
        sorted({0.0, math.pi, *kink_angles(f)}),
        np.sin,
        lambda half, tail, scale: math.pi * half * tail,
        tol,
        f"montee of {f.name or 'a kernel'}",
    )
    coeffs = (0.5 * (hi - lo))[:, None] * (coeffs @ _INTEGRATE)
    edges = np.append(lo, math.pi)
    # a panel's total is its series at s = -1; above[p] sums the panels past p
    totals = coeffs @ (-1.0) ** np.arange(_CHEB_POINTS + 1)
    above = np.append(np.cumsum(totals[:0:-1])[::-1], 0.0)

    def evaluate(xs: np.ndarray) -> np.ndarray:
        theta = np.arccos(xs)
        value, p = _on_panels(edges, coeffs, theta, "left")
        # at a panel's upper edge the series is 0: the value is exactly above[p]
        return np.where(theta == edges[p + 1], 0.0, value) + above[p]

    return OperatorImage(source=f, op="montee", breakpoints=f.breakpoints, evaluator=evaluate)


def _derivative_panels(sample, edges, what: str):
    """Panel edges and exact derivative series of sample, resolved to _DESCENTE_TAIL."""
    lo, hi, coeffs = _panels(sample, edges, None, lambda half, tail, scale: tail / (scale or 1.0), _DESCENTE_TAIL, what)
    return np.append(lo, hi[-1]), (coeffs @ _DIFFERENTIATE) / (0.5 * (hi - lo))[:, None]


def _theta_slope(f: ZonalKernel, edges, what: str, sign: float):
    """D f = -g'(theta) / sin theta with g(theta) = f(cos theta), on theta panels.

    ``sign`` is -1 when the panels start at theta = 0 (x = 1) and +1 when
    they end at pi (x = -1); at that pole the value is the limit sign * g''.
    """
    edges, slopes = _derivative_panels(lambda theta: f(np.cos(theta)), edges, what)
    p = 0 if sign < 0.0 else -1  # the panel at the pole, which is its s = sign
    pole = sign * chebval(sign, chebder(slopes[p])) / (0.5 * np.diff(edges)[p])

    def value(x: np.ndarray) -> np.ndarray:
        theta = np.arccos(x)
        at_pole = np.abs(x) == 1.0
        slope = _on_panels(edges, slopes, theta, "right")[0]
        return np.where(at_pole, pole, -slope / np.where(at_pole, 1.0, np.sin(theta)))

    return value


def descente_numeric(f: ZonalKernel) -> OperatorImage:
    """Pointwise derivative (D f)(x) = f'(x), built once on Chebyshev panels.

    No kernel records its derivative, so the image never depends on how f
    was built.  _panels interpolates f on x panels split at its interior
    breakpoints until each tail is 1e-13 of the largest sample or at the
    roundoff plateau, and each series is differentiated exactly.  Next to
    an end that f lists in its breakpoints (sqrt-type behaviour) the panels
    are in theta, where g(theta) = f(cos theta) is smooth:
    D f = -g'(theta) / sin theta, with the limit -+g'' at x = +-1.  With a
    listed end and no interior breakpoint, [-1, 1] is split at 0 first,
    since at a smooth end dividing by sin theta cancels digits.  At an
    interior breakpoint the value is the slope from above; below the
    support edge it is 0.  A value never calls f and depends on its own x
    only.  An end with sqrt-type behaviour that f does not list raises
    AccuracyError, with the achieved tail relative to the largest sample,
    once the build needs over _MAX_PANELS panels.
    """
    what = f"descente of {f.name or 'a kernel'}"
    top, bottom = 1.0 in f.breakpoints, -1.0 in f.breakpoints
    splits = sorted(set(f.interior_breakpoints())) or ([0.0] if top or bottom else [])
    # x panels on [theta_until, theta_from), theta panels past those towards a listed end
    theta_from = splits[-1] if top else math.inf
    theta_until = splits[0] if bottom else -math.inf
    parts = []  # (a, b, value at x in [a, b))
    x_edges = [max(theta_until, -1.0), *[b for b in splits if theta_until < b < theta_from], min(theta_from, 1.0)]
    if x_edges[0] < x_edges[-1]:
        edges, slopes = _derivative_panels(f, x_edges, what)
        parts.append((theta_until, theta_from, lambda x: _on_panels(edges, slopes, x, "right")[0]))
    if top:
        parts.append((theta_from, math.inf, _theta_slope(f, [0.0, math.acos(theta_from)], what, -1.0)))
    if bottom:
        parts.append((-math.inf, theta_until, _theta_slope(f, [math.acos(theta_until), math.pi], what, 1.0)))

    def evaluate(xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape)
        for a, b, value in parts:
            inside = (xs >= max(a, f.support_edge)) & (xs < b)
            out[inside] = value(xs[inside])
        return out

    return OperatorImage(source=f, op="descente", breakpoints=f.breakpoints, evaluator=evaluate)


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
