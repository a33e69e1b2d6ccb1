"""Gauss-Legendre panel quadrature shared by every integral in the package.

One cached rule per order, one panel builder and two edge policies on it:
theta panels on [0, pi] split at breakpoints (transform, B_lambda norm) and
circle panels on [-pi, pi] split at kink angles (*_0 and the hop), plus the
adaptive cumulative integral behind the numeric montee.  All pure.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError

__all__ = ["gauss_legendre", "kink_angles", "panel_rule", "theta_rule", "circle_rule", "cumulative_integral"]


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only (shared by every caller)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def kink_angles(kernel) -> list:
    """A kernel's breakpoints pulled back through x = cos(theta)."""
    return [math.acos(float(np.clip(b, -1.0, 1.0))) for b in getattr(kernel, "breakpoints", ())]


def panel_rule(edges, order: int):
    """Nodes and weights of `order`-point GL panels between increasing edges."""
    gl_nodes, gl_weights = gauss_legendre(order)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (hi + lo) + half * gl_nodes)
        weights.append(half * gl_weights)
    return np.concatenate(nodes), np.concatenate(weights)


def theta_rule(breakpoints, lam: float, order: int):
    """x = cos(theta) and dOmega_lam weights of theta panels on [0, pi].

    Panels split at arccos of the breakpoints in [-1, 1].  In theta the
    integrand stays smooth per panel even with sqrt-type behaviour at x = +-1,
    since dOmega_lam pulls back to sin(theta)^(2*lambda) d(theta).
    """
    edges = {0.0, math.pi} | {math.acos(float(b)) for b in breakpoints if -1.0 <= b <= 1.0}
    theta, weights = panel_rule(sorted(edges), order)
    return np.cos(theta), weights * np.sin(theta) ** (2.0 * lam)


def circle_rule(kinks, order: int):
    """GL nodes and weights on [-pi, pi] split at the given angles.

    Angles wrap onto the circle (one at +-pi opens both ends); edges closer
    than 1e-13 merge, and the last panel always ends at +pi.
    """
    edges = [-math.pi, math.pi]
    for t in kinks:
        w = (t + math.pi) % (2.0 * math.pi) - math.pi
        edges.append(w)
        if abs(w) > math.pi - 1e-12:
            edges.append(-math.pi if w > 0 else math.pi)
    edges = np.array(sorted(edges))
    edges = edges[np.concatenate([[True], np.diff(edges) > 1e-13])]
    edges[-1] = math.pi
    return panel_rule(edges, order)


# ---------------------------------------------------------------------------
# adaptive cumulative integral


_MAX_BISECTIONS = 40


def _gl_panel(f, lo: float, hi: float, order: int) -> float:
    nodes, wts = gauss_legendre(order)
    half = 0.5 * (hi - lo)
    return half * float(wts @ f(0.5 * (hi + lo) + half * nodes))


def _adaptive_panel(f, lo: float, hi: float, tol: float, depth: int = 0):
    coarse = _gl_panel(f, lo, hi, 16)
    fine = _gl_panel(f, lo, hi, 32)
    err = abs(fine - coarse)
    # the 1e-18 floor keeps integrable endpoint singularities from chasing
    # sub-roundoff child tolerances; bisection chains are O(depth) long, so
    # the accumulated slack stays far below any practical request
    if err <= max(tol, 1e-18) or hi - lo < 4e-16:
        return fine, err
    if depth >= _MAX_BISECTIONS:
        raise AccuracyError(
            f"adaptive refinement stalled on [{lo}, {hi}]; achieved {err:.3e} > {tol:.3e}",
            achieved=err,
        )
    mid = 0.5 * (lo + hi)
    v1, e1 = _adaptive_panel(f, lo, mid, 0.5 * tol, depth + 1)
    v2, e2 = _adaptive_panel(f, mid, hi, 0.5 * tol, depth + 1)
    return v1 + v2, e1 + e2


def cumulative_integral(f, xs: np.ndarray, tol: float, breakpoints) -> np.ndarray:
    """int_{-1}^{x} f for every x in xs, splitting panels at breakpoints."""
    xs = np.asarray(xs, dtype=float)
    uq, inv = np.unique(xs, return_inverse=True)
    hi = uq[-1]
    cuts = [b for b in breakpoints if -1.0 < b < hi]
    edges = np.unique(np.concatenate([[-1.0], cuts, uq]))
    panel_tol = tol / max(1, len(edges) - 1)
    cum = np.zeros(edges.size)
    for i in range(edges.size - 1):
        val, _ = _adaptive_panel(f, edges[i], edges[i + 1], panel_tol)
        cum[i + 1] = cum[i] + val
    return cum[np.searchsorted(edges, uq)][inv].reshape(xs.shape)
