"""Gauss-Legendre panel quadrature shared by every fixed-rule integral in the package.

One cached rule per order (at most MAX_QUAD_ORDER, the bound that the
Gauss-Gegenbauer rule shares), one panel builder and two edge policies on it:
theta panels on [0, pi] split at breakpoints (transform, B_lambda norm) and
circle panels on [-pi, pi] split at kink angles (*_0 and the hop; the
numeric montee splits its Chebyshev panels at the same angles).  The panel
builder and the circle rule also work row-wise: leading axes of their edges
or kinks are rows, one rule each, which is how *_0 integrates a block of
theta at once (a circle rule pads rows with zero-width panels to one
shape).  All pure.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "MAX_QUAD_ORDER", "check_quad_order", "gauss_legendre", "kink_angles",
    "panel_rule", "theta_rule", "circle_rule",
]

#: Largest order of a Gauss rule.  Both rules build an order x order float64
#: matrix (leggauss's companion matrix, eigh_tridiagonal's eigenvectors),
#: 0.75 GiB at this bound.
MAX_QUAD_ORDER = 10_000


def check_quad_order(order: int) -> None:
    """Raise ResourceLimitError before a Gauss rule of order > MAX_QUAD_ORDER is built."""
    if order > MAX_QUAD_ORDER:
        raise ResourceLimitError(f"quadrature order {order} exceeds {MAX_QUAD_ORDER}")


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only (shared by every caller)."""
    check_quad_order(order)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def kink_angles(kernel) -> list:
    """A kernel's breakpoints pulled back through x = cos(theta)."""
    return [math.acos(float(np.clip(b, -1.0, 1.0))) for b in getattr(kernel, "breakpoints", ())]


def panel_rule(edges, order: int):
    """Nodes and weights of `order`-point GL panels between increasing edges.

    Leading axes of `edges` are rows, each with its own panels: edges of
    shape (..., E) give nodes and weights of shape (..., (E - 1) * order).
    """
    gl_nodes, gl_weights = gauss_legendre(order)
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo) + half * gl_nodes
    flat = edges.shape[:-1] + (-1,)
    return nodes.reshape(flat), (half * gl_weights).reshape(flat)


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

    Angles wrap onto the circle, whose ends +-pi are always edges (an angle
    at +-pi merges into them); edges closer than 1e-13 merge, and the last
    panel always ends at +pi.  Leading axes of `kinks` are rows, one rule
    each (a 1-D input is one row); a merged edge stays as a zero-width
    panel (zero weights), so every row has the same shape.
    """
    w = (np.asarray(kinks, dtype=float) + math.pi) % (2.0 * math.pi) - math.pi
    ends = np.empty(w.shape[:-1] + (2,))
    ends[...] = (-math.pi, math.pi)
    edges = np.sort(np.concatenate([ends, w], axis=-1), axis=-1)
    keep = np.empty(edges.shape, dtype=bool)
    keep[..., 0] = True
    np.greater(edges[..., 1:] - edges[..., :-1], 1e-13, out=keep[..., 1:])
    # each merged edge repeats the last kept one before it
    src = np.maximum.accumulate(np.where(keep, np.arange(edges.shape[-1]), 0), axis=-1)
    edges = np.take_along_axis(edges, src, axis=-1)
    edges[src == src[..., -1:]] = math.pi
    return panel_rule(edges, order)
