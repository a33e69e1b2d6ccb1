"""Gauss-Legendre panel quadrature shared by every integral in the package.

One cached rule per order (at most MAX_QUAD_ORDER, the bound that the
Gauss-Gegenbauer rule shares), one panel builder and two edge policies on it:
theta panels on [0, pi] split at breakpoints (transform, B_lambda norm) and
circle panels on [-pi, pi] split at kink angles (*_0 and the hop), plus the
adaptive cumulative integral behind the numeric montee, which refines
batches of panels off a last-in-first-out stack.  The panel builder and the
circle rule also work row-wise: leading axes of their edges or kinks are
rows, one rule each, which is how *_0 integrates a block of theta at once
(a circle rule pads rows with zero-width panels to one shape).  All pure.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ResourceLimitError

__all__ = [
    "MAX_QUAD_ORDER", "check_quad_order", "gauss_legendre", "kink_angles",
    "panel_rule", "theta_rule", "circle_rule", "cumulative_integral",
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


# ---------------------------------------------------------------------------
# adaptive cumulative integral


_MAX_BISECTIONS = 40
_BATCH_PANELS = 512


def cumulative_integral(f, xs: np.ndarray, tol: float, breakpoints) -> np.ndarray:
    """int_{-1}^{x} f for every x in xs, splitting panels at breakpoints.

    A panel passes when its 16- and 32-node values agree within its share
    of tol; a failing one is bisected with half that share, and AccuracyError
    is raised after _MAX_BISECTIONS.  Panels wait on a last-in-first-out
    stack and the top _BATCH_PANELS of them share one call of f, so the
    stack grows by at most about _BATCH_PANELS * _MAX_BISECTIONS panels.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(xs.shape)
    uq, inv = np.unique(xs, return_inverse=True)
    cuts = [b for b in breakpoints if -1.0 < b < uq[-1]]
    edges = np.unique(np.concatenate([[-1.0], cuts, uq]))
    n_cells = edges.size - 1
    # one row (lo, hi, tol, output cell, depth) per panel
    stack = np.column_stack(
        [edges[:-1], edges[1:], np.full(n_cells, tol / max(1, n_cells)), np.arange(n_cells), np.zeros(n_cells)]
    )
    nodes = np.concatenate([gauss_legendre(16)[0], gauss_legendre(32)[0]])
    vals = np.zeros(n_cells)
    while stack.size:
        batch, stack = stack[-_BATCH_PANELS:], stack[:-_BATCH_PANELS]
        a, b, t, c, k = batch.T
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        fx = np.asarray(f(mid[:, None] + half[:, None] * nodes), dtype=float)
        coarse = half * (fx[:, :16] @ gauss_legendre(16)[1])
        fine = half * (fx[:, 16:] @ gauss_legendre(32)[1])
        err = np.abs(fine - coarse)
        # the 1e-18 floor keeps integrable endpoint singularities from chasing
        # sub-roundoff child tolerances; bisection chains are O(depth) long, so
        # the accumulated slack stays far below any practical request
        ok = (err <= np.maximum(t, 1e-18)) | (b - a < 4e-16)
        vals += np.bincount(c[ok].astype(int), weights=fine[ok], minlength=n_cells)
        stuck = np.flatnonzero(~ok & (k >= _MAX_BISECTIONS))
        if stuck.size:
            i = stuck[0]
            raise AccuracyError(
                f"adaptive refinement stalled on [{a[i]}, {b[i]}]; achieved {err[i]:.3e} > {t[i]:.3e}",
                achieved=float(err[i]),
            )
        halves = np.repeat(batch[~ok], 2, axis=0)
        halves[0::2, 1] = halves[1::2, 0] = mid[~ok]
        halves[:, 2] *= 0.5
        halves[:, 4] += 1.0
        stack = np.concatenate([stack, halves])
    cum = np.concatenate([[0.0], np.cumsum(vals)])
    return cum[np.searchsorted(edges, uq)][inv].reshape(xs.shape)
