"""The ZonalKernel value object shared by every module.

A zonal kernel on S^d is represented by its profile f on [-1, 1]; the kernel
value between points x, y on the sphere is f(x . y) = f(cos geodesic).
Calling a kernel applies the package's input rules once, so each family
keeps only its formula: x is clamped into [-1, 1] (gegenbauer.on_interval),
and x < ``support_edge`` gives 0 with no call of ``fn``.  ``fn`` is the
profile on [support_edge, 1]; input wholly inside the support reaches it as
the clamped array itself, which it must not write to.  At x == edge a
continuous profile returns exactly 0.0, an indicator 1.0.

Kernels carry structural metadata used throughout the package:

* ``breakpoints`` -- abscissae in [-1, 1] where smoothness breaks (knots of
  compact supports, jumps of indicators).  Quadratures split there.  The
  endpoint 1.0 is listed when the profile has sqrt-type behaviour at x = 1
  (equivalently a kink at theta = 0 of the pulled-back profile).
* ``antiderivative_fn`` -- factory returning the exact cumulative integral
  from -1 when one is known: every truncated power and montee iterate (one
  exact montee algebra) and every cap indicator power records it.  Kernels
  without one (N_d, series) fall back to numeric montee quadrature.
* ``support_edge`` -- f(x) = 0 for every x < edge (cos 2s for N_d, cos t
  for f_m and I^k f_m); the default -1 means no local support.

Kernels are immutable and evaluation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .gegenbauer import eval_gegenbauer, on_interval

__all__ = ["ZonalKernel", "constant_kernel", "gegenbauer_kernel"]


@dataclass(frozen=True)
class ZonalKernel:
    """An evaluable zonal profile f: [-1, 1] -> R."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    breakpoints: tuple = ()
    antiderivative_fn: Optional[Callable[[], "ZonalKernel"]] = field(default=None, repr=False)
    descriptor: Optional[dict] = None
    support_edge: float = -1.0

    @on_interval
    def __call__(self, x):
        edge = self.support_edge
        if edge > -1.0 and x.min(initial=edge) < edge:
            out = np.zeros(x.shape)
            inside = x >= edge
            out[inside] = self.fn(x[inside])
            return out
        return np.asarray(self.fn(x), dtype=float)

    def interior_breakpoints(self) -> tuple:
        return tuple(b for b in self.breakpoints if -1.0 < b < 1.0)

    def antiderivative(self) -> Optional["ZonalKernel"]:
        """Exact int_{-1}^{x} f, or None when no closed form is recorded."""
        return self.antiderivative_fn() if self.antiderivative_fn is not None else None


def constant_kernel(c: float, name: str = "") -> ZonalKernel:
    return ZonalKernel(fn=lambda x: np.full_like(x, float(c)), name=name or f"const({c})")


def gegenbauer_kernel(params, n: int) -> ZonalKernel:
    """C^lam_n wrapped as a smooth kernel."""
    return ZonalKernel(fn=lambda x: np.asarray(eval_gegenbauer(params, n, x)), name=f"C[{params.lam}]_{n}")
