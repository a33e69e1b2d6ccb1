"""The ZonalKernel value object shared by every module.

A zonal kernel on S^d is represented by its profile f on [-1, 1]; the kernel
value between points x, y on the sphere is f(x . y) = f(cos geodesic).
Calling a kernel applies the package's x rule (gegenbauer.on_interval), so
``fn`` always receives a clamped float array of at least one dimension.

Kernels carry structural metadata used throughout the package:

* ``breakpoints`` -- abscissae in [-1, 1] where smoothness breaks (knots of
  compact supports, jumps of indicators).  Quadratures split there.  The
  endpoint 1.0 is listed when the profile has sqrt-type behaviour at x = 1
  (equivalently a kink at theta = 0 of the pulled-back profile).
* ``derivative`` -- the exact a.e. derivative when it is known, e.g. when the
  kernel was built as an antiderivative.  The descente operator uses this as
  an analytic fast path.
* ``antiderivative_fn`` -- factory returning the exact cumulative integral
  from -1 when one is known: every truncated power and montee iterate (one
  exact montee algebra) and every cap indicator power records it.  Kernels
  without one (N_d, series) fall back to numeric montee quadrature.

Kernels are immutable and evaluation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .gegenbauer import eval_gegenbauer, gegenbauer_at_one, on_interval

__all__ = ["ZonalKernel", "constant_kernel", "zero_kernel", "gegenbauer_kernel"]


@dataclass(frozen=True)
class ZonalKernel:
    """An evaluable zonal profile f: [-1, 1] -> R."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    breakpoints: tuple = ()
    derivative: Optional["ZonalKernel"] = None
    antiderivative_fn: Optional[Callable[[], "ZonalKernel"]] = field(default=None, repr=False)
    descriptor: Optional[dict] = None

    @on_interval
    def __call__(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def interior_breakpoints(self) -> tuple:
        return tuple(b for b in self.breakpoints if -1.0 < b < 1.0)

    def antiderivative(self) -> Optional["ZonalKernel"]:
        """Exact int_{-1}^{x} f, or None when no closed form is recorded."""
        return self.antiderivative_fn() if self.antiderivative_fn is not None else None


def constant_kernel(c: float, name: str = "") -> ZonalKernel:
    return ZonalKernel(fn=lambda x: np.full_like(x, float(c)), name=name or f"const({c})")


def zero_kernel() -> ZonalKernel:
    return constant_kernel(0.0, name="zero")


def gegenbauer_kernel(params, n: int, normalized: bool = False) -> ZonalKernel:
    """C^lam_n (or W^lam_n when normalized) wrapped as a smooth kernel."""
    scale = 1.0 / gegenbauer_at_one(params, n) if normalized else 1.0
    tag = "W" if normalized else "C"
    return ZonalKernel(
        fn=lambda x: scale * np.asarray(eval_gegenbauer(params, n, x)),
        name=f"{tag}[{params.lam}]_{n}",
    )
