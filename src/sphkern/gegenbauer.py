"""Gegenbauer (ultraspherical) polynomials for the weight (1-x^2)^(lambda-1/2).

Evaluation by three-term recurrence, closed-form values at x = 1, the dual
weights of the normalized family W^lam_n = C^lam_n / C^lam_n(1), Gauss
quadrature for the measure dOmega_lam = (1-x^2)^(lambda-1/2) dx, and the
Fourier-Gegenbauer transform / series reconstruction built on top of it.

The index lambda = (d-1)/2 ties the family to the sphere S^d.  lambda = 0 is
handled as an explicit Chebyshev branch, C^0_n = (2/n) T_n for n > 0 and
C^0_0 = 1, rather than by taking numerical limits.

All functions are pure; QuadratureRule and SeriesCoeffs are immutable and
safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .errors import EvaluationError, ResourceLimitError
from .quadrature import check_quad_order, theta_rule

__all__ = [
    "GegenbauerParams",
    "SeriesCoeffs",
    "QuadratureRule",
    "clamp_x",
    "eval_gegenbauer",
    "eval_gegenbauer_derivative",
    "gegenbauer_at_one",
    "weight_w",
    "quadrature_rule",
    "transform",
    "series_eval",
    "moment",
]

#: Inputs this far outside [-1, 1] are clamped; anything further is an error.
X_CLAMP_SLACK = 1e-12

#: Largest lambda (sphere dimension 2001).  The gamma ratios of
#: gegenbauer_at_one and weight_w lose about 2e-15 lambda relative accuracy
#: (2e-12 here), and past 1e5 they overflow or return wrong values.
MAX_LAMBDA = 1000


def clamp_x(x):
    """Snap values within 1e-12 of [-1, 1] back onto the interval.

    Dot products of unit vectors routinely land a few ulp outside; values
    beyond the slack, and NaN, raise ValueError.  A float array already
    inside [-1, 1] is returned as is, and only input in the slack band is
    clipped, as a copy.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = x.min(initial=1.0), x.max(initial=-1.0)  # an empty x is in range
    if not (lo >= -1.0 - X_CLAMP_SLACK and hi <= 1.0 + X_CLAMP_SLACK):  # NaN fails too
        raise ValueError("argument outside [-1, 1] by more than 1e-12")
    return np.clip(x, -1.0, 1.0) if lo < -1.0 or hi > 1.0 else x


def on_interval(fn):
    """Apply the x contract of every zonal-profile evaluator to `fn`.

    x is the last positional parameter and every option after it is
    keyword-only, so an option passed by position raises TypeError instead
    of being taken for x.  The body receives clamp_x(x) as a float array of
    at least one dimension, so it never sees a value outside [-1, 1]; a
    scalar x gets a float back, and an array x gets the body's array of its
    shape.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        *head, x = args
        out = fn(*head, np.atleast_1d(clamp_x(x)), **kwargs)
        return float(out[0]) if np.isscalar(x) else out

    return wrapper


@dataclass(frozen=True)
class GegenbauerParams:
    """Index lambda >= 0 of the ultraspherical family; lambda=(d-1)/2 for S^d."""

    lam: float

    def __post_init__(self):
        if not (self.lam >= 0.0) or not math.isfinite(self.lam):
            raise ValueError(f"lambda must be a finite nonnegative real, got {self.lam}")
        if self.lam > MAX_LAMBDA:
            raise ResourceLimitError(
                f"lambda must be at most {MAX_LAMBDA} (sphere dimension 2001), got {self.lam}"
            )


def _recurrence(lam: float, n_max: int, x: np.ndarray):
    """Yield C^lam_n(x), n = 0..n_max, by the three-term recurrence; T_n at lam = 0.

    Three arrays of x's size are rotated and each step is computed in place
    with the operations, and the order, of the plain recurrence, so no step
    allocates and the values are bit for bit those of the plain expression.
    A yielded array is valid only until the next step: a caller that keeps
    one past it must copy it.
    """
    prev = np.ones_like(x)
    yield prev
    if n_max == 0:
        return
    cur = 2.0 * lam * x if lam > 0.0 else x.copy()
    yield cur
    nxt = np.empty_like(x)
    for n in range(2, n_max + 1):
        if lam > 0.0:
            # (2 (n + lam - 1) x cur - (n + 2 lam - 2) prev) / n
            np.multiply(2.0 * (n + lam - 1.0), x, out=nxt)
            nxt *= cur
            prev *= n + 2.0 * lam - 2.0
            nxt -= prev
            nxt /= n
        else:
            # 2 x cur - prev
            np.multiply(2.0, x, out=nxt)
            nxt *= cur
            nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        yield cur


@on_interval
def eval_gegenbauer(params: GegenbauerParams, n: int, x) -> np.ndarray | float:
    """Evaluate C^lam_n(x) by the three-term recurrence.

    lambda = 0 uses the limit convention C^0_n = (2/n) T_n for n > 0.
    """
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    for out in _recurrence(params.lam, n, x):
        pass
    if params.lam == 0.0 and n > 0:
        out = (2.0 / n) * out
    return out


@on_interval
def eval_gegenbauer_derivative(params: GegenbauerParams, n: int, x) -> np.ndarray | float:
    """d/dx C^lam_n(x) via the differentiated three-term recurrence.

    Independent of the order-raising identity, so it can serve as one side
    of cross-checks against 2*mu*C^(lam+1)_(n-1).
    """
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    lam = params.lam
    if n == 0:
        return np.zeros_like(x)
    if lam == 0.0:
        # T'_n from the differentiated Chebyshev recurrence, scaled by 2/n.
        t_prev, t = np.ones_like(x), x.copy()
        d_prev, d = np.zeros_like(x), np.ones_like(x)
        for _ in range(2, n + 1):
            t_prev, t, d_prev, d = t, 2.0 * x * t - t_prev, d, 2.0 * t + 2.0 * x * d - d_prev
        return (2.0 / n) * d
    c_prev = np.ones_like(x)
    c = 2.0 * lam * x
    d_prev = np.zeros_like(x)
    d = np.full_like(x, 2.0 * lam)
    for k in range(2, n + 1):
        c_new = (2.0 * (k + lam - 1.0) * x * c - (k + 2.0 * lam - 2.0) * c_prev) / k
        d_new = (2.0 * (k + lam - 1.0) * (c + x * d) - (k + 2.0 * lam - 2.0) * d_prev) / k
        c_prev, c, d_prev, d = c, c_new, d, d_new
    return d


def gegenbauer_at_one(params: GegenbauerParams, n: int) -> float:
    """C^lam_n(1), i.e. binom(n + 2*lam - 1, n) for lam > 0, 2/n for lam = 0."""
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    if n == 0:
        return 1.0
    if params.lam == 0.0:
        return 2.0 / n
    # Gamma ratio through log-gamma so n up to ~1e4 cannot overflow.
    return math.exp(gammaln(n + 2.0 * params.lam) - gammaln(2.0 * params.lam) - gammaln(n + 1.0))


def weight_w(params: GegenbauerParams, n: int) -> float:
    """Dual weight w_lam(n): int W^lam_n W^lam_m dOmega_lam = delta_nm / w_lam(n)."""
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    lam = params.lam
    if lam == 0.0:
        return 1.0 / math.pi if n == 0 else 2.0 / math.pi
    log_w = (
        gammaln(lam)
        + math.log(n + lam)
        + gammaln(n + 2.0 * lam)
        - 0.5 * math.log(math.pi)
        - gammaln(lam + 0.5)
        - gammaln(2.0 * lam)
        - gammaln(n + 1.0)
    )
    return math.exp(log_w)


def total_mass(params: GegenbauerParams) -> float:
    """int_{-1}^{1} dOmega_lam = sqrt(pi) Gamma(lam + 1/2) / Gamma(lam + 1)."""
    return math.sqrt(math.pi) * math.exp(gammaln(params.lam + 0.5) - gammaln(params.lam + 1.0))


def moment(params: GegenbauerParams, k: int) -> float:
    """Exact int x^k dOmega_lam; vanishes for odd k (quadrature oracle)."""
    if k % 2 == 1:
        return 0.0
    return math.exp(
        gammaln((k + 1) / 2.0) + gammaln(params.lam + 0.5) - gammaln((k + 2) / 2.0 + params.lam)
    )


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for int f(x) (1-x^2)^(lambda-1/2) dx on [-1, 1].

    Exact for polynomials of degree <= 2*order - 1; nodes strictly increasing,
    weights positive.  Immutable and shareable.
    """

    nodes: np.ndarray
    weights: np.ndarray
    params: GegenbauerParams
    order: int

    def integrate(self, f) -> float:
        """Integrate a callable (or an array of node values) against dOmega."""
        vals = f(self.nodes) if callable(f) else np.asarray(f, dtype=float)
        return float(self.weights @ vals)


def quadrature_rule(params: GegenbauerParams, order: int) -> QuadratureRule:
    """Golub-Welsch rule for the symmetric Jacobi weight alpha=beta=lambda-1/2.

    The Jacobi matrix for this weight has zero diagonal and off-diagonal
    entries sqrt(beta_k) with beta_k = k(k+2a) / ((2k+2a+1)(2k+2a-1)),
    a = lambda - 1/2; the k=1 entry is taken in the cancelled form 1/(3+2a)
    so the Chebyshev case a = -1/2 stays finite.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    check_quad_order(order)
    a = params.lam - 0.5
    mass = total_mass(params)
    if order == 1:
        return QuadratureRule(np.zeros(1), np.array([mass]), params, 1)
    k = np.arange(2.0, order)
    beta = np.empty(order - 1)
    beta[0] = 1.0 / (3.0 + 2.0 * a)  # k = 1 in cancelled form; raw is 0/0 at a = -1/2
    beta[1:] = k * (k + 2.0 * a) / ((2.0 * k + 2.0 * a + 1.0) * (2.0 * k + 2.0 * a - 1.0))
    nodes, vecs = eigh_tridiagonal(np.zeros(order), np.sqrt(beta))
    weights = mass * vecs[0] ** 2
    return QuadratureRule(nodes, weights, params, order)


#: Rows of W^lam_n that transform multiplies at once.  A multiple of the
#: BLAS gemv row grouping, so every row keeps its place in a group and its
#: coefficient is the one a single (N + 1)-row product gives.
_BLOCK_ROWS = 64


def transform(f, params: GegenbauerParams, n_max: int, order: int = 256) -> "SeriesCoeffs":
    """Fourier-Gegenbauer coefficients fhat_lam(n) = int f W^lam_n dOmega, n <= n_max.

    Smooth kernels use the Gauss-Gegenbauer rule directly; kernels that
    declare breakpoints are integrated by Gauss-Legendre panels in theta
    split at the breakpoints.  Either rule takes max(order, n_max + 1) nodes
    (per panel), so no coefficient up to n_max aliases.

    The rows W^lam_n go from the recurrence into a block of _BLOCK_ROWS
    rows, each multiplied by the weighted samples when full, so the working
    memory is O(_BLOCK_ROWS * nodes) at any n_max.  A lone last row joins
    the block before it: numpy takes a one-row product as a dot, which
    rounds differently from the same row in a gemv.
    """
    if n_max < 0:
        raise ValueError("truncation must be nonnegative")
    order = max(order, n_max + 1)
    breakpoints = tuple(getattr(f, "breakpoints", ()))
    if breakpoints:
        x, wq = theta_rule(breakpoints, params.lam, order)
    else:
        rule = quadrature_rule(params, order)
        x, wq = rule.nodes, rule.weights
    fx = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise EvaluationError("kernel produced non-finite samples on the quadrature grid")
    weighted = wq * fx
    coeffs = np.empty(n_max + 1)
    block = np.empty((min(_BLOCK_ROWS + 1, n_max + 1), x.size))
    start = 0
    for n, c in enumerate(_recurrence(params.lam, n_max, x)):
        # W^0_n = T_n, and a division by 1.0 is exact
        np.divide(c, 1.0 if params.lam == 0.0 else gegenbauer_at_one(params, n), out=block[n - start])
        if n == n_max or (n - start == _BLOCK_ROWS - 1 and n + 1 < n_max):
            coeffs[start : n + 1] = block[: n + 1 - start] @ weighted
            start = n + 1
    return SeriesCoeffs(params=params, coeffs=coeffs, truncation=n_max)


@dataclass(frozen=True)
class SeriesCoeffs:
    """Truncated Fourier-Gegenbauer coefficient vector of a zonal function.

    `coeffs[n]` holds fhat_lam(n) for n = 0..truncation; the function is
    reconstructed as sum_n w_lam(n) fhat_lam(n) W^lam_n.
    """

    params: GegenbauerParams
    coeffs: np.ndarray
    truncation: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.truncation < 0:
            raise ValueError(f"truncation must be nonnegative, got {self.truncation}")
        if self.coeffs.shape != (self.truncation + 1,):
            raise ValueError("coefficient vector must have length truncation + 1")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    def weights(self) -> np.ndarray:
        return np.array([weight_w(self.params, n) for n in range(self.truncation + 1)])

    def expansion_coeffs(self) -> np.ndarray:
        """Coefficients a_n of f ~ sum a_n C^lam_n (same signs as fhat)."""
        at_one = np.array([gegenbauer_at_one(self.params, n) for n in range(self.truncation + 1)])
        return self.weights() * self.coeffs / at_one


@on_interval
def series_eval(s: SeriesCoeffs, x) -> np.ndarray | float:
    """Partial sum sum_{n<=N} w_lam(n) fhat(n) W^lam_n(x) for x of any shape
    (Gram matrices included).

    Each term is added through one scratch array as the recurrence yields
    C^lam_n, so the working memory is five arrays of x's size (the sum, the
    scratch and the recurrence's three), whatever N is.
    """
    terms = s.weights() * s.coeffs
    out = np.zeros(x.size)
    term = np.empty(x.size)
    for n, c in enumerate(_recurrence(s.params.lam, s.truncation, x.ravel())):
        np.divide(c, 1.0 if s.params.lam == 0.0 else gegenbauer_at_one(s.params, n), out=term)
        term *= terms[n]
        out += term
    return out.reshape(x.shape)
