"""Zonal convolutions and the dimension-hop evaluation of *_lambda.

The base convolution *_0 is the circle convolution pulled back through
x = cos(theta),

    (f *_0 g)(cos theta) = 1/2 int_{-pi}^{pi} f(cos(theta - t)) g(cos t) dt,

computed by Gauss-Legendre panels (``quadrature.circle_rule``) split at the
integrand's kink angles; the same circle integral also gives every
theta-derivative the hop needs.  Convolutions at integer levels above it are
evaluated through the hop identity

    (f *_(lam+1) g)(x) = (2 lam + 1) D[(I f) *_lam (I g)](x)   a.e.,

unrolled down to *_0; the cumulative factor after m levels is (2m-1)!!.
The differentiations are never done by finite differences: theta-derivatives
of the convolution are distributed onto the factors under the integral sign
(each factor's exact antiderivative ladder supplies the derivatives), and
the x-derivatives are recovered from theta-derivatives by the chain rule
for x = cos(theta).  At the poles x = +-1, where that chain rule
degenerates, the value is the Parseval integral
int f(t) g(+-t) dOmega_(lam+1)(t) on theta panels instead.

For lambda > 0 the transform side is multiplicative, so *_lambda is also
realized as entrywise coefficient products; no explicit product kernel is
implemented.

Everything here is pure and holds no shared mutable state.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import beta, betainc

from .gegenbauer import (
    GegenbauerParams,
    SeriesCoeffs,
    eval_gegenbauer,
    gegenbauer_at_one,
    on_interval,
    series_eval,
    transform,
    weight_w,
)
from .kernels import _TrigPowerSum
from .operators import montee_numeric, mu
from .quadrature import circle_rule, kink_angles, panel_rule, theta_rule
from .zonal import ZonalKernel

__all__ = [
    "cap_indicator",
    "conv0",
    "conv0_kernel",
    "conv_kink_abscissae",
    "conv_lambda_coeffs",
    "dimension_hop_conv",
    "cap_transform",
    "cap_transform_quadrature",
    "cap_montee_selfconv0_closed",
    "conv_property_check",
    "hop_constant",
    "bnorm",
]


# ---------------------------------------------------------------------------
# spherical cap indicators and their antiderivative ladder


def _cap_power(c: float, k: int) -> ZonalKernel:
    # k-fold exact antiderivative of the indicator: (x - c)^k_+ / k!.
    scale = 1.0 / math.factorial(k)
    return ZonalKernel(
        fn=lambda x: scale * (x - c) ** k,  # x - c >= 0, and exactly 0 at the edge
        name=f"I^{k} cap({c:g})",
        breakpoints=(c,),
        antiderivative_fn=lambda: _cap_power(c, k + 1),
        support_edge=c,
    )


def cap_indicator(c: float) -> ZonalKernel:
    """chi_[c,1] as a kernel; its montee ladder is closed-form."""
    if not (-1.0 < c < 1.0):
        raise ValueError(f"cap parameter must lie in (-1, 1), got {c}")
    return ZonalKernel(
        fn=np.ones_like,
        name=f"cap({c:g})",
        breakpoints=(c,),
        antiderivative_fn=lambda: _cap_power(c, 1),
        support_edge=c,
    )


# ---------------------------------------------------------------------------
# *_0 on the circle


#: theta rows per stacked circle integral; bounds the node arrays
#: (rows x panels x order) whatever the number of theta
_THETA_BLOCK = 64


def _circle_conv(fac_a, kinks_a, fac_b, kinks_b, theta: np.ndarray, order: int) -> np.ndarray:
    """(1/2) int fac_a(theta - t) fac_b(t) dt with panel splits at all kinks.

    The factors are functions of the angle; fac_a's kink angles shift by
    theta.  The 1-D array theta goes in blocks of _THETA_BLOCK rows, each
    one row-wise circle rule with its theta-dependent kinks as columns and
    one call of each factor; a row does not depend on the rest of its block.
    """
    # kink columns theta * 0 + (+-u_b) and theta * 1 + (-+u_a), both exact
    slope = np.array([0.0] * (2 * len(kinks_b)) + [1.0] * (2 * len(kinks_a)))
    offset = np.array([v for u in kinks_b for v in (u, -u)] + [v for u in kinks_a for v in (-u, u)])
    out = np.empty(theta.size)
    for lo in range(0, theta.size, _THETA_BLOCK):
        block = theta[lo : lo + _THETA_BLOCK, None]
        t, w = circle_rule(block * slope + offset, order)
        vals = fac_a(block - t) * fac_b(t)
        out[lo : lo + _THETA_BLOCK] = 0.5 * np.matmul(w[:, None, :], vals[:, :, None])[:, 0, 0]
    return out


def _on_circle(kernel):
    return lambda u: np.asarray(kernel(np.cos(u)))


def conv0(F, G, theta, order: int = 64) -> np.ndarray | float:
    """(F *_0 G)(cos theta) by kink-split panel quadrature.

    Kink angles of both factors (breakpoints pulled back through cos, the
    F factor's shifted by theta) bound the panels, which restores spectral
    convergence for piecewise factors.  A scalar theta gives a float, an
    array of theta an array of its shape.
    """
    th = np.asarray(theta, dtype=float)
    out = _circle_conv(_on_circle(F), kink_angles(F), _on_circle(G), kink_angles(G), th.ravel(), order)
    return float(out[0]) if np.isscalar(theta) else out.reshape(th.shape)


def conv_kink_abscissae(F, G) -> tuple:
    """x-abscissae where F *_0 G (or a hop built on it) can lose smoothness.

    These are cos of the pairwise sums/differences of the factors' kink
    angles; comparison grids should exclude them (the hop identity holds
    almost everywhere only).
    """
    uf = kink_angles(F) or [0.0]
    ug = kink_angles(G) or [0.0]
    angles = set()
    for a in uf:
        for b in ug:
            for v in (a + b, a - b, b - a):
                if 0.0 <= v <= math.pi:
                    angles.add(v)
    return tuple(sorted(math.cos(v) for v in angles))


def conv0_kernel(F, G, order: int = 64) -> ZonalKernel:
    """F *_0 G wrapped as a kernel (used for nested convolutions): conv0 at theta = arccos x."""
    return ZonalKernel(
        fn=lambda xs: conv0(F, G, np.arccos(xs), order),
        name=f"({F.name} *0 {G.name})",
        breakpoints=conv_kink_abscissae(F, G),
    )


# ---------------------------------------------------------------------------
# coefficient-space convolution


def conv_lambda_coeffs(fhat: SeriesCoeffs, ghat: SeriesCoeffs) -> SeriesCoeffs:
    """Transform-side *_lambda: entrywise product of the coefficient vectors."""
    if fhat.params != ghat.params:
        raise ValueError("coefficient vectors live at different lambda")
    if fhat.truncation != ghat.truncation:
        raise ValueError("coefficient vectors have different truncation")
    return SeriesCoeffs(
        params=fhat.params,
        coeffs=fhat.coeffs * ghat.coeffs,
        truncation=fhat.truncation,
    )


def hop_constant(params: GegenbauerParams, n: int) -> float:
    """a_(lam, n+1) = C^lam_(n+1)(1) w_(lam+1)(n) / (2 mu_lam C^(lam+1)_n(1) w_lam(n+1)).

    Equals 1/(2 lam + 1) for every lam >= 0 and n >= 0; verified numerically
    by the test suite before the hop machinery relies on it.
    """
    up = GegenbauerParams(params.lam + 1.0)
    return (
        gegenbauer_at_one(params, n + 1)
        * weight_w(up, n)
        / (2.0 * mu(params) * gegenbauer_at_one(up, n) * weight_w(params, n + 1))
    )


# ---------------------------------------------------------------------------
# the hop: exact derivative distribution onto the circle integral


@lru_cache(maxsize=None)
def _theta_derivative_terms(j: int):
    """Terms of (d/du)^j Phi(cos u) as {i: trig polynomial} against Phi's ladder.

    If phi_i denotes the i-th x-derivative of Phi, then
    (d/du)^j Phi(cos u) = sum_i terms[i](u) phi_i(cos u).
    """
    if j == 0:
        return {0: _TrigPowerSum.const(1.0)}
    prev = _theta_derivative_terms(j - 1)
    out = {}
    for i, poly in prev.items():
        d = poly.deriv()
        if d.terms:
            out[i] = out.get(i, _TrigPowerSum()).add(d)
        shift = poly.mul_sin().scale(-1.0)
        out[i + 1] = out.get(i + 1, _TrigPowerSum()).add(shift)
    return out


@lru_cache(maxsize=None)
def _descente_chain_coeffs(m: int):
    """Coefficients of (d/dx)^m in terms of theta-derivatives at x = cos theta.

    Returns {k: N_k} with
    (d/dx)^m H = sum_k N_k(theta) / sin(theta)^(2m - k) * (d/dtheta)^k Htilde.
    """
    if m == 1:
        return {1: _TrigPowerSum.const(-1.0)}
    out = {}
    for k, poly in _descente_chain_coeffs(m - 1).items():
        # -(1/sin) d/dtheta [N / sin^p H^(k)], p = 2(m-1) - k; both parts
        # land on the power 2m - k' of their own index k'
        p = 2 * (m - 1) - k
        keep = poly.deriv().mul_sin().scale(-1.0).add(poly.mul_cos().scale(float(p)))
        out[k] = out.get(k, _TrigPowerSum()).add(keep)
        out[k + 1] = out.get(k + 1, _TrigPowerSum()).add(poly.scale(-1.0))
    return out


def _antiderivative_ladder(kernel: ZonalKernel, m: int) -> list:
    """[I^m f, I^(m-1) f, ..., f]; exact antiderivatives when recorded."""
    ladder = [kernel]
    for _ in range(m):
        nxt = ladder[0].antiderivative()
        if nxt is None:
            nxt = montee_numeric(ladder[0], tol=1e-12).as_kernel()
        ladder.insert(0, nxt)
    return ladder


def _factor_derivative(ladder: list, j: int):
    """Evaluator of (d/du)^j [ladder[0](cos u)] plus its kink angles."""
    terms = _theta_derivative_terms(j)

    def evaluate(u: np.ndarray) -> np.ndarray:
        x = np.cos(u)
        out = np.zeros_like(u, dtype=float)
        for i, poly in terms.items():
            out = out + poly(u) * np.asarray(ladder[i](x))
        return out

    kinks = set()
    for kern in ladder:
        kinks.update(kink_angles(kern))
    return evaluate, sorted(kinks)


@on_interval
def dimension_hop_conv(
    f: ZonalKernel, g: ZonalKernel, params: GegenbauerParams, x, *, order: int = 64
) -> np.ndarray | float:
    """Evaluate (f *_(lam+1) g)(x) through the hop identity, lam = params.lam.

    lam must be a nonnegative integer so the recursion reaches *_0; after m =
    lam + 1 levels the accumulated factor is (2m - 1)!!.  Montee is applied
    m times to each factor, the *_0 convolution is differentiated m times by
    distributing theta-derivatives onto the factors' antiderivative ladders,
    and the chain rule converts to x-derivatives; each split of the chain is
    one circle integral over all theta = arccos x.  At the poles x = +-1,
    where that chain rule degenerates, the value is the Parseval integral
    int f(t) g(+-t) dOmega_(lam+1)(t): the coefficients multiply, the
    normalized W_n take (+-1)^n there and are orthogonal under
    dOmega_(lam+1).  At the finitely many kink abscissae the value is the
    a.e. representative, see conv_kink_abscissae.
    """
    lam = params.lam
    m = int(round(lam)) + 1
    if abs(lam - round(lam)) > 1e-12 or m < 1:
        raise ValueError("hop evaluation needs integer lambda >= 0 to reach the *_0 base")
    out = np.empty(x.shape)
    for pole in (1.0, -1.0):
        at = x == pole
        if at.any():
            breaks = [*getattr(f, "breakpoints", ()), *(pole * b for b in getattr(g, "breakpoints", ()))]
            t, w = theta_rule(breaks, lam + 1.0, order)
            out[at] = w @ (f(t) * g(pole * t))
    inner = np.abs(x) < 1.0
    if not inner.any():
        return out
    dfact = float(math.prod(range(1, 2 * m, 2)))
    ladder_f = _antiderivative_ladder(f, m)
    ladder_g = _antiderivative_ladder(g, m)
    theta = np.arccos(x[inner])
    sin_t = np.sin(theta)
    total = np.zeros(theta.size)
    for k, poly in _descente_chain_coeffs(m).items():
        k1 = (k + 1) // 2
        fa, ka = _factor_derivative(ladder_f, k1)
        fb, kb = _factor_derivative(ladder_g, k - k1)
        total += poly(theta) / sin_t ** (2 * m - k) * _circle_conv(fa, ka, fb, kb, theta, order)
    out[inner] = dfact * total
    return out


# ---------------------------------------------------------------------------
# cap transform


def cap_transform(params: GegenbauerParams, c: float, n: int) -> float:
    """int_c^1 C^lam_n dOmega_lam by the closed form, lam > 0.

    For n >= 1 this is (2 lam / (n (2 lam + n))) (1 - c^2)^(lam + 1/2)
    C^(lam+1)_(n-1)(c).  For n = 0 it is the cap mass
    1/2 B(lam + 1/2, 1/2) I_(1-c^2)(lam + 1/2, 1/2) for c >= 0, reflected to
    B(lam + 1/2, 1/2) minus that for c < 0.
    """
    lam = params.lam
    if lam <= 0.0:
        raise ValueError("the cap transform closed form needs lambda > 0")
    if not (-1.0 < c < 1.0):
        raise ValueError("cap parameter must lie in (-1, 1)")
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    if n == 0:
        full = float(beta(lam + 0.5, 0.5))
        half = 0.5 * full * float(betainc(lam + 0.5, 0.5, 1.0 - c * c))
        return half if c >= 0.0 else full - half
    up = GegenbauerParams(lam + 1.0)
    return (
        2.0
        * lam
        / (n * (2.0 * lam + n))
        * (1.0 - c * c) ** (lam + 0.5)
        * float(eval_gegenbauer(up, n - 1, c))
    )


def cap_transform_quadrature(params: GegenbauerParams, c: float, n: int, order: int = 200) -> float:
    """Direct quadrature of int_c^1 C^lam_n dOmega_lam (oracle route).

    Pulled back to theta in [0, arccos c], where the integrand is smooth for
    every lambda >= 0.
    """
    theta, w = panel_rule((0.0, math.acos(float(np.clip(c, -1.0, 1.0)))), order)
    vals = np.asarray(eval_gegenbauer(params, n, np.cos(theta))) * np.sin(theta) ** (2.0 * params.lam)
    return float(w @ vals)


@on_interval
def cap_montee_selfconv0_closed(s: float, x) -> np.ndarray | float:
    """Closed form of ((I g) *_0 (I g))(x) for the cap g = chi_[cos s, 1].

    Valid on 0 < theta < 2s and zero beyond the support; the hop derivative
    of this function, normalized by a, is N_3.
    """
    c2 = math.cos(2.0 * s)
    val = (
        0.25 * (2.0 * s - np.arccos(x)) * (x + c2 + 1.0)
        - 0.25 * math.sin(2.0 * s) * x
        + 0.25 * (2.0 + c2) * np.sqrt(np.maximum(1.0 - x * x, 0.0))
        - 0.5 * math.sin(2.0 * s)
    )
    return np.where(x > c2, val, 0.0)


# ---------------------------------------------------------------------------
# algebraic property report


def bnorm(kernel, params: GegenbauerParams, order: int = 128) -> float:
    """B_lambda norm: int |f| dOmega_lambda by theta-space panel quadrature."""
    x, w = theta_rule(getattr(kernel, "breakpoints", ()), params.lam, order)
    return float(w @ np.abs(np.asarray(kernel(x))))


def conv_property_check(f, g, h, params: GegenbauerParams, order: int = 96, trunc: int = 30) -> dict:
    """Numerically verify the convolution algebra properties.

    At lambda = 0 the checks run through the direct *_0 integral
    (commutativity, associativity, the norm inequality and transform
    multiplicativity); at lambda > 0 they run in coefficient space, where
    commutativity and associativity reduce to real multiplication, plus a
    norm inequality on the reconstructed convolution.
    """
    report = {}
    if params.lam == 0.0:
        thetas = np.linspace(0.15, math.pi - 0.15, 9)
        fg = conv0_kernel(f, g, order)
        gf = conv0_kernel(g, f, order)
        xs = np.cos(thetas)
        report["commutativity"] = float(np.max(np.abs(fg(xs) - gf(xs))))
        gh = conv0_kernel(g, h, order)
        assoc = np.abs(conv0(fg, h, thetas[::3], order) - conv0(f, gh, thetas[::3], order))
        report["associativity"] = float(np.max(assoc))
        norm_fg = bnorm(fg, params, order)
        norm_f, norm_g = bnorm(f, params, order), bnorm(g, params, order)
        report["norm_lhs"], report["norm_rhs"] = norm_fg, norm_f * norm_g
        report["norm_ok"] = norm_fg <= norm_f * norm_g + 1e-10
        fhat = transform(f, params, trunc, order=order)
        ghat = transform(g, params, trunc, order=order)
        conv_hat = transform(fg, params, trunc, order=order)
        report["transform_multiplicativity"] = float(
            np.max(np.abs(conv_hat.coeffs - fhat.coeffs * ghat.coeffs))
        )
    else:
        fhat = transform(f, params, trunc, order=order)
        ghat = transform(g, params, trunc, order=order)
        hhat = transform(h, params, trunc, order=order)
        fg = conv_lambda_coeffs(fhat, ghat)
        gf = conv_lambda_coeffs(ghat, fhat)
        report["commutativity"] = float(np.max(np.abs(fg.coeffs - gf.coeffs)))
        left = conv_lambda_coeffs(fg, hhat)
        right = conv_lambda_coeffs(fhat, conv_lambda_coeffs(ghat, hhat))
        report["associativity"] = float(np.max(np.abs(left.coeffs - right.coeffs)))
        fg_kernel = ZonalKernel(fn=lambda xs: np.asarray(series_eval(fg, xs)), name="series conv")
        norm_fg = bnorm(fg_kernel, params, order)
        norm_f, norm_g = bnorm(f, params, order), bnorm(g, params, order)
        report["norm_lhs"], report["norm_rhs"] = norm_fg, norm_f * norm_g
        # Truncated reconstructions can overshoot slightly; allow series slack.
        report["norm_ok"] = norm_fg <= norm_f * norm_g + 1e-6 + 0.05 * norm_f * norm_g
        report["transform_multiplicativity"] = 0.0
    return report
