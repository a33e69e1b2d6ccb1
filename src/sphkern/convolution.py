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
degenerates, the x-derivatives are solved from the even theta-derivatives
at theta = 0 or pi.

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
    clamp_x,
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
    deriv = cap_indicator(c) if k == 1 else _cap_power(c, k - 1)
    return ZonalKernel(
        fn=lambda x: scale * np.maximum(x - c, 0.0) ** k,
        name=f"I^{k} cap({c:g})",
        breakpoints=(c,),
        derivative=deriv,
        antiderivative_fn=lambda: _cap_power(c, k + 1),
    )


def cap_indicator(c: float) -> ZonalKernel:
    """chi_[c,1] as a kernel; its montee ladder is closed-form."""
    if not (-1.0 < c < 1.0):
        raise ValueError(f"cap parameter must lie in (-1, 1), got {c}")
    return ZonalKernel(
        fn=lambda x: (x >= c).astype(float),
        name=f"cap({c:g})",
        breakpoints=(c,),
        antiderivative_fn=lambda: _cap_power(c, 1),
    )


# ---------------------------------------------------------------------------
# *_0 on the circle


def _circle_conv(fac_a, kinks_a, fac_b, kinks_b, theta: float, order: int) -> float:
    """(1/2) int fac_a(theta - t) fac_b(t) dt with panel splits at all kinks.

    The factors are functions of the angle; fac_a's kink angles shift by theta.
    """
    kinks = [v for u in kinks_b for v in (u, -u)]
    kinks += [v for u in kinks_a for v in (theta - u, theta + u)]
    t, w = circle_rule(kinks, order)
    return 0.5 * float(w @ (fac_a(theta - t) * fac_b(t)))


def _on_circle(kernel):
    return lambda u: np.asarray(kernel(np.cos(u)))


def conv0(F, G, theta: float, order: int = 64) -> float:
    """(F *_0 G)(cos theta) by kink-split panel quadrature.

    Kink angles of both factors (breakpoints pulled back through cos, the
    F factor's shifted by theta) bound the panels, which restores spectral
    convergence for piecewise factors.
    """
    return _circle_conv(_on_circle(F), kink_angles(F), _on_circle(G), kink_angles(G), theta, order)


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
    """F *_0 G wrapped as a kernel (used for nested convolutions)."""
    return ZonalKernel(
        fn=lambda xs: np.array([conv0(F, G, math.acos(x), order) for x in xs.flat]).reshape(xs.shape),
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


@lru_cache(maxsize=None)
def _theta_taylor_matrix(m: int) -> tuple:
    """M[k][j] with Htilde^(2k)(0) = sum_j M[k][j] H^(j)(1), 1 <= j <= k <= m.

    Built from the Taylor coefficients of (cos theta - 1)^j.
    """
    n_pow = m + 1  # powers of theta^2 retained: theta^0 .. theta^(2m)
    base = np.zeros(n_pow)
    for i in range(1, n_pow):
        base[i] = (-1.0) ** i / math.factorial(2 * i)
    rows = []
    power = np.zeros(n_pow)
    power[0] = 1.0
    powers = []
    for _ in range(m):
        power = np.convolve(power, base)[:n_pow]
        powers.append(power.copy())
    for k in range(1, m + 1):
        row = [math.factorial(2 * k) / math.factorial(j) * powers[j - 1][k] for j in range(1, k + 1)]
        rows.append(tuple(row))
    return tuple(rows)


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


def dimension_hop_conv(f: ZonalKernel, g: ZonalKernel, params: GegenbauerParams, x: float, order: int = 64) -> float:
    """Evaluate (f *_(lam+1) g)(x) through the hop identity, lam = params.lam.

    lam must be a nonnegative integer so the recursion reaches *_0; after m =
    lam + 1 levels the accumulated factor is (2m - 1)!!.  Montee is applied
    m times to each factor, the *_0 convolution is differentiated m times by
    distributing theta-derivatives onto the factors' antiderivative ladders,
    and the chain rule converts to x-derivatives.  At the poles x = +-1, where
    that chain rule degenerates, the x-derivatives are solved from the even
    theta-derivatives at theta = 0 or pi.  At the finitely many kink
    abscissae the value is the a.e. representative, see conv_kink_abscissae.
    """
    lam = params.lam
    m = int(round(lam)) + 1
    if abs(lam - round(lam)) > 1e-12 or m < 1:
        raise ValueError("hop evaluation needs integer lambda >= 0 to reach the *_0 base")
    x = float(clamp_x(x))
    dfact = 1.0
    for j in range(m):
        dfact *= 2.0 * j + 1.0

    ladder_f = _antiderivative_ladder(f, m)
    ladder_g = _antiderivative_ladder(g, m)

    if x == 1.0 or x == -1.0:
        # The chain rule for x = cos(theta) degenerates at the poles; solve
        # the x-derivatives from the even theta-derivatives of Htilde there.
        # At theta = pi the expansion runs in H(-y), flipping alternate signs.
        pole = 0.0 if x == 1.0 else math.pi
        h_theta = []
        for k in range(1, m + 1):
            fa, ka = _factor_derivative(ladder_f, k)
            fb, kb = _factor_derivative(ladder_g, k)
            # the k-k split evaluated at the pole; fa(pole - t) carries the
            # parity of the k-th derivative automatically
            h_theta.append(_circle_conv(fa, ka, fb, kb, pole, order))
        mat = _theta_taylor_matrix(m)
        h_x = []
        for k in range(1, m + 1):
            row = mat[k - 1]
            val = h_theta[k - 1] - sum(row[j - 1] * h_x[j - 1] for j in range(1, k))
            h_x.append(val / row[k - 1])
        if x == 1.0:
            return dfact * h_x[m - 1]
        return dfact * (-1.0) ** m * h_x[m - 1]

    theta = math.acos(x)
    sin_t = math.sin(theta)
    chain = _descente_chain_coeffs(m)
    total = 0.0
    for k, poly in chain.items():
        k1 = (k + 1) // 2
        k2 = k - k1
        fa, ka = _factor_derivative(ladder_f, k1)
        fb, kb = _factor_derivative(ladder_g, k2)
        h_k = _circle_conv(fa, ka, fb, kb, theta, order)
        total += float(poly(theta)) / sin_t ** (2 * m - k) * h_k
    return dfact * total


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
        report["commutativity"] = float(max(abs(fg(math.cos(t)) - gf(math.cos(t))) for t in thetas))
        gh = conv0_kernel(g, h, order)
        assoc = [abs(conv0(fg, h, t, order) - conv0(f, gh, t, order)) for t in thetas[::3]]
        report["associativity"] = float(max(assoc))
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
