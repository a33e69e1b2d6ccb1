"""Convolution tests: the *_0 integral, coefficient products, the hop
identity against printed constants and series reconstructions, the cap
transform, and the algebra properties."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import roots_gegenbauer

import sphkern.convolution
from sphkern.convolution import (
    cap_indicator,
    cap_montee_selfconv0_closed,
    cap_transform,
    cap_transform_quadrature,
    conv0,
    conv0_kernel,
    conv_kink_abscissae,
    conv_lambda_coeffs,
    conv_property_check,
    dimension_hop_conv,
    hop_constant,
    _cap_power,
    _THETA_BLOCK,
)
from sphkern.gegenbauer import GegenbauerParams, SeriesCoeffs, series_eval, transform, weight_w
from sphkern.kernels import CapConvKernel, MonteeIterate, TruncatedPower, kernel_from_descriptor
from sphkern.operators import montee_numeric
from sphkern.quadrature import circle_rule
from sphkern.zonal import ZonalKernel, constant_kernel, gegenbauer_kernel

P0 = GegenbauerParams(0.0)
P1 = GegenbauerParams(1.0)
P2 = GegenbauerParams(2.0)


def printed_a_value(m: int, s: float) -> float:
    """(g *_m g)(1) closed forms, m = 1..4."""
    c, sn = math.cos(s), math.sin(s)
    if m == 1:
        return 0.5 * s - 0.25 * math.sin(2 * s)
    if m == 2:
        return 0.25 * sn * c**3 - (5 / 8) * sn * c + (3 / 8) * s
    if m == 3:
        return (5 / 16) * s - (11 / 16) * sn * c + (13 / 24) * sn * c**3 - (1 / 6) * sn * c**5
    return (
        (35 / 128) * s
        - (93 / 128) * sn * c
        + (163 / 192) * sn * c**3
        - (25 / 48) * sn * c**5
        + (1 / 8) * sn * c**7
    )


class TestCapFunction:
    # the cap function chi_[c,1], built by cap_indicator
    def test_indicator_values(self):
        chi = cap_indicator(0.3)
        assert chi(0.5) == 1.0
        assert chi(0.3) == 1.0
        assert chi(0.1) == 0.0

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            cap_indicator(1.0)


class TestConv0:
    def test_constants(self):
        one = constant_kernel(1.0)
        for theta in (0.0, 1.0, 2.5):
            assert conv0(one, one, theta) == pytest.approx(math.pi, rel=1e-13)

    def test_disjoint_supports_vanish(self):
        s = math.pi / 4
        ig = _cap_power(math.cos(s), 1)
        for theta in (2 * s + 0.05, 2.5, 3.0):
            assert conv0(ig, ig, theta) == pytest.approx(0.0, abs=1e-15)

    def test_printed_closed_form_at_one(self):
        s = math.pi / 4
        ig = _cap_power(math.cos(s), 1)
        want = 0.25 * (2 * s) * (2 + math.cos(2 * s)) - 0.25 * math.sin(2 * s) - 0.5 * math.sin(2 * s)
        assert conv0(ig, ig, 0.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("s", (math.pi / 6, math.pi / 4, math.pi / 3))
    def test_matches_closed_form_on_grid(self, s):
        ig = _cap_power(math.cos(s), 1)
        for theta in np.linspace(0.0, math.pi, 31):
            got = conv0(ig, ig, float(theta), order=64)
            assert got == pytest.approx(float(cap_montee_selfconv0_closed(s, math.cos(theta))), abs=1e-12)

    def test_kink_abscissae(self):
        ig = _cap_power(math.cos(math.pi / 4), 1)
        kinks = conv_kink_abscissae(ig, ig)
        assert math.cos(math.pi / 2) == pytest.approx(min(kinks), abs=1e-15)
        assert 1.0 in kinks


class CallCount:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def counted(kernel):
    fn = CallCount(kernel.fn)
    return ZonalKernel(fn=fn, breakpoints=kernel.breakpoints), fn


U_F, U_G = 0.7, 1.9  # kink angles of the two factors below
STACK_THETAS = np.concatenate(
    [
        [0.0, math.pi, U_F + U_G, U_G - U_F],
        # theta + U_F within 5e-14 of pi (merging with the end), and past it (wrapping)
        [math.pi - U_F - 5e-14, math.pi - U_F + 5e-14, 2.9, math.pi - 0.1],
        np.linspace(0.0, math.pi, 150),
    ]
)


class TestStackedConv0:
    @pytest.mark.parametrize("order", [16, 64])
    def test_matches_per_theta_conv0(self, order):
        F, G = _cap_power(math.cos(U_F), 1), cap_indicator(math.cos(U_G))
        xs = np.cos(STACK_THETAS)
        got = conv0_kernel(F, G, order)(xs)
        want = np.array([conv0(F, G, t, order) for t in np.arccos(xs)])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_conv0_over_an_array_is_the_per_theta_calls(self):
        F, G = _cap_power(math.cos(U_F), 1), cap_indicator(math.cos(U_G))
        got = conv0(F, G, STACK_THETAS.reshape(2, -1))
        assert got.shape == (2, STACK_THETAS.size // 2)
        assert type(conv0(F, G, 0.3)) is float
        assert np.array_equal(got.ravel(), [conv0(F, G, float(t)) for t in STACK_THETAS])

    def test_each_factor_called_once_per_block(self):
        F, f_calls = counted(_cap_power(math.cos(U_F), 1))
        G, g_calls = counted(_cap_power(math.cos(U_G), 2))
        n = STACK_THETAS.size
        conv0_kernel(F, G)(np.cos(STACK_THETAS).reshape(2, -1))
        assert f_calls.calls == g_calls.calls == -(-n // _THETA_BLOCK)


def every_node_circle_conv(fac_a, kinks_a, fac_b, kinks_b, theta, order):
    """_circle_conv as it was before the support skip: both factors on every
    node, then one product.  The reference the skip must match bit for bit."""
    slope = np.array([0.0] * (2 * len(kinks_b)) + [1.0] * (2 * len(kinks_a)))
    offset = np.array([v for u in kinks_b for v in (u, -u)] + [v for u in kinks_a for v in (-u, u)])
    out = np.empty(theta.size)
    for lo in range(0, theta.size, _THETA_BLOCK):
        block = theta[lo : lo + _THETA_BLOCK, None]
        t, w = circle_rule(block * slope + offset, order)
        vals = fac_a(block - t) * fac_b(t)
        out[lo : lo + _THETA_BLOCK] = 0.5 * np.matmul(w[:, None, :], vals[:, :, None])[:, 0, 0]
    return out


def on_every_node(monkeypatch, compute):
    with monkeypatch.context() as patch:
        patch.setattr(sphkern.convolution, "_circle_conv", every_node_circle_conv)
        return compute()


SKIP_THETAS = np.concatenate([np.linspace(0.0, math.pi, 201), STACK_THETAS])
CAPS = {c: cap_indicator(c) for c in (0.5, 0.0, -0.3)}
SKIP_PAIRS = {
    **{f"cap({a:g})*cap({b:g})": (CAPS[a], CAPS[b]) for a in CAPS for b in CAPS},
    "capI1*capI2": (_cap_power(0.5, 1), _cap_power(-0.3, 2)),
    "capI3*cap": (_cap_power(0.0, 3), CAPS[0.5]),
    "f2*f3": (TruncatedPower(2, 1.0).as_kernel(), TruncatedPower(3, 2.5).as_kernel()),
    "f4*cap": (TruncatedPower(4, 0.5).as_kernel(), CAPS[-0.3]),
    "I2f4*If3": (MonteeIterate(TruncatedPower(4, 1.0), 2).as_kernel(), MonteeIterate(TruncatedPower(3, 2.0), 1).as_kernel()),
    "N3*N5": (CapConvKernel(3, 0.5).as_kernel(), CapConvKernel(5, math.pi / 4).as_kernel()),
    "N3*f2": (CapConvKernel(3, 1.2).as_kernel(), TruncatedPower(2, 0.3).as_kernel()),
}


def spy_circle_conv(monkeypatch):
    """Record, per call of _circle_conv, theta and every call of both factors."""
    calls = []
    real = sphkern.convolution._circle_conv

    def spy(fac_a, kinks_a, fac_b, kinks_b, theta, order):
        seen = {"theta": theta, "a": [], "b": []}
        calls.append(seen)

        def rec_a(u):
            seen["a"].append(u.copy())
            return fac_a(u)

        def rec_b(t):
            out = fac_b(t)
            seen["b"].append((t.copy(), out.copy()))
            return out

        return real(rec_a, kinks_a, rec_b, kinks_b, theta, order)

    monkeypatch.setattr(sphkern.convolution, "_circle_conv", spy)
    return calls


class TestSupportSkip:
    """fac_a is evaluated only where fac_b is nonzero, and nothing moves."""

    @pytest.mark.parametrize("pair", SKIP_PAIRS.values(), ids=SKIP_PAIRS.keys())
    def test_conv0_is_bitwise_the_every_node_product(self, pair, monkeypatch):
        F, G = pair
        want = on_every_node(monkeypatch, lambda: conv0(F, G, SKIP_THETAS))
        assert np.array_equal(conv0(F, G, SKIP_THETAS), want)

    @pytest.mark.parametrize("lam", (0.0, 1.0, 2.0, 3.0))
    @pytest.mark.parametrize(
        "pair",
        [
            (CAPS[0.5], CAPS[0.5]),
            (CAPS[0.0], CAPS[-0.3]),
            (TruncatedPower(2, 1.0).as_kernel(), TruncatedPower(2, 1.0).as_kernel()),
            (TruncatedPower(2, 1.0).as_kernel(), CAPS[0.5]),
        ],
        ids=["cap*cap", "cap*cap2", "f2*f2", "f2*cap"],
    )
    def test_hop_with_exact_ladders_is_bitwise_the_every_node_product(self, pair, lam, monkeypatch):
        f, g = pair
        p = GegenbauerParams(lam)
        xs = np.concatenate([[1.0, -1.0], np.cos((np.arange(101) + 0.5) * math.pi / 101)])
        want = on_every_node(monkeypatch, lambda: dimension_hop_conv(f, g, p, xs))
        assert np.array_equal(dimension_hop_conv(f, g, p, xs), want)

    @pytest.mark.parametrize("pair", [SKIP_PAIRS["capI1*capI2"], SKIP_PAIRS["N3*N5"]], ids=["caps", "N_d"])
    def test_fac_a_gets_exactly_the_nodes_where_fac_b_is_nonzero(self, pair, monkeypatch):
        calls = spy_circle_conv(monkeypatch)
        conv0(*pair, SKIP_THETAS)
        (seen,) = calls
        skipped = 0
        for i, ((t, b_vals), u) in enumerate(zip(seen["b"], seen["a"], strict=True)):
            block = seen["theta"][i * _THETA_BLOCK : (i + 1) * _THETA_BLOCK, None]
            live = b_vals != 0.0
            assert np.array_equal(u, (block - t)[live] if not live.all() else block - t)
            skipped += np.count_nonzero(~live)
        assert skipped > 0

    def test_fac_a_gets_every_node_when_fac_b_has_no_support(self, monkeypatch):
        calls = spy_circle_conv(monkeypatch)
        conv0(CAPS[0.5], ZonalKernel(fn=np.exp), SKIP_THETAS)
        (seen,) = calls
        for i, ((t, _), u) in enumerate(zip(seen["b"], seen["a"], strict=True)):
            block = seen["theta"][i * _THETA_BLOCK : (i + 1) * _THETA_BLOCK, None]
            assert u.shape == t.shape
            assert np.array_equal(u, block - t)


EDGE_FACTORS = {
    "cap(0.4)": cap_indicator(math.cos(0.4)),
    "cap(0.9)": cap_indicator(math.cos(0.9)),
    "cap(1.6)": cap_indicator(math.cos(1.6)),
    "capI2(0.7)": _cap_power(math.cos(0.7), 2),
    "f2(1.0)": TruncatedPower(2, 1.0).as_kernel(),
    "I2f4(1.3)": MonteeIterate(TruncatedPower(4, 1.3), 2).as_kernel(),
    "N3(0.5)": CapConvKernel(3, 0.5).as_kernel(),
}
EDGE_PAIRS = {f"{a}*{b}": (EDGE_FACTORS[a], EDGE_FACTORS[b]) for a in EDGE_FACTORS for b in EDGE_FACTORS}


class TestConv0KernelEdge:
    @pytest.mark.parametrize(
        "F, G, a, b",
        [
            (EDGE_FACTORS["cap(0.4)"], EDGE_FACTORS["cap(0.9)"], 0.4, 0.9),
            (EDGE_FACTORS["cap(0.4)"], EDGE_FACTORS["capI2(0.7)"], 0.4, 0.7),
            (EDGE_FACTORS["f2(1.0)"], EDGE_FACTORS["cap(0.9)"], 1.0, 0.9),
        ],
        ids=["caps", "cap power", "f_m"],
    )
    def test_edge_is_the_cosine_of_the_angle_sum(self, F, G, a, b):
        edge = conv0_kernel(F, G).support_edge
        assert edge == math.cos(math.acos(F.support_edge) + math.acos(G.support_edge))
        assert edge == pytest.approx(math.cos(a + b), abs=1e-15)

    @pytest.mark.parametrize(
        "F, G",
        [
            (cap_indicator(math.cos(2.0)), cap_indicator(math.cos(1.5))),
            (cap_indicator(0.0), cap_indicator(0.0)),  # a + b = pi
            (kernel_from_descriptor({"family": "series", "coeffs": [1.0, 0.5], "lambda": 1.0}), EDGE_FACTORS["cap(0.4)"]),
            (EDGE_FACTORS["cap(0.4)"], montee_numeric(EDGE_FACTORS["f2(1.0)"])),
        ],
        ids=["sum past pi", "sum at pi", "series", "OperatorImage"],
    )
    def test_no_edge_once_the_angles_reach_pi(self, F, G):
        assert conv0_kernel(F, G).support_edge == -1.0

    @pytest.mark.parametrize("pair", EDGE_PAIRS.values(), ids=EDGE_PAIRS.keys())
    def test_values_are_bitwise_the_unwrapped_conv0(self, pair):
        F, G = pair
        kernel = conv0_kernel(F, G)
        edge = kernel.support_edge
        around = [edge]
        for step in (-2.0, 2.0):
            x = edge
            for _ in range(40):
                x = np.nextafter(x, step)
                around.append(x)
        xs = np.clip(np.concatenate([np.linspace(-1.0, 1.0, 201), around]), -1.0, 1.0)
        assert np.array_equal(kernel(xs), conv0(F, G, np.arccos(xs)))


class TestConvLambdaCoeffs:
    def test_constant_factor_scales_degree_zero(self):
        fhat = SeriesCoeffs(params=P1, coeffs=np.array([2.0, 3.0, 4.0]), truncation=2)
        ghat = SeriesCoeffs(params=P1, coeffs=np.array([5.0, 0.0, 0.0]), truncation=2)
        out = conv_lambda_coeffs(fhat, ghat)
        assert np.allclose(out.coeffs, [10.0, 0.0, 0.0])

    def test_multiplicativity_squares(self):
        e2 = SeriesCoeffs(params=P1, coeffs=np.array([0.0, 0.0, 1 / weight_w(P1, 2)]), truncation=2)
        out = conv_lambda_coeffs(e2, e2)
        assert out.coeffs[2] == pytest.approx(1 / weight_w(P1, 2) ** 2)

    def test_lambda_mismatch_rejected(self):
        fhat = SeriesCoeffs(params=P1, coeffs=np.zeros(3), truncation=2)
        ghat = SeriesCoeffs(params=P2, coeffs=np.zeros(3), truncation=2)
        with pytest.raises(ValueError):
            conv_lambda_coeffs(fhat, ghat)

    def test_truncation_mismatch_rejected(self):
        fhat = SeriesCoeffs(params=P1, coeffs=np.zeros(3), truncation=2)
        ghat = SeriesCoeffs(params=P1, coeffs=np.zeros(4), truncation=3)
        with pytest.raises(ValueError):
            conv_lambda_coeffs(fhat, ghat)

    def test_products_match_hop_transform(self):
        # transform of the hop-evaluated *_1 equals the coefficient products
        chi = cap_indicator(0.0)
        fhat = transform(chi, P1, 30, order=200)
        prod = conv_lambda_coeffs(fhat, fhat)
        from sphkern.zonal import ZonalKernel

        hop = ZonalKernel(fn=lambda xs: dimension_hop_conv(chi, chi, P0, xs, order=64), breakpoints=(-1.0, 1.0))
        hop_hat = transform(hop, P1, 30, order=200)
        assert np.max(np.abs(hop_hat.coeffs - prod.coeffs)) < 1e-6


class TestDimensionHop:
    def test_zero_kernels(self):
        z = constant_kernel(0.0)
        for x in (-0.5, 0.2, 1.0):
            assert dimension_hop_conv(z, z, P0, x) == 0.0

    def test_star1_value_at_one(self):
        s = math.pi / 4
        g = cap_indicator(math.cos(s))
        got = dimension_hop_conv(g, g, P0, 1.0)
        assert got == pytest.approx(printed_a_value(1, s), abs=1e-12)

    def test_star2_value_at_one(self):
        s = math.pi / 3
        g = cap_indicator(math.cos(s))
        got = dimension_hop_conv(g, g, P1, 1.0)
        assert got == pytest.approx(printed_a_value(2, s), abs=1e-12)

    @pytest.mark.parametrize("m", (1, 2, 3, 4))
    @pytest.mark.parametrize("s", (math.pi / 6, math.pi / 3))
    def test_all_printed_constants(self, m, s):
        g = cap_indicator(math.cos(s))
        got = dimension_hop_conv(g, g, GegenbauerParams(float(m - 1)), 1.0, order=80)
        assert got == pytest.approx(printed_a_value(m, s), abs=1e-8)

    def test_noninteger_lambda_rejected(self):
        g = cap_indicator(0.0)
        with pytest.raises(ValueError):
            dimension_hop_conv(g, g, GegenbauerParams(0.5), 0.3)

    def test_pole_values_match_series(self):
        # both poles go through the even-derivative route; compare against
        # the coefficient-product series for constants (smooth, no kinks)
        one = constant_kernel(1.0)
        fhat = transform(one, P1, 6, order=64)
        prod = conv_lambda_coeffs(fhat, fhat)
        for x in (-1.0, 1.0):
            got = dimension_hop_conv(one, one, P0, x)
            assert got == pytest.approx(series_eval(prod, x), rel=1e-10)

    def test_compact_support_vanishes_at_minus_one(self):
        g = cap_indicator(0.5)
        assert dimension_hop_conv(g, g, P0, -1.0) == pytest.approx(0.0, abs=1e-14)

    def test_antipode_pole_branch(self):
        # chi_[-0.5,1] *_1 chi_[-0.5,1] is nonzero at x = -1
        g = cap_indicator(-0.5)
        at_pole = dimension_hop_conv(g, g, P0, -1.0)
        assert at_pole == pytest.approx(0.95661147749, abs=1e-10)
        generic = dimension_hop_conv(g, g, P0, math.cos(math.pi - 1e-3))
        assert abs(at_pole - generic) <= 1e-10
        ghat = transform(g, P1, 200, order=400)
        plain_series = series_eval(conv_lambda_coeffs(ghat, ghat), -1.0)
        assert abs(at_pole - plain_series) <= 5e-5

    def test_f2_star2_uses_exact_ladder(self, monkeypatch):
        # the montee ladder of f_2 is exact at every level: no numeric montee
        def no_numeric_montee(*args, **kwargs):
            raise AssertionError("numeric montee called")

        monkeypatch.setattr(sphkern.convolution, "montee_numeric", no_numeric_montee)
        from sphkern.kernels import TruncatedPower

        f2 = TruncatedPower(2, 1.0).as_kernel()
        fhat = transform(f2, P2, 200, order=400)
        xs = np.cos((np.arange(40) + 0.5) * math.pi / 40)
        kinks = np.array(conv_kink_abscissae(f2, f2))
        xs = xs[np.min(np.abs(xs[:, None] - kinks[None, :]), axis=1) > 0.02]
        hop = dimension_hop_conv(f2, f2, P1, xs)
        assert np.max(np.abs(hop - series_eval(conv_lambda_coeffs(fhat, fhat), xs))) <= 1e-12

    @pytest.mark.parametrize("lam, bound", [(0.0, 1e-13), (1.0, 1e-13), (2.0, 1e-10)])
    def test_numeric_ladder_matches_the_coefficient_route(self, lam, bound):
        # a degree-30 series has no exact antiderivative: the hop runs on
        # numeric montee ladders, while the coefficient products are exact
        coeffs = 1.0 / np.arange(1.0, 32.0) ** 3
        f = kernel_from_descriptor({"family": "series", "coeffs": coeffs.tolist(), "lambda": 1.0})
        fhat = transform(f, GegenbauerParams(lam + 1.0), 30)
        xs = np.linspace(-0.99, 0.99, 199)
        want = series_eval(conv_lambda_coeffs(fhat, fhat), xs)
        got = dimension_hop_conv(f, f, GegenbauerParams(lam), xs, order=128)
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    def test_star1_matches_series_reconstruction(self):
        # Theorem 4.1 identity: hop values match the coefficient-product series
        for c in (0.0, 0.5):
            g = cap_indicator(c)
            ghat = transform(g, P1, 60, order=200)
            prod = conv_lambda_coeffs(ghat, ghat)
            xs = np.linspace(-0.95, 0.95, 101)
            hop = dimension_hop_conv(g, g, P0, xs, order=64)
            assert np.max(np.abs(hop - series_eval(prod, xs))) < 2e-3

    def test_star1_interior_matches_n3(self):
        from sphkern.kernels import cap_kernel_coefficients, eval_cap_kernel

        s = math.pi / 4
        g = cap_indicator(math.cos(s))
        a = cap_kernel_coefficients(3, s).a
        xs = np.linspace(math.cos(2 * s) + 0.01, 0.99, 41)
        hop = dimension_hop_conv(g, g, P0, xs)
        assert np.max(np.abs(hop / a - eval_cap_kernel(3, s, xs))) < 1e-10

    @pytest.mark.parametrize("m", (2, 3, 4))
    @pytest.mark.parametrize("s", (math.pi / 6, math.pi / 3))
    def test_interior_matches_cap_kernel(self, m, s):
        # the interior hop at high m, where the poles no longer pass through it
        from sphkern.kernels import cap_kernel_coefficients, eval_cap_kernel

        g = cap_indicator(math.cos(s))
        a = cap_kernel_coefficients(2 * m + 1, s).a
        xs = np.linspace(math.cos(2 * s) + 0.01, 0.99, 41)
        hop = dimension_hop_conv(g, g, GegenbauerParams(float(m - 1)), xs)
        assert np.max(np.abs(hop / a - eval_cap_kernel(2 * m + 1, s, xs))) < 1e-10

    @pytest.mark.parametrize("lam", (0.0, 1.0))
    def test_array_is_the_per_x_calls(self, lam):
        # poles, kink abscissae, the support edge and more than one theta block
        s = math.pi / 4
        g = cap_indicator(math.cos(s))
        p = GegenbauerParams(lam)
        special = [1.0, -1.0, *conv_kink_abscissae(g, g), math.cos(2 * s)]
        xs = np.concatenate([special, np.linspace(-0.97, 0.97, 90 - len(special))])
        got = dimension_hop_conv(g, g, p, xs.reshape(-1, 3), order=32)
        assert got.shape == (xs.size // 3, 3)
        assert np.array_equal(got.ravel(), [dimension_hop_conv(g, g, p, float(x), order=32) for x in xs])

    # (g *_m g)(1) at order 80 and the antipode value, as the Taylor solve of
    # the x-derivatives from the even theta-derivatives at the pole gave them
    TAYLOR_ROUTE = {
        (1, math.pi / 6): 0.04529303685303973,
        (1, math.pi / 3): 0.307092424652189,
        (2, math.pi / 6): 0.0069064837715161155,
        (2, math.pi / 3): 0.1491294368843506,
        (3, math.pi / 6): 0.00124485416488615,
        (3, math.pi / 3): 0.08367958993456331,
        (4, math.pi / 6): 0.00024351946089214117,
        (4, math.pi / 3): 0.05038498699139542,
    }

    @pytest.mark.parametrize("m, s", sorted(TAYLOR_ROUTE))
    def test_pole_integral_matches_the_taylor_route(self, m, s):
        g = cap_indicator(math.cos(s))
        got = dimension_hop_conv(g, g, GegenbauerParams(float(m - 1)), 1.0, order=80)
        assert got == pytest.approx(self.TAYLOR_ROUTE[m, s], rel=1e-14, abs=1e-16)

    def test_antipode_matches_the_taylor_route(self):
        g = cap_indicator(-0.5)
        assert dimension_hop_conv(g, g, P0, -1.0) == pytest.approx(0.9566114774905192, rel=1e-14)


class TestSelfConvolutionPositivity:
    def test_coefficients_are_squares(self):
        for c in (-0.4, 0.0, 0.5):
            for p in (P1, P2):
                ghat = transform(cap_indicator(c), p, 40, order=200)
                prod = conv_lambda_coeffs(ghat, ghat)
                assert np.min(prod.coeffs) >= -1e-12

    def test_value_at_one_positive(self):
        for c in (-0.4, 0.0, 0.5):
            for lam in (0, 1):
                g = cap_indicator(c)
                val = dimension_hop_conv(g, g, GegenbauerParams(float(lam)), 1.0)
                assert val > 0.0


class TestHopConstant:
    def test_equals_inverse_odd_integer(self):
        for lam in (0.0, 0.5, 1.0, 2.0):
            p = GegenbauerParams(lam)
            for n in range(21):
                assert hop_constant(p, n) == pytest.approx(1 / (2 * lam + 1), abs=1e-12)


class TestCapTransform:
    def test_known_value(self):
        # int_0^1 2y sqrt(1-y^2) dy = 2/3
        assert cap_transform(P1, 0.0, 1) == pytest.approx(2 / 3, rel=1e-14)

    def test_vanishing_range(self):
        assert cap_transform(P1, 1.0 - 1e-12, 3) == pytest.approx(0.0, abs=1e-15)

    def test_against_quadrature(self):
        assert cap_transform(P2, 0.5, 3) == pytest.approx(cap_transform_quadrature(P2, 0.5, 3), abs=1e-10)

    def test_full_sweep(self):
        for lam in (1.0, 2.0):
            p = GegenbauerParams(lam)
            for c in (-0.5, 0.0, 0.5):
                for n in range(1, 16):
                    assert cap_transform(p, c, n) == pytest.approx(cap_transform_quadrature(p, c, n), abs=1e-10)

    def test_degree_zero_exact_cap_mass(self):
        # the incomplete-beta cap mass, reflected for c < 0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (0.5, 1.0, 2.0):
                p = GegenbauerParams(lam)
                for c in (-0.9, -0.5, 0.0, 0.5, 0.9):
                    want = cap_transform_quadrature(p, c, 0)
                    assert abs(cap_transform(p, c, 0) - want) <= 1e-13

    def test_lambda_zero_rejected(self):
        with pytest.raises(ValueError):
            cap_transform(P0, 0.5, 2)

    def test_interlacing_keeps_neighbor_coefficients_alive(self):
        # at a zero c of C^2_(n-1) the transform at degree n+1 stays nonzero
        from sphkern.gegenbauer import eval_gegenbauer

        for n in range(3, 11):
            zeros = roots_gegenbauer(n - 1, 2.0)[0]
            positive_zeros = [z for z in zeros if 0 < z < 1][:3]
            for c in positive_zeros:
                assert abs(cap_transform(P1, float(c), n)) < 1e-12
                assert abs(cap_transform(P1, float(c), n + 1)) > 1e-8
                assert abs(eval_gegenbauer(P2, n, float(c))) > 1e-6


class TestConvPropertyCheck:
    def test_lambda_zero_properties(self):
        f, g, h = cap_indicator(0.0), cap_indicator(0.5), cap_indicator(-0.3)
        rep = conv_property_check(f, g, h, P0, order=96, trunc=24)
        assert rep["commutativity"] < 1e-10
        assert rep["associativity"] < 1e-8
        assert rep["norm_ok"]
        assert rep["transform_multiplicativity"] < 1e-8

    def test_identical_factors_commute_exactly(self):
        chi = cap_indicator(0.0)
        rep = conv_property_check(chi, chi, chi, P0, order=64, trunc=16)
        assert rep["commutativity"] == 0.0

    def test_norm_inequality_has_slack_for_signed_kernel(self):
        # signed factor: |f *_0 g| < |f| * |g| strictly
        from sphkern.zonal import gegenbauer_kernel

        f = gegenbauer_kernel(P0, 1)
        g = cap_indicator(0.5)
        rep = conv_property_check(f, g, g, P0, order=96, trunc=16)
        assert rep["norm_ok"]
        assert rep["norm_lhs"] < rep["norm_rhs"] - 1e-3

    def test_coefficient_space_exact(self):
        f, g, h = cap_indicator(0.0), cap_indicator(0.5), cap_indicator(-0.3)
        rep = conv_property_check(f, g, h, P1, order=128, trunc=24)
        assert rep["commutativity"] == 0.0
        assert rep["associativity"] < 1e-14
        assert rep["transform_multiplicativity"] == 0.0
