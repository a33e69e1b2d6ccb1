"""Kernel family tests: truncated powers, montee closed forms and recurrence,
smoothness ladder, and the cap self-convolution kernels N_d."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphkern import kernels
from sphkern.kernels import (
    CLOSED_FORM_TAGS,
    CapConvKernel,
    MonteeIterate,
    TruncatedPower,
    cap_kernel_coefficients,
    eval_cap_kernel,
    eval_montee_closed_form,
    eval_montee_recurrence,
    eval_truncated_power,
    kernel_from_descriptor,
)
from sphkern.convolution import cap_indicator
from sphkern.operators import descente_numeric, montee_numeric
from sphkern.zonal import ZonalKernel

CAP_ANGLES = (math.pi / 6, math.pi / 4, math.pi / 3)


class TestTruncatedPower:
    def test_value_at_one(self):
        k = TruncatedPower(2, math.pi / 2)
        assert eval_truncated_power(k, 1.0) == pytest.approx((math.pi / 2) ** 2)

    def test_boundary_zero(self):
        k = TruncatedPower(2, math.pi / 2)
        assert eval_truncated_power(k, 0.0) == pytest.approx(0.0, abs=1e-30)

    def test_interior_value(self):
        k = TruncatedPower(3, 1.0)
        assert eval_truncated_power(k, math.cos(0.5)) == pytest.approx(0.125, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TruncatedPower(0, 1.0)
        with pytest.raises(ValueError):
            TruncatedPower(2, math.pi)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_support_and_sign(self, m, t, x):
        val = eval_truncated_power(TruncatedPower(m, t), x)
        assert val >= 0.0
        if math.acos(x) >= t:
            assert val == 0.0


class TestMonteeClosedForms:
    def test_if2_vanishes_at_knot(self):
        t = math.pi / 2
        assert eval_montee_closed_form("If2", t, math.cos(t)) == pytest.approx(0.0, abs=1e-15)

    def test_if3_at_theta_zero(self):
        # substituting theta=0, u=t=1 gives 6 sin(1) - 5
        assert eval_montee_closed_form("If3", 1.0, 1.0) == pytest.approx(6 * math.sin(1.0) - 5)

    def test_i2f4_beyond_support(self):
        assert eval_montee_closed_form("I2f4", 1.0, math.cos(1.5)) == 0.0

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            eval_montee_closed_form("If9", 1.0, 0.0)

    @pytest.mark.parametrize("t", (0.5, math.pi / 2, 2.5))
    @pytest.mark.parametrize("tag", CLOSED_FORM_TAGS)
    def test_matches_numeric_montee(self, tag, t):
        parents = {
            "If2": TruncatedPower(2, t).as_kernel(),
            "If3": TruncatedPower(3, t).as_kernel(),
            "If4": TruncatedPower(4, t).as_kernel(),
            "I2f3": MonteeIterate(TruncatedPower(3, t), 1).as_kernel(),
            "I2f4": MonteeIterate(TruncatedPower(4, t), 1).as_kernel(),
        }
        image = montee_numeric(parents[tag], tol=1e-12)
        grid = np.linspace(-1.0, 1.0, 501)
        assert np.max(np.abs(image(grid) - eval_montee_closed_form(tag, t, grid))) < 1e-8

    def test_support_vanishing_on_grid(self):
        grid = np.linspace(-1.0, 1.0, 2001)
        for t in (0.5, 2.5):
            beyond = grid[np.arccos(grid) >= t]
            for tag in CLOSED_FORM_TAGS:
                assert np.all(eval_montee_closed_form(tag, t, beyond) == 0.0)


class TestMonteeRecurrence:
    def test_base_case_matches_closed_form_exactly(self):
        grid = np.linspace(-1.0, 1.0, 101)
        t = math.pi / 2
        assert np.allclose(
            eval_montee_recurrence(2, t, grid),
            eval_montee_closed_form("If2", t, grid),
            atol=1e-14,
        )

    def test_m1_at_support_edge(self):
        assert eval_montee_recurrence(1, 1.0, math.cos(1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_m5_against_adaptive_quadrature(self):
        f5 = TruncatedPower(5, 1.0).as_kernel()
        image = montee_numeric(f5, tol=1e-12)
        x = math.cos(0.3)
        assert eval_montee_recurrence(5, 1.0, x) == pytest.approx(image(x), abs=1e-8)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_numeric_montee(self, m):
        fm = TruncatedPower(m, 1.0).as_kernel()
        image = montee_numeric(fm, tol=1e-12)
        grid = np.linspace(-1.0, 1.0, 301)
        assert np.max(np.abs(image(grid) - eval_montee_recurrence(m, 1.0, grid))) < 1e-8

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            eval_montee_recurrence(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            eval_montee_recurrence(3, 1.0, 0.0, k=2)


class TestMonteeIterate:
    @pytest.mark.parametrize("t", (0.5, math.pi / 2, 2.5))
    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_numeric_montee_of_previous_iterate(self, m, k, t):
        # every (m, k) comes from the exact montee algebra; one numeric
        # montee of iterate k - 1 is the independent oracle, its error bound
        # two decades under the gate.
        base = TruncatedPower(m, t)
        kernel = MonteeIterate(base, k).as_kernel()
        previous = base.as_kernel() if k == 1 else MonteeIterate(base, k - 1).as_kernel()
        grid = np.linspace(-1.0, 1.0, 1001)
        oracle = montee_numeric(previous, tol=1e-12)
        assert np.max(np.abs(kernel(grid) - oracle(grid))) <= 1e-10
        assert kernel.antiderivative() is not None

    def test_builds_one_kernel(self, monkeypatch):
        # an iterate records no chain of derivative kernels, so I^50 f_4
        # costs one ZonalKernel, not 51
        built = []

        class Spy(ZonalKernel):
            def __init__(self, **fields):
                super().__init__(**fields)
                built.append(self.name)

        monkeypatch.setattr(kernels, "ZonalKernel", Spy)
        kernel = MonteeIterate(TruncatedPower(4, 1.0), 50).as_kernel()
        assert built == [kernel.name]

    def test_support_matches_base(self):
        t = 1.5
        i2 = MonteeIterate(TruncatedPower(4, t), 2).as_kernel()
        grid = np.linspace(-1.0, math.cos(t), 200, endpoint=False)
        assert np.all(i2(grid) == 0.0)


def _fd_derivative(f, x, k, h):
    stencils = {
        0: ([1.0], 0),
        1: ([-0.5, 0.0, 0.5], 1),
        2: ([1.0, -2.0, 1.0], 1),
        3: ([-0.5, 1.0, 0.0, -1.0, 0.5], 2),
    }
    coeffs, reach = stencils[k]
    xs = x + h * np.arange(-reach, reach + 1)
    return float(np.dot(coeffs, f(xs)) / h**k) if k else float(f(np.array([x]))[0])


class TestSmoothnessLadder:
    # f_2 is C^0[-1,1], I f_3 is C^1, I^2 f_4 is C^2; the classes are sharp
    # at x = 1 where the next derivative diverges, while across the interior
    # knot the k-th difference quotient is continuous.
    CASES = (
        (lambda x: np.asarray(eval_truncated_power(TruncatedPower(2, 1.2), x)), 0),
        (lambda x: np.asarray(eval_montee_closed_form("If3", 1.2, x)), 1),
        (lambda x: np.asarray(eval_montee_closed_form("I2f4", 1.2, x)), 2),
    )

    @pytest.mark.parametrize("f,k", CASES)
    def test_kth_derivative_continuous_at_knot(self, f, k):
        knot = math.cos(1.2)
        h = 1e-4
        left = _fd_derivative(f, knot - 20 * h, k, h)
        right = _fd_derivative(f, knot + 20 * h, k, h)
        assert abs(left - right) < 1e-4

    @pytest.mark.parametrize("f,k", CASES)
    def test_next_derivative_diverges_at_one(self, f, k):
        vals = []
        for delta in (1e-1, 1e-2, 1e-3):
            vals.append(abs(_fd_derivative(f, 1.0 - delta, k + 1, delta / 40)))
        assert vals[1] > 2.0 * vals[0]
        assert vals[2] > 2.0 * vals[1]


class TestCapCoefficients:
    def test_n3_normalizer(self):
        coeffs = cap_kernel_coefficients(3, math.pi / 4)
        assert coeffs.a == pytest.approx(math.pi / 8 - 0.25, rel=1e-14)

    def test_n3_ad_product(self):
        coeffs = cap_kernel_coefficients(3, math.pi / 4)
        assert coeffs.products["ad"] == pytest.approx(0.25)

    def test_n5_normalizer_formula(self):
        s = math.pi / 3
        coeffs = cap_kernel_coefficients(5, s)
        want = 0.25 * math.sin(s) * math.cos(s) ** 3 - (5 / 8) * math.sin(s) * math.cos(s) + (3 / 8) * s
        assert coeffs.a == pytest.approx(want, rel=1e-14)

    def test_normalizers_match_cap_mass(self):
        # a = (g *_m g)(1) equals int_c^1 (1 - y^2)^(m - 1/2) dy
        for d, m in ((3, 1), (5, 2), (7, 3), (9, 4)):
            for s in CAP_ANGLES:
                c = math.cos(s)
                theta = np.linspace(0.0, s, 4001)
                integrand = np.sin(theta) ** (2 * m)
                mass = np.trapezoid(integrand, theta)
                assert cap_kernel_coefficients(d, s).a == pytest.approx(mass, rel=1e-6)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            cap_kernel_coefficients(4, 0.5)

    def test_invalid_angle(self):
        with pytest.raises(ValueError):
            cap_kernel_coefficients(3, math.pi / 2)


class TestCapKernels:
    @pytest.mark.parametrize("d", (3, 5, 7, 9))
    @pytest.mark.parametrize("s", CAP_ANGLES)
    def test_normalization_exact(self, d, s):
        assert eval_cap_kernel(d, s, 1.0) == 1.0

    @pytest.mark.parametrize("d", (3, 5, 7, 9))
    @pytest.mark.parametrize("s", CAP_ANGLES)
    def test_boundary_zero(self, d, s):
        edge = math.cos(2 * s)
        assert abs(eval_cap_kernel(d, s, edge + 1e-13)) < 1e-10
        assert eval_cap_kernel(d, s, edge) == 0.0

    def test_boundary_substitution_n3(self):
        # 1 + 2 s b + d tan(s) collapses to 1 - a/a with the printed products
        s = math.pi / 4
        coeffs = cap_kernel_coefficients(3, s)
        val = 1.0 + coeffs.b * 2 * s + coeffs.d * math.tan(s)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_support_zero(self):
        assert eval_cap_kernel(9, 0.6, math.cos(1.3)) == 0.0

    def test_coefficients_are_computed_once_per_kernel(self, monkeypatch):
        # an interpolant evaluated in query blocks calls the kernel once a
        # block; the coefficients come from its build, not from each call
        calls = []

        def counted(d, s):
            calls.append((d, s))
            return cap_kernel_coefficients(d, s)

        kernel = CapConvKernel(5, 0.6).as_kernel()
        monkeypatch.setattr(kernels, "cap_kernel_coefficients", counted)
        xs = np.linspace(-1.0, 1.0, 101)
        first = kernel(xs)
        for _ in range(3):
            assert np.array_equal(kernel(xs), first)
        assert calls == []
        assert np.array_equal(eval_cap_kernel(5, 0.6, xs), first)
        assert calls == [(5, 0.6)]

    @pytest.mark.parametrize("d", (3, 5, 7, 9))
    def test_continuity_and_observed_nonnegativity(self, d):
        # nonnegativity is observed on the grid, not claimed in general
        for s in CAP_ANGLES:
            grid = np.linspace(-1.0, 1.0, 2001)
            vals = eval_cap_kernel(d, s, grid)
            assert np.min(vals) >= -1e-12
            # continuity at the one breakpoint (support edge)
            edge = math.cos(2 * s)
            assert abs(eval_cap_kernel(d, s, edge + 1e-9) - eval_cap_kernel(d, s, edge)) < 1e-6

    def test_near_one_evaluation_stable(self):
        # the tan-half-angle branch keeps relative accuracy near x = 1
        s = math.pi / 4
        xs = 1.0 - np.logspace(-15, -1, 30)
        vals = eval_cap_kernel(3, s, xs)
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals - 1.0) < 0.5)

    @pytest.mark.parametrize("d", (3, 5, 7, 9))
    @pytest.mark.parametrize("s", (math.pi / 8, 0.6, 1.5))
    def test_one_arccos_matches_two_branch_half_angle(self, d, s):
        # oracle: tan(theta/2) as sqrt((1-x)/(1+x)) for x <= 0.9 and as
        # tan(arccos(x)/2) above, where 1 - x cancels
        coeffs = cap_kernel_coefficients(d, s)
        edge = math.cos(2 * s)
        x = np.concatenate(
            [
                np.linspace(edge, 1.0, 20001)[1:],
                1.0 - np.logspace(-16, -1, 50),
                [np.nextafter(edge, 2.0), 0.9, np.nextafter(0.9, -2.0), np.nextafter(0.9, 2.0)],
            ]
        )
        x = x[(x > edge) & (x <= 1.0)]
        near_one = x > 0.9
        q = np.empty_like(x)
        q[near_one] = np.tan(0.5 * np.arccos(x[near_one]))
        q[~near_one] = np.sqrt((1.0 - x[~near_one]) / (1.0 + x[~near_one]))
        present = "bdefh"[: (d + 1) // 2]  # b, d; e from d = 5, f from 7, h from 9
        v = 1.0 + x
        poly = coeffs.d + sum(getattr(coeffs, k) / v ** (p + 1) for p, k in enumerate(present[2:]))
        oracle = 1.0 + coeffs.b * np.arccos(x) + q * poly
        scale = max(abs(getattr(coeffs, k)) for k in present)
        assert np.max(np.abs(eval_cap_kernel(d, s, x) - oracle)) <= 1e-14 * scale
        assert eval_cap_kernel(d, s, 1.0) == 1.0
        assert eval_cap_kernel(d, s, edge) == 0.0


class TestDescriptors:
    @pytest.mark.parametrize(
        "desc",
        [
            {"family": "truncated_power", "m": 2, "t": 1.0},
            {"family": "montee", "m": 3, "k": 2, "t": 1.0},
            {"family": "cap_conv", "d": 5, "s": 0.7},
            {"family": "series", "coeffs": [1.0, 0.5, 0.25], "lambda": 1.0},
        ],
    )
    def test_round_trip(self, desc):
        kernel = kernel_from_descriptor(desc)
        assert kernel.descriptor["family"] == desc["family"]
        rebuilt = kernel_from_descriptor(kernel.descriptor)
        grid = np.linspace(-1.0, 1.0, 31)
        assert np.allclose(kernel(grid), rebuilt(grid), atol=1e-12)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            kernel_from_descriptor({"family": "gaussian"})

    def test_missing_key(self):
        with pytest.raises(ValueError):
            kernel_from_descriptor({"family": "truncated_power", "m": 2})

    def test_cap_kernel_object(self):
        kern = CapConvKernel(3, 0.5)
        assert kern(1.0) == 1.0
        assert kern.coeffs.a > 0


def _support_cases():
    """(id, factory, expected edge) for every kernel that declares a support edge."""
    cases = []
    for d in (3, 5, 7, 9):
        cases.append((f"N_{d}", lambda d=d: CapConvKernel(d, math.pi / 5).as_kernel(), math.cos(2 * math.pi / 5)))
    for m, t in ((1, math.pi / 32), (2, 1.0), (4, 2.5)):
        cases.append((f"f_{m}(t={t:g})", lambda m=m, t=t: TruncatedPower(m, t).as_kernel(), math.cos(t)))
    for m, k, t in ((1, 1, 0.5), (2, 3, 1.0), (3, 2, 0.7), (4, 2, 1.0), (6, 1, 2.8)):
        cases.append(
            (f"I^{k}f_{m}(t={t:g})", lambda m=m, k=k, t=t: MonteeIterate(TruncatedPower(m, t), k).as_kernel(), math.cos(t))
        )
    cases.append(("cap", lambda: cap_indicator(0.3), 0.3))
    for k in (1, 2, 3):
        cases.append((f"I^{k}cap", lambda k=k: _antiderivative(cap_indicator(-0.4), k), -0.4))
    cases.append(("montee(N_3)", lambda: montee_numeric(_n3()).as_kernel(), math.cos(2 * math.pi / 5)))
    cases.append(("descente(N_3)", lambda: descente_numeric(_n3()).as_kernel(), math.cos(2 * math.pi / 5)))
    cases.append(("descente(f_2)", lambda: descente_numeric(TruncatedPower(2, 0.3).as_kernel()).as_kernel(), math.cos(0.3)))
    cases.append(
        ("descente(I^2f_3)", lambda: descente_numeric(MonteeIterate(TruncatedPower(3, 0.7), 2).as_kernel()).as_kernel(), math.cos(0.7))
    )
    cases.append(("montee(cap)", lambda: montee_numeric(cap_indicator(0.3)).as_kernel(), 0.3))
    return cases


def _n3():
    return CapConvKernel(3, math.pi / 5).as_kernel()


def _antiderivative(kernel, k):
    for _ in range(k):
        kernel = kernel.antiderivative()
    return kernel


class TestSupportEdge:
    @pytest.mark.parametrize("name, factory, edge", _support_cases(), ids=[c[0] for c in _support_cases()])
    def test_zero_below_the_edge(self, name, factory, edge):
        kernel = factory()
        assert kernel.support_edge == edge
        grid = np.concatenate([np.linspace(-1.0, edge, 400, endpoint=False), edge - np.logspace(-3, -13, 11)])
        grid = np.append(grid, np.nextafter(edge, -2.0))
        assert np.all(grid < edge)
        assert np.all(kernel(grid) == 0.0)
        # the edge is the support's, not merely a lower bound on it
        assert kernel(min(edge + 1e-3, 1.0)) != 0.0

    @pytest.mark.parametrize(
        "desc, edge",
        [
            ({"family": "truncated_power", "m": 2, "t": 1.0}, math.cos(1.0)),
            ({"family": "montee", "m": 3, "k": 2, "t": 1.0}, math.cos(1.0)),
            ({"family": "cap_conv", "d": 5, "s": 0.7}, math.cos(1.4)),
            ({"family": "series", "coeffs": [1.0, 0.5], "lambda": 1.0}, -1.0),
        ],
    )
    def test_descriptors_carry_the_edge(self, desc, edge):
        assert kernel_from_descriptor(desc).support_edge == edge


_CLOSED_FORM_CASES = [c for c in _support_cases() if not c[0].startswith(("montee(", "descente("))]


def _spied(kernel):
    """kernel with an fn that records every array it receives."""
    seen = []

    def spy(x):
        seen.append(x)
        return kernel.fn(x)

    return dataclasses.replace(kernel, fn=spy), seen


class TestSupportRule:
    """ZonalKernel.__call__ holds the support rule: fn is the profile on [edge, 1]."""

    @pytest.mark.parametrize("name, factory, edge", _CLOSED_FORM_CASES, ids=[c[0] for c in _CLOSED_FORM_CASES])
    def test_fn_never_sees_x_below_the_edge(self, name, factory, edge):
        kernel = factory()
        spied, seen = _spied(kernel)
        grid = np.concatenate([np.linspace(-1.0, 1.0, 501), [edge, np.nextafter(edge, -2.0), np.nextafter(edge, 2.0)]])
        for x in (grid, grid.reshape(2, -1), edge, np.nextafter(edge, -2.0)):
            out = spied(x)
            assert np.array_equal(out, kernel(x))
            assert np.all(np.asarray(out)[np.asarray(x) < edge] == 0.0)
        assert seen and all(np.all(x >= edge) for x in seen)
        assert min(float(np.min(x)) for x in seen if x.size) == edge

    @pytest.mark.parametrize("name, factory, edge", _CLOSED_FORM_CASES, ids=[c[0] for c in _CLOSED_FORM_CASES])
    def test_in_support_input_reaches_fn_uncopied(self, name, factory, edge):
        spied, seen = _spied(factory())
        x = np.linspace(edge, 1.0, 101)
        grid = x.reshape(101, 1)
        spied(x)
        spied(grid)
        assert len(seen) == 2 and seen[0] is x and seen[1] is grid

    def test_kernel_without_support_calls_fn_once_on_the_whole_array(self):
        spied, seen = _spied(ZonalKernel(fn=np.cos))
        x = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
        assert np.array_equal(spied(x), np.cos(x))
        assert len(seen) == 1 and seen[0] is x

    @pytest.mark.parametrize("name, factory, edge", _CLOSED_FORM_CASES, ids=[c[0] for c in _CLOSED_FORM_CASES])
    def test_exact_value_at_the_edge(self, name, factory, edge):
        kernel = factory()
        expected = 1.0 if name == "cap" else 0.0
        assert kernel(edge) == expected
        assert kernel(np.array([edge, 1.0]))[0] == expected
        # and when x below the edge sends the array through the mask
        assert kernel(np.array([np.nextafter(edge, -2.0), edge, 1.0]))[:2].tolist() == [0.0, expected]


class TestExactEdge:
    """Public evaluators give exactly 0.0 at the support edge; at the
    formulas' own edge (no exact-edge zero) most of these probes read
    roundoff instead."""

    def test_cap_kernels(self):
        for d in (3, 5, 7, 9):
            for s in np.linspace(0.05, 1.5, 61):
                s = float(s)
                edge = math.cos(2.0 * s)
                assert eval_cap_kernel(d, s, edge) == 0.0, (d, s)
                assert CapConvKernel(d, s)(np.array([edge]))[0] == 0.0, (d, s)
                assert CapConvKernel(d, s).as_kernel()(edge) == 0.0, (d, s)

    def test_truncated_powers_and_montee_iterates(self):
        for t in np.linspace(0.05, math.pi - 0.05, 60):
            t = float(t)
            edge = math.cos(t)
            for m in (1, 2, 3, 4):
                assert eval_truncated_power(TruncatedPower(m, t), edge) == 0.0, (m, t)
                for k in (1, 2, 3):
                    assert MonteeIterate(TruncatedPower(m, t), k)(edge) == 0.0, (m, k, t)
                    assert MonteeIterate(TruncatedPower(m, t), k).as_kernel()(edge) == 0.0, (m, k, t)

    def test_cap_ladder(self):
        for c in (-0.7, -0.2, 0.0, 0.3, math.cos(0.5), 0.9):
            assert cap_indicator(c)(c) == 1.0
            for k in (1, 2, 3):
                assert _antiderivative(cap_indicator(c), k)(c) == 0.0
