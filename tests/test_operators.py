"""Montee/descente operator tests: numeric images, exact identities, the
coefficient-level derivative map, and round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphkern.gegenbauer import GegenbauerParams, SeriesCoeffs, eval_gegenbauer_derivative, transform
from sphkern.kernels import MonteeIterate, TruncatedPower, eval_montee_closed_form
from sphkern.operators import (
    check_D_on_gegenbauer,
    check_I_on_gegenbauer,
    coeff_map_derivative,
    descente_numeric,
    montee_numeric,
    montee_positivity_shift,
    mu,
)
from sphkern.zonal import ZonalKernel, constant_kernel, gegenbauer_kernel, zero_kernel

P0 = GegenbauerParams(0.0)
P1 = GegenbauerParams(1.0)
P2 = GegenbauerParams(2.0)


class TestMu:
    def test_lambda_zero(self):
        assert mu(P0) == 1.0

    def test_lambda_one(self):
        assert mu(P1) == 1.0

    def test_lambda_half(self):
        assert mu(GegenbauerParams(0.5)) == 0.5


class TestMonteeNumeric:
    def test_zero_kernel(self):
        image = montee_numeric(zero_kernel())
        assert np.allclose(image(np.linspace(-1, 1, 9)), 0.0, atol=1e-14)

    def test_constant_length(self):
        image = montee_numeric(constant_kernel(1.0))
        assert image(0.5) == pytest.approx(1.5, abs=1e-12)

    def test_odd_polynomial_integrates_to_zero(self):
        # C^2_1 = 4x integrates to 0 over the symmetric interval
        image = montee_numeric(gegenbauer_kernel(P2, 1))
        assert image(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_image_at_minus_one_is_zero(self):
        image = montee_numeric(TruncatedPower(2, 1.0).as_kernel())
        assert image(-1.0) == 0.0

    def test_image_continuity_modulus(self):
        f = TruncatedPower(2, 2.0).as_kernel()
        image = montee_numeric(f)
        grid = np.linspace(-1, 1, 401)
        vals = image(grid)
        bound = np.max(np.abs(f(grid))) * (grid[1] - grid[0])
        assert np.max(np.abs(np.diff(vals))) <= bound + 1e-10

    def test_montee_of_cap_matches_exact_antiderivative(self):
        from sphkern.convolution import cap_indicator

        chi = cap_indicator(0.3)
        image = montee_numeric(chi, tol=1e-12)
        grid = np.linspace(-1, 1, 301)
        assert np.max(np.abs(image(grid) - np.maximum(grid - 0.3, 0.0))) < 1e-12

    def test_positivity_preserved(self):
        # nonnegative parents have nonnegative montee images
        grid = np.linspace(-1, 1, 2001)
        for m in (2, 3, 4):
            image = montee_numeric(TruncatedPower(m, 2.0).as_kernel())
            assert np.min(image(grid)) >= -1e-14

    def test_nonconvergent_refinement_raises_with_bound(self):
        from sphkern.errors import AccuracyError

        wild = ZonalKernel(fn=lambda x: np.sin(1e15 * x))
        image = montee_numeric(wild, tol=1e-16)
        with pytest.raises(AccuracyError) as err:
            image(0.5)
        assert err.value.achieved is not None and err.value.achieved > 1e-16


class TestDescenteNumeric:
    def test_constant_derivative_zero(self):
        image = descente_numeric(constant_kernel(3.0))
        assert abs(image(0.2)) < 1e-10

    def test_polynomial_derivative(self):
        # d/dx C^1_2 = 8x, so 2 at x = 1/4
        image = descente_numeric(gegenbauer_kernel(P1, 2))
        assert image(0.25) == pytest.approx(2.0, abs=1e-9)

    def test_montee_image_takes_the_numeric_route(self):
        # a montee image records no derivative to hand back: D differences it
        f = TruncatedPower(2, 1.5).as_kernel()
        back = descente_numeric(montee_numeric(f).as_kernel())
        assert back.flag_fn is not None
        knot = math.cos(1.5)
        grid = np.concatenate([np.linspace(-0.98, knot - 0.02, 40), np.linspace(knot + 0.02, 0.95, 40)])
        assert np.max(np.abs(back(grid) - f(grid))) < 1e-6

    def test_one_sided_flag_at_breakpoint(self):
        f = TruncatedPower(2, 1.0).as_kernel()
        image = descente_numeric(f)
        _, flagged = image.value_and_flag(math.cos(1.0))
        assert flagged
        _, flagged = image.value_and_flag(0.0)
        assert not flagged

    def test_roundtrip_D_of_I(self):
        f = TruncatedPower(2, 1.0).as_kernel()
        stripped = ZonalKernel(fn=montee_numeric(f, tol=1e-12).as_kernel().fn, breakpoints=f.breakpoints)
        derivative = descente_numeric(stripped)
        knot = math.cos(1.0)
        grid = np.concatenate(
            [np.linspace(-0.98, knot - 0.02, 40), np.linspace(knot + 0.02, 0.95, 40)]
        )
        assert np.max(np.abs(derivative(grid) - f(grid))) < 1e-6

    def test_roundtrip_I_of_D(self):
        t = 2.5
        kernel = ZonalKernel(
            fn=lambda x: np.asarray(eval_montee_closed_form("If3", t, x)),
            breakpoints=(math.cos(t), 1.0),
        )
        image = montee_numeric(descente_numeric(kernel).as_kernel(), tol=1e-9)
        grid = np.linspace(-0.95, 0.95, 11)
        assert np.max(np.abs(image(grid) - (kernel(grid) - kernel(-1.0)))) < 1e-6


# ---------------------------------------------------------------------------
# the batched Ridders descente against the per-point algorithm it replaced


def scalar_ridders(f, x, h0, steps=10, shrink=1.4):
    a = np.empty((steps, steps))
    hh = h0
    a[0, 0] = (f(x + hh) - f(x - hh)) / (2.0 * hh)
    ans, err = a[0, 0], math.inf
    for i in range(1, steps):
        hh /= shrink
        a[0, i] = (f(x + hh) - f(x - hh)) / (2.0 * hh)
        fac = shrink * shrink
        for j in range(1, i + 1):
            a[j, i] = (a[j - 1, i] * fac - a[j - 1, i - 1]) / (fac - 1.0)
            fac *= shrink * shrink
            errt = max(abs(a[j, i] - a[j - 1, i]), abs(a[j, i] - a[j - 1, i - 1]))
            if errt <= err:
                err, ans = errt, a[j, i]
        if abs(a[i, i] - a[i - 1, i - 1]) >= 2.0 * err:
            break
    return ans


def scalar_one_sided(f, x, h, direction):
    def stencil(step):
        s = direction * step
        vals = np.array([f(x + k * s) for k in range(5)])
        return direction * (-25 * vals[0] + 48 * vals[1] - 36 * vals[2] + 16 * vals[3] - 3 * vals[4]) / (12.0 * step)

    d1 = stencil(h)
    d2 = stencil(0.5 * h)
    return (16.0 * d2 - d1) / 15.0


def scalar_descente(f, x, h_default=1e-5):
    """One point at a time: the guard rule of descente_numeric on the scalar helpers."""
    bps = sorted(set(f.interior_breakpoints()))
    guards = bps + [-1.0, 1.0]
    nearest = min(guards, key=lambda g: abs(g - x))
    dist = abs(nearest - x)
    if (bps and min(abs(b - x) for b in bps) < 1e-12) or dist < 64.0 * np.finfo(float).eps:
        direction = 1.0 if x < 0.5 else -1.0
    elif dist < 2.0 * h_default and (nearest in bps or nearest not in f.breakpoints):
        direction = 1.0 if x > nearest else -1.0
    else:
        return scalar_ridders(f, x, min(h_default, 0.5 * dist)), False
    room = min(direction * (g - x) for g in guards if direction * (g - x) > 1e-12)
    return scalar_one_sided(f, x, min(h_default, room / 16.0), direction), True


def piecewise_cubic(x):
    # products and sums only, so a point's value does not depend on the
    # array it is evaluated in
    right = np.maximum(x - 0.4, 0.0)
    left = np.maximum(-0.3 - x, 0.0)
    return x * x * x - 0.5 * x + 2.0 * right * right * right + left * left


#: kinks at -0.3 and 0.4; x = 1 registered (the shrinking-step end), x = -1 not
PIECEWISE = ZonalKernel(fn=piecewise_cubic, breakpoints=(-0.3, 0.4, 1.0))
NEAR = np.array([0.0, 1e-13, 1e-11, 1e-8, 1e-6, 1.5e-5, 3e-5, 1e-4])
SPECIAL = np.unique(np.concatenate([g + side * NEAR for g in (-1.0, -0.3, 0.4, 1.0) for side in (1.0, -1.0)]))
GRID = np.concatenate([np.linspace(-1.0, 1.0, 201), SPECIAL[np.abs(SPECIAL) <= 1.0]])


class CountingKernel:
    """A kernel profile that records the size of every call."""

    def __init__(self, fn):
        self.fn, self.sizes = fn, []

    def __call__(self, x):
        self.sizes.append(x.size)
        return self.fn(x)


class TestBatchedDescente:
    def test_bitwise_equal_to_the_per_point_algorithm(self):
        image = descente_numeric(PIECEWISE)
        want = [scalar_descente(PIECEWISE, float(x)) for x in GRID]
        values, flags = image.flag_fn(GRID)
        assert np.array_equal(values, [v for v, _ in want])
        assert np.array_equal(flags, [flag for _, flag in want])
        assert flags.any() and not flags.all()

    def test_value_and_flag_is_the_one_point_case(self):
        image = descente_numeric(PIECEWISE)
        values, flags = image.flag_fn(GRID)
        for x, value, flag in zip(GRID, values, flags):
            assert image.value_and_flag(x) == (value, flag)
            assert type(image.value_and_flag(x)[0]) is float

    def test_kernel_calls_per_grid(self):
        counting = CountingKernel(piecewise_cubic)
        kernel = ZonalKernel(fn=counting, breakpoints=PIECEWISE.breakpoints)
        # 1000 points, three of them at a guard: the stencil calls take 15
        # points each, the central ones an even number (the +-h pairs)
        grid = np.append(np.linspace(-1.0, 1.0, 999), 0.4)
        _, flags = descente_numeric(kernel).flag_fn(grid)
        assert flags.sum() == 3
        stencil = [n for n in counting.sizes if n % 2]
        assert stencil == [15, 15]
        assert len(counting.sizes) - len(stencil) <= 10

    def test_shapes_empty_and_nan(self):
        image = descente_numeric(PIECEWISE)
        square = GRID[:12].reshape(3, 4)
        assert np.array_equal(image(square), image(GRID[:12]).reshape(3, 4))
        assert image(np.array([])).shape == (0,)
        with pytest.raises(ValueError, match="by more than 1e-12"):
            image(np.array([0.2, math.nan]))
        with pytest.raises(ValueError, match="by more than 1e-12"):
            image.value_and_flag(math.nan)

    @pytest.mark.parametrize(
        "x,slope", [(0.29999, -2.0), (0.3, 0.0), (0.300001, 0.0), (0.30001, 0.0), (0.300019, 0.0), (0.30002, 2.0)]
    )
    def test_stencil_stops_short_of_the_next_guard(self, x, slope):
        # kinks 2e-5 apart, closer than the 4e-5 a full-size stencil spans
        kernel = ZonalKernel(fn=lambda u: np.abs(u - 0.3) + np.abs(u - 0.30002), breakpoints=(0.3, 0.30002))
        value, flag = descente_numeric(kernel).value_and_flag(x)
        assert flag and value == pytest.approx(slope, abs=1e-8)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("k", range(4, 14))
    def test_smooth_end_steps_away(self, k, side):
        # d/dx C^1_3 next to an end the kernel does not register: the central
        # steps used to shrink with the distance, and roundoff took over
        x = side * (1.0 - 10.0**-k)
        value, flag = descente_numeric(gegenbauer_kernel(P1, 3), tol=1e-8).value_and_flag(x)
        assert abs(value - eval_gegenbauer_derivative(P1, 3, x)) <= 1e-8
        assert flag == (10.0**-k < 2e-5)

    @pytest.mark.parametrize("k", range(5, 12))
    def test_registered_end_keeps_shrinking_central_steps(self, k):
        # f_2 has sqrt-type behaviour at x = 1 (it registers 1.0): a stencil
        # stepping 4e-5 away sees that behaviour, a step of half the
        # distance does not
        f2 = TruncatedPower(2, math.pi / 2.0)
        image = MonteeIterate(f2, 1)
        registered = ZonalKernel(fn=image, breakpoints=(math.cos(math.pi / 2.0), 1.0))
        unregistered = ZonalKernel(fn=image, breakpoints=(math.cos(math.pi / 2.0),))
        x = 1.0 - 10.0**-k
        value, flag = descente_numeric(registered).value_and_flag(x)
        away, away_flag = descente_numeric(unregistered).value_and_flag(x)
        assert not flag and away_flag
        exact = f2.as_kernel()(x)
        assert abs(value - exact) <= 0.1 * abs(away - exact)


class TestGegenbauerIdentities:
    @pytest.mark.parametrize("lam,n,tol", [(1.0, 2, 1e-10), (0.0, 1, 1e-10), (0.5, 5, 1e-9)])
    def test_descente_identity(self, lam, n, tol):
        assert check_D_on_gegenbauer(GegenbauerParams(lam), n) <= tol

    @pytest.mark.parametrize("lam,n,tol", [(1.0, 1, 1e-9), (0.0, 2, 1e-9), (2.0, 4, 1e-8)])
    def test_montee_identity(self, lam, n, tol):
        assert check_I_on_gegenbauer(GegenbauerParams(lam), n) <= tol

    def test_lambda_zero_lowest_degree(self):
        # D C^0_1 = 2 C^1_0 = 2
        assert check_D_on_gegenbauer(P0, 1) <= 1e-12


class TestCoeffMap:
    def test_unit_vector_maps_to_doubled_shift(self):
        a = SeriesCoeffs(params=P1, coeffs=np.array([0.0, 0.0, 1.0]), truncation=2)
        b = coeff_map_derivative(a)
        assert b.params.lam == 2.0
        assert b.truncation == 1
        assert np.allclose(b.coeffs, [0.0, 2.0])

    def test_constant_dies(self):
        a = SeriesCoeffs(params=P1, coeffs=np.array([1.0, 0.0, 0.0, 0.0]), truncation=3)
        assert np.allclose(coeff_map_derivative(a).coeffs, 0.0)

    def test_empty_input_rejected(self):
        a = SeriesCoeffs(params=P1, coeffs=np.array([1.0]), truncation=0)
        with pytest.raises(ValueError):
            coeff_map_derivative(a)

    def test_against_transform_of_numeric_derivative(self):
        f2 = TruncatedPower(2, math.pi / 2).as_kernel()
        a_exp = transform(f2, P1, 41, order=400).expansion_coeffs()
        mapped = coeff_map_derivative(SeriesCoeffs(params=P1, coeffs=a_exp, truncation=41))
        derivative = descente_numeric(f2).as_kernel()
        b_exp = transform(derivative, P2, 40, order=400).expansion_coeffs()
        assert np.max(np.abs(mapped.coeffs - b_exp)) < 1e-4

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=12))
    def test_sign_transport(self, coeffs):
        a = SeriesCoeffs(params=P1, coeffs=np.asarray(coeffs), truncation=len(coeffs) - 1)
        b = coeff_map_derivative(a)
        assert np.array_equal(np.sign(b.coeffs), np.sign(a.coeffs[1:]))


def test_montee_positivity_shift_zero_for_nonnegative():
    # Theorem on nonnegative parents: the constant can be chosen as zero
    f2 = TruncatedPower(2, 1.0).as_kernel()
    assert montee_positivity_shift(f2, P0) == 0.0


def test_montee_positivity_shift_positive_for_signed_kernel():
    # a pure degree-1 harmonic has zero mean; its montee image dips negative
    kernel = gegenbauer_kernel(P2, 1)
    shift = montee_positivity_shift(kernel, P1)
    assert shift > 0.0
