"""Gegenbauer evaluation, normalization, quadrature and transform tests."""

import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import sphkern
from sphkern.convolution import cap_indicator, cap_montee_selfconv0_closed, conv0_kernel, dimension_hop_conv
from sphkern.errors import ResourceLimitError
from sphkern.gegenbauer import (
    MAX_LAMBDA,
    GegenbauerParams,
    SeriesCoeffs,
    clamp_x,
    on_interval,
    eval_gegenbauer,
    eval_gegenbauer_derivative,
    gegenbauer_at_one,
    moment,
    quadrature_rule,
    series_eval,
    transform,
    weight_w,
)
from sphkern.kernels import (
    MonteeIterate,
    TruncatedPower,
    eval_cap_kernel,
    eval_montee_closed_form,
    eval_montee_recurrence,
    eval_truncated_power,
)
from sphkern.operators import check_D_on_gegenbauer, descente_numeric, montee_numeric
from sphkern.quadrature import theta_rule
from sphkern.zonal import ZonalKernel, constant_kernel, gegenbauer_kernel

P0 = GegenbauerParams(0.0)
P_HALF = GegenbauerParams(0.5)
P1 = GegenbauerParams(1.0)
P2 = GegenbauerParams(2.0)


def _plain_recurrence(lam, n_max, x):
    """C^lam_n(x), n = 0..n_max, as the plain three-term recurrence: a fresh array per step."""
    prev = np.ones_like(x)
    yield prev
    if n_max == 0:
        return
    cur = 2.0 * lam * x if lam > 0.0 else x.copy()
    yield cur
    for n in range(2, n_max + 1):
        if lam > 0.0:
            prev, cur = cur, (2.0 * (n + lam - 1.0) * x * cur - (n + 2.0 * lam - 2.0) * prev) / n
        else:
            prev, cur = cur, 2.0 * x * cur - prev
        yield cur


def _w_table(p, n_max, x):
    """Rows n = 0..n_max of W^lam_n(x) = C^lam_n(x) / C^lam_n(1); W^0_n = T_n."""
    out = np.empty((n_max + 1, x.size))
    for n, c in enumerate(_plain_recurrence(p.lam, n_max, x)):
        out[n] = c if p.lam == 0.0 else c / gegenbauer_at_one(p, n)
    return out


def _w_kernel(p, n):
    """W^lam_n = C^lam_n / C^lam_n(1) as a kernel."""
    c = gegenbauer_kernel(p, n)
    return ZonalKernel(fn=lambda x: c(x) / gegenbauer_at_one(p, n))


class TestEvalGegenbauer:
    def test_degree_zero_is_one(self):
        assert eval_gegenbauer(P1, 0, 0.3) == 1.0

    def test_lambda_zero_chebyshev_scaling(self):
        # C^0_n = (2/n) T_n, so C^0_2(1) = 1
        assert eval_gegenbauer(P0, 2, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_chebyshev_u2(self):
        # C^1_2 = U_2 = 4x^2 - 1 vanishes at 1/2
        assert eval_gegenbauer(P1, 2, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_legendre_values(self):
        # C^(1/2)_n are the Legendre polynomials
        xs = np.linspace(-1, 1, 11)
        p3 = 0.5 * (5 * xs**3 - 3 * xs)
        assert np.allclose(eval_gegenbauer(P_HALF, 3, xs), p3, atol=1e-14)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            eval_gegenbauer(P1, -1, 0.0)

    def test_clamp_slack(self):
        assert eval_gegenbauer(P1, 3, 1.0 + 5e-13) == pytest.approx(gegenbauer_at_one(P1, 3))
        with pytest.raises(ValueError):
            eval_gegenbauer(P1, 3, 1.0 + 1e-9)

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=0, max_value=20),
        st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_bounded_by_value_at_one(self, x, n, lam):
        p = GegenbauerParams(lam)
        at_one = gegenbauer_at_one(p, n)
        assert abs(eval_gegenbauer(p, n, x)) <= at_one * (1 + 1e-12)

    def test_lambda_zero_limit(self):
        grid = np.linspace(-1, 1, 101)
        small = GegenbauerParams(1e-6)
        for n in range(1, 9):
            lim = np.asarray(eval_gegenbauer(small, n, grid)) / 1e-6
            assert np.max(np.abs(lim - eval_gegenbauer(P0, n, grid))) < 1e-4


class TestRecurrenceAgainstScipy:
    """The shared C^lam_n / T_n recurrence against scipy.special, n <= 40."""

    XS = np.concatenate([np.linspace(-1.0, 1.0, 41), [-0.999, -1e-3, 0.37, 0.999]])

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
    def test_eval_gegenbauer(self, lam):
        p = GegenbauerParams(lam)
        for n in range(41):
            want = special.eval_gegenbauer(n, lam, self.XS)
            got = eval_gegenbauer(p, n, self.XS)
            assert np.max(np.abs(got - want)) <= 1e-13 * gegenbauer_at_one(p, n)

    def test_eval_gegenbauer_lambda_zero_is_scaled_chebyshev(self):
        assert np.array_equal(eval_gegenbauer(P0, 0, self.XS), np.ones_like(self.XS))
        for n in range(1, 41):
            want = (2.0 / n) * special.eval_chebyt(n, self.XS)
            assert np.max(np.abs(eval_gegenbauer(P0, n, self.XS) - want)) <= 1e-13

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5])
    def test_series_eval_of_unit_vector(self, lam):
        # e_n reconstructs w_lam(n) W^lam_n = w_lam(n) C^lam_n / C^lam_n(1)
        p, trunc = GegenbauerParams(lam), 40
        for n in (0, 1, 2, 7, 40):
            unit = SeriesCoeffs(params=p, coeffs=np.eye(trunc + 1)[n], truncation=trunc)
            if lam == 0.0:
                basis = special.eval_chebyt(n, self.XS)
            else:
                basis = special.eval_gegenbauer(n, lam, self.XS) / gegenbauer_at_one(p, n)
            want = weight_w(p, n) * basis
            assert np.max(np.abs(series_eval(unit, self.XS) - want)) <= 1e-13 * weight_w(p, n)


class TestAtOne:
    def test_u2_at_one(self):
        assert gegenbauer_at_one(P1, 2) == pytest.approx(3.0)

    def test_degree_zero(self):
        assert gegenbauer_at_one(P_HALF, 0) == 1.0

    def test_gamma_ratio(self):
        # Gamma(7) / (Gamma(4) Gamma(4)) = 20, cross-checked by the recurrence
        assert gegenbauer_at_one(P2, 3) == pytest.approx(20.0)
        assert eval_gegenbauer(P2, 3, 1.0) == pytest.approx(20.0)

    def test_lambda_zero(self):
        assert gegenbauer_at_one(P0, 4) == pytest.approx(0.5)

    def test_large_degree_no_overflow(self):
        assert math.isfinite(gegenbauer_at_one(P2, 10_000))

    def test_largest_lambda_against_the_exact_product(self):
        # C^lam_n(1) = prod_{k <= n} (2 lam + k - 1) / k, exactly in Fractions;
        # the gamma ratio's relative error grows like 2e-15 lam
        p = GegenbauerParams(MAX_LAMBDA)
        exact = Fraction(1)
        for n in range(1, 101):
            exact *= Fraction(2 * MAX_LAMBDA + n - 1, n)
            assert abs(gegenbauer_at_one(p, n) / float(exact) - 1.0) <= 1e-11, n

    @pytest.mark.parametrize("lam", (1000.5, 1e5, 1e15))
    def test_lambda_past_the_bound_raises(self, lam):
        with pytest.raises(ResourceLimitError, match="at most 1000"):
            GegenbauerParams(lam)

    def test_a_step_past_the_bound_raises(self):
        with pytest.raises(ResourceLimitError, match="at most 1000"):
            check_D_on_gegenbauer(GegenbauerParams(MAX_LAMBDA), 1)


def norm_h(params, n):
    """Squared L2 norm h^lam_n = int (C^lam_n)^2 dOmega_lam for lambda > 0
    (closed form, the oracle of the quadrature check below)."""
    lam = params.lam
    return math.exp(
        math.log(math.pi)
        + special.gammaln(n + 2.0 * lam)
        - (2.0 * lam - 1.0) * math.log(2.0)
        - special.gammaln(n + 1.0)
        - math.log(n + lam)
        - 2.0 * special.gammaln(lam)
    )


class TestNormH:
    def test_lambda_one_degree_zero(self):
        # integral of sqrt(1-x^2) over [-1,1]
        assert norm_h(P1, 0) == pytest.approx(math.pi / 2, rel=1e-13)

    def test_lambda_one_degree_one(self):
        assert norm_h(P1, 1) == pytest.approx(math.pi / 2, rel=1e-13)

    def test_legendre_mass(self):
        assert norm_h(P_HALF, 0) == pytest.approx(2.0, rel=1e-13)

    def test_agrees_with_quadrature(self):
        for p in (P_HALF, P1, P2):
            rule = quadrature_rule(p, 40)
            for n in (0, 1, 4, 9):
                vals = np.asarray(eval_gegenbauer(p, n, rule.nodes))
                assert rule.integrate(vals**2) == pytest.approx(norm_h(p, n), rel=1e-10)


class TestWeightW:
    def test_lambda_zero_values(self):
        assert weight_w(P0, 0) == pytest.approx(1 / math.pi)
        assert weight_w(P0, 3) == pytest.approx(2 / math.pi)

    def test_reciprocal_of_normalized_norm(self):
        # int (W^lam_n)^2 dOmega = 1 / w_lam(n); at lam=1, n=1 this gives 8/pi
        for p, n in [(P1, 1), (P1, 2), (P2, 5), (P_HALF, 3), (P0, 2)]:
            rule = quadrature_rule(p, 60)
            w_n = np.asarray(eval_gegenbauer(p, n, rule.nodes)) / gegenbauer_at_one(p, n)
            assert rule.integrate(w_n**2) == pytest.approx(1.0 / weight_w(p, n), rel=1e-10)
        assert weight_w(P1, 1) == pytest.approx(8 / math.pi, rel=1e-13)


class TestQuadrature:
    def test_total_mass_legendre(self):
        assert quadrature_rule(P_HALF, 5).weights.sum() == pytest.approx(2.0)

    def test_total_mass_lambda_one(self):
        assert quadrature_rule(P1, 5).weights.sum() == pytest.approx(math.pi / 2)

    def test_x_squared(self):
        rule = quadrature_rule(P1, 8)
        assert rule.integrate(rule.nodes**2) == pytest.approx(math.pi / 8, rel=1e-13)

    def test_exactness_up_to_degree(self):
        for lam in (0.0, 0.5, 1.0, 2.0):
            p = GegenbauerParams(lam)
            for order in (2, 7, 15):
                rule = quadrature_rule(p, order)
                for k in range(2 * order):
                    want = moment(p, k)
                    assert rule.integrate(rule.nodes**k) == pytest.approx(
                        want, abs=1e-12 * moment(p, 0)
                    )

    def test_nodes_sorted_weights_positive(self):
        rule = quadrature_rule(P2, 30)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)

    def test_order_limit(self):
        with pytest.raises(ResourceLimitError):
            quadrature_rule(P1, 200_000)
        with pytest.raises(ValueError):
            quadrature_rule(P1, 0)


class TestTransform:
    def test_orthogonality_diagonal(self):
        s = transform(_w_kernel(P1, 2), P1, 3, order=64)
        assert s.coeffs[2] == pytest.approx(1.0 / weight_w(P1, 2), rel=1e-12)
        assert abs(s.coeffs[3]) < 1e-12

    def test_constant_at_lambda_zero(self):
        assert transform(constant_kernel(1.0), P0, 0, order=64).coeffs[0] == pytest.approx(math.pi)

    def test_orthogonality_matrix(self):
        for p in (P0, P_HALF, P1, P2):
            rule = quadrature_rule(p, 64)
            table = np.vstack(
                [
                    np.asarray(eval_gegenbauer(p, n, rule.nodes)) / gegenbauer_at_one(p, n)
                    for n in range(13)
                ]
            )
            gram = (table * rule.weights) @ table.T
            expected = np.diag([1.0 / weight_w(p, n) for n in range(13)])
            assert np.max(np.abs(gram - expected)) < 1e-9

    def test_breakpoint_panels_take_n_max_plus_one_nodes(self):
        # f_2 declares breakpoints, so it runs on theta panels; 32 nodes per
        # panel used to alias every coefficient past the panel exactness
        f2 = TruncatedPower(2, math.pi / 2).as_kernel()
        low = transform(f2, P1, 200, order=32).coeffs
        high = transform(f2, P1, 200, order=400).coeffs
        assert np.max(np.abs(low - high)) <= 1e-13

    def test_non_finite_samples_raise(self):
        from sphkern.errors import EvaluationError
        from sphkern.zonal import ZonalKernel

        bad = ZonalKernel(fn=lambda x: np.where(x > 0, np.inf, 1.0))
        with pytest.raises(EvaluationError):
            transform(bad, P1, 3, order=16)


class TestSeriesEval:
    def test_constant_series(self):
        c = 2.5
        s = SeriesCoeffs(params=P1, coeffs=np.array([c / weight_w(P1, 0), 0.0, 0.0]), truncation=2)
        for x in (-1.0, -0.2, 0.7, 1.0):
            assert series_eval(s, x) == pytest.approx(c)

    def test_round_trip_w12(self):
        s = transform(_w_kernel(P1, 2), P1, 4, order=64)
        assert series_eval(s, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_f2_reconstruction_outside_support(self):
        # Gibbs-limited: the partial sum near the support edge stays small
        f2 = TruncatedPower(2, math.pi / 2).as_kernel()
        s = transform(f2, P1, 80, order=400)
        assert abs(series_eval(s, math.cos(math.pi / 2 + 0.3))) < 2e-2

    def test_partial_sums_monotone_at_one_for_nonneg_coeffs(self):
        # uniform convergence evidence: nonnegative terms accumulate at x=1
        f2 = TruncatedPower(2, math.pi / 2).as_kernel()
        s = transform(f2, P1, 40, order=400)
        partials = [
            series_eval(SeriesCoeffs(params=P1, coeffs=s.coeffs[: n + 1], truncation=n), 1.0)
            for n in range(5, 41, 5)
        ]
        assert np.all(np.diff(partials) > -1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0, 2.5])
    @pytest.mark.parametrize("trunc", [0, 1, 40, 200, 2, 63, 64, 65, 300])
    def test_matches_the_table_route(self, lam, trunc):
        # the (N+1) x size table is the oracle: summed row by row it gives
        # series_eval's bits, and summed by one GEMV its value within rounding
        p = GegenbauerParams(lam)
        s = SeriesCoeffs(p, np.random.default_rng(trunc).standard_normal(trunc + 1), trunc)
        terms = s.weights() * s.coeffs
        # -1 and 1 lead, so the Gram-shaped block below holds both
        grid = np.concatenate([[-1.0, 1.0], np.linspace(-1.0, 1.0, 101)])
        dots = np.clip(np.outer(grid[:30], grid[:30]) + 0.1 * np.eye(30), -1.0, 1.0)
        for x in (-1.0, 1.0, 0.3, grid, dots):
            flat = np.atleast_1d(x).ravel()
            table = _w_table(p, trunc, flat)
            bound = 4 * np.finfo(float).eps * (np.abs(terms) @ np.abs(table))
            got = series_eval(s, x)
            assert np.shape(got) == np.shape(x)
            assert np.all(np.abs(np.ravel(got) - terms @ table) <= bound)
            rowwise = np.zeros(flat.size)
            for n, row in enumerate(table):
                rowwise += terms[n] * row
            assert np.array_equal(np.ravel(got), rowwise)

    def test_evaluation_builds_no_basis_table(self):
        # the (N+1) x size table alone was 313 MiB here
        s = SeriesCoeffs(P1, 1.0 / (1.0 + np.arange(201.0)) ** 2, 200)
        x = np.linspace(-1.0, 1.0, 200_000)
        tracemalloc.start()
        try:
            out = series_eval(s, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out))
        assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# the blocked transform gives the table route's bits

IDENTITY_LAMS = (0.0, 0.5, 1.0, 2.5)
IDENTITY_TRUNCS = (0, 1, 2, 63, 64, 65, 300)  # transform's block edges
IDENTITY_KERNELS = {
    "theta_panels": TruncatedPower(2, 1.0).as_kernel(),  # declares a breakpoint
    "gauss_gegenbauer": ZonalKernel(fn=np.exp),
}


def _table_transform(f, p, n_max, order=256):
    """transform's coefficients as the (N + 1) x nodes table times wq * f(x)."""
    order = max(order, n_max + 1)
    if getattr(f, "breakpoints", ()):
        x, wq = theta_rule(f.breakpoints, p.lam, order)
    else:
        rule = quadrature_rule(p, order)
        x, wq = rule.nodes, rule.weights
    return _w_table(p, n_max, x) @ (wq * f(x))


def transform_mismatches():
    """(kernel, lambda, N) of every case whose transform differs from the table route in any bit."""
    return [
        (name, lam, trunc)
        for name, f in IDENTITY_KERNELS.items()
        for lam in IDENTITY_LAMS
        for trunc in IDENTITY_TRUNCS
        if not np.array_equal(
            transform(f, GegenbauerParams(lam), trunc).coeffs, _table_transform(f, GegenbauerParams(lam), trunc)
        )
    ]


class TestBitIdentity:
    def test_transform_equals_the_table_route(self):
        # BLAS on one thread, as the benchmark runs: a threaded gemv splits
        # the rows by their total count, so the table route's own bits move
        # with the thread count
        src = os.path.dirname(os.path.dirname(sphkern.__file__))
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
        probe = "import json, test_gegenbauer as t; print(json.dumps(t.transform_mismatches()))"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=os.path.dirname(__file__)
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_eval_gegenbauer_results_share_no_buffer(self):
        x = np.linspace(-1.0, 1.0, 101)
        first, second = eval_gegenbauer(P1, 5, x), eval_gegenbauer(P1, 6, x)
        kept = first.copy(), second.copy()
        third = eval_gegenbauer(P1, 7, x)
        assert np.array_equal(first, kept[0]) and np.array_equal(second, kept[1])
        assert not any(np.shares_memory(a, b) for a, b in ((first, second), (first, third), (second, third)))

    def test_transform_builds_no_basis_table(self):
        # the (N + 1) x nodes table alone was 244.8 MiB here
        f2 = TruncatedPower(2, 1.0).as_kernel()
        transform(f2, P1, 0, order=4001)  # caches the order-4001 Gauss-Legendre rule
        tracemalloc.start()
        try:
            s = transform(f2, P1, 4000, order=4001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(s.coeffs))
        assert peak < 16 * 2**20


def test_series_coeffs_length_validation():
    with pytest.raises(ValueError):
        SeriesCoeffs(params=P1, coeffs=np.zeros(3), truncation=3)


@pytest.mark.parametrize("coeffs, trunc", [([], -1), ([1.0, np.nan], 1), ([np.inf], 0)])
def test_series_coeffs_reject_negative_truncation_and_non_finite(coeffs, trunc):
    with pytest.raises(ValueError):
        SeriesCoeffs(params=P1, coeffs=np.array(coeffs), truncation=trunc)


def test_params_validation():
    with pytest.raises(ValueError):
        GegenbauerParams(-0.5)


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=-1.0 - 1e-12, max_value=1.0 + 1e-12))
def test_clamp_keeps_interval(x):
    assert -1.0 <= float(clamp_x(x)) <= 1.0


# ---------------------------------------------------------------------------
# the x contract shared by every zonal-profile evaluator (on_interval)

_F2 = TruncatedPower(2, 1.0)
EVALUATORS = {
    "eval_gegenbauer": lambda x: eval_gegenbauer(P1, 3, x),
    "eval_gegenbauer_derivative": lambda x: eval_gegenbauer_derivative(P_HALF, 4, x),
    "series_eval": lambda x: series_eval(SeriesCoeffs(P1, np.array([1.0, 0.5, 0.25]), 2), x),
    "eval_truncated_power": lambda x: eval_truncated_power(_F2, x),
    "eval_montee_closed_form": lambda x: eval_montee_closed_form("I2f4", 1.0, x),
    "eval_montee_recurrence": lambda x: eval_montee_recurrence(3, 1.0, x),
    "MonteeIterate": lambda x: MonteeIterate(TruncatedPower(3, 1.0), 2)(x),
    "eval_cap_kernel": lambda x: eval_cap_kernel(3, 0.5, x),
    "cap_montee_selfconv0_closed": lambda x: cap_montee_selfconv0_closed(0.5, x),
    # np.arccos warns (an error under the suite's filter) on unclamped input
    "ZonalKernel": ZonalKernel(fn=np.arccos),
    "OperatorImage": montee_numeric(_F2.as_kernel()),
    # batched bodies: a kernel fn and an image evaluator that flatten x and reshape
    "conv0_kernel": conv0_kernel(cap_indicator(0.5), cap_indicator(0.5), order=16),
    "descente_numeric": descente_numeric(_F2.as_kernel()),
    # interior x through the circle integrals, x = +-1 through the pole integral
    "dimension_hop_conv": lambda x: dimension_hop_conv(cap_indicator(0.5), cap_indicator(0.5), P0, x, order=16),
}
XS = np.array([-0.9, -0.3, 0.2, 0.55, 0.8, 0.95])


@pytest.mark.parametrize("name", sorted(EVALUATORS))
class TestOnInterval:
    def test_scalar_gives_python_float(self, name):
        assert type(EVALUATORS[name](0.55)) is float

    def test_arrays_keep_their_shape(self, name):
        flat = EVALUATORS[name](XS)
        square = EVALUATORS[name](XS.reshape(2, 3))
        assert flat.shape == (6,) and square.shape == (2, 3)
        assert np.array_equal(square, flat.reshape(2, 3))

    def test_caller_array_not_modified(self, name):
        x = np.array([-1.0 - 5e-13, 0.2, 1.0, 1.0 + 5e-13])
        before = x.copy()
        EVALUATORS[name](x)
        assert np.array_equal(x, before)

    def test_slack_snaps_onto_the_endpoint(self, name):
        ev = EVALUATORS[name]
        assert ev(1.0 + 5e-13) == ev(1.0)
        assert ev(-1.0 - 5e-13) == ev(-1.0)

    def test_beyond_slack_raises(self, name):
        with pytest.raises(ValueError, match="by more than 1e-12"):
            EVALUATORS[name](1.0 + 1e-9)
        with pytest.raises(ValueError, match="by more than 1e-12"):
            EVALUATORS[name](np.array([0.0, -1.0 - 1e-9]))

    def test_nan_raises(self, name):
        with pytest.raises(ValueError, match="by more than 1e-12"):
            EVALUATORS[name](math.nan)
        with pytest.raises(ValueError, match="by more than 1e-12"):
            EVALUATORS[name](np.array([0.2, math.nan, 0.5]))

    def test_empty_input_gives_empty_output(self, name):
        assert EVALUATORS[name](np.array([])).shape == (0,)


def _on_interval_evaluators() -> dict:
    """Every on_interval wrapper in the sphkern modules, class __call__ methods included."""
    wrapper_code = on_interval(lambda x: x).__code__
    found = {}
    for info in pkgutil.iter_modules(sphkern.__path__):
        module = importlib.import_module(f"sphkern.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj):
                obj, name = vars(obj).get("__call__"), f"{name}.__call__"
            if getattr(obj, "__code__", None) is wrapper_code:
                found.setdefault(obj.__wrapped__, f"{obj.__wrapped__.__module__}.{name}")
    return found


class TestOnIntervalSignatures:
    def test_x_is_last_positional_and_options_are_keyword_only(self):
        found = _on_interval_evaluators()
        # the free evaluators and the family __call__ methods reach these
        # through ZonalKernel.__call__, so they carry no wrapper of their own
        assert sorted(found.values()) == [
            "sphkern.convolution.cap_montee_selfconv0_closed",
            "sphkern.convolution.dimension_hop_conv",
            "sphkern.gegenbauer.eval_gegenbauer",
            "sphkern.gegenbauer.eval_gegenbauer_derivative",
            "sphkern.gegenbauer.series_eval",
            "sphkern.kernels.eval_montee_closed_form",
            "sphkern.kernels.eval_montee_recurrence",
            "sphkern.operators.OperatorImage.__call__",
            "sphkern.zonal.ZonalKernel.__call__",
        ]
        positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for fn, label in found.items():
            params = list(inspect.signature(fn).parameters.values())
            last = max(i for i, p in enumerate(params) if p.kind in positional)
            assert params[last].name == "x", label
            assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[last + 1 :]), label

    # before the options were keyword-only, on_interval took each option
    # below for x and passed the real x on as the option
    def test_series_eval_option_after_an_array_x_raises(self):
        s = SeriesCoeffs(P1, np.array([1.0, 0.5, 0.25]), 2)
        with pytest.raises(TypeError):
            series_eval(s, np.linspace(-1.0, 1.0, 5), 0.5)

    def test_series_eval_option_after_a_scalar_x_raises(self):
        s = SeriesCoeffs(P1, np.array([1.0, 0.5, 0.25]), 2)
        with pytest.raises(TypeError):
            series_eval(s, 0.5, 1.0)

    def test_montee_recurrence_positional_k_raises(self):
        with pytest.raises(TypeError):
            eval_montee_recurrence(3, 1.0, 0.5, 1)


class TestClampX:
    def test_in_range_input_is_returned_uncopied(self):
        x = np.linspace(-1.0, 1.0, 16)
        assert clamp_x(x) is x

    def test_slack_band_is_clipped_into_a_copy(self):
        x = np.array([1.0 + 5e-13, 0.5, -1.0 - 5e-13])
        before = x.copy()
        out = clamp_x(x)
        assert not np.shares_memory(out, x)
        assert np.array_equal(out, [1.0, 0.5, -1.0])
        assert np.array_equal(x, before)

    def test_empty_input(self):
        assert clamp_x(np.array([])).shape == (0,)
        assert clamp_x(np.empty((0, 3))).shape == (0, 3)

    def test_error_message(self):
        with pytest.raises(ValueError, match=r"argument outside \[-1, 1\] by more than 1e-12"):
            clamp_x([0.0, 1.0 + 2e-12])

    @pytest.mark.parametrize("x", [math.nan, [0.0, math.nan], [[1.0 + 5e-13, math.nan]]])
    def test_nan_raises(self, x):
        with pytest.raises(ValueError, match=r"argument outside \[-1, 1\] by more than 1e-12"):
            clamp_x(x)
