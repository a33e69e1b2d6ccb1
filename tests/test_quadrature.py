"""Shared Gauss-Legendre panel quadrature: rules, edge policies, cumulative integral."""

import math

import numpy as np
import pytest

from sphkern.gegenbauer import GegenbauerParams, total_mass
from sphkern.quadrature import circle_rule, cumulative_integral, panel_rule, theta_rule


class TestPanelRule:
    @pytest.mark.parametrize("order", [1, 4, 9])
    def test_exact_to_degree_2n_minus_1_on_each_panel(self, order):
        edges = [-1.0, -0.3, 0.2, 0.25, 1.0]
        nodes, weights = panel_rule(edges, order)
        assert nodes.shape == weights.shape == (order * (len(edges) - 1),)
        for (lo, hi), x, w in zip(zip(edges[:-1], edges[1:]), nodes.reshape(-1, order), weights.reshape(-1, order)):
            assert np.all((lo < x) & (x < hi))
            for k in range(2 * order):
                exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                assert w @ x**k == pytest.approx(exact, rel=1e-13, abs=1e-15)


class TestCircleRule:
    @pytest.mark.parametrize(
        "kinks",
        [
            [math.pi, -math.pi],
            [0.3, 0.3 + 5e-14, -0.3, -0.3 - 5e-14],
            [math.pi - 5e-14, -math.pi + 5e-14],
            [3 * math.pi, -2.0, -2.0 + 2 * math.pi, 1e-14, -1e-14],
        ],
    )
    def test_covers_circle_without_zero_width_panels(self, kinks):
        order = 8
        t, w = circle_rule(kinks, order)
        assert w.sum() == pytest.approx(2.0 * math.pi, abs=1e-14)
        widths = w.reshape(-1, order).sum(axis=1)
        assert np.all(widths > 1e-13)
        assert np.all(np.diff(t) > 0.0)
        assert -math.pi < t[0] and t[-1] < math.pi

    def test_integrates_kinked_periodic_function(self):
        # |sin t| has kinks at 0 and +-pi; split there the rule is spectral
        t, w = circle_rule([0.0, math.pi], 16)
        assert w @ np.abs(np.sin(t)) == pytest.approx(4.0, rel=1e-14)


class TestThetaRule:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("breakpoints", [(), (-1.0, 1.0), (-1.0, 0.3, 1.0)])
    def test_total_mass(self, lam, breakpoints):
        x, w = theta_rule(breakpoints, lam, 32)
        assert np.all(np.abs(x) <= 1.0)
        assert w.sum() == pytest.approx(total_mass(GegenbauerParams(lam)), rel=1e-14)

    def test_breakpoints_outside_interval_are_ignored(self):
        x_in, w_in = theta_rule((0.3,), 1.0, 16)
        x_out, w_out = theta_rule((-1.5, 0.3, 2.0), 1.0, 16)
        assert np.array_equal(x_in, x_out) and np.array_equal(w_in, w_out)


B = 0.3  # breakpoint of the kinked integrand |x - B|


def kinked(x):
    return np.abs(np.asarray(x) - B)


def kinked_integral(x):
    """int_{-1}^{x} |u - B| du."""
    left = 0.5 * ((B + 1.0) ** 2 - (B - np.minimum(x, B)) ** 2)
    return left + 0.5 * np.maximum(x - B, 0.0) ** 2


class TestCumulativeIntegral:
    def test_zero_at_minus_one(self):
        assert cumulative_integral(kinked, np.array([-1.0]), 1e-12, (B,))[0] == 0.0
        assert cumulative_integral(kinked, np.array([0.5, -1.0, B]), 1e-12, (B,))[1] == 0.0

    def test_exact_at_breakpoint_and_shape_kept(self):
        xs = np.array([[B, -1.0, 1.0], [0.0, B, 0.9]])
        out = cumulative_integral(kinked, xs, 1e-12, (B,))
        assert out.shape == xs.shape
        assert out[0, 0] == out[1, 1] == pytest.approx(0.5 * (B + 1.0) ** 2, rel=1e-15)
        assert np.max(np.abs(out - kinked_integral(xs))) < 1e-13
