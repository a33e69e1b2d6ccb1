"""Shared Gauss-Legendre panel quadrature: rules and edge policies."""

import math

import numpy as np
import pytest

from sphkern import quadrature
from sphkern.errors import ResourceLimitError
from sphkern.gegenbauer import GegenbauerParams, quadrature_rule, total_mass
from sphkern.quadrature import MAX_QUAD_ORDER, circle_rule, gauss_legendre, panel_rule, theta_rule


class TestOrderBound:
    def test_the_matrix_at_the_bound_stays_under_a_gibibyte(self):
        # both rules build an order x order float64 matrix; --trunc 4000 needs order 4001
        assert 4001 <= MAX_QUAD_ORDER and 8 * MAX_QUAD_ORDER**2 < 2**30

    @pytest.mark.parametrize(
        "rule",
        [gauss_legendre, lambda order: quadrature_rule(GegenbauerParams(1.0), order)],
        ids=["gauss_legendre", "quadrature_rule"],
    )
    def test_both_rules_check_it_before_building(self, monkeypatch, rule):
        # a lowered bound keeps the test small; the cache would skip the check
        monkeypatch.setattr(quadrature, "MAX_QUAD_ORDER", 50)
        gauss_legendre.cache_clear()
        assert rule(50)
        with pytest.raises(ResourceLimitError, match="quadrature order 51 exceeds 50"):
            rule(51)


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
        # merged edges stay as zero-width panels; the live ones cover the
        # circle in order, none narrower than the merge threshold
        order = 8
        t, w = live_panels(*circle_rule(kinks, order), order)
        assert w.sum() == pytest.approx(2.0 * math.pi, abs=1e-14)
        assert np.all(w.reshape(-1, order).sum(axis=1) > 1e-13)
        assert np.all(np.diff(t) > 0.0)
        assert -math.pi < t[0] and t[-1] < math.pi
        want_t, want_w = loop_circle_rule(kinks, order)
        assert np.array_equal(t, want_t) and np.array_equal(w, want_w)

    def test_integrates_kinked_periodic_function(self):
        # |sin t| has kinks at 0 and +-pi; split there the rule is spectral
        t, w = circle_rule([0.0, math.pi], 16)
        assert w @ np.abs(np.sin(t)) == pytest.approx(4.0, rel=1e-14)


# ---------------------------------------------------------------------------
# row-wise rules against the 1-D loops they generalize


def loop_panel_rule(edges, order):
    gl_nodes, gl_weights = gauss_legendre(order)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (hi + lo) + half * gl_nodes)
        weights.append(half * gl_weights)
    return np.concatenate(nodes), np.concatenate(weights)


def loop_circle_rule(kinks, order):
    edges = [-math.pi, math.pi]
    for t in kinks:
        w = (t + math.pi) % (2.0 * math.pi) - math.pi
        edges.append(w)
        if abs(w) > math.pi - 1e-12:
            edges.append(-math.pi if w > 0 else math.pi)
    edges = np.array(sorted(edges))
    edges = edges[np.concatenate([[True], np.diff(edges) > 1e-13])]
    edges[-1] = math.pi
    return loop_panel_rule(edges, order)


def live_panels(t, w, order):
    """The nodes and weights of one rule's panels of nonzero width."""
    live = w.reshape(-1, order).any(axis=1)
    return t.reshape(-1, order)[live].ravel(), w.reshape(-1, order)[live].ravel()


def kink_rows(rng, n_rows, n_kinks):
    """Random kink angles, with ties, near-ties and angles at or near +-pi mixed in."""
    rows = rng.uniform(-4.0, 4.0, (n_rows, n_kinks))
    special = np.array([math.pi, -math.pi, 3 * math.pi, math.pi - 5e-14, -math.pi + 5e-14, 0.0, 1e-14])
    pick = rng.random(rows.shape) < 0.3
    rows[pick] = rng.choice(special, pick.sum())
    tie = rng.random(rows.shape) < 0.2
    rows[:, 1:][tie[:, 1:]] = (rows[:, :-1] + rng.choice([0.0, 5e-14, 2e-13], rows.shape)[:, 1:])[tie[:, 1:]]
    return rows


class TestRowWiseRules:
    @pytest.mark.parametrize("order", [16, 64, 96])
    def test_1d_panel_rule_is_the_loop(self, order):
        rng = np.random.default_rng(order)
        for _ in range(200):
            edges = np.sort(rng.uniform(-4.0, 4.0, rng.integers(2, 9)))
            for given in (edges, list(edges)):
                nodes, weights = panel_rule(given, order)
                want_nodes, want_weights = loop_panel_rule(edges, order)
                assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)

    @pytest.mark.parametrize("order", [8, 64])
    def test_1d_circle_rule_is_the_loop(self, order):
        # a 1-D input is one row: its live panels are the loop's rule
        rng = np.random.default_rng(order)
        for row in kink_rows(rng, 300, 6):
            for kinks in (row, list(row[:3]), []):
                t, w = circle_rule(kinks, order)
                assert t.shape == w.shape == ((len(kinks) + 1) * order,)
                want_t, want_w = loop_circle_rule(kinks, order)
                t, w = live_panels(t, w, order)
                assert np.array_equal(t, want_t) and np.array_equal(w, want_w)
                assert np.all(np.diff(t) > 0.0)

    def test_panel_rule_rows(self):
        rng = np.random.default_rng(1)
        edges = np.sort(rng.uniform(-1.0, 1.0, (3, 4, 6)), axis=-1)
        nodes, weights = panel_rule(edges, 16)
        assert nodes.shape == weights.shape == (3, 4, 5 * 16)
        for idx in np.ndindex(3, 4):
            want_nodes, want_weights = panel_rule(edges[idx], 16)
            assert np.array_equal(nodes[idx], want_nodes) and np.array_equal(weights[idx], want_weights)

    @pytest.mark.parametrize("order", [8, 64])
    def test_circle_rule_rows_are_padded_1d_rules(self, order):
        rows = kink_rows(np.random.default_rng(10 + order), 400, 6)
        t, w = circle_rule(rows, order)
        assert t.shape == w.shape == (400, 7 * order)
        for row, t_row, w_row in zip(rows, t, w):
            dead = ~w_row.reshape(-1, order).any(axis=1)
            assert np.all(t_row.reshape(-1, order)[dead] == t_row.reshape(-1, order)[dead, :1])
            one_t, one_w = circle_rule(row, order)
            assert np.array_equal(t_row, one_t) and np.array_equal(w_row, one_w)
            want_t, want_w = loop_circle_rule(row, order)
            live_t, live_w = live_panels(t_row, w_row, order)
            assert np.array_equal(live_t, want_t) and np.array_equal(live_w, want_w)
            assert live_w.sum() == pytest.approx(2.0 * math.pi, abs=1e-13)
            assert np.all(np.diff(live_t) > 0.0)


    def test_rows_away_from_the_ends_get_one_panel_per_kink(self):
        rows = np.random.default_rng(3).uniform(-3.0, 3.0, (50, 4))
        t, w = circle_rule(rows, 8)
        assert t.shape == w.shape == (50, 5 * 8)
        assert np.all(w > 0.0)


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

