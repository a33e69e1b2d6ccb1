"""Positive definiteness evidence tests: coefficient scans, Gram spectra,
and point-set generation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphkern.convolution import cap_indicator, dimension_hop_conv
from sphkern.gegenbauer import GegenbauerParams, transform, series_eval
from sphkern.kernels import CapConvKernel, TruncatedPower, kernel_from_descriptor
from sphkern.spd import PointSet, _max_neighbour_cos, classify, generate_points, gram_matrix, gram_min_eig, sparse_gram
from sphkern.zonal import ZonalKernel, gegenbauer_kernel

P0 = GegenbauerParams(0.0)
P1 = GegenbauerParams(1.0)


def hop_star1_kernel(c: float) -> ZonalKernel:
    """chi_[c,1] *_1 chi_[c,1] evaluated through the hop machinery."""
    g = cap_indicator(c)
    s = math.acos(c)
    return ZonalKernel(
        fn=lambda xs: dimension_hop_conv(g, g, P0, xs, order=64),
        name=f"cap({c}) *_1 cap({c})",
        breakpoints=(math.cos(2 * s), 1.0),
    )


class TestClassify:
    def test_f2_is_cx_evidence(self):
        f2 = TruncatedPower(2, math.pi / 2).as_kernel()
        report = classify(f2, P1, 40)
        assert report.min_coeff > 0
        assert report.neg_count == 0
        assert report.schoenberg_up_to_N
        assert report.cms_evidence
        assert report.cx_evidence

    def test_single_gegenbauer_term(self):
        report = classify(gegenbauer_kernel(P1, 3), P1, 12)
        assert report.schoenberg_up_to_N
        assert not report.cms_evidence
        assert not report.cx_evidence
        # exactly one strictly positive coefficient, at n = 3
        positive = report.expansion > 10 * report.coeff_errors
        assert positive[3]
        assert np.sum(positive) == 1

    def test_cap_self_convolution_evidence(self):
        report = classify(hop_star1_kernel(0.5), P1, 60, order=240)
        assert report.neg_count == 0
        assert report.pos_even >= 20
        assert report.pos_odd >= 20
        assert report.cms_evidence

    def test_truncated_power_family_cx_membership(self):
        # f_m lies in the CX cone at lambda = (2m - 2) / 2 for m = 2, 3, 4
        for m in (2, 3, 4):
            lam = (2 * m - 1 - 1) / 2
            report = classify(TruncatedPower(m, math.pi / 2).as_kernel(), GegenbauerParams(lam), 40)
            assert report.min_coeff > 0

    def test_scaling_invariance_of_flags(self):
        f2 = TruncatedPower(2, math.pi / 2).as_kernel()
        base = classify(f2, P1, 20)
        for alpha in (0.125, 7.5):
            scaled = ZonalKernel(
                fn=lambda x, a=alpha: a * np.asarray(f2(x)), breakpoints=f2.breakpoints
            )
            report = classify(scaled, P1, 20)
            assert report.flags == base.flags

    def test_lambda_zero_caveat(self):
        report = classify(TruncatedPower(2, 1.0).as_kernel(), P0, 20)
        assert report.cms_caveat is not None
        assert "S^1" in report.cms_caveat

    def test_dip_between_grid_points_is_seen_at_breakpoints(self):
        # a 2e-5 wide dip to -1 falls between the 2001 uniform grid points
        x0, h = 0.1234567, 1e-5
        dip = ZonalKernel(
            fn=lambda x: 1.0 - 2.0 * np.maximum(0.0, 1.0 - np.abs(x - x0) / h),
            breakpoints=(x0 - h, x0 + h, x0),
        )
        report = classify(dip, P1, 12)
        assert report.f_min_on_grid == -1.0
        assert not report.cx_evidence

    def test_dip_just_past_a_breakpoint_is_seen(self):
        # f < 0 only on (b, b + 1e-12]: the grid catches it at b's upper neighbour
        b = 0.25
        spike = ZonalKernel(fn=lambda x: np.where((x > b) & (x <= b + 1e-12), -1.0, 1.0), breakpoints=(b,))
        assert classify(spike, P1, 12).f_min_on_grid == -1.0

    def test_minimum_truncation(self):
        with pytest.raises(ValueError):
            classify(cap_indicator(0.0), P1, 5)

    def test_report_serializes(self):
        import json

        report = classify(TruncatedPower(2, 1.0).as_kernel(), P1, 15)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["flags"]["schoenberg_up_to_N"] is True


class TestGram:
    def test_single_point(self):
        n3 = CapConvKernel(3, math.pi / 3).as_kernel()
        pts = PointSet(d=2, points=np.array([[0.0, 0.0, 1.0]]))
        assert gram_min_eig(n3, pts) == pytest.approx(n3(1.0))

    def test_n3_on_quasi_uniform_points(self):
        pts = generate_points(2, 50, scheme="fibonacci_s2")
        assert gram_min_eig(CapConvKernel(3, math.pi / 3).as_kernel(), pts) > 0

    def test_single_harmonic_is_semidefinite_singular(self):
        # C^1_2(x.y) is PD but finite-rank; many points make it singular
        pts = generate_points(2, 30, scheme="random_seeded", seed=11)
        kernel = gegenbauer_kernel(P1, 2)
        eig = gram_min_eig(kernel, pts)
        m = gram_matrix(kernel, pts)
        assert eig >= -1e-10 * np.linalg.norm(m)
        assert eig < 1e-8

    def test_gram_matrix_symmetric(self):
        pts = generate_points(3, 20, scheme="random_seeded", seed=3)
        m = gram_matrix(TruncatedPower(2, 2.0).as_kernel(), pts)
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize(
        "d, kernel",
        [
            (2, CapConvKernel(3, math.pi / 16).as_kernel()),
            (3, TruncatedPower(2, 0.6).as_kernel()),
            (1, cap_indicator(0.9)),
        ],
        ids=["N_3", "f_2", "cap"],
    )
    def test_support_pairs_match_the_dense_product(self, d, kernel):
        pts = generate_points(d, 300, scheme="random_seeded", seed=5)
        dots = np.clip(pts.points @ pts.points.T, -1.0, 1.0)
        np.fill_diagonal(dots, 1.0)
        m = sparse_gram(kernel, pts).toarray()
        assert np.array_equal(m, m.T)
        assert np.array_equal(m != 0.0, kernel(dots) != 0.0)
        assert np.max(np.abs(m - kernel(dots))) <= 1e-13

    @pytest.mark.parametrize("c", [math.cos(0.5), 0.3, -0.2, 0.999])
    def test_pairs_on_the_edge_are_kept(self, c):
        # x_0 . x_k == c exactly; the tree's chord may round past sqrt(2 - 2c)
        kernel = cap_indicator(c)
        angles = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        ring = np.column_stack([np.full(24, c), math.sqrt(1.0 - c * c) * np.cos(angles), math.sqrt(1.0 - c * c) * np.sin(angles)])
        ring /= np.linalg.norm(ring, axis=1)[:, None]
        pts = PointSet(d=2, points=np.vstack([[1.0, 0.0, 0.0], ring]))
        dots = pts.points @ pts.points.T
        m = sparse_gram(kernel, pts).toarray()
        assert np.array_equal(m[0], (np.clip(dots[0], -1.0, 1.0) >= c).astype(float))
        assert np.sum(m[0, 1:] == 1.0) > 0
        # pairs the widened chord admits past the edge (26 at c = -0.2) are
        # dropped, not stored as zeros
        assert np.all(sparse_gram(kernel, pts).data == 1.0)

    def test_schoenberg_direction_on_truncated_series(self):
        # a series kernel with nonnegative coefficients is PSD up to tail noise
        f2 = TruncatedPower(2, math.pi / 2).as_kernel()
        coeffs = transform(f2, P1, 30, order=200)
        series_kernel = ZonalKernel(fn=lambda x: np.asarray(series_eval(coeffs, x)))
        pts = generate_points(3, 40, scheme="random_seeded", seed=9)
        assert gram_min_eig(series_kernel, pts) >= -1e-10

    def test_series_kernel_gram_builds_no_basis_table(self):
        # the (N+1) x n^2 basis table alone was 305 MiB here; M_X is 7.6 MiB
        coeffs = (1.0 / (1.0 + np.arange(41.0)) ** 3).tolist()
        kernel = kernel_from_descriptor({"family": "series", "coeffs": coeffs, "lambda": 0.5})
        pts = generate_points(2, 1000, scheme="fibonacci_s2")
        tracemalloc.start()
        try:
            m = gram_matrix(kernel, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(m))
        assert peak < 64 * 2**20


class TestGeneratePoints:
    def test_single_point(self):
        pts = generate_points(2, 1)
        assert len(pts) == 1
        assert np.linalg.norm(pts.points[0]) == pytest.approx(1.0, abs=1e-14)

    def test_fibonacci_quasi_uniformity(self):
        pts = generate_points(2, 100, scheme="fibonacci_s2")
        assert pts.min_geodesic_separation() > 0.1

    def test_random_reproducible(self):
        a = generate_points(4, 20, scheme="random_seeded", seed=7)
        b = generate_points(4, 20, scheme="random_seeded", seed=7)
        assert np.array_equal(a.points, b.points)

    def test_fibonacci_needs_s2(self):
        with pytest.raises(ValueError):
            generate_points(3, 10, scheme="fibonacci_s2")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            generate_points(2, 10, scheme="halton")

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=1000))
    def test_random_points_valid(self, n, seed):
        pts = generate_points(2, n, scheme="random_seeded", seed=seed)
        norms = np.linalg.norm(pts.points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestPointSet:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            PointSet(d=2, points=np.array([[1.0, 1.0, 0.0]]))

    def test_rejects_duplicates(self):
        p = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            PointSet(d=2, points=p)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointSet(d=2, points=np.zeros((3, 2)))

    def test_separation_of_antipodes(self):
        pts = PointSet(d=1, points=np.array([[0.0, 1.0], [0.0, -1.0]]))
        assert pts.min_geodesic_separation() == pytest.approx(math.pi)

    def test_separation_matches_the_clipped_gram(self):
        pts = generate_points(2, 400, scheme="fibonacci_s2")
        gram = np.clip(pts.points @ pts.points.T, -1.0, 1.0)
        np.fill_diagonal(gram, -1.0)
        assert pts.min_geodesic_separation() == float(np.arccos(np.max(gram)))

    def test_coincidence_threshold(self):
        def pair(angle):
            return np.array([[0.0, 0.0, 1.0], [math.sin(angle), 0.0, math.cos(angle)]])

        with pytest.raises(ValueError, match="coincident"):
            PointSet(d=2, points=pair(1e-8))  # cos = 1 - 5e-17
        assert PointSet(d=2, points=pair(1e-6)).min_geodesic_separation() == pytest.approx(1e-6, rel=1e-3)


def _with_near_pair(rng, d: int, n: int, cos_gap: float | None, duplicate: bool) -> np.ndarray:
    """n random points on S^d, plus a pair 1 - cos_gap apart and/or an exact duplicate."""
    raw = rng.standard_normal((n, d + 1))
    pts = raw / np.linalg.norm(raw, axis=1)[:, None]
    extra = []
    if cos_gap is not None:
        x0 = pts[0]
        u = rng.standard_normal(d + 1)
        u -= (u @ x0) * x0
        u /= np.linalg.norm(u)
        angle = math.acos(1.0 - cos_gap)
        extra.append(math.cos(angle) * x0 + math.sin(angle) * u)
    if duplicate:
        extra.append(pts[n // 2].copy())
    pts = np.vstack([pts, *extra]) if extra else pts
    return pts[rng.permutation(len(pts))]


class TestNeighbourSeparation:
    """The kd-tree separation against the brute-force n x n product."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "cos_gap, duplicate",
        [(None, False), (0.8e-14, False), (1.2e-14, False), (1e-9, False), (None, True), (1.2e-14, True)],
        ids=["random", "below-threshold", "above-threshold", "close", "duplicate", "close+duplicate"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, d, cos_gap, duplicate, seed):
        pts = _with_near_pair(np.random.default_rng(seed), d, 300, cos_gap, duplicate)
        gram = pts @ pts.T
        np.fill_diagonal(gram, -1.0)
        brute = min(float(np.max(gram)), 1.0)
        assert abs(_max_neighbour_cos(pts) - brute) <= 1e-15
        coincident = brute >= 1.0 - 1e-14
        assert coincident == (duplicate or cos_gap == 0.8e-14)
        if coincident:
            with pytest.raises(ValueError, match="coincident"):
                PointSet(d=d, points=pts)
        else:
            sep = PointSet(d=d, points=pts).min_geodesic_separation()
            assert abs(math.cos(sep) - brute) <= 1e-15

    def test_triplicate(self):
        p = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert _max_neighbour_cos(p) == 1.0

    def test_large_set_stays_small(self):
        pts = generate_points(2, 8000, scheme="fibonacci_s2").points
        tracemalloc.start()
        try:
            PointSet(d=2, points=pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n x n product this replaced was 488 MiB alone
        assert peak < 32 * 2**20
