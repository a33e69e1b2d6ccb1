"""Interpolation tests: solve/evaluate round trips, equivariances, and the
failure modes of non-SPD kernels."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import lapack
from scipy.spatial import cKDTree

from sphkern import interpolation
from sphkern.convolution import cap_indicator
from sphkern.errors import AccuracyError, EvaluationError, NotPositiveDefiniteError
from sphkern.gegenbauer import GegenbauerParams
from sphkern.interpolation import (
    _DENSE_COST,
    Interpolant,
    _block_sums,
    _lower_band,
    _solve_cg,
    _solve_cholesky,
    _support_pair_sums,
    evaluate_interpolant,
    solve_interpolation,
)
from sphkern.kernels import CapConvKernel, MonteeIterate, TruncatedPower, kernel_from_descriptor
from sphkern.spd import PointSet, generate_points, sparse_gram, support_chord
from sphkern.zonal import ZonalKernel, gegenbauer_kernel

N3 = CapConvKernel(3, math.pi / 3).as_kernel()
N5 = CapConvKernel(5, math.pi / 3).as_kernel()


def harmonic(points: np.ndarray) -> np.ndarray:
    """A fixed degree-2 spherical harmonic on S^2 (smooth target)."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    return x * y + 0.5 * (3 * z**2 - 1.0)


class TestSolve:
    def test_single_point(self):
        pts = PointSet(d=2, points=np.array([[0.0, 0.0, 1.0]]))
        itp = solve_interpolation(pts, [1.0], N3)
        assert np.allclose(itp.coefficients, [1.0])

    def test_antipodal_points_identity_gram(self):
        # geodesic distance pi exceeds the support radius 2s, so M_X = I
        pts = PointSet(d=2, points=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        values = np.array([2.0, -3.0])
        itp = solve_interpolation(pts, values, N3)
        assert np.allclose(itp.coefficients, values, atol=1e-14)

    def test_fibonacci_harmonic_residual(self):
        pts = generate_points(2, 50, scheme="fibonacci_s2")
        values = harmonic(pts.points)
        itp = solve_interpolation(pts, values, N5)
        assert itp.residual_inf <= 1e-9 * np.max(np.abs(values))

    def test_value_count_mismatch(self):
        pts = generate_points(2, 10, scheme="fibonacci_s2")
        with pytest.raises(ValueError):
            solve_interpolation(pts, np.ones(9), N3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "n, kernel",
        [(50, N3), (4000, CapConvKernel(3, math.pi / 32).as_kernel())],
        ids=["cholesky", "cg"],  # the routes of "small" and "n3_narrow" in TestSolveRoutes
    )
    def test_non_finite_values_rejected(self, n, kernel, bad):
        pts = generate_points(2, n, scheme="fibonacci_s2")
        values = harmonic(pts.points)
        values[n // 3] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_interpolation(pts, values, kernel)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_bad_residual_tolerance_rejected(self, tol):
        pts = generate_points(2, 20, scheme="fibonacci_s2")
        with pytest.raises(ValueError, match="tolerance"):
            solve_interpolation(pts, harmonic(pts.points), N3, residual_tol=tol)

    def test_empty_point_set_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            solve_interpolation(PointSet(d=2, points=np.empty((0, 3))), np.empty(0), N3)

    def test_nan_residual_breaks_the_contract(self, monkeypatch):
        monkeypatch.setattr(interpolation, "_solve_cholesky", lambda m, f: (np.zeros_like(f), math.nan))
        pts = generate_points(2, 10, scheme="fibonacci_s2")
        with pytest.raises(NotPositiveDefiniteError, match="residual"):
            solve_interpolation(pts, np.ones(10), N3)

    def test_non_spd_kernel_raises_with_pivot(self):
        # a single degree-2 harmonic has rank 9; 30 points break Cholesky
        pts = generate_points(2, 30, scheme="random_seeded", seed=11)
        kernel = gegenbauer_kernel(GegenbauerParams(1.0), 2)
        with pytest.raises(NotPositiveDefiniteError) as err:
            solve_interpolation(pts, np.ones(30), kernel)
        assert err.value.pivot >= 1


class TestEvaluate:
    def test_interpolation_conditions(self):
        pts = generate_points(2, 40, scheme="fibonacci_s2")
        values = harmonic(pts.points)
        itp = solve_interpolation(pts, values, N3)
        assert np.max(np.abs(evaluate_interpolant(itp, pts.points) - values)) <= 1e-9

    def test_zero_coefficients(self):
        pts = generate_points(2, 10, scheme="fibonacci_s2")
        itp = solve_interpolation(pts, np.zeros(10), N3)
        q = generate_points(2, 5, scheme="random_seeded", seed=1)
        assert np.allclose(evaluate_interpolant(itp, q.points), 0.0)

    def test_non_unit_query_rejected(self):
        pts = generate_points(2, 5, scheme="fibonacci_s2")
        itp = solve_interpolation(pts, np.ones(5), N3)
        with pytest.raises(ValueError):
            evaluate_interpolant(itp, np.array([0.0, 0.0, 1.1]))

    def test_nan_query_rejected(self):
        pts = generate_points(2, 5, scheme="fibonacci_s2")
        itp = solve_interpolation(pts, np.ones(5), N3)
        with pytest.raises(ValueError):
            evaluate_interpolant(itp, np.array([0.0, math.nan, 1.0]))
        q = generate_points(2, 3000, scheme="random_seeded", seed=4).points.copy()
        q[2100] = math.nan  # every row is checked, not only the first block's
        with pytest.raises(ValueError):
            evaluate_interpolant(itp, q)

    def test_query_blocks_match_per_row_sums(self):
        # 2500 queries: 19 full blocks and a partial one
        pts = generate_points(2, 200, scheme="fibonacci_s2")
        itp = solve_interpolation(pts, harmonic(pts.points), N3)
        q = generate_points(2, 2500, scheme="random_seeded", seed=8).points
        out = evaluate_interpolant(itp, q)
        direct = []
        for row in q:
            dots = np.clip(pts.points @ row, -1.0, 1.0)
            dots[dots > 1.0 - 4e-15] = 1.0
            direct.append(sum(c * g for c, g in zip(itp.coefficients, N3(dots))))
        assert out.shape == (2500,)
        assert np.max(np.abs(out - direct)) <= 1e-15 * np.sum(np.abs(itp.coefficients))
        assert type(evaluate_interpolant(itp, q[2499])) is float

    def test_support_edge_is_inside(self):
        # chi_[c,1] is 1 at x == c exactly: the mask must keep the edge
        c = math.cos(0.5)
        centers = PointSet(d=2, points=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        itp = Interpolant(centers, cap_indicator(c), np.array([2.0, 3.0]), 0.0)
        queries = np.array([[c, math.sqrt(1.0 - c * c), 0.0], [c, 0.0, -math.sqrt(1.0 - c * c)]])
        queries /= np.linalg.norm(queries, axis=1)[:, None]
        dots = np.clip(queries @ centers.points.T, -1.0, 1.0)
        expected = (dots >= c).astype(float) @ itp.coefficients
        assert np.array_equal(evaluate_interpolant(itp, queries), expected)
        assert expected[0] == 2.0

    def test_convergence_trend(self):
        # refining 25 -> 100 centers shrinks the grid error for a smooth target
        grid = generate_points(2, 200, scheme="random_seeded", seed=42)
        target = harmonic(grid.points)
        errors = []
        for n in (25, 100):
            pts = generate_points(2, n, scheme="fibonacci_s2")
            itp = solve_interpolation(pts, harmonic(pts.points), N5)
            errors.append(np.max(np.abs(evaluate_interpolant(itp, grid.points) - target)))
        assert errors[1] < errors[0]


def _dense_sums(itp: Interpolant, q: np.ndarray) -> np.ndarray:
    """Brute force: every query against every center through clamped dot products."""
    dots = np.clip(q @ itp.centers.points.T, -1.0, 1.0)
    dots[dots > 1.0 - 4e-15] = 1.0
    return np.where(dots >= itp.kernel.support_edge, itp.kernel(dots), 0.0) @ itp.coefficients


def _random_coefficients(pts: PointSet, kernel) -> Interpolant:
    c = np.random.default_rng(5).standard_normal(len(pts))
    return Interpolant(pts, kernel, c, 0.0)


def _record_pair_blocks(monkeypatch):
    """Spy on the support-pair route: the length of each query block it sums."""
    blocks = []
    pair_sums = interpolation._support_pair_sums

    def spy(itp, block, tree):
        blocks.append(len(block))
        return pair_sums(itp, block, tree)

    monkeypatch.setattr(interpolation, "_support_pair_sums", spy)
    return blocks


class TestPairEvaluation:
    """Support-pair sums of locally supported kernels against dense dot products."""

    def test_n3_at_centers_antipodes_and_support_edge(self, monkeypatch):
        s = math.pi / 32
        kernel = CapConvKernel(3, s).as_kernel()
        pts = generate_points(2, 2000, scheme="fibonacci_s2")
        itp = _random_coefficients(pts, kernel)
        p = pts.points
        # rotate every 13th center by exactly 2s along a great circle
        tangent = np.cross(p[::13], [0.6, 0.0, 0.8])
        tangent /= np.linalg.norm(tangent, axis=1)[:, None]
        on_edge = math.cos(2 * s) * p[::13] + math.sin(2 * s) * tangent
        on_edge /= np.linalg.norm(on_edge, axis=1)[:, None]
        edge_dots = np.einsum("ij,ij->i", on_edge, p[::13])
        assert np.max(np.abs(edge_dots - kernel.support_edge)) <= 1e-15
        queries = np.vstack([p[::7], -p[::11], on_edge])
        blocks = _record_pair_blocks(monkeypatch)
        out = evaluate_interpolant(itp, queries)
        assert len(queries) == 622 and sorted(blocks) == [110] + [128] * 4
        scale = np.sum(np.abs(itp.coefficients))
        assert np.max(np.abs(out - _dense_sums(itp, queries))) <= 1e-15 * scale
        # one center and a query at its antipode (x = -1): no pairs at all
        pole = _random_coefficients(PointSet(d=2, points=np.array([[0.0, 0.0, 1.0]])), kernel)
        assert evaluate_interpolant(pole, np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])).tolist() == [
            0.0,
            pole.coefficients[0],
        ]

    def test_i2f4_on_s3_with_a_partial_block(self, monkeypatch):
        kernel = MonteeIterate(TruncatedPower(4, 1.0), 2).as_kernel()
        itp = _random_coefficients(generate_points(3, 600, seed=1), kernel)
        queries = generate_points(3, 1500, seed=2).points
        blocks = _record_pair_blocks(monkeypatch)
        out = evaluate_interpolant(itp, queries)
        assert sorted(blocks) == [92] + [128] * 11
        assert np.max(np.abs(out - _dense_sums(itp, queries))) <= 1e-15 * np.sum(np.abs(itp.coefficients))

    def test_n3_partial_last_block(self, monkeypatch):
        kernel = CapConvKernel(3, math.pi / 32).as_kernel()
        itp = _random_coefficients(generate_points(2, 2000, scheme="fibonacci_s2"), kernel)
        queries = generate_points(2, 2100, seed=3).points
        blocks = _record_pair_blocks(monkeypatch)
        out = evaluate_interpolant(itp, queries)
        assert sorted(blocks) == [52] + [128] * 16
        assert np.max(np.abs(out - _dense_sums(itp, queries))) <= 1e-15 * np.sum(np.abs(itp.coefficients))

    @pytest.mark.parametrize("kernel", [N3, gegenbauer_kernel(GegenbauerParams(0.5), 3)], ids=["pairs", "dense"])
    def test_no_queries(self, kernel):
        itp = _random_coefficients(generate_points(2, 50, scheme="fibonacci_s2"), kernel)
        out = evaluate_interpolant(itp, np.empty((0, 3)))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_pairs_past_the_edge_add_nothing(self):
        # chi_[c,1] reads 1 on its whole support, so a pair past the edge
        # that reached the profile would add its full coefficient
        c = math.cos(0.5)
        kernel = cap_indicator(c)
        pts = generate_points(2, 400, scheme="fibonacci_s2")
        itp = _random_coefficients(pts, kernel)
        p = pts.points[::5]
        tangent = np.cross(p, [0.6, 0.0, 0.8])
        tangent /= np.linalg.norm(tangent, axis=1)[:, None]
        # 1e-13 past the edge is still inside the widened chord; 1e-13 inside it
        angles = np.repeat([0.5 + 1e-13, 0.5 - 1e-13], len(p))[:, None]
        block = np.cos(angles) * np.tile(p, (2, 1)) + np.sin(angles) * np.tile(tangent, (2, 1))
        block /= np.linalg.norm(block, axis=1)[:, None]
        tree = cKDTree(pts.points)
        pairs = cKDTree(block).sparse_distance_matrix(tree, support_chord(c), output_type="ndarray")
        assert np.sum(1.0 - pairs["v"] ** 2 / 2.0 < c) >= len(p)
        out = _support_pair_sums(itp, block, tree)
        assert np.max(np.abs(out - _dense_sums(itp, block))) <= 1e-15 * np.sum(np.abs(itp.coefficients))

    def test_series_kernel_stays_dense(self, monkeypatch):
        kernel = kernel_from_descriptor({"family": "series", "coeffs": [1.0, 0.5, 0.25, 0.125], "lambda": 0.5})
        itp = _random_coefficients(generate_points(2, 300, scheme="fibonacci_s2"), kernel)
        queries = generate_points(2, 1100, seed=4).points
        blocks = _record_pair_blocks(monkeypatch)
        out = evaluate_interpolant(itp, queries)
        assert blocks == []
        assert np.max(np.abs(out - _dense_sums(itp, queries))) <= 1e-15 * np.sum(np.abs(itp.coefficients))

    def test_narrow_support_evaluation_stays_under_16_mib(self):
        # a 2048 x 8000 dot block alone is 125 MiB; the pairs need 1.9 MiB
        kernel = CapConvKernel(3, math.pi / 64).as_kernel()
        itp = _random_coefficients(generate_points(2, 8000, scheme="fibonacci_s2"), kernel)
        queries = generate_points(2, 2048, seed=7).points
        tracemalloc.start()
        try:
            out = evaluate_interpolant(itp, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out))
        assert peak < 16 * 2**20


@pytest.fixture(params=["pairs", "dense"])
def route_problem(request):
    """A pair-route (N_3, s = pi/32) and a dense-route (no local support)
    interpolant with random coefficients, and 1500 queries: 12 blocks."""
    if request.param == "pairs":
        kernel = CapConvKernel(3, math.pi / 32).as_kernel()
        pts = generate_points(2, 2000, scheme="fibonacci_s2")
    else:
        kernel = gegenbauer_kernel(GegenbauerParams(0.5), 3)
        pts = generate_points(2, 300, scheme="fibonacci_s2")
    return _random_coefficients(pts, kernel), generate_points(2, 1500, seed=9).points


def _block_threads(monkeypatch, workers: int):
    """Force `workers` threads and spy on _block_sums: the thread each block
    ran on.  Each thread's first block waits until every thread has one, so
    all of them must take part."""
    monkeypatch.setattr(interpolation, "_worker_count", lambda: workers)
    threads = []
    everyone = threading.Barrier(workers)

    def spy(itp, tree, block):
        if threading.get_ident() not in threads:
            everyone.wait(timeout=30)
        threads.append(threading.get_ident())
        return _block_sums(itp, tree, block)

    monkeypatch.setattr(interpolation, "_block_sums", spy)
    return threads


class TestThreadedEvaluation:
    """Sorted query blocks summed by the caller and a thread pool, on both routes."""

    def test_worker_count_changes_no_bit(self, monkeypatch, route_problem):
        itp, queries = route_problem
        outputs = []
        for workers in (1, 2, 3):
            threads = _block_threads(monkeypatch, workers)
            outputs.append(evaluate_interpolant(itp, queries))
            assert len(threads) == 12
            assert len(set(threads)) == workers and threading.get_ident() in threads
        assert outputs[0].tobytes() == outputs[1].tobytes() == outputs[2].tobytes()
        scale = np.sum(np.abs(itp.coefficients))
        assert np.max(np.abs(outputs[0] - _dense_sums(itp, queries))) <= 1e-15 * scale

    def test_shuffled_queries_give_the_permuted_output(self, monkeypatch, route_problem):
        itp, queries = route_problem
        monkeypatch.setattr(interpolation, "_worker_count", lambda: 2)
        perm = np.random.default_rng(10).permutation(len(queries))
        out = evaluate_interpolant(itp, queries)
        assert evaluate_interpolant(itp, queries[perm]).tobytes() == out[perm].tobytes()

    def test_a_raising_block_raises_and_joins_its_workers(self, monkeypatch):
        # the profile raises on the one block that holds a query at a center
        n3 = CapConvKernel(3, math.pi / 32).as_kernel()
        boom = EvaluationError("boom")

        def profile(x):
            if np.any(x == 1.0):
                raise boom
            return n3(x)

        kernel = ZonalKernel(fn=profile, support_edge=n3.support_edge)
        pts = generate_points(2, 2000, scheme="fibonacci_s2")
        itp = _random_coefficients(pts, kernel)
        queries = generate_points(2, 1500, seed=9).points
        queries[700] = pts.points[1000]
        threads = _block_threads(monkeypatch, 3)
        before = set(threading.enumerate())
        with pytest.raises(EvaluationError) as err:
            evaluate_interpolant(itp, queries)
        assert err.value is boom
        assert set(threading.enumerate()) == before
        assert len(set(threads)) == 3


def test_map_on_threads_takes_each_item_once():
    # more threads than cores, switching as often as the interpreter allows
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = interpolation._map_on_threads(lambda k: calls.append(k) or k * k, list(range(500)), 8)
    finally:
        sys.setswitchinterval(interval)
    assert out == [k * k for k in range(500)]
    assert sorted(calls) == list(range(500))


class TestEquivariance:
    def test_rotation(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        pts = generate_points(2, 40, scheme="fibonacci_s2")
        values = harmonic(pts.points)
        itp = solve_interpolation(pts, values, N3)
        rotated = PointSet(d=2, points=pts.points @ q.T)
        itp_rot = solve_interpolation(rotated, values, N3)
        queries = generate_points(2, 25, scheme="random_seeded", seed=8).points
        direct = evaluate_interpolant(itp, queries)
        through_rotation = evaluate_interpolant(itp_rot, queries @ q.T)
        assert np.max(np.abs(direct - through_rotation)) <= 1e-10

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=500))
    def test_permutation_invariance(self, seed):
        pts = generate_points(2, 20, scheme="fibonacci_s2")
        values = harmonic(pts.points)
        itp = solve_interpolation(pts, values, N3)
        perm = np.random.default_rng(seed).permutation(20)
        itp_perm = solve_interpolation(
            PointSet(d=2, points=pts.points[perm]), values[perm], N3
        )
        queries = generate_points(2, 7, scheme="random_seeded", seed=2).points
        assert np.allclose(
            evaluate_interpolant(itp, queries), evaluate_interpolant(itp_perm, queries), atol=1e-11
        )

    def test_reproduction(self):
        # data sampled from the interpolant itself returns the same coefficients
        pts = generate_points(2, 30, scheme="fibonacci_s2")
        itp = solve_interpolation(pts, harmonic(pts.points), N3)
        again = solve_interpolation(pts, evaluate_interpolant(itp, pts.points), N3)
        assert np.max(np.abs(again.coefficients - itp.coefficients)) <= 1e-8


def _record_routes(monkeypatch):
    """Replace both solve routes by stubs that record which one ran."""
    routes = []
    for name in ("_solve_cg", "_solve_cholesky"):
        def stub(m, f, name=name):
            routes.append(name)
            return (np.zeros_like(f), 0.0, 0) if name == "_solve_cg" else (np.zeros_like(f), 0.0)

        monkeypatch.setattr(interpolation, name, stub)
    return routes


class TestSolveRoutes:
    """Sparse CG and dense Cholesky on locally supported kernels."""

    @pytest.mark.parametrize(
        "d, n, kernel, route",
        [
            (2, 4000, CapConvKernel(3, math.pi / 32).as_kernel(), "_solve_cg"),  # 39 nonzeros per row
            (2, 4000, CapConvKernel(3, math.pi / 8).as_kernel(), "_solve_cholesky"),  # 585
            (3, 2000, MonteeIterate(TruncatedPower(4, 1.0), 2).as_kernel(), "_solve_cholesky"),  # 348, n = 2000
            (2, 500, gegenbauer_kernel(GegenbauerParams(0.5), 3), "_solve_cholesky"),  # no local support
            (2, 50, CapConvKernel(3, math.pi / 64).as_kernel(), "_solve_cholesky"),  # small n
        ],
        ids=["n3_narrow", "n3_wide", "i2f4_s3", "global", "small"],
    )
    def test_route(self, monkeypatch, d, n, kernel, route):
        pts = generate_points(2, n, scheme="fibonacci_s2") if d == 2 else generate_points(d, n, seed=1)
        routes = _record_routes(monkeypatch)
        solve_interpolation(pts, np.ones(n), kernel)
        assert routes == [route]

    def test_cg_matches_cholesky(self):
        kernel = CapConvKernel(3, math.pi / 32).as_kernel()
        pts = generate_points(2, 4000, scheme="fibonacci_s2")
        values = harmonic(pts.points) + 1.0
        m = sparse_gram(kernel, pts)
        c_cg, res_cg, _ = _solve_cg(m.tocsr(), values)
        c_dense, res_dense = _solve_cholesky(m.toarray(), values)
        scale = np.max(np.abs(values))
        assert res_cg <= 1e-12 * scale and res_dense <= 1e-12 * scale
        assert np.max(np.abs(c_cg - c_dense)) <= 1e-10 * np.max(np.abs(c_dense))
        queries = generate_points(2, 2000, scheme="random_seeded", seed=6).points
        through_cg = evaluate_interpolant(Interpolant(pts, kernel, c_cg, res_cg), queries)
        through_dense = evaluate_interpolant(Interpolant(pts, kernel, c_dense, res_dense), queries)
        assert np.max(np.abs(through_cg - through_dense)) <= 1e-11

    def test_sorted_band_stays_under_160_mib(self):
        # random points in their given order have bandwidth 3998 (196 MiB
        # peak as a band); sorted, 1557.  A dense factorization peaks at 280 MiB.
        pts = generate_points(2, 4000, seed=1)
        values = harmonic(pts.points) + 1.0
        tracemalloc.start()
        try:
            itp = solve_interpolation(pts, values, CapConvKernel(3, math.pi / 8).as_kernel())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert itp.residual_inf <= 1e-12 * np.max(np.abs(values))
        assert peak < 160 * 2**20  # 96 MiB measured

    def test_band_detects_a_kernel_that_is_not_pd(self):
        # f_1 is not PD on S^2: its Gram matrix here has eigenvalue -0.37
        kernel = TruncatedPower(1, math.pi / 4).as_kernel()
        pts = generate_points(2, 500, scheme="fibonacci_s2")
        assert 500**3 <= _DENSE_COST * sparse_gram(kernel, pts).nnz  # the Cholesky route
        with pytest.raises(NotPositiveDefiniteError) as err:
            solve_interpolation(pts, harmonic(pts.points) + 1.0, kernel)
        assert err.value.pivot >= 1  # 56, counted in the sorted order

    def test_cg_detects_a_kernel_that_is_not_pd(self):
        # f_1 is not PD on S^2: its Gram matrix here has eigenvalue -6.1e-3
        kernel = TruncatedPower(1, math.pi / 32).as_kernel()
        pts = generate_points(2, 4000, scheme="fibonacci_s2")
        with pytest.raises(NotPositiveDefiniteError, match="curvature"):
            _solve_cg(sparse_gram(kernel, pts).tocsr(), harmonic(pts.points) + 1.0)
        with pytest.raises(NotPositiveDefiniteError):
            solve_interpolation(pts, harmonic(pts.points) + 1.0, kernel)

    def test_cg_rejects_a_non_positive_diagonal(self):
        kernel = TruncatedPower(1, math.pi / 32).as_kernel()
        pts = generate_points(2, 100, scheme="fibonacci_s2")
        with pytest.raises(NotPositiveDefiniteError):
            _solve_cg(-sparse_gram(kernel, pts).tocsr(), np.ones(100))

    def test_cg_stops_at_the_cap_with_an_accuracy_error(self, monkeypatch):
        monkeypatch.setattr(interpolation, "_CG_MAX_ITER", 3)
        kernel = CapConvKernel(3, math.pi / 32).as_kernel()
        pts = generate_points(2, 4000, scheme="fibonacci_s2")
        values = harmonic(pts.points) + 1.0
        with pytest.raises(AccuracyError, match="CG did not converge in 3 iterations") as err:
            solve_interpolation(pts, values, kernel)
        order = _sorted(pts)
        _, res, steps = _solve_cg(sparse_gram(kernel, pts, order).tocsr(), values[order])
        assert steps == 3 and err.value.achieved == res > 1e-9 * np.max(np.abs(values))

    def test_cg_names_a_non_positive_diagonal(self):
        # f(1) < 0: the guard fires before any CG step could meet the curvature
        pts = generate_points(2, 100, scheme="fibonacci_s2")
        with pytest.raises(NotPositiveDefiniteError, match="diagonal"):
            _solve_cg(-sparse_gram(N3, pts).tocsr(), np.ones(100))

    def test_cg_zero_data(self):
        pts = generate_points(2, 100, scheme="fibonacci_s2")
        c, res, steps = _solve_cg(sparse_gram(N3, pts).tocsr(), np.zeros(100))
        assert res == 0.0 and steps == 0 and not np.any(c)

    def test_twenty_thousand_points_go_through_cg(self, monkeypatch):
        kernel = CapConvKernel(3, math.pi / 32).as_kernel()
        pts = generate_points(2, 20_000, scheme="fibonacci_s2")
        values = harmonic(pts.points) + 1.0
        routes = []
        monkeypatch.setattr(interpolation, "_solve_cholesky", lambda m, f: routes.append("dense"))
        tracemalloc.start()
        try:
            itp = solve_interpolation(pts, values, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert routes == []
        assert itp.residual_inf <= 1e-9 * np.max(np.abs(values))
        # a dense Gram matrix alone would be 3.2 GB
        assert peak < 512 * 2**20


def _sorted(pts: PointSet) -> np.ndarray:
    """The order solve_interpolation assembles a locally supported M_X in."""
    return np.argsort(pts.points[:, np.argmax(np.ptp(pts.points, axis=0))])


def _band_problem(name):
    """Centers, kernel and data of one banded-vs-dense comparison."""
    if name == "n3_wide":
        pts = generate_points(2, 4000, seed=3)
        return pts, CapConvKernel(3, math.pi / 8).as_kernel(), harmonic(pts.points) + 1.0
    if name == "i2f4_s3":
        pts = generate_points(3, 2000, seed=3)
        p = pts.points
        return pts, MonteeIterate(TruncatedPower(4, 1.0), 2).as_kernel(), 1.0 + p[:, 0] * p[:, 1] - 0.5 * p[:, 3]
    if name == "antipodal":
        pts = PointSet(d=2, points=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        return pts, N3, np.array([2.0, -3.0])
    if name == "near_duplicate":
        # 3000 random S^2 points, the second moved to 1e-6 from the first:
        # kappa(M_X) = 5.2e7 for N_3 at s = pi/8 (eigvalsh)
        p = generate_points(2, 3000, seed=5).points.copy()
        tangent = np.cross(p[0], [0.0, 0.0, 1.0])
        p[1] = math.cos(1e-6) * p[0] + math.sin(1e-6) * tangent / np.linalg.norm(tangent)
        pts = PointSet(d=2, points=p)
        return pts, CapConvKernel(3, math.pi / 8).as_kernel(), harmonic(p) + 1.0
    if name == "beyond_support":
        # octahedron vertices, pi/2 apart; N_3 at s = pi/8 reaches pi/4
        pts = PointSet(d=2, points=np.vstack([np.eye(3), -np.eye(3)]))
        return pts, CapConvKernel(3, math.pi / 8).as_kernel(), np.arange(1.0, 7.0)
    pts = PointSet(d=2, points=np.array([[0.6, 0.0, 0.8]]))
    return pts, N3, np.array([-0.5])


class TestBandedCholesky:
    """The band of the coordinate-sorted M_X against the dense dpotrf oracle."""

    @pytest.mark.parametrize("name", ["n3_wide", "i2f4_s3", "antipodal", "beyond_support", "single"])
    def test_band_matches_dense(self, name):
        pts, kernel, values = _band_problem(name)
        order = _sorted(pts)
        centers = PointSet(d=pts.d, points=pts.points[order])
        m = sparse_gram(kernel, pts, order)
        f = values[order]
        c_band, res_band = _solve_cholesky(m, f)
        c_dense, res_dense = _solve_cholesky(m.toarray(), f)
        scale = np.max(np.abs(f))
        assert res_band <= 1e-12 * scale and res_dense <= 1e-12 * scale
        assert np.max(np.abs(c_band - c_dense)) <= 1e-10 * np.max(np.abs(c_dense))
        queries = generate_points(pts.d, 1000, seed=6).points
        through_band = evaluate_interpolant(Interpolant(centers, kernel, c_band, res_band), queries)
        through_dense = evaluate_interpolant(Interpolant(centers, kernel, c_dense, res_dense), queries)
        assert np.max(np.abs(through_band - through_dense)) <= 1e-11
        if len(pts) <= 6:
            assert _lower_band(m).shape == (1, len(pts))  # bandwidth 0: a diagonal M_X
        # solve_interpolation takes the centers in their given order
        itp = solve_interpolation(pts, values, kernel)
        assert np.max(np.abs(itp.coefficients[order] - c_dense)) <= 1e-10 * np.max(np.abs(c_dense))

    def test_lower_band_layout(self):
        # a 4 x 4 symmetric matrix with bandwidth 2, entries in scrambled order
        dense = np.array([[4.0, 1.0, 0.5, 0.0], [1.0, 5.0, 0.0, 0.25], [0.5, 0.0, 6.0, 2.0], [0.0, 0.25, 2.0, 7.0]])
        rows, cols = np.nonzero(dense)
        data = dense[rows, cols]
        # M[3, 2] = 2 as two entries of 1, which add up as in m @ x
        data[(rows == 3) & (cols == 2)] = 1.0
        rows, cols, data = np.append(rows, 3), np.append(cols, 2), np.append(data, 1.0)
        perm = np.random.default_rng(0).permutation(len(rows))
        m = sparse.coo_matrix((data[perm], (rows[perm], cols[perm])), shape=(4, 4))
        assert np.array_equal(m.toarray(), dense)
        ab = _lower_band(m)
        assert ab.flags.f_contiguous and ab.shape == (3, 4)
        for i in range(4):
            for j in range(max(0, i - 2), i + 1):
                assert ab[i - j, j] == dense[i, j]
        assert ab[1, 3] == 0.0 and ab[2, 2] == 0.0 and ab[2, 3] == 0.0  # past the last row


def _spy_on_dpbtrf(monkeypatch) -> list:
    """Record the shape of each band that is factored in float64."""
    calls = []
    dpbtrf = lapack.dpbtrf

    def spy(ab, *args, **kwargs):
        calls.append(ab.shape)
        return dpbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(lapack, "dpbtrf", spy)
    return calls


class TestMixedPrecisionBand:
    """The band factored in float32 and refined in float64, and the fallback
    to a float64 band factor when that misses."""

    @pytest.mark.parametrize("name", ["n3_wide", "i2f4_s3", "near_duplicate"])
    def test_float32_factor_reaches_the_contract(self, monkeypatch, name):
        pts, kernel, values = _band_problem(name)
        order = _sorted(pts)
        m = sparse_gram(kernel, pts, order)
        f = values[order]
        calls = _spy_on_dpbtrf(monkeypatch)
        c, res = _solve_cholesky(m, f)
        assert calls == []
        assert res <= 1e-12 * np.max(np.abs(f))
        again, res_again = _solve_cholesky(m, f)
        assert np.array_equal(c, again) and res == res_again

    @pytest.mark.parametrize("scale", [1e-300, 1e39, 1e300])
    def test_float32_factor_at_any_data_scale(self, monkeypatch, scale):
        # float32 ends at 3.4e38; data past it, or far below, is still solved
        # on the float32 factor, with no overflow in a cast
        pts = generate_points(2, 500, scheme="fibonacci_s2")
        m = sparse_gram(CapConvKernel(3, math.pi / 8).as_kernel(), pts)
        f = scale * (harmonic(pts.points) + 1.0)
        calls = _spy_on_dpbtrf(monkeypatch)
        _, res = _solve_cholesky(m, f)
        assert calls == [] and res <= 1e-12 * np.max(np.abs(f))

    def _falls_back(self, monkeypatch, dense: np.ndarray, spbtrf_info: int, solution):
        m = sparse.coo_matrix(dense)
        assert lapack.spbtrf(_lower_band(m), lower=1)[1] == spbtrf_info
        f = dense @ np.array(solution)
        calls = _spy_on_dpbtrf(monkeypatch)
        c, res = _solve_cholesky(m, f)
        assert calls == [(2, 2)]
        c_dense, res_dense = _solve_cholesky(dense, f)
        scale = np.max(np.abs(f))
        assert res <= 1e-12 * scale and res_dense <= 1e-12 * scale
        assert np.max(np.abs(dense @ (c - c_dense))) <= 1e-12 * scale
        # kappa eps: the forward error both solutions may have
        assert np.max(np.abs(c - c_dense)) <= 1e-6 * np.max(np.abs(c_dense))

    def test_float32_singular_band_falls_back(self, monkeypatch):
        # 1 - 1e-9 rounds to 1 in float32, where M is singular (spbtrf stops
        # at pivot 2); in float64 M is PD with kappa = 2.0e9
        a = 1.0 - 1e-9
        self._falls_back(monkeypatch, np.array([[1.0, a], [a, 1.0]]), spbtrf_info=2, solution=[1.0, 2.0])

    def test_refinement_that_misses_the_bound_falls_back(self, monkeypatch):
        # kappa = 3.3e9, and the float32 rounding of M is PD with smallest
        # eigenvalue 2.5e-8 against M's 5.5e-10: its factor is too far from
        # M for refinement along that eigenvector, about (0.67, -0.74).
        # With c = (1, -1), mostly along it, refinement stalls at a residual
        # of 9e-9 ||f||, far above dsposv's bound sqrt(n) eps ||M|| ||c|| =
        # 5e-16 ||f||
        dense = np.array([[1.0, 0.9], [0.9, 0.81 + 1e-9]])
        self._falls_back(monkeypatch, dense, spbtrf_info=0, solution=[1.0, -1.0])

    def test_not_pd_is_reported_from_the_float64_factor(self, monkeypatch):
        # f_1 on 500 lattice points, as in TestSolveRoutes: the pivot comes
        # from dpbtrf in the sorted order, whatever spbtrf met first
        kernel = TruncatedPower(1, math.pi / 4).as_kernel()
        pts = generate_points(2, 500, scheme="fibonacci_s2")
        calls = _spy_on_dpbtrf(monkeypatch)
        with pytest.raises(NotPositiveDefiniteError) as err:
            solve_interpolation(pts, harmonic(pts.points) + 1.0, kernel)
        assert err.value.pivot == 56 and len(calls) == 1
