"""The three benchmark workloads: inputs, timed operations and correctness gates.

Every workload is a closed loop with one caller: an operation starts only
after the previous one returned.  ``run_round`` times each operation with
``time.perf_counter`` and nothing else, calling ``tag`` (when given) with
the problem, check or command name before each one; ``gate`` checks the outputs of a
round afterwards, outside the timed region.  An operation that raises, exits
non-zero or fails its gate counts as failed.

Each workload exists at two scales: ``full`` is what the benchmark measures,
``tiny`` runs the same code paths on small inputs.  The tiny round is the
warm pass of the set-up and the input of the gate self-test.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time
import warnings

import numpy as np

import sphkern
from sphkern import checks, cli
from sphkern.convolution import conv_kink_abscissae

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Op:
    """One timed operation: what ran, how long it took and what it returned."""

    __slots__ = ("name", "stage", "part", "seconds", "value", "error")

    def __init__(self, name, stage, part):
        self.name, self.stage, self.part = name, stage, part
        self.seconds, self.value, self.error = 0.0, None, None


def _timed(op, fn):
    t0 = time.perf_counter()
    try:
        op.value = fn()
    except Exception as exc:  # a raising operation is a failed operation
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - t0
    return op


# ---------------------------------------------------------------------------
# verify


#: Maximum deviation each check reported at the commit that introduced this
#: benchmark (1 BLAS thread).  ROADMAP aim 1: a deviation may not grow by
#: more than its order of magnitude.
VERIFY_REFERENCE = {
    "gegenbauer_orthogonality": 7.550e-15,
    "gegenbauer_max_at_one": 2.786e-15,
    "gegenbauer_lambda_zero_limit": 2.000e-06,
    "quadrature_exactness": 7.723e-16,
    "identity_D_on_gegenbauer": 5.457e-12,
    "identity_I_on_gegenbauer": 8.527e-14,
    "coeff_map_derivative": 2.084e-12,
    "montee_closed_forms": 1.243e-14,
    "montee_recurrence": 5.823e-12,
    "roundtrip_D_of_I": 2.396e-11,
    "roundtrip_I_of_D": 9.103e-11,
    "hop_constant": 3.997e-15,
    "hop_conv_printed_constants": 1.665e-16,
    "cap_kernel_boundary": 5.684e-13,
    "cap_selfconv0_closed_form": 3.331e-16,
    "n3_vs_numeric_oracle": 2.657e-11,
    "cap_transform": 3.829e-14,
    "conv_algebra_lambda0": 6.904e-15,
    "conv_algebra_coeff_space": 3.469e-18,
    "hop_identity_vs_series": 1.381e-05,
}

#: Part a of a verify pass: the Gegenbauer and operator identity checks
#: (about a third of a pass); part b is the kernel and convolution checks.
VERIFY_PART_A = (
    "gegenbauer_orthogonality",
    "gegenbauer_max_at_one",
    "gegenbauer_lambda_zero_limit",
    "quadrature_exactness",
    "identity_D_on_gegenbauer",
    "identity_I_on_gegenbauer",
    "coeff_map_derivative",
)

#: Checks dominated by numeric montee/descente (about 80% of a pass); the
#: tiny scale leaves them out.
NUMERIC_OPERATOR_CHECKS = (
    "identity_I_on_gegenbauer",
    "coeff_map_derivative",
    "montee_closed_forms",
    "montee_recurrence",
    "roundtrip_D_of_I",
    "roundtrip_I_of_D",
    "n3_vs_numeric_oracle",
)


def deviation_allowed(reference: float) -> float:
    return max(10.0 * reference, 1e-15)


class Verify:
    """``run_checks`` one check per operation; the checks take fixed inputs."""

    name = "verify"
    stages = ("verify_s",)

    def __init__(self, seed: int, scale: str = "full"):
        names = checks.check_names()
        if scale == "tiny":
            names = [n for n in names if n not in NUMERIC_OPERATOR_CHECKS]
        self.names = names

    def run_round(self, tag=None):
        ops = []
        for name in self.names:
            if tag:
                tag(name)
            part = "a" if name in VERIFY_PART_A else "b"
            ops.append(_timed(Op(name, "verify_s", part), lambda n=name: checks.run_checks(names=[n])[0]))
        return ops

    def gate(self, op) -> str | None:
        result = op.value
        if not result.passed:
            return f"check failed: deviation {result.deviation:.3e} > tolerance {result.tol:.1e}"
        allowed = deviation_allowed(VERIFY_REFERENCE[op.name])
        if result.deviation > allowed:
            return f"deviation {result.deviation:.3e} left its order of magnitude (> {allowed:.1e})"
        return None

    def close(self):
        pass


# ---------------------------------------------------------------------------
# interp


def _harmonic_s2(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return 1.0 + x + x * y + 0.5 * (3.0 * z * z - 1.0)


def _harmonic_s3(p):
    return 1.0 + p[:, 0] * p[:, 1] + p[:, 2] * p[:, 3] - 0.5 * p[:, 1]


def _random_rotation(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _random_unit(rng, n: int, dim: int) -> np.ndarray:
    # the package's 'random_seeded' scheme: normalized Gaussians
    raw = rng.standard_normal((n, dim))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


#: Interpolation problems: sphere dimension, kernel descriptor, centers, queries.
INTERP_PROBLEMS = {
    "n3_wide": (2, {"family": "cap_conv", "d": 3, "s": math.pi / 8.0}),
    "n3_narrow": (2, {"family": "cap_conv", "d": 3, "s": math.pi / 32.0}),
    "i2f4_s3": (3, {"family": "montee", "m": 4, "k": 2, "t": 1.0}),
}
INTERP_SIZES = {
    "full": {"lattice": 4000, "s2_queries": 10_000, "s3_points": 2000, "s3_queries": 2000},
    "tiny": {"lattice": 400, "s2_queries": 300, "s3_points": 200, "s3_queries": 100},
}
#: Largest query-set max error over seeds 0-11 at the commit that introduced
#: this benchmark (the smallest was within a factor 3.1 of it); the gate
#: allows one order of magnitude more.
INTERP_ERROR_REFERENCE = {
    "full": {"n3_wide": 7.9e-04, "n3_narrow": 4.7e-02, "i2f4_s3": 8.2e-02},
    "tiny": {"n3_wide": 2.1e-02, "n3_narrow": 9.6e-01, "i2f4_s3": 1.6e00},
}
RESIDUAL_CONTRACT = 1e-9


class Interp:
    """PointSet -> solve_interpolation -> evaluate_interpolant per problem."""

    name = "interp"
    stages = ("interp_solve_s", "interp_eval_s")

    def __init__(self, seed: int, scale: str = "full"):
        size = INTERP_SIZES[scale]
        self.error_reference = INTERP_ERROR_REFERENCE[scale]
        rng = np.random.default_rng(seed)
        lattice = sphkern.generate_points(2, size["lattice"], scheme="fibonacci_s2").points
        lattice = lattice @ _random_rotation(rng, 3).T
        s2_queries = _random_unit(rng, size["s2_queries"], 3)
        s3_points = _random_unit(rng, size["s3_points"], 4)
        s3_queries = _random_unit(rng, size["s3_queries"], 4)
        self.problems = []
        for name, (d, desc) in INTERP_PROBLEMS.items():
            centers, queries, harmonic = (
                (lattice, s2_queries, _harmonic_s2) if d == 2 else (s3_points, s3_queries, _harmonic_s3)
            )
            kernel = sphkern.kernel_from_descriptor(desc)
            self.problems.append((name, d, centers, harmonic(centers), kernel, queries, harmonic(queries)))
        self.max_errors = {}

    def run_round(self, tag=None):
        ops = []
        for name, d, centers, values, kernel, queries, _ in self.problems:
            if tag:
                tag(name)

            def solve(d=d, centers=centers, values=values, kernel=kernel):
                return sphkern.solve_interpolation(sphkern.PointSet(d=d, points=centers), values, kernel)

            solve_op = _timed(Op(name, "interp_solve_s", "a"), solve)
            ops.append(solve_op)
            eval_op = Op(name, "interp_eval_s", "b")
            if solve_op.error is None:
                itp = solve_op.value
                _timed(eval_op, lambda itp=itp, q=queries: sphkern.evaluate_interpolant(itp, q))
            else:
                eval_op.error = "not run: the solve failed"
            ops.append(eval_op)
        return ops

    def gate(self, op) -> str | None:
        problem = next(p for p in self.problems if p[0] == op.name)
        if op.stage == "interp_solve_s":
            scale = float(np.max(np.abs(problem[3])))
            if not op.value.residual_inf <= RESIDUAL_CONTRACT * scale:
                return f"residual {op.value.residual_inf:.3e} breaks the 1e-9*||f|| contract"
            return None
        err = float(np.max(np.abs(op.value - problem[6])))
        self.max_errors[op.name] = err
        allowed = 10.0 * self.error_reference[op.name]
        if not err <= allowed:
            return f"max error {err:.3e} left its order of magnitude (> {allowed:.1e})"
        return None

    def close(self):
        pass


# ---------------------------------------------------------------------------
# tables


def _desc(**kw) -> str:
    return json.dumps(kw)


_CAP_S = math.pi / 4.0
_N3_S = math.pi / 8.0
_N9_S = math.pi / 8.0
_F2 = {"family": "truncated_power", "m": 2, "t": 1.0}
_I3F4 = {"family": "montee", "m": 4, "k": 3, "t": 1.0}

TABLES_SIZES = {
    "full": {"trunc": 1000, "quad_order": 1024, "grid": 2001, "conv_grid": 200, "f2_grid": 40},
    "tiny": {"trunc": 20, "quad_order": 64, "grid": 21, "conv_grid": 8, "f2_grid": 4},
}
#: Absolute tolerance of each table gate; measured agreement is recorded next
#: to each and sits at least two orders of magnitude below.
TABLE_TOL = {
    "coeffs_n3": 1e-11,  # 3.0e-13 against g^(n)^2 / a
    "coeffs_f2": 1e-9,  # 6.2e-13 against twice the quadrature order
    "coeffs_i3f4": 1e-9,  # 7.0e-18
    "eval_if6": 1e-9,  # 1.0e-13 against montee_numeric at tol 1e-12
    "eval_i2f4": 1e-9,  # 4.5e-15
    # 0: today I^3 f_4 *is* montee_numeric over the printed I^2 f_4; the gate
    # bites once another route (exact montee algebra) produces the table
    "eval_i3f4": 1e-9,
    "eval_n9": 1e-10,  # 7.2e-13 against the hop at lambda = 4
    "conv_cap_l0": 1e-12,  # 1.7e-16 against the arc overlap
    "conv_cap_l1": 1e-12,  # 3.6e-16 against a N_3
    "conv_cap_l2": 1e-12,  # 1.1e-14 against a N_5
    "conv_f2_l2": 1e-12,  # 1.5e-16 against the series, N = 200
}


def _parse_table(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


class Tables:
    """``sphkern.cli.main`` in-process, one invocation per operation."""

    name = "tables"
    stages = ("coeffs_s", "kernel_table_s", "conv_table_s")

    def __init__(self, seed: int, scale: str = "full"):
        size = TABLES_SIZES[scale]
        self.size = size
        trunc = ["--trunc", str(size["trunc"]), "--quad-order", str(size["quad_order"])]
        grid = ["--grid", str(size["grid"])]
        cap = ["--cap-s", repr(_CAP_S), "--grid", str(size["conv_grid"])]
        self.invocations = [
            ("coeffs_n3", "coeffs_s", ["coeffs", "--kernel", _desc(family="cap_conv", d=3, s=_N3_S), "--lambda", "1", *trunc]),
            ("coeffs_f2", "coeffs_s", ["coeffs", "--kernel", json.dumps(_F2), "--lambda", "1", *trunc]),
            ("coeffs_i3f4", "coeffs_s", ["coeffs", "--kernel", json.dumps(_I3F4), "--lambda", "0.5", *trunc]),
            ("eval_if6", "kernel_table_s", ["eval", "--kernel", _desc(family="montee", m=6, k=1, t=1.0), *grid]),
            ("eval_i2f4", "kernel_table_s", ["eval", "--kernel", _desc(family="montee", m=4, k=2, t=1.0), *grid]),
            ("eval_i3f4", "kernel_table_s", ["eval", "--kernel", json.dumps(_I3F4), *grid]),
            ("eval_n9", "kernel_table_s", ["eval", "--kernel", _desc(family="cap_conv", d=9, s=_N9_S), *grid]),
            ("conv_cap_l0", "conv_table_s", ["conv", "--lambda", "0", *cap]),
            ("conv_cap_l1", "conv_table_s", ["conv", "--lambda", "1", *cap]),
            ("conv_cap_l2", "conv_table_s", ["conv", "--lambda", "2", *cap]),
            ("conv_f2_l2", "conv_table_s", ["conv", "--kernel", json.dumps(_F2), "--lambda", "2", "--grid", str(size["f2_grid"])]),
        ]
        out_root = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_root, exist_ok=True)
        self.out_dir = tempfile.mkdtemp(prefix="tables-", dir=out_root)
        self.first_bytes = {}
        self.oracles = {}

    def run_round(self, tag=None):
        ops = []
        for name, stage, argv in self.invocations:
            if tag:
                tag(argv[0])
            path = os.path.join(self.out_dir, name + ".csv")
            op = _timed(Op(name, stage, "b" if stage == "conv_table_s" else "a"), lambda: cli.main([*argv, "--out", path]))
            if op.error is None and op.value != 0:
                op.error = f"exit code {op.value}"
            if op.error is None:
                with open(path, "rb") as fh:
                    op.value = fh.read()
            ops.append(op)
        return ops

    def gate(self, op) -> str | None:
        first = self.first_bytes.setdefault(op.name, op.value)
        if op.value != first:
            return "output is not byte-identical to the first round's"
        table = _parse_table(op.value.decode())
        got, want = self._compare(op.name, table)
        err = float(np.max(np.abs(got - want)))
        if not err <= TABLE_TOL[op.name]:
            return f"table deviates from its oracle by {err:.3e} (> {TABLE_TOL[op.name]:.0e})"
        return None

    def _compare(self, name: str, table: np.ndarray):
        """(table values, oracle values) on the rows the oracle covers."""
        if name not in self.oracles:
            self.oracles[name] = self._oracle(name, table)
        rows, want = self.oracles[name]
        return table[rows, -1], want

    def _oracle(self, name: str, table: np.ndarray):
        size = self.size
        every = slice(None)
        if name == "coeffs_n3":
            p = sphkern.GegenbauerParams(1.0)
            c = math.cos(_N3_S)
            with warnings.catch_warnings():  # n = 0 falls back to quadrature
                warnings.simplefilter("ignore")
                ghat = np.array(
                    [sphkern.cap_transform(p, c, n) / sphkern.gegenbauer_at_one(p, n) for n in range(size["trunc"] + 1)]
                )
            series = sphkern.SeriesCoeffs(params=p, coeffs=ghat, truncation=size["trunc"])
            return every, series.weights() * ghat**2 / sphkern.cap_kernel_coefficients(3, _N3_S).a
        if name in ("coeffs_f2", "coeffs_i3f4"):
            desc, lam = (_F2, 1.0) if name == "coeffs_f2" else (_I3F4, 0.5)
            p = sphkern.GegenbauerParams(lam)
            series = sphkern.transform(sphkern.kernel_from_descriptor(desc), p, size["trunc"], order=2 * size["quad_order"])
            return every, series.weights() * series.coeffs
        xs = table[:, 0]
        if name.startswith("eval_"):
            if name == "eval_n9":
                # the hop at lambda = 4 on a few grid points inside the support
                g = sphkern.cap_indicator(math.cos(_N9_S))
                inside = np.flatnonzero(xs > math.cos(2.0 * _N9_S) + 0.01)
                rows = inside[np.linspace(0, inside.size - 1, 5).astype(int)]
                a = sphkern.cap_kernel_coefficients(9, _N9_S).a
                p3 = sphkern.GegenbauerParams(3.0)
                return rows, np.array([sphkern.dimension_hop_conv(g, g, p3, float(x)) / a for x in xs[rows]])
            m, k = {"eval_if6": (6, 1), "eval_i2f4": (4, 2), "eval_i3f4": (4, 3)}[name]
            if k == 1:
                parent = sphkern.TruncatedPower(m, 1.0).as_kernel()
            else:
                tag = ("I" if k == 2 else "I2") + f"f{m}"
                parent = sphkern.ZonalKernel(
                    fn=lambda x: np.asarray(sphkern.eval_montee_closed_form(tag, 1.0, x)),
                    breakpoints=(math.cos(1.0), 1.0),
                )
            return every, sphkern.montee_numeric(parent, tol=1e-12)(xs)
        theta = np.arccos(xs)
        if name == "conv_cap_l0":
            return every, np.maximum(0.0, 2.0 * _CAP_S - theta) / 2.0
        if name in ("conv_cap_l1", "conv_cap_l2"):
            d = 3 if name == "conv_cap_l1" else 5
            return every, sphkern.cap_kernel_coefficients(d, _CAP_S).a * sphkern.eval_cap_kernel(d, _CAP_S, xs)
        # conv_f2_l2: series of coefficient products, away from the kinks
        f2 = sphkern.kernel_from_descriptor(_F2)
        fhat = sphkern.transform(f2, sphkern.GegenbauerParams(2.0), 200, order=400)
        kinks = np.array(conv_kink_abscissae(f2, f2))
        rows = np.flatnonzero(np.min(np.abs(xs[:, None] - kinks[None, :]), axis=1) > 0.02)
        return rows, sphkern.series_eval(sphkern.conv_lambda_coeffs(fhat, fhat), xs[rows])

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {"verify": Verify, "interp": Interp, "tables": Tables}

