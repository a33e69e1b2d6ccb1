"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see them) and asserts the criterion.  The numeric suites live in
sphkern.checks so the CLI `verify` command exercises the same computations.
"""

import json
import math
import time

import numpy as np
import pytest

from sphkern.checks import CHECKS
from sphkern.convolution import cap_indicator, dimension_hop_conv, hop_constant
from sphkern.gegenbauer import GegenbauerParams
from sphkern.interpolation import evaluate_interpolant, solve_interpolation
from sphkern.kernels import CapConvKernel, TruncatedPower, cap_kernel_coefficients, eval_cap_kernel
from sphkern.spd import PointSet, classify, generate_points, gram_matrix, gram_min_eig
from sphkern.zonal import ZonalKernel


def report(criterion: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_operator_identities():
    """D and I act on the Gegenbauer family as printed, within 1e-9, in <5s."""
    start = time.time()
    dev_d = CHECKS["identity_D_on_gegenbauer"]().deviation
    dev_i = CHECKS["identity_I_on_gegenbauer"]().deviation
    elapsed = time.time() - start
    ok = dev_d <= 1e-9 and dev_i <= 1e-9 and elapsed < 5.0
    report(
        "criterion 1 (operator identities)",
        ok,
        f"max dev D={dev_d:.3e}, I={dev_i:.3e} (tol 1e-9), runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_02_coefficient_mapping():
    """b_(n-1) = 2 mu a_n for f_2(t=pi/2), entrywise <= 1e-4 for n <= 30."""
    result = CHECKS["coeff_map_derivative"]()
    report(
        "criterion 2 (coefficient mapping)",
        result.deviation <= 1e-4,
        f"max entrywise dev {result.deviation:.3e} (tol 1e-4)",
    )


def test_criterion_03_closed_forms():
    """Printed closed forms and the recurrence match numeric montee <= 1e-8."""
    closed = CHECKS["montee_closed_forms"]().deviation
    recur = CHECKS["montee_recurrence"]().deviation
    ok = closed <= 1e-8 and recur <= 1e-8
    report(
        "criterion 3 (closed forms)",
        ok,
        f"closed-form dev {closed:.3e}, recurrence dev {recur:.3e} (tol 1e-8)",
    )


def test_criterion_04_convolution_constants():
    """Hop-evaluated (g *_m g)(1) reproduces the printed a-values <= 1e-8."""
    result = CHECKS["hop_conv_printed_constants"]()
    report(
        "criterion 4 (printed convolution constants)",
        result.deviation <= 1e-8,
        f"max dev {result.deviation:.3e} (tol 1e-8)",
    )


def test_criterion_05_cap_kernels():
    """N_d boundary behavior and the N_3 numeric-descente oracle."""
    exact_at_one = all(
        eval_cap_kernel(d, s, 1.0) == 1.0
        for d in (3, 5, 7, 9)
        for s in (math.pi / 6, math.pi / 4, math.pi / 3)
    )
    edge = CHECKS["cap_kernel_boundary"]().deviation
    oracle = CHECKS["n3_vs_numeric_oracle"]().deviation
    ok = exact_at_one and edge <= 1e-10 and oracle <= 1e-6
    report(
        "criterion 5 (cap kernels)",
        ok,
        f"N_d(1)=1 exact: {exact_at_one}, edge dev {edge:.3e} (tol 1e-10), "
        f"N_3 oracle dev {oracle:.3e} (tol 1e-6)",
    )


def test_criterion_06_cap_transform():
    """Cap transform closed form vs direct quadrature <= 1e-10."""
    result = CHECKS["cap_transform"]()
    report(
        "criterion 6 (cap transform)",
        result.deviation <= 1e-10,
        f"max dev {result.deviation:.3e} (tol 1e-10)",
    )


def test_criterion_07_convolution_algebra():
    """Algebra properties <= 1e-8 at lambda=0 and exact in coefficient space."""
    direct = CHECKS["conv_algebra_lambda0"]()
    coeff = CHECKS["conv_algebra_coeff_space"]()
    ok = direct.deviation <= 1e-8 and coeff.deviation <= 1e-14
    report(
        "criterion 7 (convolution algebra)",
        ok,
        f"lambda=0 dev {direct.deviation:.3e} (tol 1e-8), "
        f"coefficient-space dev {coeff.deviation:.3e} (float-exact)",
    )


def test_criterion_08_strict_pd_evidence():
    """Coefficient scans and the Gram route agree on strictness evidence, <30s."""
    start = time.time()
    p1 = GegenbauerParams(1.0)

    f2 = TruncatedPower(2, math.pi / 2).as_kernel()
    rep_f2 = classify(f2, p1, 40)

    c = 0.5
    s = math.acos(c)
    g = cap_indicator(c)
    p0 = GegenbauerParams(0.0)
    star1 = ZonalKernel(
        fn=lambda xs: np.array(
            [dimension_hop_conv(g, g, p0, float(x), order=64) for x in np.atleast_1d(xs)]
        ),
        breakpoints=(math.cos(2 * s), 1.0),
    )
    rep_conv = classify(star1, p1, 60, order=240)

    pts = generate_points(2, 100, scheme="fibonacci_s2")
    n3 = CapConvKernel(3, math.pi / 3).as_kernel()
    min_eig = gram_min_eig(n3, pts)
    np.linalg.cholesky(gram_matrix(n3, pts))  # raises LinAlgError on failure

    elapsed = time.time() - start
    ok = (
        rep_f2.min_coeff > 0
        and rep_conv.pos_even >= 20
        and rep_conv.pos_odd >= 20
        and min_eig > 0
        and elapsed < 30.0
    )
    report(
        "criterion 8 (strict PD evidence)",
        ok,
        f"f_2 min coeff {rep_f2.min_coeff:.3e} > 0; chi*chi positives "
        f"even/odd {rep_conv.pos_even}/{rep_conv.pos_odd} >= 20; "
        f"gram min eig {min_eig:.3e} > 0, Cholesky ok; runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_09_interpolation():
    """Residuals <= 1e-9 ||f|| on 50/200-point problems; rotation equivariance."""

    def harmonic(points):
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        return x * y + 0.5 * (3 * z**2 - 1.0)

    worst_rel_residual = 0.0
    for n in (50, 200):
        pts = generate_points(2, n, scheme="fibonacci_s2")
        values = harmonic(pts.points)
        for kernel in (CapConvKernel(3, math.pi / 3).as_kernel(), CapConvKernel(5, math.pi / 3).as_kernel()):
            itp = solve_interpolation(pts, values, kernel)
            worst_rel_residual = max(
                worst_rel_residual, itp.residual_inf / np.max(np.abs(values))
            )

    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    pts = generate_points(2, 50, scheme="fibonacci_s2")
    values = harmonic(pts.points)
    n3 = CapConvKernel(3, math.pi / 3).as_kernel()
    itp = solve_interpolation(pts, values, n3)
    itp_rot = solve_interpolation(PointSet(d=2, points=pts.points @ q.T), values, n3)
    queries = generate_points(2, 40, scheme="random_seeded", seed=8).points
    equivariance = float(
        np.max(np.abs(evaluate_interpolant(itp, queries) - evaluate_interpolant(itp_rot, queries @ q.T)))
    )

    ok = worst_rel_residual <= 1e-9 and equivariance <= 1e-10
    report(
        "criterion 9 (interpolation)",
        ok,
        f"worst residual {worst_rel_residual:.3e} <= 1e-9 ||f||; "
        f"rotation equivariance {equivariance:.3e} <= 1e-10",
    )


def test_criterion_10_prebuild_oracles():
    """The derived constants the construction relies on, verified numerically."""
    worst_hop = 0.0
    for lam in (0.0, 0.5, 1.0, 2.0):
        p = GegenbauerParams(lam)
        for n in range(21):
            worst_hop = max(worst_hop, abs(hop_constant(p, n) - 1.0 / (2.0 * lam + 1.0)))

    # N_3 boundary-zero algebra: 1 + 2 s b + d tan(s) == 0 from the products
    worst_boundary = 0.0
    for s in (math.pi / 6, math.pi / 4, math.pi / 3):
        coeffs = cap_kernel_coefficients(3, s)
        worst_boundary = max(worst_boundary, abs(1.0 + 2.0 * s * coeffs.b + coeffs.d * math.tan(s)))

    ok = worst_hop <= 1e-12 and worst_boundary <= 1e-12
    report(
        "criterion 10 (pre-build oracles)",
        ok,
        f"hop constant dev {worst_hop:.3e} (tol 1e-12); "
        f"N_3 boundary algebra dev {worst_boundary:.3e} (tol 1e-12)",
    )


def test_verify_command_exits_clean(tmp_path):
    """The CLI verification suite (the criteria above plus the invariant
    checks) exits 0 under default tolerances."""
    from sphkern.cli import main

    out = tmp_path / "report.json"
    rc = main(["verify", "--out", str(out)])
    payload = json.loads(out.read_text())
    failing = [c["name"] for c in payload["checks"] if not c["passed"]]
    report("full verification suite", rc == 0 and not failing, f"failing checks: {failing or 'none'}")


#: Deviation each `sphkern verify` check reported at commit cba66de, the
#: last one with per-point descente and per-theta *_0 kernels.  A faster
#: route may move a deviation, but not by an order of magnitude (ROADMAP
#: aim 1), so each must stay within 10x of this value.
VERIFY_BASELINE = {
    "gegenbauer_orthogonality": 7.550e-15,
    "gegenbauer_max_at_one": 2.786e-15,
    "gegenbauer_lambda_zero_limit": 2.000e-06,
    "quadrature_exactness": 7.723e-16,
    "identity_D_on_gegenbauer": 5.457e-12,
    "identity_I_on_gegenbauer": 8.527e-14,
    "coeff_map_derivative": 2.084e-12,
    "montee_closed_forms": 1.776e-14,
    "montee_recurrence": 6.468e-12,
    "roundtrip_D_of_I": 6.504e-12,
    "roundtrip_I_of_D": 9.103e-11,
    "hop_constant": 3.997e-15,
    "hop_conv_printed_constants": 1.665e-16,
    "cap_kernel_boundary": 5.684e-13,
    "cap_selfconv0_closed_form": 3.331e-16,
    "n3_vs_numeric_oracle": 2.657e-11,
    "cap_transform": 3.816e-14,
    "conv_algebra_lambda0": 6.904e-15,
    "conv_algebra_coeff_space": 3.469e-18,
    "hop_identity_vs_series": 1.381e-05,
}


def test_verify_baseline_names_every_check():
    assert sorted(VERIFY_BASELINE) == sorted(CHECKS)


@pytest.mark.parametrize("name", sorted(VERIFY_BASELINE))
def test_deviation_keeps_its_order_of_magnitude(name):
    result = CHECKS[name]()
    allowed = 10.0 * VERIFY_BASELINE[name]
    report(f"{name} accuracy", result.deviation <= allowed, f"dev {result.deviation:.3e} (<= {allowed:.3e})")
