"""Named verification suites for the identity and consistency checks.

Each check compares an implementation route against an independent oracle
(numeric quadrature, finite differences, printed constants) and returns the
maximum observed deviation together with its default tolerance.  The CLI
`verify` subcommand and the acceptance test suite both run these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import (
    cap_indicator,
    cap_montee_selfconv0_closed,
    cap_transform,
    cap_transform_quadrature,
    conv0,
    conv0_kernel,
    conv_lambda_coeffs,
    conv_property_check,
    dimension_hop_conv,
    hop_constant,
    _cap_power,
)
from .gegenbauer import (
    GegenbauerParams,
    SeriesCoeffs,
    eval_gegenbauer,
    gegenbauer_at_one,
    moment,
    quadrature_rule,
    series_eval,
    transform,
    weight_w,
)
from .kernels import (
    _CLOSED_FORM_KEYS,
    CLOSED_FORM_TAGS,
    MonteeIterate,
    TruncatedPower,
    cap_kernel_coefficients,
    eval_cap_kernel,
    eval_montee_closed_form,
    eval_montee_recurrence,
)
from .operators import (
    check_D_on_gegenbauer,
    check_I_on_gegenbauer,
    coeff_map_derivative,
    descente_numeric,
    montee_numeric,
)
from .zonal import ZonalKernel

__all__ = ["CheckResult", "CHECKS", "run_checks", "check_names"]

_LAMBDAS = (0.0, 0.5, 1.0, 2.0)
_SUPPORT_ANGLES = (0.5, math.pi / 2.0, 2.5)
_CAP_ANGLES = (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tol: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_deviation": self.deviation,
            "tolerance": self.tol,
            "passed": self.passed,
            "detail": self.detail,
        }


def _result(name: str, dev: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, deviation=float(dev), tol=tol, passed=bool(dev <= tol), detail=detail)


# ---------------------------------------------------------------------------
# individual checks


def check_orthogonality(tol: float = 1e-9) -> CheckResult:
    """int W_n W_m dOmega = delta_nm / w(n) for lambda in the test set, n, m <= 12."""
    worst = 0.0
    for lam in _LAMBDAS:
        p = GegenbauerParams(lam)
        rule = quadrature_rule(p, 64)
        table = np.vstack(
            [np.asarray(eval_gegenbauer(p, n, rule.nodes)) / gegenbauer_at_one(p, n) for n in range(13)]
        )
        gram = (table * rule.weights) @ table.T
        expected = np.diag([1.0 / weight_w(p, n) for n in range(13)])
        worst = max(worst, float(np.max(np.abs(gram - expected))))
    return _result("gegenbauer_orthogonality", worst, tol)


def check_max_at_one(tol: float = 1e-12) -> CheckResult:
    """max |C^lam_n| on [-1,1] is attained at 1 (relative excess over C^lam_n(1))."""
    grid = np.linspace(-1.0, 1.0, 1001)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        p = GegenbauerParams(lam)
        for n in range(21):
            at_one = gegenbauer_at_one(p, n)
            excess = (np.max(np.abs(eval_gegenbauer(p, n, grid))) - at_one) / at_one
            worst = max(worst, float(excess))
    return _result("gegenbauer_max_at_one", max(worst, 0.0), tol)


def check_lambda_zero_limit(tol: float = 1e-4) -> CheckResult:
    """C^lam_n / lam -> C^0_n as lam -> 0+ (lam = 1e-6, n <= 8)."""
    grid = np.linspace(-1.0, 1.0, 201)
    small = GegenbauerParams(1e-6)
    zero = GegenbauerParams(0.0)
    worst = 0.0
    for n in range(1, 9):
        dev = np.max(np.abs(np.asarray(eval_gegenbauer(small, n, grid)) / 1e-6 - eval_gegenbauer(zero, n, grid)))
        worst = max(worst, float(dev))
    return _result("gegenbauer_lambda_zero_limit", worst, tol)


def check_quadrature_exactness(tol: float = 1e-12) -> CheckResult:
    """Gauss rules integrate monomials of degree <= 2*order - 1 exactly (relative)."""
    worst = 0.0
    for lam in _LAMBDAS:
        p = GegenbauerParams(lam)
        for order in (3, 8, 20):
            rule = quadrature_rule(p, order)
            for k in range(0, 2 * order):
                got = rule.integrate(rule.nodes**k)
                want = moment(p, k)
                scale = max(abs(want), moment(p, 0))
                worst = max(worst, abs(got - want) / scale)
    return _result("quadrature_exactness", worst, tol)


def check_identity_D(tol: float = 1e-9) -> CheckResult:
    """D C^lam_n = 2 mu_lam C^(lam+1)_(n-1) on a 501-point grid, n <= 10."""
    worst = 0.0
    for lam in _LAMBDAS:
        p = GegenbauerParams(lam)
        for n in range(1, 11):
            worst = max(worst, check_D_on_gegenbauer(p, n))
    return _result("identity_D_on_gegenbauer", worst, tol)


def check_identity_I(tol: float = 1e-9) -> CheckResult:
    """I C^(lam+1)_(n-1) = (C^lam_n - C^lam_n(-1)) / (2 mu_lam), n <= 10."""
    worst = 0.0
    for lam in _LAMBDAS:
        p = GegenbauerParams(lam)
        for n in range(1, 11):
            worst = max(worst, check_I_on_gegenbauer(p, n))
    return _result("identity_I_on_gegenbauer", worst, tol)


def check_coeff_map(tol: float = 1e-4) -> CheckResult:
    """b_(n-1) = 2 mu a_n for f_2(t=pi/2) vs the transform of its numeric derivative."""
    p1 = GegenbauerParams(1.0)
    p2 = GegenbauerParams(2.0)
    f2 = TruncatedPower(2, math.pi / 2.0).as_kernel()
    a_exp = transform(f2, p1, 31, order=400).expansion_coeffs()
    mapped = coeff_map_derivative(SeriesCoeffs(params=p1, coeffs=a_exp, truncation=31))
    derivative = descente_numeric(f2, tol=1e-8).as_kernel()
    b_exp = transform(derivative, p2, 30, order=400).expansion_coeffs()
    dev = float(np.max(np.abs(mapped.coeffs - b_exp)))
    return _result("coeff_map_derivative", dev, tol)


def check_closed_forms(tol: float = 1e-8) -> CheckResult:
    """The five printed montee closed forms vs numeric montee and vs the exact
    montee algebra (MonteeIterate) on 2001-point grids."""
    grid = np.linspace(-1.0, 1.0, 2001)
    worst = 0.0
    for t in _SUPPORT_ANGLES:
        parents = {
            "If2": TruncatedPower(2, t).as_kernel(),
            "If3": TruncatedPower(3, t).as_kernel(),
            "If4": TruncatedPower(4, t).as_kernel(),
            "I2f3": ZonalKernel(
                fn=lambda x, tt=t: np.asarray(eval_montee_closed_form("If3", tt, x)),
                breakpoints=(math.cos(t), 1.0),
            ),
            "I2f4": ZonalKernel(
                fn=lambda x, tt=t: np.asarray(eval_montee_closed_form("If4", tt, x)),
                breakpoints=(math.cos(t), 1.0),
            ),
        }
        for tag in CLOSED_FORM_TAGS:
            m, k = _CLOSED_FORM_KEYS[tag]
            printed = eval_montee_closed_form(tag, t, grid)
            image = montee_numeric(parents[tag], tol=1e-12)(grid)
            algebra = MonteeIterate(TruncatedPower(m, t), k)(grid)
            dev = max(np.max(np.abs(image - printed)), np.max(np.abs(algebra - printed)))
            worst = max(worst, float(dev))
    return _result("montee_closed_forms", worst, tol)


def check_recurrence(tol: float = 1e-8) -> CheckResult:
    """The I f_m recurrence and the exact montee algebra vs numeric montee
    for m <= 8 (t = 1)."""
    grid = np.linspace(-1.0, 1.0, 1001)
    worst = 0.0
    for m in range(1, 9):
        base = TruncatedPower(m, 1.0)
        image = montee_numeric(base.as_kernel(), tol=1e-12)(grid)
        dev = max(
            np.max(np.abs(image - eval_montee_recurrence(m, 1.0, grid))),
            np.max(np.abs(image - MonteeIterate(base, 1)(grid))),
        )
        worst = max(worst, float(dev))
    return _result("montee_recurrence", worst, tol)


def check_roundtrip_DI(tol: float = 1e-6) -> CheckResult:
    """(D I f) = f for f = f_2(t=1), differencing fully numerically."""
    f2 = TruncatedPower(2, 1.0).as_kernel()
    image = montee_numeric(f2, tol=1e-12)
    derivative = descente_numeric(image.as_kernel(), tol=1e-8)
    knot = math.cos(1.0)
    grid = np.concatenate(
        [np.linspace(-0.98, knot - 0.02, 80), np.linspace(knot + 0.02, 0.95, 80)]
    )
    dev = np.max(np.abs(derivative(grid) - f2(grid)))
    return _result("roundtrip_D_of_I", float(dev), tol)


def check_roundtrip_ID(tol: float = 1e-6) -> CheckResult:
    """(I D f) = f - f(-1) for the C^1 kernel f = I f_3 (t = 2.5)."""
    t = 2.5
    kernel = ZonalKernel(
        fn=lambda x: np.asarray(eval_montee_closed_form("If3", t, x)),
        breakpoints=(math.cos(t), 1.0),
    )
    derivative = descente_numeric(kernel, tol=1e-8).as_kernel()
    image = montee_numeric(derivative, tol=1e-9)
    grid = np.linspace(-0.95, 0.95, 21)
    dev = np.max(np.abs(image(grid) - (kernel(grid) - kernel(-1.0))))
    return _result("roundtrip_I_of_D", float(dev), tol)


def check_hop_constant(tol: float = 1e-12) -> CheckResult:
    """a_(lam, n+1) = 1/(2 lam + 1) for lam in the test set, n <= 20."""
    worst = 0.0
    for lam in _LAMBDAS:
        p = GegenbauerParams(lam)
        for n in range(21):
            worst = max(worst, abs(hop_constant(p, n) - 1.0 / (2.0 * lam + 1.0)))
    return _result("hop_constant", worst, tol)


def check_conv_at_one(tol: float = 1e-8) -> CheckResult:
    """dimension_hop_conv(chi, chi) at x=1 vs the printed a-values.

    (g *_m g)(1) is the normalizer a of N_(2m+1) (cap_kernel_coefficients):
    m = 1 at s = pi/4 plus m = 2, 3, 4 at s in {pi/6, pi/3}.
    """
    worst = 0.0
    cases = [(1, math.pi / 4.0)] + [(m, s) for m in (2, 3, 4) for s in (math.pi / 6.0, math.pi / 3.0)]
    for m, s in cases:
        g = cap_indicator(math.cos(s))
        p = GegenbauerParams(float(m - 1))
        got = dimension_hop_conv(g, g, p, 1.0, order=80)
        worst = max(worst, abs(got - cap_kernel_coefficients(2 * m + 1, s).a))
    return _result("hop_conv_printed_constants", worst, tol)


def check_cap_kernel_boundary(tol: float = 1e-10) -> CheckResult:
    """N_d(1) = 1 exactly and N_d -> 0 at the support edge cos(2s)."""
    worst = 0.0
    for d in (3, 5, 7, 9):
        for s in _CAP_ANGLES:
            if eval_cap_kernel(d, s, 1.0) != 1.0:
                worst = max(worst, abs(eval_cap_kernel(d, s, 1.0) - 1.0) + 1.0)
            edge = math.cos(2.0 * s)
            worst = max(worst, abs(eval_cap_kernel(d, s, edge + 1e-13)))
    return _result("cap_kernel_boundary", worst, tol)


def check_n3_oracle(tol: float = 1e-6) -> CheckResult:
    """N_3 vs the numeric oracle D[(I g) *_0 (I g)] / a at 101 interior points.

    The oracle route is independent of the hop machinery: exact (x - c)_+
    for I g, panel quadrature for *_0, Ridders differencing for D.
    """
    worst = 0.0
    for s in _CAP_ANGLES:
        c = math.cos(s)
        a = cap_kernel_coefficients(3, s).a
        ig = _cap_power(c, 1)
        conv = conv0_kernel(ig, ig, order=64)
        derivative = descente_numeric(
            ZonalKernel(fn=conv.fn, breakpoints=conv.breakpoints), tol=1e-8
        )
        lo, hi = math.cos(2.0 * s) + 0.02, 0.985
        xs = np.linspace(lo, hi, 101)
        dev = np.max(np.abs(derivative(xs) / a - eval_cap_kernel(3, s, xs)))
        worst = max(worst, float(dev))
    return _result("n3_vs_numeric_oracle", worst, tol)


def check_selfconv0_closed_form(tol: float = 1e-10) -> CheckResult:
    """conv0 of the cap montee vs the printed (I g *_0 I g) closed form."""
    worst = 0.0
    for s in _CAP_ANGLES:
        ig = _cap_power(math.cos(s), 1)
        thetas = np.linspace(0.0, math.pi, 41)
        got = conv0(ig, ig, thetas, order=64)
        worst = max(worst, float(np.max(np.abs(got - cap_montee_selfconv0_closed(s, np.cos(thetas))))))
    return _result("cap_selfconv0_closed_form", worst, tol)


def check_cap_transform(tol: float = 1e-10) -> CheckResult:
    """Cap transform closed form vs direct quadrature, lam in {1,2}, n <= 15."""
    worst = 0.0
    for lam in (1.0, 2.0):
        p = GegenbauerParams(lam)
        for c in (-0.5, 0.0, 0.5):
            for n in range(1, 16):
                dev = abs(cap_transform(p, c, n) - cap_transform_quadrature(p, c, n, order=200))
                worst = max(worst, dev)
    return _result("cap_transform", worst, tol)


def check_conv_algebra(tol: float = 1e-8) -> CheckResult:
    """Convolution algebra properties at lambda = 0 (direct *_0 integrals)."""
    p0 = GegenbauerParams(0.0)
    f, g, h = cap_indicator(0.0), cap_indicator(0.5), cap_indicator(-0.3)
    rep = conv_property_check(f, g, h, p0, order=96, trunc=30)
    dev = max(rep["commutativity"], rep["associativity"], rep["transform_multiplicativity"])
    if not rep["norm_ok"]:
        dev = max(dev, rep["norm_lhs"] - rep["norm_rhs"])
    return _result("conv_algebra_lambda0", dev, tol, detail=f"norm {rep['norm_lhs']:.6g} <= {rep['norm_rhs']:.6g}")


def check_conv_algebra_coeffs(tol: float = 1e-14) -> CheckResult:
    """Coefficient-space commutativity/associativity (floating-point exact)."""
    p1 = GegenbauerParams(1.0)
    f, g, h = cap_indicator(0.0), cap_indicator(0.5), cap_indicator(-0.3)
    rep = conv_property_check(f, g, h, p1, order=128, trunc=30)
    dev = max(rep["commutativity"], rep["associativity"])
    return _result("conv_algebra_coeff_space", dev, tol)


def check_hop_identity_series(tol: float = 2e-3) -> CheckResult:
    """Hop-evaluated chi *_1 chi vs series reconstruction of coefficient products.

    Series truncation at N = 60 dominates the tolerance.
    """
    p0, p1 = GegenbauerParams(0.0), GegenbauerParams(1.0)
    worst = 0.0
    for c in (0.0, 0.5):
        g = cap_indicator(c)
        ghat = transform(g, p1, 60, order=200)
        prod = conv_lambda_coeffs(ghat, ghat)
        xs = np.linspace(-0.95, 0.95, 101)
        hop = dimension_hop_conv(g, g, p0, xs, order=64)
        dev = np.max(np.abs(hop - series_eval(prod, xs)))
        worst = max(worst, float(dev))
    return _result("hop_identity_vs_series", worst, tol)


CHECKS = {
    "gegenbauer_orthogonality": check_orthogonality,
    "gegenbauer_max_at_one": check_max_at_one,
    "gegenbauer_lambda_zero_limit": check_lambda_zero_limit,
    "quadrature_exactness": check_quadrature_exactness,
    "identity_D_on_gegenbauer": check_identity_D,
    "identity_I_on_gegenbauer": check_identity_I,
    "coeff_map_derivative": check_coeff_map,
    "montee_closed_forms": check_closed_forms,
    "montee_recurrence": check_recurrence,
    "roundtrip_D_of_I": check_roundtrip_DI,
    "roundtrip_I_of_D": check_roundtrip_ID,
    "hop_constant": check_hop_constant,
    "hop_conv_printed_constants": check_conv_at_one,
    "cap_kernel_boundary": check_cap_kernel_boundary,
    "cap_selfconv0_closed_form": check_selfconv0_closed_form,
    "n3_vs_numeric_oracle": check_n3_oracle,
    "cap_transform": check_cap_transform,
    "conv_algebra_lambda0": check_conv_algebra,
    "conv_algebra_coeff_space": check_conv_algebra_coeffs,
    "hop_identity_vs_series": check_hop_identity_series,
}


def check_names() -> list:
    return list(CHECKS)


def run_checks(names=None, tol: float | None = None) -> list:
    """Run the named checks (all by default); `tol` overrides every tolerance."""
    selected = check_names() if names is None else list(names)
    results = []
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
        results.append(CHECKS[name]() if tol is None else CHECKS[name](tol))
    return results
