"""Closed-form locally supported kernel families.

Three groups live here:

* truncated angular powers f_m(cos theta) = (t - theta)^m_+, strictly
  positive definite on S^(2m-1) for m = 2, 3, 4;
* their montee iterates I^k f_m for 1 <= m, k <= 170, evaluated from one exact
  algebra: finite sums of c u^p cos(j theta) and c u^p sin(j theta) with
  u = t - theta, a family closed under montee.  The printed closed forms for
  I f_2, I f_3, I^2 f_3, I f_4, I^2 f_4 and the single-montee recurrence stay
  as public oracles (eval_montee_closed_form, eval_montee_recurrence); no
  production path calls them;
* the cap self-convolution kernels N_3, N_5, N_7, N_9, supported on
  geodesic balls of radius 2s and normalized to 1 at x = 1.

Kernels are immutable value objects; evaluation is pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateCapError, ResourceLimitError
from .gegenbauer import GegenbauerParams, SeriesCoeffs, on_interval, series_eval
from .zonal import ZonalKernel

__all__ = [
    "TruncatedPower",
    "MonteeIterate",
    "CapConvKernel",
    "CapCoeffs",
    "eval_truncated_power",
    "eval_montee_closed_form",
    "eval_montee_recurrence",
    "cap_kernel_coefficients",
    "eval_cap_kernel",
    "kernel_from_descriptor",
    "CLOSED_FORM_TAGS",
]

CLOSED_FORM_TAGS = ("If2", "If3", "I2f3", "If4", "I2f4")

_CLOSED_FORM_KEYS = {"If2": (2, 1), "If3": (3, 1), "I2f3": (3, 2), "If4": (4, 1), "I2f4": (4, 2)}

# Largest m and k of a montee iterate I^k f_m.  171! overflows float64, so
# from m = 171 on the algebra's coefficients are not finite or raise; the
# algebra recurses once per montee, and k = 1000 passes Python's recursion
# limit.
MAX_MONTEE_ORDER = 170


def _check_support_angle(t: float):
    if not (0.0 < t < math.pi):
        raise ValueError(f"support angle must lie in (0, pi), got {t}")


@dataclass(frozen=True)
class TruncatedPower:
    """f_m(cos theta) = (t - theta)^m_+ with support angle t in (0, pi)."""

    m: int
    t: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("exponent m must be a positive integer")
        _check_support_angle(self.t)

    def as_kernel(self) -> ZonalKernel:
        m, t = self.m, self.t
        return ZonalKernel(
            fn=lambda x: _angle_profile(x, t, lambda theta: (t - theta) ** m),
            name=f"f_{m}(t={t:g})",
            breakpoints=(math.cos(t), 1.0),
            antiderivative_fn=lambda: MonteeIterate(self, 1).as_kernel(),
            descriptor={"family": "truncated_power", "m": m, "t": t},
            support_edge=math.cos(t),
        )


# perfbench's route tracer reads this by name; it goes with the benchmark change (ROADMAP item 1)
def eval_truncated_power(k: TruncatedPower, x):
    """(t - arccos x)^m_+ for a TruncatedPower k."""
    return k.as_kernel()(x)


def _angle_profile(x: np.ndarray, t: float, formula) -> np.ndarray:
    """formula(arccos x) on [cos t, 1], exactly 0 at the edge x = cos t and
    where arccos rounds x a few ulp above it onto or past t: the formula
    leaves roundoff there."""
    theta = np.arccos(x)
    out = formula(theta)
    out[(x == math.cos(t)) | (theta >= t)] = 0.0
    return out


@on_interval
def eval_montee_closed_form(which: str, t: float, x):
    """Evaluate one of the printed montee closed forms (oracle route).

    `which` is one of 'If2', 'If3', 'I2f3', 'If4', 'I2f4'.  The value is 0
    for theta >= t.
    """
    if which not in _CLOSED_FORM_KEYS:
        raise ValueError(f"unknown family tag {which!r}; expected one of {CLOSED_FORM_TAGS}")
    _check_support_angle(t)
    theta = np.arccos(x)
    u = t - theta
    ct, st = np.cos(theta), np.sin(theta)
    if which == "If2":
        val = ct * (u**2 - 2.0) + 2.0 * st * u + 2.0 * math.cos(t)
    elif which == "If3":
        val = ct * (u**3 - 6.0 * u) + st * (3.0 * u**2 - 6.0) + 6.0 * math.sin(t)
    elif which == "I2f3":
        a7, a6, a5, a4 = 0.25, -21.0 / 8.0, 9.0 / 8.0, -45.0 / 16.0
        a3, a2, a1 = 6.0 * math.sin(t), 0.5, -3.0
        a0 = -(3.0 / 16.0) * math.sin(2.0 * t)
        val = (
            np.cos(2.0 * theta) * (a7 * u**3 + a6 * u)
            + np.sin(2.0 * theta) * (a5 * u**2 + a4)
            + ct * a3
            + a2 * u**3
            + a1 * u
            + a0
        )
    elif which == "If4":
        val = ct * (u**4 - 12.0 * u**2 + 24.0) + st * (4.0 * u**3 - 24.0 * u) - 24.0 * math.cos(t)
    else:  # I2f4
        b8, b7, b6, b5, b4 = 0.25, -21.0 / 4.0, 93.0 / 8.0, 1.5, -45.0 / 4.0
        b3, b2, b1 = -24.0 * math.cos(t), 0.5, -6.0
        b0 = 0.75 * math.cos(t) ** 2 + 93.0 / 8.0
        val = (
            np.cos(2.0 * theta) * (b8 * u**4 + b7 * u**2 + b6)
            + np.sin(2.0 * theta) * (b5 * u**3 + b4 * u)
            + ct * b3
            + (b2 * u**4 + b1 * u**2 + b0)
        )
    return np.where(theta < t, val, 0.0)


def _montee_recurrence_theta(m: int, t: float, theta: np.ndarray) -> np.ndarray:
    if m == 1:
        u = t - theta
        val = np.cos(theta) * u + np.sin(theta) - math.sin(t)
        return np.where(theta < t, val, 0.0)
    if m == 2:
        up = np.maximum(t - theta, 0.0)
        return np.cos(theta) * up**2 + 2.0 * np.sin(theta) * up - 2.0 * np.maximum(np.cos(theta) - math.cos(t), 0.0)
    up = np.maximum(t - theta, 0.0)
    return (
        np.cos(theta) * up**m
        + m * np.sin(theta) * up ** (m - 1)
        - m * (m - 1.0) * _montee_recurrence_theta(m - 2, t, theta)
    )


@on_interval
def eval_montee_recurrence(m: int, t: float, x, *, k: int = 1):
    """Single montee I f_m via the double integration-by-parts recurrence.

    Chains down to the printed base cases I f_1 and I f_2; only k = 1 is
    supported.  An oracle route: MonteeIterate evaluates every iterate.
    """
    if m <= 0:
        raise ValueError("exponent m must be a positive integer")
    if k != 1:
        raise ValueError("the recurrence evaluates a single montee; use MonteeIterate for k > 1")
    _check_support_angle(t)
    return _montee_recurrence_theta(m, t, np.arccos(x))


# ---------------------------------------------------------------------------
# exact montee algebra

# sin/cos(theta) times cos(j theta) (kind 0) or sin(j theta) (kind 1), as
# (shift of j, resulting kind, weight) pairs from the product-to-sum formulas.
_PRODUCT_TO_SUM = {
    ("sin", 0): ((1, 1, 0.5), (-1, 1, -0.5)),
    ("sin", 1): ((-1, 0, 0.5), (1, 0, -0.5)),
    ("cos", 0): ((1, 0, 0.5), (-1, 0, 0.5)),
    ("cos", 1): ((1, 1, 0.5), (-1, 1, 0.5)),
}


def _accumulate(out: dict, p: int, j: int, kind: int, v: float):
    # fold negative frequencies onto positive ones; sin(0 theta) vanishes
    if j < 0:
        j, v = -j, (v if kind == 0 else -v)
    if j == 0 and kind == 1:
        return
    out[(p, j, kind)] = out.get((p, j, kind), 0.0) + v


@lru_cache(maxsize=None)
def _primitive_term(p: int, j: int, kind: int) -> tuple:
    """Terms of int u^p cos|sin(j theta) dtheta, u = t - theta, by parts."""
    if j == 0:
        return (((p + 1, 0, 0), -1.0 / (p + 1)),)
    out, coef = [], 1.0
    for q in range(p, -1, -1):
        if kind == 0:
            out.append(((q, j, 1), coef / j))
        else:
            out.append(((q, j, 0), -coef / j))
            coef = -coef
        coef *= q / j
        kind = 1 - kind
    return tuple(out)


class _TrigPowerSum:
    """Finite sum of c u^p cos(j theta) and c u^p sin(j theta), u = t - theta.

    Terms are keyed (p, j, kind), kind 0 for cos and 1 for sin; (0, 0, 0) is
    the constant.  The family is closed under products with sin/cos theta,
    d/dtheta and montee, so every iterate I^k f_m is exact here.  With p = 0
    terms only it is a trigonometric polynomial and t plays no role.
    """

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0.0}

    @classmethod
    def const(cls, c: float) -> "_TrigPowerSum":
        return cls({(0, 0, 0): float(c)})

    def add(self, other: "_TrigPowerSum") -> "_TrigPowerSum":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return _TrigPowerSum(out)

    def scale(self, c: float) -> "_TrigPowerSum":
        return _TrigPowerSum({k: c * v for k, v in self.terms.items()})

    def _mul(self, factor: str) -> "_TrigPowerSum":
        out = {}
        for (p, j, kind), v in self.terms.items():
            for shift, kind2, w in _PRODUCT_TO_SUM[factor, kind]:
                _accumulate(out, p, j + shift, kind2, w * v)
        return _TrigPowerSum(out)

    def mul_sin(self) -> "_TrigPowerSum":
        return self._mul("sin")

    def mul_cos(self) -> "_TrigPowerSum":
        return self._mul("cos")

    def deriv(self) -> "_TrigPowerSum":
        """d/dtheta, with du/dtheta = -1."""
        out = {}
        for (p, j, kind), v in self.terms.items():
            if p:
                _accumulate(out, p - 1, j, kind, -p * v)
            _accumulate(out, p, j, 1 - kind, (-j if kind == 0 else j) * v)
        return _TrigPowerSum(out)

    def montee(self, t: float) -> "_TrigPowerSum":
        """(I f)(cos theta) = int_theta^t f(cos phi) sin phi dphi = G(t) - G(theta)."""
        prim = {}
        for (p, j, kind), v in self.mul_sin().terms.items():
            for (q, jj, kk), w in _primitive_term(p, j, kind):
                _accumulate(prim, q, jj, kk, w * v)
        at_t = math.fsum(
            v * (math.cos(j * t) if kind == 0 else math.sin(j * t)) for (p, j, kind), v in prim.items() if p == 0
        )
        return _TrigPowerSum(prim).scale(-1.0).add(_TrigPowerSum.const(at_t))

    @cached_property
    def _horner(self) -> list:
        # [(j, kind, coefficients from the highest power of u down)]
        groups = {}
        for (p, j, kind), v in self.terms.items():
            groups.setdefault((j, kind), {})[p] = v
        return [
            (j, kind, [c.get(p, 0.0) for p in range(max(c), -1, -1)]) for (j, kind), c in sorted(groups.items())
        ]

    def __call__(self, theta, t: float = 0.0):
        theta = np.asarray(theta, dtype=float)
        u = t - theta
        out = np.zeros_like(theta)
        for j, kind, coeffs in self._horner:
            acc = coeffs[0]
            for c in coeffs[1:]:
                acc = acc * u + c
            if j:
                acc = acc * (np.cos(j * theta) if kind == 0 else np.sin(j * theta))
            out = out + acc
        return out


@lru_cache(maxsize=256)
def _montee_terms(m: int, t: float, k: int) -> _TrigPowerSum:
    """I^k f_m exactly; k = 0 is f_m = u^m itself."""
    if k == 0:
        return _TrigPowerSum({(m, 0, 0): 1.0})
    return _montee_terms(m, t, k - 1).montee(t)


@dataclass(frozen=True)
class MonteeIterate:
    """I^k f_m: k-fold montee of a truncated power, supported like its base.

    Every (m, k) is evaluated from the same exact algebra, and every iterate
    records its exact antiderivative I^(k+1) f_m.
    """

    base: TruncatedPower
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("montee count k must be >= 1")
        if max(self.base.m, self.k) > MAX_MONTEE_ORDER:
            raise ResourceLimitError(f"montee iterates need m, k <= {MAX_MONTEE_ORDER}, got m={self.base.m}, k={self.k}")

    def as_kernel(self) -> ZonalKernel:
        m, t, k = self.base.m, self.base.t, self.k
        return ZonalKernel(
            fn=lambda x: _angle_profile(x, t, lambda theta: _montee_terms(m, t, k)(theta, t)),
            name=f"I^{k} f_{m}(t={t:g})",
            breakpoints=(math.cos(t), 1.0),
            antiderivative_fn=lambda: MonteeIterate(self.base, k + 1).as_kernel(),
            descriptor={"family": "montee", "m": m, "k": k, "t": t},
            support_edge=math.cos(t),
        )

    def __call__(self, x):
        return self.as_kernel()(x)


# ---------------------------------------------------------------------------
# cap self-convolution kernels N_d


@dataclass(frozen=True)
class CapCoeffs:
    """Coefficients of N_d, stored as the printed products and divided by a.

    The products ab, ad, ... are kept exactly as printed so their provenance
    stays auditable; the ratios b, d, ... are derived at construction.
    """

    dim: int
    s: float
    a: float
    products: dict

    def ratio(self, key: str) -> float:
        return self.products[key] / self.a

    @property
    def b(self) -> float:
        return self.ratio("ab")

    @property
    def d(self) -> float:
        return self.ratio("ad")

    @property
    def e(self) -> float:
        return self.ratio("ae")

    @property
    def f(self) -> float:
        return self.ratio("af")

    @property
    def h(self) -> float:
        return self.ratio("ah")


def cap_kernel_coefficients(d: int, s: float) -> CapCoeffs:
    """Coefficient set of N_d for d in {3, 5, 7, 9} and cap angle s in (0, pi/2).

    a = (g *_mu g)(1) with g the cap indicator and mu = (d-1)/2; the returned
    products follow the printed closed forms.
    """
    if d not in (3, 5, 7, 9):
        raise ValueError(f"cap kernels exist for d in {{3, 5, 7, 9}}, got {d}")
    if not (0.0 < s < math.pi / 2.0):
        raise ValueError(f"cap angle must lie in (0, pi/2), got {s}")
    c = math.cos(s)
    sn = math.sin(s)
    if d == 3:
        a = 0.5 * s - 0.25 * math.sin(2.0 * s)
        products = {"ab": -0.25, "ad": 0.25 * (1.0 + math.cos(2.0 * s))}
    elif d == 5:
        a = 0.25 * sn * c**3 - (5.0 / 8.0) * sn * c + (3.0 / 8.0) * s
        products = {
            "ab": -3.0 / 16.0,
            "ad": 0.75 * c**2 - 0.25 * c**4,
            "ae": -0.25 * c**4,
        }
    elif d == 7:
        a = (5.0 / 16.0) * s - (11.0 / 16.0) * sn * c + (13.0 / 24.0) * sn * c**3 - (1.0 / 6.0) * sn * c**5
        products = {
            "ab": -5.0 / 32.0,
            "ad": (15.0 / 16.0) * c**2 - (5.0 / 8.0) * c**4 + (1.0 / 6.0) * c**6,
            "ae": -(5.0 / 8.0) * c**4 + (1.0 / 6.0) * c**6,
            "af": 0.25 * c**6,
        }
    else:
        a = (
            (35.0 / 128.0) * s
            - (93.0 / 128.0) * sn * c
            + (163.0 / 192.0) * sn * c**3
            - (25.0 / 48.0) * sn * c**5
            + 0.125 * sn * c**7
        )
        products = {
            "ab": -35.0 / 256.0,
            "ad": (105.0 * c**2 - 105.0 * c**4 + 56.0 * c**6 - 12.0 * c**8) / 96.0,
            "ae": (-105.0 * c**4 + 56.0 * c**6 - 12.0 * c**8) / 96.0,
            "af": (84.0 * c**6 - 18.0 * c**8) / 96.0,
            "ah": -30.0 * c**8 / 96.0,
        }
    if not a > 0.0:
        raise DegenerateCapError(f"cap normalizer a = {a} is not positive for d={d}, s={s}")
    return CapCoeffs(dim=d, s=s, a=a, products=products)


# perfbench's route tracer and oracles read this by name; it goes with the benchmark change (ROADMAP item 1)
def eval_cap_kernel(d: int, s: float, x):
    """N_d(x): zero for x <= cos(2s), exactly 1 at x = 1."""
    return CapConvKernel(d, s).as_kernel()(x)


def _cap_profile(coeffs: CapCoeffs, x: np.ndarray) -> np.ndarray:
    """N_d on [cos 2s, 1], exactly 0 at the edge, where the formula leaves roundoff."""
    d = coeffs.dim
    theta = np.arccos(x)
    # tan(theta/2) = sqrt((1-x)/(1+x)) without the cancellation in 1-x near x = 1
    q = 0.5 * theta
    np.tan(q, out=q)
    poly = coeffs.d
    if d >= 5:
        v = 1.0 + x
        poly = poly + coeffs.e / v
    if d >= 7:
        poly = poly + coeffs.f / v**2
    if d >= 9:
        poly = poly + coeffs.h / v**3
    # 1 + b theta + q poly, in place: fresh temporaries cost page faults
    q *= poly
    theta *= coeffs.b
    theta += 1.0
    theta += q
    theta[x == math.cos(2.0 * coeffs.s)] = 0.0
    return theta


@dataclass(frozen=True)
class CapConvKernel:
    """N_d as a kernel object, d in {3, 5, 7, 9}, support radius 2s."""

    d: int
    s: float

    @property
    def coeffs(self) -> CapCoeffs:
        return cap_kernel_coefficients(self.d, self.s)

    def as_kernel(self) -> ZonalKernel:
        d, s, coeffs = self.d, self.s, self.coeffs  # validates range and positivity
        return ZonalKernel(
            fn=lambda x: _cap_profile(coeffs, x),
            name=f"N_{d}(s={s:g})",
            breakpoints=(math.cos(2.0 * s), 1.0),
            descriptor={"family": "cap_conv", "d": d, "s": s},
            support_edge=math.cos(2.0 * s),
        )

    def __call__(self, x):
        return self.as_kernel()(x)


# ---------------------------------------------------------------------------
# descriptor factory (the JSON schema consumed by the CLI)


def _integer(key: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"descriptor field {key!r} must be an integer, got {v!r}")
    return int(v)


def _finite_real(key: str, v) -> float:
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    # abs(v) <= max also rejects NaN, and ints too large for a float
    if not (real and abs(v) <= np.finfo(float).max):
        raise ValueError(f"descriptor field {key!r} must be a finite real, got {v!r}")
    return float(v)


def kernel_from_descriptor(desc: dict, params: GegenbauerParams | None = None) -> ZonalKernel:
    """Build a kernel from {"family": ..., ...}.

    Families: truncated_power {m, t}, montee {m, k, t}, cap_conv {d, s},
    series {coeffs, lambda?}.  m, k and d must be integers (a bool is not),
    t, s, lambda and each coefficient finite reals; anything else raises
    ValueError.  A series descriptor without "lambda" uses the `params`
    argument.
    """
    if not isinstance(desc, dict) or "family" not in desc:
        raise ValueError("kernel descriptor must be a mapping with a 'family' key")
    family = desc["family"]
    try:
        if family == "truncated_power":
            return TruncatedPower(_integer("m", desc["m"]), _finite_real("t", desc["t"])).as_kernel()
        if family == "montee":
            base = TruncatedPower(_integer("m", desc["m"]), _finite_real("t", desc["t"]))
            return MonteeIterate(base, _integer("k", desc["k"])).as_kernel()
        if family == "cap_conv":
            return CapConvKernel(_integer("d", desc["d"]), _finite_real("s", desc["s"])).as_kernel()
        if family == "series":
            if "lambda" in desc:
                p = GegenbauerParams(_finite_real("lambda", desc["lambda"]))
            elif params is None:
                raise ValueError("series descriptor needs 'lambda' or explicit params")
            else:
                p = params
            if not isinstance(desc["coeffs"], (list, tuple)):
                raise ValueError(f"descriptor field 'coeffs' must be a list, got {desc['coeffs']!r}")
            coeffs = np.array([_finite_real("coeffs", c) for c in desc["coeffs"]], dtype=float)
            series = SeriesCoeffs(params=p, coeffs=coeffs, truncation=coeffs.size - 1)
            return ZonalKernel(
                fn=lambda x: np.asarray(series_eval(series, x)),
                name=f"series(lam={p.lam:g}, N={series.truncation})",
                descriptor={"family": "series", "coeffs": coeffs.tolist(), "lambda": p.lam},
            )
    except KeyError as exc:
        raise ValueError(f"descriptor for family {family!r} is missing key {exc}") from exc
    raise ValueError(f"unknown kernel family {family!r}")
