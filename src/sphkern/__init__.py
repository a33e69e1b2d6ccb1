"""Locally supported (strictly) positive definite zonal kernels on spheres.

Dimension-hopping montee/descente operators between S^d and S^(d+2), the
truncated-power and cap-convolution kernel families they generate, zonal
convolutions with their transform-side algebra, positive definiteness
evidence, and scattered-data interpolation on S^d.
"""

from .errors import (
    AccuracyError,
    DegenerateCapError,
    EvaluationError,
    NotPositiveDefiniteError,
    ResourceLimitError,
)
from .gegenbauer import (
    GegenbauerParams,
    QuadratureRule,
    SeriesCoeffs,
    eval_gegenbauer,
    eval_gegenbauer_derivative,
    gegenbauer_at_one,
    quadrature_rule,
    series_eval,
    transform,
    weight_w,
)
from .zonal import ZonalKernel, constant_kernel, gegenbauer_kernel
from .operators import (
    OperatorImage,
    check_D_on_gegenbauer,
    check_I_on_gegenbauer,
    coeff_map_derivative,
    descente_numeric,
    montee_numeric,
    montee_positivity_shift,
    mu,
)
from .kernels import (
    CapConvKernel,
    CapCoeffs,
    MonteeIterate,
    TruncatedPower,
    cap_kernel_coefficients,
    eval_cap_kernel,
    eval_montee_closed_form,
    eval_montee_recurrence,
    eval_truncated_power,
    kernel_from_descriptor,
)
from .convolution import (
    cap_indicator,
    cap_transform,
    cap_transform_quadrature,
    conv0,
    conv_kink_abscissae,
    conv_lambda_coeffs,
    conv_property_check,
    dimension_hop_conv,
    hop_constant,
)
from .spd import ClassificationReport, PointSet, classify, generate_points, gram_matrix, gram_min_eig
from .interpolation import Interpolant, evaluate_interpolant, solve_interpolation

__version__ = "0.1.0"
