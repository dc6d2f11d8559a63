"""wavecert: certify and construct multiplier/Carleman weights for
variable-coefficient wave equations on bounded domains.

The toolkit checks, on deterministic sample grids, the uniform matrix
positivity condition that a scalar weight must satisfy together with a
coefficient matrix, constructs explicit exponential weights when the
coefficients have uniformly signed partials along one axis, reproduces the
sectional-curvature comparison for 2D diagonal metrics, and traces
bicharacteristic rays as a geometric diagnostic.
"""

__version__ = "0.1.0"

from .coeff import CoefficientField, build, certify_positivity
from .condition import (
    ConditionReport,
    GridProblem,
    WeightFunction,
    multiplier_matrix,
    weight_function,
)
from .curvature import (
    CurvatureReport,
    classify_sign,
    curvature_closed_form_expression,
    gauss_curvature_expression,
    check_sign_change_window,
)
from .domain import Region, SampleGrid, sample
from .expr import Expression, differentiate, evaluate, parse, render
from .rays import RayOutcome, RayState, fan, trace
from .weight import (
    AdmissibleIndex,
    WeightCertificate,
    compute_shift,
    construct_weight,
    detect_index,
    find_lambda,
    limit_matrix,
    scaled_multiplier_matrix,
)

__all__ = [
    "AdmissibleIndex",
    "CoefficientField",
    "ConditionReport",
    "CurvatureReport",
    "Expression",
    "GridProblem",
    "RayOutcome",
    "RayState",
    "Region",
    "SampleGrid",
    "WeightCertificate",
    "WeightFunction",
    "build",
    "certify_positivity",
    "check_sign_change_window",
    "classify_sign",
    "compute_shift",
    "construct_weight",
    "curvature_closed_form_expression",
    "detect_index",
    "differentiate",
    "evaluate",
    "fan",
    "find_lambda",
    "gauss_curvature_expression",
    "limit_matrix",
    "multiplier_matrix",
    "parse",
    "render",
    "sample",
    "scaled_multiplier_matrix",
    "trace",
    "weight_function",
]
