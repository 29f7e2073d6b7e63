"""Vandermonde-type generalized n-metrics and their verification toolkit."""

from .core import (
    INEQUALITY_RTOL,
    METRICS,
    MetricReport,
    MonotoneNorm,
    PointTuple,
    as_point_tuple,
    componentwise_metric,
    cramer_coefficients,
    cramer_coefficients_determinant_ratio,
    euclidean_3metric,
    extended_inequality_gap,
    lp_function_metric,
    pairwise_product_metric,
    pairwise_root_metric,
    product_metric,
    resolve_metric,
    root_metric,
    simplex_gap,
    vandermonde_metric,
    vandermonde_metric_log,
)
from .errors import ArgumentError, ResourceError, SingularityError, StepSizeError
from .geometry import (
    CyclicPolygon,
    EqualityFamilyPoint,
    equality_family,
    equality_gap_3,
    ngon_check,
    ptolemy_gap,
    quadrilateral_check,
    simplex_equality_ngon,
    tetrahedron_counterexample,
    triangle_check,
)
from .multilinear import (
    DefinitenessVerdict,
    MultilinearMapSpec,
    counterexample_4_4,
    counterexample_4_4_report,
    definiteness_decide,
    generalized_metric,
    permutation_expansion,
    product_difference_form,
    sum_identity_gap,
    w_identity_gap,
    w_norm_inequality,
)
from .ode import (
    MatrixFunction,
    ODEProblem,
    cumulative_simpson,
    derive_alpha,
    integrate,
    verify_estimate,
)
from .campaign import CampaignConfig, CampaignResult, run_campaign

__version__ = "0.1.0"
