"""Vandermonde-type generalized n-metrics and their verification toolkit.

The public names below, and the submodules, load on first use (PEP 562),
so a process imports only the modules it runs.
"""

import importlib

_EXPORTS = {
    "core": (
        "INEQUALITY_RTOL",
        "METRICS",
        "MetricReport",
        "MonotoneNorm",
        "PointTuple",
        "as_point_tuple",
        "componentwise_metric",
        "cramer_coefficients",
        "cramer_coefficients_determinant_ratio",
        "euclidean_3metric",
        "extended_inequality_gap",
        "lp_function_metric",
        "pairwise_product_metric",
        "pairwise_root_metric",
        "product_metric",
        "resolve_metric",
        "root_metric",
        "simplex_gap",
        "vandermonde_metric",
        "vandermonde_metric_log",
    ),
    "errors": ("ArgumentError", "ResourceError", "SingularityError", "StepSizeError"),
    "geometry": (
        "CyclicPolygon",
        "EqualityFamilyPoint",
        "equality_family",
        "equality_gap_3",
        "ngon_check",
        "ptolemy_gap",
        "quadrilateral_check",
        "simplex_equality_ngon",
        "tetrahedron_counterexample",
        "triangle_check",
    ),
    "multilinear": (
        "DefinitenessVerdict",
        "MultilinearMapSpec",
        "counterexample_4_4",
        "counterexample_4_4_report",
        "definiteness_decide",
        "generalized_metric",
        "permutation_expansion",
        "product_difference_form",
        "sum_identity_gap",
        "w_identity_gap",
        "w_norm_inequality",
    ),
    "ode": (
        "MatrixFunction",
        "ODEProblem",
        "cumulative_simpson",
        "derive_alpha",
        "integrate",
        "verify_estimate",
    ),
    "campaign": ("CampaignConfig", "CampaignResult", "run_campaign"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("batch", "campaign", "cli", "core", "errors", "geometry", "io", "multilinear",
               "ode")

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
