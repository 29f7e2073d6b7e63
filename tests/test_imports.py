"""What a cold process loads, and the public names of the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vandermetric

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code, *args):
    """(exit code, stdout, stderr) of a fresh interpreter running code with args."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


# Runs the CLI on argv and writes the vandermetric modules it loaded, then
# whether it loaded click, as the last line of stderr.
_CLI_MODULES = """
import json, sys
try:
    from vandermetric.cli import main
    main()
finally:
    loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("vandermetric."))
    click = any(m.split(".")[0] == "click" for m in sys.modules)
    sys.stderr.write("\\n" + json.dumps([loaded, click]) + "\\n")
"""

_ALWAYS = ["campaign", "cli", "core", "errors"]


@pytest.mark.parametrize("args,extra", [
    (["campaign", "--op", "simplex", "--trials", "16"], []),
    (["campaign", "--op", "polygon", "--trials", "16"], ["geometry"]),
    (["campaign", "--op", "sum-identity", "--trials", "16"], ["batch"]),
    (["definiteness", "--n", "3", "--m", "3"], ["multilinear"]),
], ids=["simplex", "polygon", "sum-identity", "definiteness"])
def test_a_cold_command_loads_only_the_modules_it_runs(args, extra):
    code, out, err = _run(_CLI_MODULES, *args)
    assert code == 0, err
    assert out
    assert json.loads(err.splitlines()[-1]) == [sorted(_ALWAYS + extra), False]


def test_the_cli_runs_where_click_cannot_be_imported():
    code, out, err = _run("import sys\nsys.modules['click'] = None\n" + _CLI_MODULES,
                          "campaign", "--op", "simplex", "--trials", "16")
    assert code == 0, err
    assert json.loads(out.splitlines()[-1])["pass"] is True


# Every name the package exported when it imported all of its modules eagerly.
PUBLIC = {
    "core": [
        "INEQUALITY_RTOL", "METRICS", "MetricReport", "MonotoneNorm", "PointTuple",
        "as_point_tuple", "componentwise_metric", "cramer_coefficients",
        "cramer_coefficients_determinant_ratio", "euclidean_3metric", "extended_inequality_gap",
        "lp_function_metric", "pairwise_product_metric", "pairwise_root_metric",
        "product_metric", "resolve_metric", "root_metric", "simplex_gap", "vandermonde_metric",
        "vandermonde_metric_log",
    ],
    "errors": ["ArgumentError", "ResourceError", "SingularityError", "StepSizeError"],
    "geometry": [
        "CyclicPolygon", "EqualityFamilyPoint", "equality_family", "equality_gap_3",
        "ngon_check", "ptolemy_gap", "quadrilateral_check", "simplex_equality_ngon",
        "tetrahedron_counterexample", "triangle_check",
    ],
    "multilinear": [
        "DefinitenessVerdict", "MultilinearMapSpec", "counterexample_4_4",
        "counterexample_4_4_report", "definiteness_decide", "generalized_metric",
        "permutation_expansion", "product_difference_form", "sum_identity_gap",
        "w_identity_gap", "w_norm_inequality",
    ],
    "ode": ["MatrixFunction", "ODEProblem", "cumulative_simpson", "derive_alpha", "integrate",
            "verify_estimate"],
    "campaign": ["CampaignConfig", "CampaignResult", "run_campaign"],
}
SUBMODULES = ["batch", "campaign", "cli", "core", "errors", "geometry", "io", "multilinear",
              "ode"]


def test_the_public_names_resolve_to_their_modules_objects():
    names = [name for names in PUBLIC.values() for name in names]
    assert sorted(vandermetric.__all__) == sorted(names)
    for module, module_names in PUBLIC.items():
        for name in module_names:
            assert getattr(vandermetric, name) is getattr(getattr(vandermetric, module), name)
    assert set(names + SUBMODULES) <= set(dir(vandermetric))
    with pytest.raises(AttributeError, match="no_such_name"):
        vandermetric.no_such_name  # noqa: B018
    assert vandermetric.__version__ == "0.1.0"


def test_a_bare_import_loads_no_submodule_and_resolves_each():
    code, out, err = _run(
        "import sys, vandermetric\n"
        "print(sorted(m for m in sys.modules if m.startswith('vandermetric.')))\n"
        "for name in sys.argv[1:]:\n"
        "    assert getattr(vandermetric, name).__name__ == 'vandermetric.' + name, name\n"
        "from vandermetric import *\n"
        "print(run_campaign.__module__)\n", *SUBMODULES)
    assert code == 0, err
    assert out.splitlines() == ["[]", "vandermetric.campaign"]
