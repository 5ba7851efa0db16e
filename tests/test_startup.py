"""Start-up contract: what importing the package and the command line loads
and sets, each checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freedilation.cli import BLAS_SPIN_EXPONENT
from freedilation.harness import report_fingerprint

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ["dilation", "free_product", "harness", "ncprob", "operator_core", "serialization"]
API = [
    "BudgetError", "CheckReport", "ContractionError", "DilationResult", "Embedding",
    "FockBasis", "FockDimensionError", "FreeDilationScenario", "GenSet", "IngestError",
    "Model", "NotDoublyCommutingError", "PointedSpace", "Report", "Scenario",
    "ShapeMismatchError", "State", "StateError", "Word", "adjoint",
    "alternating_words_within", "build_fock", "build_model", "center", "compress",
    "defect_pair", "double_commutation_residual", "doubly_commuting_dilation", "emit",
    "evaluate_product", "evaluate_word", "faithfulness_check", "finite_unitary_dilation",
    "free_cumulants", "free_independence_check", "free_mixed_moment_oracle",
    "free_mixed_moments", "free_unitary_dilation", "haar_unitary_marginal", "ingest",
    "left_representation", "make_tensor_independent", "matrix_from_obj",
    "matrix_marginal", "matrix_to_obj", "moment_budget_check", "moments_from_cumulants",
    "noncrossing_partitions", "operator_norm", "ordered_words", "parse_product",
    "parse_word", "purify", "random_contraction", "random_state", "random_unitary",
    "render_text", "report_fingerprint", "restricted_unitarity_residual",
    "run_theorem_suite", "scenario_from_obj", "signed_alternating_words",
    "state_from_obj", "state_to_obj", "tensor_independence_check", "trace_check",
    "unitarity_residual", "verify_free_dilation", "verify_power_dilation", "word_moment",
]
TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"


def _env(**preset):
    env = {k: v for k, v in os.environ.items() if k != TIMEOUT}
    return {**env, "PYTHONPATH": str(ROOT / "src"), **preset}


def _python(code, env=None):
    """Run ``code`` in a fresh interpreter and parse the JSON it prints."""
    r = subprocess.run(
        [sys.executable, "-c", code], env=env or _env(), capture_output=True, text=True, timeout=120
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_package_import_loads_no_numpy():
    loaded = _python("import sys, json, freedilation; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("freedilation")] == ["freedilation", "freedilation._version"]


def test_public_names_resolve_and_star_import_binds_them():
    assert len(API) == 70
    got = _python(
        "import json, freedilation\n"
        "names = freedilation.__all__\n"
        "missing = [n for n in names if getattr(freedilation, n, None) is None]\n"
        "ns = {}\n"
        "exec('from freedilation import *', ns)\n"
        "print(json.dumps({'all': names, 'missing': missing,\n"
        "                  'unbound': [n for n in names if n not in ns]}))"
    )
    assert sorted(got["all"]) == sorted(API + SUBMODULES)
    assert got["missing"] == [] and got["unbound"] == []


def test_unknown_name_is_an_attribute_error():
    got = _python(
        "import json, freedilation\n"
        "try:\n    freedilation.no_such_name\nexcept AttributeError as e:\n    print(json.dumps(str(e)))"
    )
    assert "no_such_name" in got


@pytest.mark.parametrize(
    "first, preset, want",
    [
        ("", None, BLAS_SPIN_EXPONENT),  # the command line's spin policy
        ("", "7", "7"),  # a value the user set wins
        ("import numpy\n", None, None),  # numpy came first, as under pytest: hands off
    ],
    ids=["unset", "preset", "numpy-first"],
)
def test_cli_sets_the_blas_spin_only_before_numpy(first, preset, want):
    env = _env() if preset is None else _env(**{TIMEOUT: preset})
    got = _python(
        f"{first}import json, os, freedilation.cli\nprint(json.dumps(os.environ.get({TIMEOUT!r})))",
        env,
    )
    assert got == want


def test_spin_policy_does_not_change_the_report(tmp_path):
    # 28 is OpenBLAS's own default exponent, as at a plain numpy import
    fingerprints = []
    for preset in ({}, {TIMEOUT: "28"}):
        out = tmp_path / f"report{len(fingerprints)}.json"
        cmd = [
            sys.executable, "-m", "freedilation", "suite",
            "--input", str(ROOT / "demos" / "scenarios" / "single_half.json"),
            "--seed", "1", "--output", str(out),
        ]
        r = subprocess.run(cmd, env=_env(**preset), capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        fingerprints.append(report_fingerprint(json.loads(out.read_text())))
    assert fingerprints[0] == fingerprints[1]
