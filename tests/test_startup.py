"""Start-up contract: what importing the package and the command line loads
and sets, each checked in a fresh interpreter."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freedilation._inputs import read_scenario, scenario_shape
from freedilation.cli import (
    BLAS_SPIN_EXPONENT,
    BLAS_THREAD_VARIABLES,
    ONE_THREAD_BELOW,
    _blas_dim,
    _load_scenario,
    build_parser,
    main,
)
from freedilation.harness import Scenario, build_model, emit, report_fingerprint
from freedilation.operator_core import random_contraction, random_state
from freedilation.serialization import matrix_to_obj

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
THREADS = "OPENBLAS_NUM_THREADS"
SCENARIOS = ROOT / "demos" / "scenarios"


def _env(**preset):
    env = {k: v for k, v in os.environ.items() if k not in (TIMEOUT, *BLAS_THREAD_VARIABLES)}
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


def test_cli_import_and_help_load_no_numpy():
    got = _python(
        "import contextlib, io, json, sys\n"
        "import freedilation.cli\n"
        "imported = 'numpy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    try:\n        freedilation.cli.main(['--help'])\n"
        "    except SystemExit as e:\n        code = e.code\n"
        "print(json.dumps([imported, 'numpy' in sys.modules, code, 'usage:' in out.getvalue()]))"
    )
    assert got == [False, False, 0, True]


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


SINGLE = str(SCENARIOS / "single_half.json")  # one 1x1 factor: dim N + 1
DOUBLY = str(SCENARIOS / "doubly_diag.json")  # two 2x2 factors at N=2: core 6, dim 18


def _degree(size, d=1):
    """``--degree`` that puts the dilation of a d x d factor, (N+1)d, at ``size``."""
    return ["--degree", str(size // d - 1)]


@pytest.mark.parametrize(
    "first, argv, preset, want",
    [
        ("", ["suite", "--input", SINGLE], {}, "1"),  # dim 4
        ("", ["suite", "--input", str(SCENARIOS / "free_pair.json")], {}, "1"),
        ("", ["suite", "--input", SINGLE, *_degree(ONE_THREAD_BELOW["single"] - 1)], {}, "1"),
        ("", ["suite", "--input", SINGLE, *_degree(ONE_THREAD_BELOW["single"])], {}, None),
        ("", ["suite", "--input", DOUBLY], {}, "1"),
        # doubly is bounded by one factor's dilation, not by the whole space
        ("", ["suite", "--input", DOUBLY, *_degree(ONE_THREAD_BELOW["doubly"] - 2, 2)], {}, "1"),
        ("", ["suite", "--input", DOUBLY, *_degree(ONE_THREAD_BELOW["doubly"], 2)], {}, None),
        ("", ["check", "--input", DOUBLY, "--property", "tensor"], {}, "1"),  # dim 36
        ("", ["suite", "--input", SINGLE], {THREADS: "2"}, "2"),  # a value the user set wins
        ("", ["suite", "--input", SINGLE], {"OMP_NUM_THREADS": "2"}, None),
        ("import numpy\n", ["suite", "--input", SINGLE], {}, None),  # numpy came first: hands off
    ],
    ids=[
        "small-dense", "free", "below", "at-threshold", "doubly", "doubly-below",
        "doubly-at-threshold", "tensor", "user-openblas", "user-omp", "numpy-first",
    ],
)
def test_cli_picks_one_blas_thread_for_small_scenarios(first, argv, preset, want):
    got = _python(
        f"{first}import json, os\n"
        "from freedilation import cli\n"
        f"cli._load_scenario(cli.build_parser().parse_args({argv!r}))\n"
        f"print(json.dumps(os.environ.get({THREADS!r})))",
        _env(**preset),
    )
    assert got == want


def _workloads():
    """The benchmark's scenario generators, loaded from their file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tensor_scenario(tmp_path):
    obj = json.loads((SCENARIOS / "doubly_diag.json").read_text())
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({**obj, "mode": "tensor"}))
    return str(path)


def _model_size(model, mode):
    """What ``ONE_THREAD_BELOW`` bounds, read off a built model: its space,
    or in doubly mode the largest core of its axis generators."""
    if mode == "doubly":
        return max(g.core.shape[0] for g in model.gens.mats.values())
    return model.gens.dim


def test_pre_read_dimension_is_the_model_dimension(tmp_path):
    mat = tmp_path / "t.json"
    mat.write_text(json.dumps(matrix_to_obj([[0.5, 0.0], [0.1, 0.2]])))
    parts = tmp_path / "parts.json"  # matrix parts given as paths, no degree: the default
    parts.write_text(json.dumps({"mode": "tensor", "factors": [{"matrix": "t.json"}] * 2}))
    doubly = DOUBLY
    runs = [
        (["suite", "--input", SINGLE], None),
        (["suite", "--input", doubly], None),
        (["suite", "--input", _tensor_scenario(tmp_path)], None),
        (["suite", "--input", str(parts)], None),
        (["suite", "--input", SINGLE, "--degree", "9"], None),
        (["suite", "--input", doubly, "--degree", "4"], None),
        (["dilate", "--input", SINGLE], "single"),
        (["dilate-doubly", "--input", SINGLE, "--degree", "5"], "doubly"),
        (["dilate-doubly", "--input", doubly], "doubly"),
        (["check", "--input", doubly, "--property", "tensor"], "tensor"),
    ]
    workloads = _workloads()
    for seed in range(3):
        for path in workloads.generate("dense_modes", seed, tmp_path / "bench" / str(seed)):
            runs.append((["suite", "--input", str(path)], None))
    for argv, force in runs:
        args = build_parser().parse_args(argv)
        shape = scenario_shape(read_scenario(args.input)[0], force, args.degree)
        sc = _load_scenario(args, force)
        assert shape == (sc.mode, sc.degree, [t.shape[0] for t, _ in sc.factors]), argv
        assert _blas_dim(*shape) == _model_size(build_model(sc), sc.mode), argv
    # free mode reads no factor: dilate-free, oracle, check --property free
    assert scenario_shape(read_scenario(SCENARIOS / "free_pair.json")[0]) == ("free", 3, [])
    assert scenario_shape(read_scenario(doubly)[0], "free") == ("free", 2, [])


def test_each_json_file_is_parsed_once(tmp_path):
    # the thread count's read is ingest's: each file is read and parsed once,
    # a part named by two factors too, and hashed from the bytes parsed
    part = tmp_path / "t.json"
    part.write_text(json.dumps(matrix_to_obj([[0.5, 0.0], [0.1, 0.2]])))
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"mode": "tensor", "factors": [{"matrix": "t.json"}] * 2}))
    argv = ["suite", "--input", str(path)]
    got = _python(
        "import json, pathlib\n"
        "texts, loads = [], json.loads\n"
        "json.loads = lambda s, *a, **k: texts.append(s) or loads(s, *a, **k)\n"
        "reads, read_bytes = [], pathlib.Path.read_bytes\n"
        "pathlib.Path.read_bytes = lambda p: reads.append(p.name) or read_bytes(p)\n"
        "from freedilation import cli\n"
        f"sc = cli._load_scenario(cli.build_parser().parse_args({argv!r}))\n"
        "print(json.dumps([texts, reads, sc.sources, len(sc.factors)]))"
    )
    sha = {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in (path, part)}
    sources = [[str(p.resolve()), sha[p]] for p in (path, part, part)]
    assert got == [[path.read_text(), part.read_text()], ["sc.json", "t.json"], sources, 2]


@pytest.mark.parametrize(
    "argv, match",
    [
        (["--input", "nope.json"], "No such file"),
        (["--input", "bad.json"], "bad.json:1:2"),
        (["--input", "part.json"], "missing.json"),
        (["--input", "list.json"], "must be a JSON object"),
        (["--input", "sc.json", "--degree", "0"], "budget degree must be >= 1"),
        (["--input", "latin1.json"], "can't decode byte 0xe9"),
        (["--input", "deep.json"], "maximum recursion depth"),
    ],
    ids=["missing-file", "invalid-json", "missing-part", "not-an-object", "degree-0", "not-utf8", "deep"],
)
def test_refusals_are_unchanged_by_the_pre_read(tmp_path, capsys, argv, match):
    # in a fresh interpreter the thread count is chosen from what was read;
    # in this one numpy is loaded, so it is not: the refusals are the same
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "part.json").write_text(json.dumps({"factors": [{"matrix": "missing.json"}]}))
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "latin1.json").write_bytes('{"mode": "déjà"}'.encode("latin-1"))
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    (tmp_path / "sc.json").write_text((SCENARIOS / "single_half.json").read_text())
    cmd = [sys.executable, "-m", "freedilation", "suite", *argv]
    r = subprocess.run(cmd, cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = main(["suite", *argv])
    finally:
        os.chdir(cwd)
    err = capsys.readouterr().err
    assert r.returncode == code == 2
    assert r.stderr == err and err.startswith("error:") and err.count("\n") == 1 and match in err


def test_spin_policy_does_not_change_the_report(tmp_path):
    # 28 is OpenBLAS's own default exponent, as at a plain numpy import; the
    # traced benchmark pass imports numpy before the CLI and so runs these
    # scenarios on every thread, and its reports must match the others
    presets = ({}, {TIMEOUT: "28"}, {THREADS: "1"}, {THREADS: "2"})
    # the tensor copy of doubly_diag fails its faithfulness check
    for scenario, code in ((SINGLE, 0), (DOUBLY, 0), (_tensor_scenario(tmp_path), 1)):
        fingerprints = []
        for preset in presets:
            out = tmp_path / f"report{len(fingerprints)}.json"
            cmd = [
                sys.executable, "-m", "freedilation", "suite",
                "--input", scenario, "--seed", "1", "--output", str(out),
            ]
            r = subprocess.run(cmd, env=_env(**preset), capture_output=True, text=True, timeout=300)
            assert r.returncode == code, (scenario, preset, r.stderr)
            fingerprints.append(report_fingerprint(json.loads(out.read_text())))
        assert len(set(fingerprints)) == 1, scenario


def test_suites_load_no_numpy_random(tmp_path):
    # no certificate samples, so a suite process never imports numpy.random:
    # free_pair, and a generated tensor scenario of two 2x2 factors
    rng = np.random.default_rng(3)
    tensor = tmp_path / "tensor.json"
    emit(Scenario(mode="tensor", factors=[(random_contraction(rng, 2), random_state(rng, 2)) for _ in range(2)]), tensor)
    for path in (SCENARIOS / "free_pair.json", tensor):
        argv = ["suite", "--input", str(path), "--output", str(tmp_path / "report.json")]
        got = _python(
            "import json, sys\n"
            "from freedilation import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('numpy.random'))]))"
        )
        assert got == [0, []], path
