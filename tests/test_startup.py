"""Start-up contract: what importing the package and the command line loads
and sets, each checked in a fresh interpreter."""

import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freedilation._inputs import read_json, read_scenario, scenario_shape
from freedilation.cli import (
    BLAS_SPIN_EXPONENT,
    BLAS_THREAD_VARIABLES,
    ONE_THREAD_BELOW,
    _blas_dim,
    _load_scenario,
    build_parser,
    main,
)
from freedilation.harness import Scenario, build_model, emit, ingest, report_fingerprint, run_theorem_suite
from freedilation.operator_core import random_contraction, random_state
from freedilation.serialization import matrix_to_obj

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ["dilation", "free_product", "harness", "ncprob", "operator_core", "serialization"]
API = [
    "BudgetError", "CheckReport", "ContractionError", "DilationResult",
    "FockBasis", "FockDimensionError", "FreeDilationScenario", "GenSet", "IngestError",
    "Model", "NotDoublyCommutingError", "Scenario",
    "ShapeMismatchError", "State", "StateError", "Word", "adjoint",
    "build_fock", "build_model", "center",
    "defect_pair", "doubly_commuting_dilation", "emit",
    "evaluate_product", "evaluate_word", "faithfulness_check", "finite_unitary_dilation",
    "free_cumulants", "free_independence_check", "free_mixed_moment_oracle",
    "free_mixed_moments", "free_unitary_dilation", "haar_unitary_marginal", "ingest",
    "left_representation", "make_tensor_independent", "matrix_from_obj",
    "matrix_marginal", "matrix_to_obj", "moment_budget_check", "moments_from_cumulants",
    "noncrossing_partitions", "operator_norm", "parse_product",
    "parse_word", "purify", "random_contraction", "random_state", "random_unitary",
    "render_text", "report_fingerprint", "restricted_unitarity_residual",
    "run_theorem_suite", "scenario_from_obj",
    "state_from_obj", "state_to_obj", "tensor_independence_check", "trace_check",
    "unitarity_residual", "verify_power_dilation",
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
    assert len(API) == 60
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


def test_every_public_name_has_a_caller():
    # the public surface is what the system calls: each exported name is
    # used by the package, a demo or the benchmark outside its own
    # definition, so a name that only tests or the README use fails here
    import freedilation

    paths = [
        *(p for p in (ROOT / "src" / "freedilation").glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
    ]
    sources = []  # each file's lines, and the line span of each top-level definition
    for path in paths:
        text = path.read_text(encoding="utf-8")
        defs = ast.parse(text).body
        spans = {d.name: (d.lineno, d.end_lineno) for d in defs if isinstance(d, (ast.FunctionDef, ast.ClassDef))}
        sources.append((text.splitlines(), spans))

    def called(name):
        word = re.compile(rf"\b{name}\b")
        for lines, spans in sources:
            lo, hi = spans.get(name, (0, -1))
            if any(word.search(line) for k, line in enumerate(lines, 1) if not lo <= k <= hi):
                return True
        return False

    assert [name for name in freedilation.__all__ if not called(name)] == []


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


def _perfbench(name):
    """A benchmark module (the scenario generators, the gate), loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload", ["free_pair", "free_wide", "dense_modes"])
def test_benchmark_workloads_meet_the_gate(tmp_path, workload):
    # the benchmark's gate on each of its scenarios at seeds 1 and 2, run in
    # this process: every check passes, and a repeat has the same fingerprint
    workloads, gate = _perfbench("workloads"), _perfbench("gate")
    for seed in (1, 2):
        for path in workloads.generate(workload, seed, tmp_path / str(seed), root=ROOT):
            sc = ingest(path, {"seed": seed})
            report = run_theorem_suite(sc)
            assert gate.problems(report, 0, sc.mode) == [], path.name
            assert report_fingerprint(run_theorem_suite(sc)) == report_fingerprint(report), path.name


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
    workloads = _perfbench("workloads")
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


FREE_MODULES = ["freedilation._freeprob", "freedilation.free_product"]
GRAM, GRAMMAR = "freedilation._gram", "freedilation._moments"
MODE_MODULES = [*FREE_MODULES, GRAM, GRAMMAR]


def _random_tensor_scenario(tmp_path):
    """A tensor scenario of two random 2x2 factors, which passes its suite."""
    rng = np.random.default_rng(3)
    path = tmp_path / "tensor.json"
    emit(Scenario(mode="tensor", factors=[(random_contraction(rng, 2), random_state(rng, 2)) for _ in range(2)]), path)
    return path


def test_imports_follow_the_mode(tmp_path):
    # a single or doubly suite compiles neither the free product model, the
    # free-probability module, the Gram certificates nor the moments
    # grammar; a tensor suite loads the Gram certificates, a free suite of
    # two or more factors those and the free modules; the cumulants and
    # ncpartitions commands load the free module alone, and only moments
    # and oracle the grammar
    tensor = _random_tensor_scenario(tmp_path)
    free_pair = str(SCENARIOS / "free_pair.json")
    runs = [
        (["suite", "--input", SINGLE], []),
        (["suite", "--input", DOUBLY], []),
        (["dilate", "--input", SINGLE], []),
        (["dilate-doubly", "--input", DOUBLY], []),
        (["suite", "--input", str(tensor)], [GRAM]),
        (["check", "--input", DOUBLY, "--property", "tensor"], [GRAM]),
        (["suite", "--input", free_pair], [*FREE_MODULES, GRAM]),
        (["dilate-free", "--input", free_pair], [*FREE_MODULES, GRAM]),
        (["dilate-free", "--input", SINGLE], FREE_MODULES[1:]),  # one factor: no free check runs
        (["check", "--input", free_pair, "--property", "faithful"], FREE_MODULES[1:]),
        (["moments", "--input", SINGLE, "--word", "c(1^1) 1^-1"], [GRAMMAR]),
        (["moments", "--input", free_pair, "--word", "1^1 2^-1"], [FREE_MODULES[1], GRAMMAR]),
        (["oracle", "--input", free_pair, "--word", "1^1 2^-1"], [*FREE_MODULES, GRAMMAR]),
        (["cumulants", "--input", str(SCENARIOS / "semicircle_moments.json")], FREE_MODULES[:1]),
        (["ncpartitions", "--size", "4"], FREE_MODULES[:1]),
    ]
    for argv, want in runs:
        argv = [*argv, "--output", str(tmp_path / "out.json")]
        got = _python(
            "import json, sys\n"
            "from freedilation import cli\n"
            f"code = cli.main({argv!r})\n"
            f"print(json.dumps([code, [m for m in {MODE_MODULES!r} if m in sys.modules]]))"
        )
        assert got == [0, want], argv


def test_suites_load_no_numpy_random(tmp_path):
    # no certificate samples, so a suite process never imports numpy.random:
    # free_pair, and a generated tensor scenario of two 2x2 factors
    tensor = _random_tensor_scenario(tmp_path)
    for path in (SCENARIOS / "free_pair.json", tensor):
        argv = ["suite", "--input", str(path), "--output", str(tmp_path / "report.json")]
        got = _python(
            "import json, sys\n"
            "from freedilation import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('numpy.random'))]))"
        )
        assert got == [0, []], path


HASH_MODULES = ["_hashlib", "hashlib"]
FREE_PAIR = str(SCENARIOS / "free_pair.json")


def test_no_command_imports_hashlib(tmp_path):
    # input digests come from CPython's builtin SHA-256, so no process maps
    # OpenSSL: a suite in each mode, every other command, and library ingest
    tensor = _random_tensor_scenario(tmp_path)
    runs = [
        ["suite", "--input", SINGLE],
        ["suite", "--input", DOUBLY],
        ["suite", "--input", str(tensor)],
        ["suite", "--input", FREE_PAIR],
        ["check", "--input", DOUBLY, "--property", "tensor"],
        ["dilate", "--input", SINGLE],
        ["dilate-doubly", "--input", DOUBLY],
        ["dilate-free", "--input", FREE_PAIR],
        ["moments", "--input", FREE_PAIR, "--word", "1^1 2^-1"],
        ["oracle", "--input", FREE_PAIR, "--word", "1^1 2^-1"],
        ["cumulants", "--input", str(SCENARIOS / "semicircle_moments.json")],
        ["ncpartitions", "--size", "4"],
    ]
    for argv in runs:
        argv = [*argv, "--output", str(tmp_path / "out.json")]
        got = _python(
            "import json, sys\n"
            "from freedilation import cli\n"
            f"code = cli.main({argv!r})\n"
            f"print(json.dumps([code, [m for m in {HASH_MODULES!r} if m in sys.modules]]))"
        )
        assert got == [0, []], argv
    got = _python(
        "import json, sys, freedilation\n"
        f"sc = freedilation.ingest({FREE_PAIR!r})\n"
        f"print(json.dumps([sc.sources, [m for m in {HASH_MODULES!r} if m in sys.modules]]))"
    )
    digest = hashlib.sha256(Path(FREE_PAIR).read_bytes()).hexdigest()
    assert got == [[[str(Path(FREE_PAIR).resolve()), digest]], []]


def test_input_digests_are_sha256_of_the_bytes(tmp_path):
    # the builtin hash against hashlib's, on a scenario padded past 1 MiB
    # and on a UTF-8 file with non-ASCII bytes
    padded = tmp_path / "padded.json"
    padded.write_bytes((SCENARIOS / "single_half.json").read_bytes() + b" \n\t" * 400_000)
    accents = tmp_path / "accents.json"
    accents.write_text(json.dumps({"mode": "déjà vu", "note": "Ω ≤ ∞ 💡"}, ensure_ascii=False), encoding="utf-8")
    for path in (padded, accents):
        data = path.read_bytes()
        sources = []
        read_json(path, sources)
        assert sources == [(str(path.resolve()), hashlib.sha256(data).hexdigest())]
    assert padded.stat().st_size > 2**20 and not accents.read_bytes().isascii()
