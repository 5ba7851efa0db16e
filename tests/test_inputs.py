"""Input files: every way a file the command line takes can fail is a
refusal, exit 2 with one ``error:`` line, and never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedilation.cli import main
from freedilation.harness import IngestError, ingest
from freedilation.serialization import matrix_to_obj

SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
MATRIX = matrix_to_obj([[0.5]])
NOT_UTF8 = b'{"factors": "\xff"}'


def _run(argv):
    """``main``'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_refused(argv, match):
    code, err = _run(argv)
    assert code == 2, err
    assert err.startswith("error:") and err.count("\n") == 1 and match in err, err


def _write(folder, name, content):
    path = Path(folder) / name
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    return str(path)


@pytest.mark.parametrize(
    "files, command, match",
    [
        ({"sc.json": {"factors": [{"matrix": "t.json"}]}, "t.json": NOT_UTF8}, ["suite"], "t.json"),
        (
            {"sc.json": {"factors": [{"matrix": MATRIX, "state": "s.json"}]}, "s.json": NOT_UTF8},
            ["check", "--property", "trace"],
            "s.json",
        ),
        ({"sc.json": NOT_UTF8}, ["cumulants"], "can't decode byte 0xff"),
        ({"sc.json": b"[" * 200_000 + b"]" * 200_000}, ["cumulants"], "maximum recursion depth"),
        ({"sc.json": b"[" + b"9" * 5000 + b"]"}, ["cumulants"], "Exceeds the limit"),
        (
            {"sc.json": {"factors": [{"matrix": {"rows": 1e400, "cols": 1, "data": []}}]}},
            ["suite"],
            "factors[0].matrix: malformed matrix object",
        ),
        (
            {"sc.json": {"factors": [{"matrix": {**MATRIX, "cols": 1e400}}]}},
            ["dilate"],
            "factors[0].matrix: malformed matrix object",
        ),
        (
            {"sc.json": {"factors": [{"matrix": MATRIX, "state": {"kind": "vector", "dim": 1e400, "data": []}}]}},
            ["suite"],
            "factors[0].state: malformed state object",
        ),
        (
            {"sc.json": {"factors": [{"matrix": {"rows": 1.9, "cols": "1", "data": [[[0.5, True]]]}}]}},
            ["dilate"],
            "factors[0].matrix: malformed matrix object: 'rows' must be an integer, got 1.9",
        ),
        (
            {"sc.json": {"factors": [{"matrix": MATRIX, "state": {"kind": "vector", "dim": 1, "data": [[1, True]]}}]}},
            ["dilate"],
            "factors[0].state: entry [1, True] must be two numbers",
        ),
        (
            {"sc.json": {"factors": [{"matrix": {"rows": 1, "cols": 1, "data": [[[10**400, 0]]]}}]}},
            ["suite"],
            "factors[0].matrix: entry has an integer part past the float range",
        ),
        (
            {"sc.json": {"factors": [{"matrix": {"rows": 0, "cols": 0, "data": []}}]}},
            ["suite"],
            "factors[0].matrix: matrix shape 0x0 has no entries",
        ),
        (
            {"sc.json": {"factors": [{"matrix": MATRIX}], "tol": 10**400}},
            ["oracle", "--word", "1^1"],
            "tol must be a positive finite number, got inf",
        ),
        ({"sc.json": {"moments": [1e400]}}, ["cumulants"], "moments[0]: expected a finite number, got inf"),
        ({"sc.json": {"moments": [0, [1, float("nan")]]}}, ["cumulants"], "moments[1]: expected a finite"),
        ({"sc.json": {"moments": [10**400]}}, ["cumulants"], "moments[0]: expected a finite"),
        ({"sc.json": {"moments": [1e300] * 4}}, ["cumulants"], "cumulants or round trip overflow a float"),
    ],
    ids=[
        "not-utf8-matrix-part", "not-utf8-state-part", "not-utf8-cumulants", "deep-cumulants", "long-integer",
        "rows-1e400", "cols-1e400", "dim-1e400", "rows-float", "entry-bool", "entry-past-float", "no-rows", "tol-past-float",
        "moment-1e400", "moment-nan", "moment-past-float", "moments-overflow",
    ],
)
def test_file_refusals(tmp_path, files, command, match):
    paths = {name: _write(tmp_path, name, content) for name, content in files.items()}
    _assert_refused([*command, "--input", paths["sc.json"]], match)


@pytest.mark.parametrize("command", ["suite", "cumulants", "ncpartitions"])
def test_output_naming_a_directory_is_refused(tmp_path, command):
    source = "semicircle_moments.json" if command == "cumulants" else "single_half.json"
    where = ["--size", "3"] if command == "ncpartitions" else ["--input", str(SCENARIOS / source)]
    _assert_refused([command, *where, "--output", str(tmp_path)], "Is a directory")
    _assert_refused([command, *where, "--output", str(tmp_path / "no" / "r.json")], "No such file")


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "--input", str(SCENARIOS / "free_pair.json")],
        ["check", "--property", "tensor", "--input", str(SCENARIOS / "doubly_diag.json")],
    ],
    ids=["suite", "check-tensor"],
)
def test_negative_seed_is_refused(argv):
    _assert_refused([*argv, "--seed", "-1"], "seed must be >= 0, got -1")


def test_negative_seed_in_the_file_is_refused(tmp_path):
    path = _write(tmp_path, "sc.json", {"factors": [{"matrix": MATRIX}], "seed": -3})
    with pytest.raises(IngestError, match="seed must be >= 0, got -3"):
        ingest(path)


# the refusal contract over arbitrary input: JSON values keyed by the file
# format's field names or by any text, and raw bytes
_KEYS = st.sampled_from(
    ["factors", "matrix", "state", "rows", "cols", "data", "kind", "dim", "mode", "moments", "degree", "seed"]
) | st.text(max_size=3)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["vector", "density", "single", "doubly", "tensor", "free", "t.json"])
)
_JSON = st.recursive(
    _SCALARS, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=3), max_leaves=10
)
# where a value goes: the files it makes, and the command that reads them
_PLACES = {
    "scenario": (lambda v: {"sc.json": v}, ["suite"]),
    "factor": (lambda v: {"sc.json": {"factors": [v]}}, ["dilate"]),
    "matrix-part": (lambda v: {"sc.json": {"factors": [{"matrix": "t.json"}]}, "t.json": v}, ["suite"]),
    "state-part": (
        lambda v: {"sc.json": {"mode": "tensor", "factors": [{"matrix": MATRIX, "state": "t.json"}]}, "t.json": v},
        ["check", "--property", "tensor"],
    ),
    "cumulants": (lambda v: {"sc.json": v}, ["cumulants"]),
}


def _check_contract(place, value):
    files, command = _PLACES[place]
    with tempfile.TemporaryDirectory() as folder:
        paths = {name: _write(folder, name, content) for name, content in files(value).items()}
        code, err = _run([*command, "--input", paths["sc.json"]])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("place", list(_PLACES))
@settings(max_examples=40, deadline=None)
@given(value=_JSON)
def test_any_json_is_answered_with_an_exit_code(place, value):
    _check_contract(place, value)


@pytest.mark.parametrize("place", ["scenario", "matrix-part", "cumulants"])
@settings(max_examples=30, deadline=None)
@given(value=st.binary(max_size=24) | st.just(NOT_UTF8))
def test_any_bytes_are_answered_with_an_exit_code(place, value):
    _check_contract(place, value)
