import json

import numpy as np
import pytest

from freedilation.operator_core import State
from freedilation.serialization import (
    matrix_from_obj,
    matrix_to_obj,
    state_from_obj,
    state_to_obj,
)


def dump_matrix(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_obj(m), fh, allow_nan=False)


def load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return matrix_from_obj(json.load(fh))


def dump_state(s, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_obj(s), fh, allow_nan=False)


def load_state(path):
    with open(path, encoding="utf-8") as fh:
        return state_from_obj(json.load(fh))


def test_matrix_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    obj = matrix_to_obj(m)
    back = matrix_from_obj(json.loads(json.dumps(obj)))
    assert np.array_equal(back, m)


def test_matrix_obj_shape():
    obj = matrix_to_obj(np.array([[1.0 + 2.0j]]))
    assert obj == {"rows": 1, "cols": 1, "data": [[[1.0, 2.0]]]}


def test_matrix_from_obj_validates():
    with pytest.raises(ValueError):
        matrix_from_obj({"rows": 2, "cols": 1, "data": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[[1.0]]]})
    with pytest.raises(ValueError):
        matrix_from_obj({"rows": 1, "cols": 1})
    # sizes are JSON integers and entries JSON numbers: nothing is truncated
    # (``int(1.9)``) or converted (``complex(0.5, True)``)
    for rows, cols, entry, match in [
        (1.9, 1, [0.5, 0.0], "'rows' must be an integer, got 1.9"),
        (1, "1", [0.5, 0.0], "'cols' must be an integer, got '1'"),
        (True, 1, [0.5, 0.0], "'rows' must be an integer, got True"),
        (1, 1, [0.5, True], r"entry \[0.5, True\] must be two numbers"),
        (1, 1, ["0.5", 0.0], "entry .* must be two numbers"),
    ]:
        with pytest.raises(ValueError, match=match):
            matrix_from_obj({"rows": rows, "cols": cols, "data": [[entry]]})
    assert np.array_equal(matrix_from_obj({"rows": 1, "cols": 1, "data": [[[1, 0]]]}), [[1.0]])  # int parts are numbers


def test_state_round_trips():
    v = State.from_vector(np.array([0.6, 0.8j]))
    obj = state_to_obj(v)
    assert obj["kind"] == "vector" and obj["dim"] == 2
    back = state_from_obj(json.loads(json.dumps(obj)))
    assert np.array_equal(back.vector, v.vector)

    rho = State.from_density(np.array([[0.75, 0.1], [0.1, 0.25]]))
    back2 = state_from_obj(state_to_obj(rho))
    assert np.array_equal(back2.density, rho.density)

    # a state given by its columns is written as its density
    cols = State.from_columns(np.array([[0.0, 1.0], [1.0j, 0.0]]), [0.25, 0.75])
    obj = state_to_obj(cols)
    assert obj["kind"] == "density" and obj["dim"] == 2
    assert np.array_equal(state_from_obj(obj).density, np.diag([0.75, 0.25]).astype(complex))


def test_state_from_obj_validates():
    with pytest.raises(ValueError):
        state_from_obj({"kind": "vector", "dim": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        state_from_obj({"kind": "spin", "dim": 1, "data": [[1.0, 0.0]]})
    for obj, match in [
        ({"kind": "vector", "dim": 1.2, "data": [[1.0, 0.0]]}, "'dim' must be an integer, got 1.2"),
        ({"kind": "density", "dim": False, "data": [[[1.0, 0.0]]]}, "'dim' must be an integer, got False"),
        ({"kind": "vector", "dim": 1, "data": [[1.0, False]]}, "must be two numbers"),
        ({"kind": "density", "dim": 1, "data": [[[True, 0.0]]]}, "must be two numbers"),
    ]:
        with pytest.raises(ValueError, match=match):
            state_from_obj(obj)


def test_file_round_trip(tmp_path):
    m = np.array([[0.5 + 0.25j, -1.0], [0.0, 2.0]])
    path = tmp_path / "m.json"
    dump_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)

    s = State.from_vector(np.array([1.0, 0.0]))
    spath = tmp_path / "s.json"
    dump_state(s, spath)
    assert np.array_equal(load_state(spath).vector, s.vector)


def test_nan_rejected_on_emit():
    with pytest.raises(ValueError):
        matrix_to_obj(np.array([[np.inf]]))
