"""JSON wire formats for matrices and states.

Matrix: ``{"rows": r, "cols": c, "data": [[[re, im], ...], ...]}`` with
``data[i][j]`` the ``(i, j)`` entry.  State: ``{"kind": "vector"|"density",
"dim": d, "data": ...}`` where a vector's data is a list of ``[re, im]`` pairs
and a density's data is matrix-style.  Round trips are bit-exact: Python's
float repr is shortest-round-trip, so ``parse(emit(x))`` reproduces every
scalar.
"""

from __future__ import annotations

import numpy as np

from .operator_core import State, adjoint, as_matrix


def matrix_to_obj(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }


def _size(obj: dict, key: str) -> int:
    """A declared size: a JSON integer, never a bool, float or string truncated to one."""
    if type(obj[key]) is not int:
        raise ValueError(f"{key!r} must be an integer, got {obj[key]!r}")
    return obj[key]


def _entry(pair) -> complex:
    """An ``[re, im]`` pair of JSON numbers, each an int or a float, never a bool or a string."""
    re, im = pair
    if type(re) not in (int, float) or type(im) not in (int, float):
        raise ValueError(f"entry {[re, im]!r} must be two numbers")
    return complex(re, im)


def matrix_from_obj(obj: dict) -> np.ndarray:
    try:
        rows, cols, data = _size(obj, "rows"), _size(obj, "cols"), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:  # a factor or density on no space
        raise ValueError(f"matrix shape {rows}x{cols} has no entries")
    if len(data) != rows or any(len(row) != cols for row in data):
        raise ValueError(f"matrix data does not match declared shape {rows}x{cols}")
    return as_matrix(np.array([[_entry(pair) for pair in row] for row in data], dtype=complex))


def state_to_obj(s: State) -> dict:
    """A given vector or density as given; a state of kind ``"columns"`` as
    the density ``sum_k w_k v_k v_k*``."""
    if s.kind == "vector":
        return {"kind": "vector", "dim": s.dim, "data": [[float(z.real), float(z.imag)] for z in s.vector]}
    rho = s.density if s.kind == "density" else (s.columns * s.weights) @ adjoint(s.columns)
    return {"kind": "density", "dim": s.dim, "data": matrix_to_obj(rho)["data"]}


def state_from_obj(obj: dict) -> State:
    try:
        kind, dim, data = obj["kind"], _size(obj, "dim"), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    if kind == "vector":
        if len(data) != dim:
            raise ValueError(f"state vector has {len(data)} entries, declared dim {dim}")
        return State.from_vector(np.array([_entry(pair) for pair in data]))
    if kind == "density":
        rho = matrix_from_obj({"rows": dim, "cols": dim, "data": data})
        return State.from_density(rho)
    raise ValueError(f"unknown state kind {kind!r}")
