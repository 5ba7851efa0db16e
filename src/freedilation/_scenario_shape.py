"""A scenario file's mode and dilated dimension, read without numpy.

The scenario format's defaults live here, for ``harness``, which validates
and builds a scenario, and for the command line, which reads its shape
before numpy loads to pick OpenBLAS's thread count.
"""

from __future__ import annotations

import json
from pathlib import Path

MODES = ("single", "doubly", "tensor", "free")
# The dilation degree N where a scenario gives none.
DEFAULT_DEGREE = 3


def default_mode(n_factors: int) -> str:
    """The mode of a scenario that names none."""
    return "single" if n_factors == 1 else "free"


def scenario_shape(
    path: str | Path,
    force_mode: str | None = None,
    degree: int | None = None,
    parsed: dict[Path, object] | None = None,
) -> tuple[str, int, list[int]] | None:
    """A scenario file's mode, dilation degree N and factor dimensions.

    Only ``mode``, ``degree`` and each factor's ``rows`` are read, following
    a matrix part given as a path as ``harness.ingest`` does; in free mode no
    factor is read, and the list of dimensions is empty.  Each file parsed
    goes into ``parsed`` under its resolved path, for ``ingest`` to take
    instead of parsing it again.  ``None`` where the file is not as
    expected; this never raises, and ``ingest`` stays the one validator.
    """
    parsed = {} if parsed is None else parsed

    def load(p: Path) -> object:
        key = p.resolve()
        if key not in parsed:
            parsed[key] = json.loads(p.read_text())
        return parsed[key]

    path = Path(path)
    try:
        obj = load(path)
        factors = obj.get("factors") if isinstance(obj, dict) else None
        if not isinstance(factors, list) or not factors:
            return None
        mode = force_mode or obj.get("mode", default_mode(len(factors)))
        rows = []
        for entry in factors if mode != "free" else ():
            mat = entry.get("matrix") if isinstance(entry, dict) else None
            if isinstance(mat, str):
                mat = load(path.parent / mat)
            rows.append(mat.get("rows") if isinstance(mat, dict) else None)
    except (OSError, ValueError, RuntimeError):  # RuntimeError: a symlink loop, deep nesting
        return None
    n = obj.get("degree", DEFAULT_DEGREE) if degree is None else degree
    if mode not in MODES or not all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in (n, *rows)
    ):
        return None
    return mode, n, rows
