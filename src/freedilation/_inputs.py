"""The command line's input files, read without numpy or hashlib.

Every JSON file the program takes, a scenario, a factor part given as a
path, or a cumulants moment list, is read here, once, by :func:`read_json`,
and every way such a file fails to load is an :class:`IngestError`.  The
refusal types, the scenario format's defaults and :func:`scenario_shape`,
which the command line reads to pick OpenBLAS's thread count before numpy
loads, live here too; ``harness`` validates and builds what is read.
"""

from __future__ import annotations

import json
from pathlib import Path

# CPython's builtin SHA-256: importing hashlib maps OpenSSL's libcrypto, about
# 3.4 MB of a process's resident memory, to hash a few KB of input
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:  # a build without the builtin hashes, as some FIPS builds are
        from hashlib import sha256

MODES = ("single", "doubly", "tensor", "free")
# The dilation degree N where a scenario gives none.
DEFAULT_DEGREE = 3


class IngestError(Exception):
    """A scenario or data file failed to load or validate."""


class BudgetError(ValueError):
    """A request lies outside a stated budget: a word beyond a construction's
    exactness budget, or a word span over a check's cap."""


def default_mode(n_factors: int) -> str:
    """The mode of a scenario that names none."""
    return "single" if n_factors == 1 else "free"


def read_json(path: str | Path, sources: list[tuple[str, str]]) -> object:
    """A JSON file's content, from its bytes read once, decoded as UTF-8.

    ``(resolved path, sha256 of the bytes)`` goes onto ``sources``.  A file
    that cannot be read, decoded or parsed, nested too deep included, is an
    :class:`IngestError` naming ``path``.
    """
    try:
        data = Path(path).read_bytes()
        obj = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, an int over the digit limit, deep nesting
        raise IngestError(f"{path}: {exc}") from None
    sources.append((str(Path(path).resolve()), sha256(data).hexdigest()))
    return obj


def read_scenario(path: str | Path) -> tuple[object, list[tuple[str, str]]]:
    """A scenario file's JSON, each factor part given as a path (relative to
    the file) read and put in its place, and the sources: the scenario's,
    then each factor's matrix and state part's, once per use.  A part file
    named twice is read once."""
    path, sources, parts = Path(path), [], {}
    obj = read_json(path, sources)
    factors = obj.get("factors") if isinstance(obj, dict) else None
    for entry in factors if isinstance(factors, list) else ():
        for part in ("matrix", "state"):
            name = entry.get(part) if isinstance(entry, dict) else None
            if not isinstance(name, str):
                continue
            if name in parts:
                sources.append(parts[name][1])
            else:
                parts[name] = read_json(path.parent / name, sources), sources[-1]
            entry[part] = parts[name][0]
    return obj, sources


def scenario_shape(
    obj: object, force_mode: str | None = None, degree: int | None = None
) -> tuple[str, int, list[int]] | None:
    """A read scenario's mode, dilation degree N and factor dimensions.

    Only ``mode``, ``degree`` and each factor's ``rows`` are read; in free
    mode no factor is, and the list of dimensions is empty.  ``None`` where
    the object is not as expected: this never raises, and ``harness`` stays
    the one validator.
    """
    factors = obj.get("factors") if isinstance(obj, dict) else None
    if not isinstance(factors, list) or not factors:
        return None
    mode = force_mode or obj.get("mode", default_mode(len(factors)))
    rows = [
        entry["matrix"].get("rows") if isinstance(entry, dict) and isinstance(entry.get("matrix"), dict) else None
        for entry in (factors if mode != "free" else ())
    ]
    n = obj.get("degree", DEFAULT_DEGREE) if degree is None else degree
    if mode not in MODES or not all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in (n, *rows)
    ):
        return None
    return mode, n, rows
