"""Measurements that run inside a fresh interpreter, one JSON object on stdout.

    python3 perfbench/probe.py import
        seconds to import ``freedilation.cli``, taken first thing in the process
    python3 perfbench/probe.py setup --seed N FILE...
        seconds of ``ingest`` + ``build_model`` summed over the files, per
        repeat: at least 5 repeats and 1 s, after an untimed warm-up

Both also print the machine description: cores, CPU model, Python, numpy,
OpenBLAS version and BLAS thread count.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import sys  # noqa: E402

if __name__ == "__main__" and sys.argv[1:2] == ["import"]:
    import freedilation.cli  # noqa: F401

    _IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402

SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> tuple[str, int | None]:
    """Configuration string and thread count of the OpenBLAS numpy loaded."""
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return get_config().decode(), int(get_threads())
    return "unknown", None


def machine() -> dict:
    import numpy as np

    config, threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "blas_threads": threads,
    }


def setup_times(paths: list[str], seed: int) -> list[float]:
    """Seconds of ``ingest`` + ``build_model`` over all files, once per repeat,
    after one untimed warm-up repeat."""
    from freedilation import build_model, ingest

    def once() -> float:
        total = 0.0
        for path in paths:
            t0 = time.perf_counter()
            build_model(ingest(path, {"seed": seed}))
            total += time.perf_counter() - t0
        return total

    once()
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        times.append(once())
    return times


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="what", required=True)
    sub.add_parser("import")
    s = sub.add_parser("setup")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("paths", nargs="+")
    args = p.parse_args(argv)
    if args.what == "import":
        out = {"import_s": _IMPORT_S}
    else:
        out = {"setup_s": setup_times(args.paths, args.seed)}
    out["machine"] = machine()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
