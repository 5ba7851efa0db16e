"""Command-line harness.

Subcommands build dilations from scenario files, run certificates, and
evaluate moments, cumulants, partitions, and the free moment oracle.  Exit
codes: 0 all checks pass, 1 a check failed, 2 the input could not be loaded
or lies outside a stated budget.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

# numpy's OpenBLAS busy-waits its worker threads for 2**28 cycles (about
# 0.1 s) after loading and after every threaded call, which was a third of
# the CPU time of a short suite process (dense_modes benchmark, 2 vCPUs:
# 1.30 s -> 0.86 s at 2**20, same wall time).  Only the idle spin gets
# shorter: the thread count stays, and a 40x40 contraction at N=20 (dim 840)
# runs as fast as at 2**28, where 2**4 cost it 13%.  OpenBLAS reads the
# variable once, as numpy loads, so the command line sets it here, before
# the package imports numpy; a value the user set wins.
BLAS_SPIN_EXPONENT = "20"
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", BLAS_SPIN_EXPONENT)

# The thread count is set the same way, but per scenario, so this module
# imports the numpy side (``harness``, ``ncprob``) only inside the commands,
# after ``_choose_blas_threads``.  Small products gain nothing from a second
# thread, and on a 2-vCPU box a threaded OpenBLAS call of that size can wait
# for a 4-ms scheduler tick: the dense_modes benchmark scenarios took
# 1.03-1.10 s at two threads and 0.66-0.75 s at one in such a window.  What
# grows with a scenario is the whole space in single and tensor mode, but in
# doubly mode one factor's (N+1)d-square dilation, the core that every
# generator applies to two tensor legs.  In 5 alternating runs a shape
# (BENCH_18.json), one thread won or tied on single spaces of 128-224 and
# lost from 256 on, tied on tensor spaces of 144-256 and lost from 320 on,
# and in doubly mode won at core 16 (dim 4,096), tied at cores 32-128 and
# lost from 192 on; doubly keeps its threads from the tie at 128.  Free
# mode's letters are matrix-free Fock actions: one thread won on free_pair
# at L = 6 (Fock dim 2,185) and held on the free benchmark workloads.
ONE_THREAD_BELOW = {"single": 256, "tensor": 256, "doubly": 128}
# What OpenBLAS reads for its thread count; a value the user set wins.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

from ._inputs import BudgetError, IngestError, read_json, read_scenario, scenario_shape  # noqa: E402
from ._version import __version__  # noqa: E402

if TYPE_CHECKING:
    from .harness import Scenario

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

CHECK_PROPERTIES = {
    "tensor": "tensor_independence",
    "free": "free_independence",
    "trace": "traciality",
    "faithful": "faithfulness",
}


def _add_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="scenario or data file (JSON)")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--tol", type=float, default=None, help="pass/fail tolerance override")


def _add_common(p: argparse.ArgumentParser) -> None:
    """The options of a command that reads a scenario."""
    _add_io(p)
    p.add_argument("--degree", type=int, default=None, help="dilation degree N override")
    p.add_argument("--trunc-len", type=int, default=None, help="free product truncation length L override")
    p.add_argument("--max-alt", type=int, default=None, help="max alternation length for word sweeps")
    p.add_argument("--samples", type=int, default=None, help="accepted and recorded; no check samples")
    p.add_argument("--seed", type=int, default=None, help="accepted and recorded; no check draws")


def _overrides(args: argparse.Namespace) -> dict:
    return {
        "tol": args.tol,
        "degree": args.degree,
        "trunc": args.trunc_len,
        "max_alt": args.max_alt,
        "samples": args.samples,
        "seed": args.seed,
    }


def _write(args: argparse.Namespace, obj: dict) -> None:
    if args.format == "text":
        from .harness import render_text

        text = render_text(obj)
    else:
        text = json.dumps(obj, indent=2, sort_keys=True)
    if not args.output:
        print(text)
        return
    try:
        Path(args.output).write_text(text + "\n")
    except OSError as exc:  # a missing folder, a directory, no permission
        raise IngestError(str(exc)) from None


def _answer(args: argparse.Namespace, obj: dict, passed: bool = True) -> int:
    """Write a command's answer with the version; its exit code says whether it passed."""
    _write(args, {**obj, "version": __version__})
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def _blas_dim(mode: str, degree: int, rows: list[int]) -> int:
    """The size ``ONE_THREAD_BELOW`` bounds: the dimension of the space in
    single and tensor mode, of one factor's dilation in doubly mode."""
    if mode == "doubly":
        return (degree + 1) * rows[0]
    return math.prod((degree + 1) * d for d in rows)


def _choose_blas_threads(shape: tuple[str, int, list[int]] | None) -> None:
    """One OpenBLAS thread for a free scenario and for a dense one below
    ``ONE_THREAD_BELOW``; nothing once numpy is loaded (its thread count is
    fixed by then) or where the user set a thread count."""
    if "numpy" in sys.modules or any(v in os.environ for v in BLAS_THREAD_VARIABLES):
        return
    if shape is not None and (shape[0] == "free" or _blas_dim(*shape) < ONE_THREAD_BELOW[shape[0]]):
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _load_scenario(args: argparse.Namespace, force_mode: str | None = None) -> Scenario:
    read = read_scenario(args.input)
    _choose_blas_threads(scenario_shape(read[0], force_mode, args.degree))
    from .harness import ingest

    sc = ingest(args.input, _overrides(args), read)
    return sc if force_mode is None else replace(sc, mode=force_mode)


def _run_suite(args: argparse.Namespace, force_mode: str | None = None, subset=None) -> int:
    sc = _load_scenario(args, force_mode)
    from .harness import run_theorem_suite

    report = run_theorem_suite(sc, subset=subset)
    return _answer(args, report, report["overall_pass"])


def _build_or_refuse(sc: Scenario):
    """Direct commands treat construction failure as bad input, not a report."""
    from .harness import build_model

    try:
        return build_model(sc)
    except (ValueError, KeyError) as exc:
        raise IngestError(f"scenario construction failed: {exc}") from None


def _cmd_check(args) -> int:
    force = args.property if args.property in ("tensor", "free") else None
    sc = _load_scenario(args, force_mode=force)
    from .harness import CHECKS

    if args.check_degree is not None:
        sc = replace(sc, check_degree=args.check_degree)
    if args.property == "free" and len(sc.factors) < 2:
        raise IngestError(f"property free needs at least two factors, got {len(sc.factors)}")
    model = _build_or_refuse(sc)
    rep = CHECKS[CHECK_PROPERTIES[args.property]](sc, model)
    obj = {
        "property": args.property,
        "budgets": {
            "degree": sc.degree,
            "trunc": sc.trunc,
            "check_degree": sc.check_degree,
            "max_alt": sc.max_alt,
        },
        "max_residual": rep.residual,
        "worst_witness": rep.witness,
        "pass": rep.passed,
        "details": rep.details,
    }
    return _answer(args, obj, rep.passed)


def _parse_or_refuse(parse, text: str):
    """A malformed ``--word`` is refused input, not a failed check."""
    try:
        return parse(text)
    except ValueError as exc:
        raise IngestError(f"--word {text!r}: {exc}") from None


def _cmd_moments(args) -> int:
    sc = _load_scenario(args)
    from ._moments import evaluate_product, moment_budget_check, parse_product
    from .ncprob import Word

    model = _build_or_refuse(sc)
    results = []
    for text in args.word:
        parts = _parse_or_refuse(parse_product, text)
        concatenated = sum((w.letters for _, w in parts), ())
        moment_budget_check(sc, Word(concatenated))
        value = evaluate_product(text, model)
        results.append({"word": text, "moment": [value.real, value.imag]})
    obj = {
        "property": "moments",
        "budgets": {"degree": sc.degree, "trunc": sc.trunc},
        "mode": sc.mode,
        "results": results,
    }
    return _answer(args, obj)


def _cmd_oracle(args) -> int:
    sc = _load_scenario(args, force_mode="free")
    from ._freeprob import oracle_codes, oracle_comparison
    from ._moments import moment_budget_check
    from .harness import _marginals
    from .ncprob import parse_word

    model = _build_or_refuse(sc)
    marginals = _marginals(model)
    words = [_parse_or_refuse(parse_word, text) for text in args.word]
    for w in words:
        moment_budget_check(sc, w)
    try:
        table = oracle_codes(marginals, words)
    except ValueError as exc:  # a word over the oracle's letter cap, before any recursion
        raise IngestError(str(exc)) from None
    vacuum, oracle, res, _ = oracle_comparison(model.state, model.gens, marginals, table)
    results = [
        {"word": w.format(), "oracle_moment": [o.real, o.imag], "vacuum_moment": [v.real, v.imag], "residual": r}
        for w, o, v, r in zip(words, oracle.tolist(), vacuum.tolist(), res.tolist())
    ]
    worst = max(0.0, *res.tolist())
    obj = {
        "property": "oracle",
        "budgets": {"degree": sc.degree, "trunc": sc.trunc},
        "max_residual": worst,
        "worst_witness": max(results, key=lambda r: r["residual"])["word"],
        "pass": worst <= sc.tol,
        "results": results,
    }
    return _answer(args, obj, worst <= sc.tol)


def _parse_moment_list(obj: object) -> list[complex]:
    if isinstance(obj, dict):
        obj = obj.get("moments")
    if not isinstance(obj, list) or not obj:
        raise IngestError("cumulants input must be {\"moments\": [...]} with a nonempty list")
    out: list[complex] = []
    for k, entry in enumerate(obj):
        parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
            raise IngestError(f"moments[{k}]: expected a number or [re, im], got {entry!r}")
        try:
            z = complex(*parts)
        except OverflowError:  # an integer past the float range
            z = complex(math.inf)
        if not cmath.isfinite(z):
            raise IngestError(f"moments[{k}]: expected a finite number, got {entry!r}")
        out.append(z)
    return out


def _cmd_cumulants(args) -> int:
    from ._freeprob import free_cumulants, moments_from_cumulants
    from .operator_core import DEFAULT_TOL

    tol = args.tol if args.tol is not None else DEFAULT_TOL
    if not 0 < tol < math.inf:
        raise IngestError(f"tol must be a positive finite number, got {tol}")
    moments = _parse_moment_list(read_json(args.input, []))
    try:
        kappas = free_cumulants(moments)
        back = moments_from_cumulants(kappas)
        residual = max(abs(a - b) for a, b in zip(moments, back))
    except ValueError as exc:
        raise IngestError(str(exc)) from None
    except OverflowError:  # a difference whose modulus passes the float range
        residual = math.inf
    if not all(map(cmath.isfinite, [*kappas, *back, residual])):
        raise IngestError("moments too large: their cumulants or round trip overflow a float")
    obj = {
        "property": "cumulants",
        "budgets": {"orders": len(moments)},
        "cumulants": [[k.real, k.imag] for k in kappas],
        "roundtrip_moments": [[m.real, m.imag] for m in back],
        "max_residual": residual,
        "worst_witness": None,
        "pass": residual <= tol,
    }
    return _answer(args, obj, residual <= tol)


def _cmd_ncpartitions(args) -> int:
    from ._freeprob import noncrossing_partitions

    try:
        parts = noncrossing_partitions(args.size)
    except ValueError as exc:
        raise IngestError(str(exc)) from None
    listing = [[list(block) for block in p] for p in parts] if args.list else None
    obj = {
        "property": "ncpartitions",
        "budgets": {"size": args.size},
        "count": len(parts),
        "partitions": listing,
        "max_residual": 0.0,
        "worst_witness": None,
        "pass": True,
    }
    return _answer(args, obj)


def _add_suite(sub, name: str, text: str, mode: str | None = None, subset: tuple | None = None) -> None:
    """A command that runs the suite, or ``subset`` of it, and writes its report."""
    p = sub.add_parser(name, help=text)
    _add_common(p)
    p.add_argument("--format", choices=("json", "text"), default="json", help="a JSON report or a table")
    p.set_defaults(fn=partial(_run_suite, force_mode=mode, subset=subset))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freedilation",
        description="Finite unitary dilations with certified independence properties",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(format="json")  # only the suite commands take --format
    sub = parser.add_subparsers(dest="command", required=True)

    suite = partial(_add_suite, sub)
    suite("dilate", "dilate a single contraction and verify its powers", "single", ("unitarity", "power_dilation"))
    subset = ("unitarity", "power_dilation", "double_commutation")
    suite("dilate-doubly", "simultaneously dilate a doubly commuting tuple", "doubly", subset)
    suite("dilate-free", "freely independent joint dilation on the truncated free product", "free")
    suite("suite", "run every applicable certificate for a scenario")

    p = sub.add_parser("check", help="run one certificate")
    _add_common(p)
    p.add_argument("--property", required=True, choices=CHECK_PROPERTIES)
    clip = "faithful and free run at most at the dilation degree, tensor and trace refuse more than 3"
    p.add_argument("--check-degree", type=int, default=None, help=f"word degree for the certificate; {clip}")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("moments", help="evaluate word or centered-product moments in the dilated model")
    _add_common(p)
    p.add_argument(
        "--word",
        action="append",
        required=True,
        help="word like '1^2 2^-1', or centered product like 'c(1^1) c(2^1)'; repeatable",
    )
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("oracle", help="mixed moments from marginals, cross-checked against the model")
    _add_common(p)
    p.add_argument("--word", action="append", required=True, help="signed power word; repeatable")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("cumulants", help="free cumulants from a moment list, with round-trip check")
    _add_io(p)
    p.set_defaults(fn=_cmd_cumulants)

    p = sub.add_parser("ncpartitions", help="enumerate noncrossing partitions")
    p.add_argument("--size", type=int, required=True, help="ground set size (1..12)")
    p.add_argument("--list", action="store_true", help="include the partitions themselves")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(fn=_cmd_ncpartitions)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (IngestError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
