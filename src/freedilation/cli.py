"""Command-line harness.

Subcommands build dilations from scenario files, run certificates, and
evaluate moments, cumulants, partitions, and the free moment oracle.  Exit
codes: 0 all checks pass, 1 a check failed, 2 the input could not be loaded
or lies outside a stated budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from ._version import __version__
from .harness import (
    CHECKS,
    IngestError,
    Scenario,
    build_model,
    evaluate_product,
    ingest,
    moment_budget_check,
    parse_product,
    render_text,
    run_theorem_suite,
)
from .ncprob import (
    BudgetError,
    Word,
    free_cumulants,
    free_mixed_moments,
    matrix_marginal,
    moments_from_cumulants,
    noncrossing_partitions,
    parse_word,
    word_moments,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

CHECK_PROPERTIES = {
    "tensor": "tensor_independence",
    "free": "free_independence",
    "trace": "traciality",
    "faithful": "faithfulness",
}


def _add_common(p: argparse.ArgumentParser, need_input: bool = True) -> None:
    p.add_argument("--input", required=need_input, help="scenario or data file (JSON)")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--tol", type=float, default=None, help="pass/fail tolerance override")
    p.add_argument("--degree", type=int, default=None, help="dilation degree N override")
    p.add_argument("--trunc-len", type=int, default=None, help="free product truncation length L override")
    p.add_argument("--max-alt", type=int, default=None, help="max alternation length for word sweeps")
    p.add_argument("--samples", type=int, default=None, help="random samples per check")
    p.add_argument("--seed", type=int, default=None, help="root seed for sampled checks")
    p.add_argument("--format", choices=("json", "text"), default="json", help="report format")


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
        text = render_text(obj) if "checks" in obj else json.dumps(obj, indent=2, sort_keys=True)
    else:
        text = json.dumps(obj, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _load_scenario(args: argparse.Namespace, force_mode: str | None = None) -> Scenario:
    sc = ingest(args.input, _overrides(args))
    return sc if force_mode is None else replace(sc, mode=force_mode)


def _run_suite(args: argparse.Namespace, force_mode: str | None = None, subset=None) -> int:
    sc = _load_scenario(args, force_mode)
    report = run_theorem_suite(sc, subset=subset)
    _write(args, report.to_obj())
    return EXIT_PASS if report.overall_pass else EXIT_CHECK_FAILED


def _cmd_dilate(args) -> int:
    return _run_suite(args, force_mode="single", subset=("unitarity", "power_dilation"))


def _cmd_dilate_doubly(args) -> int:
    return _run_suite(
        args,
        force_mode="doubly",
        subset=("unitarity", "power_dilation", "double_commutation"),
    )


def _cmd_dilate_free(args) -> int:
    return _run_suite(args, force_mode="free")


def _cmd_suite(args) -> int:
    return _run_suite(args)


def _build_or_refuse(sc: Scenario):
    """Direct commands treat construction failure as bad input, not a report."""
    try:
        return build_model(sc)
    except (ValueError, KeyError) as exc:
        raise IngestError(f"scenario construction failed: {exc}") from None


def _cmd_check(args) -> int:
    force = args.property if args.property in ("tensor", "free") else None
    sc = _load_scenario(args, force_mode=force)
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
            "samples": sc.samples,
        },
        "max_residual": rep.residual,
        "worst_witness": rep.witness,
        "pass": rep.passed,
        "details": rep.details,
        "version": __version__,
    }
    _write(args, obj)
    return EXIT_PASS if rep.passed else EXIT_CHECK_FAILED


def _parse_or_refuse(parse, text: str):
    """A malformed ``--word`` is refused input, not a failed check."""
    try:
        return parse(text)
    except ValueError as exc:
        raise IngestError(f"--word {text!r}: {exc}") from None


def _cmd_moments(args) -> int:
    sc = _load_scenario(args)
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
        "version": __version__,
    }
    _write(args, obj)
    return EXIT_PASS


def _cmd_oracle(args) -> int:
    sc = _load_scenario(args, force_mode="free")
    model = _build_or_refuse(sc)
    marginals = {
        i: matrix_marginal(g, s) for i, (g, s) in enumerate(model.factor_models, start=1)
    }
    words = [_parse_or_refuse(parse_word, text) for text in args.word]
    for w in words:
        moment_budget_check(sc, w)
    try:
        oracle, _ = free_mixed_moments(marginals, words)
    except ValueError as exc:  # a word over the oracle's letter cap, before any recursion
        raise IngestError(str(exc)) from None
    vacuum = word_moments(model.state, model.gens, words)
    results = []
    worst = 0.0
    for w, oracle_value, vacuum_value in zip(words, oracle, map(complex, vacuum)):
        res = abs(oracle_value - vacuum_value)
        worst = max(worst, res)
        results.append(
            {
                "word": w.format(),
                "oracle_moment": [oracle_value.real, oracle_value.imag],
                "vacuum_moment": [vacuum_value.real, vacuum_value.imag],
                "residual": res,
            }
        )
    obj = {
        "property": "oracle",
        "budgets": {"degree": sc.degree, "trunc": sc.trunc},
        "max_residual": worst,
        "worst_witness": max(results, key=lambda r: r["residual"])["word"] if results else None,
        "pass": worst <= sc.tol,
        "results": results,
        "version": __version__,
    }
    _write(args, obj)
    return EXIT_PASS if worst <= sc.tol else EXIT_CHECK_FAILED


def _parse_moment_list(obj: object) -> list[complex]:
    if isinstance(obj, dict):
        obj = obj.get("moments")
    if not isinstance(obj, list) or not obj:
        raise IngestError("cumulants input must be {\"moments\": [...]} with a nonempty list")
    out: list[complex] = []
    for k, entry in enumerate(obj):
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            out.append(complex(entry))
        elif (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            out.append(complex(entry[0], entry[1]))
        else:
            raise IngestError(f"moments[{k}]: expected a number or [re, im], got {entry!r}")
    return out


def _cmd_cumulants(args) -> int:
    tol = args.tol if args.tol is not None else 1e-10
    if not 0 < tol < math.inf:
        raise IngestError(f"tol must be a positive finite number, got {tol}")
    try:
        data = json.loads(Path(args.input).read_text())
    except OSError as exc:
        raise IngestError(f"{args.input}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise IngestError(f"{args.input}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    moments = _parse_moment_list(data)
    try:
        kappas = free_cumulants(moments)
        back = moments_from_cumulants(kappas)
    except ValueError as exc:
        raise IngestError(str(exc)) from None
    residual = max(abs(a - b) for a, b in zip(moments, back))
    obj = {
        "property": "cumulants",
        "budgets": {"orders": len(moments)},
        "cumulants": [[k.real, k.imag] for k in kappas],
        "roundtrip_moments": [[m.real, m.imag] for m in back],
        "max_residual": residual,
        "worst_witness": None,
        "pass": residual <= tol,
        "version": __version__,
    }
    _write(args, obj)
    return EXIT_PASS if residual <= tol else EXIT_CHECK_FAILED


def _cmd_ncpartitions(args) -> int:
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
        "version": __version__,
    }
    _write(args, obj)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freedilation",
        description="Finite unitary dilations with certified independence properties",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dilate", help="dilate a single contraction and verify its powers")
    _add_common(p)
    p.set_defaults(fn=_cmd_dilate)

    p = sub.add_parser("dilate-doubly", help="simultaneously dilate a doubly commuting tuple")
    _add_common(p)
    p.set_defaults(fn=_cmd_dilate_doubly)

    p = sub.add_parser("dilate-free", help="freely independent joint dilation on the truncated free product")
    _add_common(p)
    p.set_defaults(fn=_cmd_dilate_free)

    p = sub.add_parser("suite", help="run every applicable certificate for a scenario")
    _add_common(p)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("check", help="run one certificate")
    _add_common(p)
    p.add_argument("--property", required=True, choices=CHECK_PROPERTIES)
    p.add_argument("--check-degree", type=int, default=None, help="word degree for the certificate")
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
    _add_common(p)
    p.set_defaults(fn=_cmd_cumulants)

    p = sub.add_parser("ncpartitions", help="enumerate noncrossing partitions")
    p.add_argument("--size", type=int, required=True, help="ground set size (1..12)")
    p.add_argument("--list", action="store_true", help="include the partitions themselves")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
