import importlib.util
import json
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import freedilation
import freedilation.harness as harness
from freedilation.cli import main
from freedilation.dilation import BudgetError
from freedilation.harness import (
    CHECKS,
    IngestError,
    Scenario,
    build_model,
    emit,
    evaluate_product,
    ingest,
    moment_budget_check,
    parse_product,
    render_text,
    report_fingerprint,
    run_theorem_suite,
    scenario_from_obj,
)
from freedilation.ncprob import (
    MAX_WORD_LETTERS,
    GenSet,
    Word,
    alternating_words_within,
    matrix_marginal,
    ordered_words,
    signed_alternating_words,
    tensor_independence_check,
    word_moments,
)
from freedilation.operator_core import State
from freedilation.serialization import matrix_to_obj, state_to_obj
from free_moment_oracle import per_word_free_moment

SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


def _scalar(value):
    return np.array([[value]], dtype=complex)


def _scalar_factor(value):
    return (_scalar(value), State.basis_vector(1, 0))


def _free_obj(degree=3, trunc=4, **extra):
    obj = {
        "mode": "free",
        "factors": [
            {"matrix": matrix_to_obj(_scalar(0.5)), "state": None},
            {"matrix": matrix_to_obj(_scalar(0.3 + 0.2j)), "state": None},
        ],
        "degree": degree,
        "trunc": trunc,
    }
    obj.update(extra)
    return obj


# ---------------------------------------------------------------------------
# scenario ingestion


def test_emit_ingest_round_trip(tmp_path):
    sc = Scenario(
        mode="free",
        factors=[_scalar_factor(0.5), _scalar_factor(0.3 + 0.2j)],
        degree=2,
        trunc=3,
        samples=7,
        tol=1e-7,
        seed=11,
    )
    path = tmp_path / "sc.json"
    emit(sc, path)
    back = ingest(path)
    assert back.to_obj() == sc.to_obj()
    assert back == Scenario(**{**back.__dict__, "sources": ()})  # sources excluded from eq
    assert len(back.sources) == 1
    assert len(back.sources[0][1]) == 64  # sha256 hex


def test_default_mode_by_factor_count():
    assert scenario_from_obj({"factors": [{"matrix": matrix_to_obj(_scalar(0.5))}]}).mode == "single"
    assert scenario_from_obj(_free_obj()).mode == "free"


def test_default_state_is_first_basis_vector():
    sc = scenario_from_obj({"factors": [{"matrix": matrix_to_obj(np.eye(3) * 0.5)}]})
    st = sc.factors[0][1]
    assert st.kind == "vector" and st.vector[0] == 1.0


def test_ingest_rejects_bad_mode():
    with pytest.raises(IngestError, match="mode"):
        scenario_from_obj({**_free_obj(), "mode": "sideways"})


def test_ingest_rejects_empty_factors():
    with pytest.raises(IngestError, match="factors"):
        scenario_from_obj({"mode": "free", "factors": []})


def test_ingest_rejects_single_mode_with_two_factors():
    with pytest.raises(IngestError, match="exactly one factor"):
        scenario_from_obj({**_free_obj(), "mode": "single"})


def test_ingest_rejects_non_unit_state():
    bad = state_to_obj(State.basis_vector(1, 0))
    bad["data"][0][0] = [2.0, 0.0]
    with pytest.raises(IngestError, match="factors\\[0\\].state"):
        scenario_from_obj(
            {"factors": [{"matrix": matrix_to_obj(_scalar(0.5)), "state": bad}]}
        )


def test_ingest_rejects_dim_mismatch():
    with pytest.raises(IngestError, match="does not match state dim"):
        scenario_from_obj(
            {
                "factors": [
                    {
                        "matrix": matrix_to_obj(np.eye(2) * 0.5),
                        "state": state_to_obj(State.basis_vector(3, 0)),
                    }
                ]
            }
        )


def test_ingest_rejects_noninteger_budget():
    with pytest.raises(IngestError, match="degree"):
        scenario_from_obj(_free_obj(degree="three"))
    with pytest.raises(IngestError, match="trunc"):
        scenario_from_obj(_free_obj(trunc=True))


def test_ingest_rejects_doubly_dim_mismatch():
    obj = {
        "mode": "doubly",
        "factors": [
            {"matrix": matrix_to_obj(_scalar(0.5))},
            {"matrix": matrix_to_obj(np.eye(2) * 0.5)},
        ],
    }
    with pytest.raises(IngestError, match="common space"):
        scenario_from_obj(obj)


def test_ingest_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"factors": [}')
    with pytest.raises(IngestError, match=r"broken\.json:1:14"):
        ingest(p)


def test_ingest_file_referenced_parts(tmp_path):
    mat_path = tmp_path / "t.json"
    mat_path.write_text(json.dumps(matrix_to_obj(_scalar(0.5))))
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps({"factors": [{"matrix": "t.json"}]}))
    sc = ingest(sc_path)
    assert sc.factors[0][0][0, 0] == 0.5
    paths = [p for p, _ in sc.sources]
    assert str(sc_path.resolve()) in paths and str(mat_path.resolve()) in paths


def test_ingest_overrides(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(_free_obj()))
    sc = ingest(path, {"tol": 1e-6, "seed": 5, "samples": None})
    assert sc.tol == 1e-6 and sc.seed == 5 and sc.samples == 100


# ---------------------------------------------------------------------------
# product parsing and budgets


def test_parse_product_groups_plain_tokens():
    parts = parse_product("1^1 2^1 1^1")
    assert len(parts) == 1
    assert parts[0] == (False, Word.from_runs([(1, 1), (2, 1), (1, 1)]))


def test_parse_product_centers_are_separate():
    parts = parse_product("c(1^1) 2^1 1^-1 c(2^2)")
    assert [c for c, _ in parts] == [True, False, True]
    assert parts[1][1] == Word.from_runs([(2, 1), (1, -1)])


def test_parse_product_empty_is_unit():
    assert parse_product("  ") == [(False, Word(()))]


def test_evaluate_product_centered_mean_is_zero(tmp_path):
    sc = Scenario(mode="single", factors=[_scalar_factor(0.5)])
    model = build_model(sc)
    assert abs(evaluate_product("c(1^1)", model)) < 1e-12
    assert evaluate_product("1^1", model) == pytest.approx(0.5)


@pytest.mark.parametrize("trunc", [1, 2, 3, 4, 5])
def test_moment_budget_check_refuses_deep_alternation(trunc):
    sc = Scenario(mode="free", factors=[_scalar_factor(0.5), _scalar_factor(0.4)], trunc=trunc)
    blocks = [(1 + k % 2, 1) for k in range(trunc + 1)]
    with pytest.raises(BudgetError, match="factor blocks"):
        moment_budget_check(sc, Word.from_runs(blocks))
    moment_budget_check(sc, Word.from_runs(blocks[:-1]))  # exactly L blocks: in budget
    # non-free modes have no truncation to respect
    sc2 = Scenario(mode="single", factors=[_scalar_factor(0.5)])
    moment_budget_check(sc2, Word.from_runs([(1, 9)]))


def test_signed_alternating_words_structure():
    words = signed_alternating_words(2, 2, 2, 2)
    assert all(type(w) is Word and 1 <= len(w) <= 2 for w in words)
    for w in words:
        runs = w.runs()
        for a, b in zip(runs, runs[1:]):
            assert a[0] != b[0] or (a[1] > 0) != (b[1] > 0)
        assert len(w.blocks()) <= 2
    runs = [w.runs() for w in words]
    assert ((1, 1), (2, 1)) in runs
    assert ((1, 1), (1, -1)) in runs  # same factor, opposite sign is a new run
    # pinned order: by length, then run count, then the runs themselves
    assert [w.format() for w in words] == [
        "1^-1", "1^1", "2^-1", "2^1", "1^-2", "1^2", "2^-2", "2^2",
        "1^-1 1^1", "1^-1 2^-1", "1^-1 2^1", "1^1 1^-1", "1^1 2^-1", "1^1 2^1",
        "2^-1 1^-1", "2^-1 1^1", "2^-1 2^1", "2^1 1^-1", "2^1 1^1", "2^1 2^-1",
    ]


def test_ordered_words_shape():
    # 3 choices per factor, squared; the unit first, factors in ascending
    # order, then by run count and the runs themselves
    assert [w.runs() for w in ordered_words(2, 1)] == [
        (),
        ((1, -1),), ((1, 1),), ((2, -1),), ((2, 1),),
        ((1, -1), (2, -1)), ((1, -1), (2, 1)), ((1, 1), (2, -1)), ((1, 1), (2, 1)),
    ]


# ---------------------------------------------------------------------------
# the suite


def test_suite_single_scalar_passes():
    sc = Scenario(mode="single", factors=[_scalar_factor(0.5)], samples=10)
    report = run_theorem_suite(sc)
    names = [c["name"] for c in report.checks]
    assert names == ["construction", "unitarity", "power_dilation", "faithfulness"]
    assert report.overall_pass
    assert all(c["passed"] for c in report.checks)
    assert report.checks[0]["details"]["ambient_dim"] == 4


def test_suite_doubly_includes_commutation():
    t = np.diag([0.5, 0.3]).astype(complex)
    s = State.basis_vector(2, 0)
    sc = Scenario(mode="doubly", factors=[(t, s), (t * 0.5, s)], degree=2, samples=5)
    report = run_theorem_suite(sc)
    names = [c["name"] for c in report.checks]
    assert "double_commutation" in names
    assert report.overall_pass


def test_suite_construction_failure_is_a_failing_entry():
    t = np.array([[0.3, 0.1], [0.0, 0.4]], dtype=complex)
    s = State.from_vector(np.array([1.0, 0.0]))
    sc = Scenario(mode="free", factors=[(t, s), (t, s)], degree=3, trunc=4)
    report = run_theorem_suite(sc)  # 5601-dimensional space exceeds the cap
    assert not report.overall_pass
    assert report.checks[0]["name"] == "construction"
    assert not report.checks[0]["passed"]
    assert "error" in report.checks[0]["witness"]


def test_suite_subset_restriction():
    sc = Scenario(mode="single", factors=[_scalar_factor(0.5)])
    report = run_theorem_suite(sc, subset=["unitarity"])
    assert [c["name"] for c in report.checks] == ["construction", "unitarity"]


def test_report_fingerprint_ignores_timing():
    sc = Scenario(mode="single", factors=[_scalar_factor(0.5)], samples=5)
    a = run_theorem_suite(sc).to_obj()
    b = run_theorem_suite(sc).to_obj()
    assert report_fingerprint(a) == report_fingerprint(b)
    mutated = json.loads(json.dumps(a))
    mutated["checks"][0]["seconds"] = 99.0
    assert report_fingerprint(mutated) == report_fingerprint(a)
    mutated["checks"][0]["residual"] = 1.0
    assert report_fingerprint(mutated) != report_fingerprint(a)


def test_construction_reports_phase_seconds_outside_the_fingerprint():
    # free mode times all five construction phases, the other modes the
    # three of a block dilation; every phase time sits under a "seconds"
    # key, which the fingerprint (and the benchmark's report digest) strips
    free = run_theorem_suite(ingest(SCENARIOS / "free_pair.json"), subset=[]).to_obj()
    single = run_theorem_suite(Scenario(mode="single", factors=[_scalar_factor(0.5)]), subset=[]).to_obj()
    phases = {name: entry["checks"][0]["phases"] for name, entry in (("free", free), ("single", single))}
    assert sorted(phases["free"]) == ["block_dilation", "defects", "embedding", "fock_basis", "left_action"]
    assert sorted(phases["single"]) == ["block_dilation", "defects", "embedding"]
    for times in phases.values():
        assert all(set(t) == {"seconds"} and t["seconds"] >= 0.0 for t in times.values())
    mutated = json.loads(json.dumps(free))
    for t in mutated["checks"][0]["phases"].values():
        t["seconds"] = 99.0
    assert report_fingerprint(mutated) == report_fingerprint(free)
    assert json.loads(report_fingerprint(free))["checks"][0]["phases"]["fock_basis"] == {}


def test_render_text_table():
    sc = Scenario(mode="single", factors=[_scalar_factor(0.5)], samples=5)
    text = render_text(run_theorem_suite(sc).to_obj())
    assert "unitarity" in text
    assert "overall: pass" in text
    assert "FAIL" not in text


# ---------------------------------------------------------------------------
# CLI


def _write_scenario(tmp_path, obj, name="sc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_cli_suite_single(tmp_path, capsys):
    path = _write_scenario(
        tmp_path, {"factors": [{"matrix": matrix_to_obj(_scalar(0.5))}], "samples": 5}
    )
    out_path = tmp_path / "report.json"
    code = main(["suite", "--input", path, "--output", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["overall_pass"] is True
    assert report["inputs"][0]["path"].endswith("sc.json")


def test_cli_dilate_refuses_multiple_factors(tmp_path, capsys):
    path = _write_scenario(tmp_path, _free_obj())
    code = main(["dilate", "--input", path])
    assert code == 2
    assert "exactly one factor" in capsys.readouterr().err


def test_cli_moments_and_budget_refusal(tmp_path, capsys):
    path = _write_scenario(tmp_path, _free_obj(degree=2, trunc=3, samples=2))
    code = main(["moments", "--input", path, "--word", "1^1 2^1"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    got = complex(*obj["results"][0]["moment"])
    assert got == pytest.approx(0.5 * (0.3 + 0.2j), abs=1e-12)

    code = main(["moments", "--input", path, "--word", "1^1 2^1 1^1 2^1"])
    assert code == 2
    assert "factor blocks" in capsys.readouterr().err


def test_cli_check_trace_on_single(tmp_path, capsys):
    path = _write_scenario(
        tmp_path,
        {"factors": [{"matrix": matrix_to_obj(_scalar(0.5))}], "samples": 5},
    )
    code = main(["check", "--input", path, "--property", "trace", "--format", "text"])
    assert code == 0
    capsys.readouterr()


def _tensor_obj():
    return {
        "mode": "tensor",
        "factors": [
            {"matrix": matrix_to_obj(_scalar(0.5))},
            {"matrix": matrix_to_obj(np.array([[0.0, 0.4], [0.1, 0.2]], dtype=complex))},
        ],
        "degree": 2,
        "samples": 5,
        "seed": 3,
    }


@pytest.mark.parametrize(
    ("scenario", "prop", "check"),
    [
        ("tensor", "tensor", "tensor_independence"),
        ("tensor", "faithful", "faithfulness"),
        ("free", "free", "free_independence"),
        ("free", "trace", "traciality"),
        ("free", "faithful", "faithfulness"),
        ("single_half", "faithful", "faithfulness"),
    ],
)
def test_cli_check_matches_suite_entry(tmp_path, capsys, scenario, prop, check):
    if scenario == "tensor":
        path = _write_scenario(tmp_path, _tensor_obj())
    elif scenario == "free":
        path = _write_scenario(tmp_path, _free_obj(degree=2, trunc=3, samples=3, seed=9))
    else:
        path = str(SCENARIOS / f"{scenario}.json")
    report = run_theorem_suite(ingest(path), subset=[check])
    entry = json.loads(json.dumps(report.checks[-1]))
    assert entry["name"] == check
    code = main(["check", "--input", path, "--property", prop])
    obj = json.loads(capsys.readouterr().out)
    assert obj["max_residual"] == entry["residual"]
    assert obj["worst_witness"] == entry["witness"]
    assert obj["pass"] == entry["passed"]
    assert obj["details"] == entry["details"]
    assert code == (0 if entry["passed"] else 1)


def test_cli_check_faithful_without_factor_models(capsys):
    # doubly mode has no per-factor models: the joint span is checked instead
    code = main(["check", "--input", str(SCENARIOS / "doubly_diag.json"), "--property", "faithful"])
    assert code == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["max_residual"] == 4.0 and obj["pass"] is False
    assert obj["worst_witness"] == {"span_dim": 13, "gram_rank": 9}
    assert obj["details"] == {
        "faithful_on_span": False,
        "span_dim": 13,
        "gram_rank": 9,
        "rank_gap": 4,
        "word_count": 21,
        "degree": 2,
        "rank_rtol": 1e-09,
    }


def _assert_refused(code, capsys, match):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and match in err


def test_cli_check_faithful_over_the_gram_word_cap_is_refused(capsys):
    # three factors at degree 6: 5,461 words, over MAX_GRAM_WORDS
    path = str(SCENARIOS / "doubly_diag.json")
    code = main(
        ["check", "--input", path, "--property", "faithful", "--degree", "6", "--check-degree", "6"]
    )
    _assert_refused(code, capsys, "exceeds MAX_GRAM_WORDS")


def test_suite_gram_word_cap_is_a_failing_entry(tmp_path, capsys):
    # one factor at check degree 12: 8,191 words
    obj = {"factors": [{"matrix": matrix_to_obj(_scalar(0.5))}], "degree": 12, "check_degree": 12}
    code = main(["suite", "--input", _write_scenario(tmp_path, obj)])
    entry = json.loads(capsys.readouterr().out)["checks"][-1]
    assert code == 1
    assert entry["name"] == "faithfulness" and not entry["passed"]
    assert "exceeds MAX_GRAM_WORDS" in entry["witness"]["error"]


def test_gram_work_budget_is_refused_by_check_and_failed_by_suite(capsys):
    # free_pair at --max-alt 6 --trunc-len 6: 14^6 Gram entries for each
    # length-6 sequence, past MAX_GRAM_WORK; check exits 2 like the other
    # budgets, suite records a failed free_independence entry and exits 1
    path = str(SCENARIOS / "free_pair.json")
    code = main(["check", "--input", path, "--property", "free", "--max-alt", "6", "--trunc-len", "6"])
    _assert_refused(code, capsys, "exceed the work budget MAX_GRAM_WORK")
    code = main(["suite", "--input", path, "--max-alt", "6", "--trunc-len", "6"])
    entries = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 1 and not entries["free_independence"]["passed"]
    assert "MAX_GRAM_WORK" in entries["free_independence"]["witness"]["error"]
    assert all(c["passed"] for name, c in entries.items() if name != "free_independence")
    code = main(["check", "--input", path, "--property", "free", "--trunc-len", "6"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0 and obj["details"]["entries"] == 14**2 + 2 * 14**3 + 14**4
    assert "samples" not in obj["budgets"]


def test_cli_unit_word_witness_replays_through_moments(capsys):
    # power_dilation's worst word on single_half is the unit, and its witness
    # names the unit when fed back to ``moments --word``
    path = str(SCENARIOS / "single_half.json")
    assert main(["suite", "--input", path, "--seed", "1"]) == 0
    entries = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    word = entries["power_dilation"]["witness"]["word"]
    assert main(["moments", "--input", path, "--word", word]) == 0
    moment = json.loads(capsys.readouterr().out)["results"][0]["moment"]
    assert moment == pytest.approx([1.0, 0.0], abs=1e-12)


def test_commuting_pair_that_does_not_doubly_commute_is_refused_with_a_starred_witness():
    # [A, B] = 0 but [A*, B] = diag(-1, 1)
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gens, state = GenSet({1: a, 2: a}), State.basis_vector(2, 0)
    starred = {"left": "1^-1", "right": "2^1"}
    sc = Scenario(mode="doubly", factors=[(a, state)] * 2)
    rep = CHECKS["double_commutation"](sc, harness.Model(gens=gens, state=state))
    assert not rep.passed and rep.residual == pytest.approx(1.0) and rep.witness == starred
    rep = tensor_independence_check(state, gens, degree=2)
    assert not rep.passed and rep.residual == pytest.approx(1.0)
    assert rep.witness == {"part": "commutation", **starred}
    assert rep.details["commutators"] == 2


@pytest.mark.parametrize("prop", ["tensor", "free", "trace", "faithful"])
def test_cli_check_degree_is_validated(capsys, prop):
    path = str(SCENARIOS / "free_pair.json")
    code = main(["check", "--input", path, "--property", prop, "--check-degree", "0"])
    _assert_refused(code, capsys, "check_degree must be >= 1")


def test_cli_check_free_needs_two_factors(capsys):
    code = main(["check", "--input", str(SCENARIOS / "single_half.json"), "--property", "free"])
    _assert_refused(code, capsys, "at least two factors")


@pytest.mark.parametrize(
    ("command", "scenario", "word"),
    [("moments", "free_pair", "7^1"), ("oracle", "free_pair", "7^1"), ("moments", "single_half", "2^1")],
)
def test_cli_word_with_unknown_factor_is_refused(capsys, command, scenario, word):
    code = main([command, "--input", str(SCENARIOS / f"{scenario}.json"), "--word", word])
    _assert_refused(code, capsys, "factor ids")


@pytest.mark.parametrize("word", ["1^a", "x", "0^1", "c(1^1"])
@pytest.mark.parametrize("command", ["moments", "oracle"])
def test_cli_malformed_word_is_refused(capsys, command, word):
    code = main([command, "--input", str(SCENARIOS / "free_pair.json"), "--word", word])
    _assert_refused(code, capsys, "bad word token")


def test_cli_oracle_refuses_words_over_the_oracle_cap(capsys):
    path = str(SCENARIOS / "free_pair.json")
    assert main(["oracle", "--input", path, "--word", "1^16"]) == 0  # exactly the cap
    capsys.readouterr()
    code = main(["oracle", "--input", path, "--word", "1^1", "--word", "1^17"])
    _assert_refused(code, capsys, "word length 17 exceeds oracle cap 16")


@pytest.mark.parametrize(
    ("command", "word"),
    [("moments", "1^1000000000000"), ("moments", "c(1^1000000000000)"), ("oracle", "1^1000000000000")],
)
def test_cli_refuses_words_over_the_letter_cap_without_allocating(capsys, command, word):
    path = str(SCENARIOS / "free_pair.json")
    main([command, "--input", path, "--word", "1^1"])  # first-call imports and caches stay out
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main([command, "--input", path, "--word", word])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_refused(code, capsys, f"exceeds the word letter cap {MAX_WORD_LETTERS}")
    assert peak < 2**24, peak  # the model of free_pair; no letter of the word


def test_oracle_check_refuses_degree_over_the_cap_before_enumerating(monkeypatch, capsys):
    # at degree 9 the oracle's words reach 18 letters, past its cap of 16:
    # the check fails at once instead of building a million words first
    def refuse(*args):
        raise AssertionError("oracle words enumerated past the cap")

    # the oracle check enumerates its words: it must not be reached
    monkeypatch.setattr(harness, "oracle_equivalence_check", refuse)
    path = str(SCENARIOS / "free_pair.json")
    code = main(["suite", "--input", path, "--degree", "9", "--trunc-len", "1"])
    entries = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    entry = entries.pop("oracle_equivalence")
    assert code == 1 and not entry["passed"] and entry["residual"] == float("inf")
    assert "oracle cap 16" in entry["witness"]["error"]
    assert all(e["passed"] for e in entries.values())


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-8"])
def test_cli_tol_must_be_positive_finite(capsys, tol):
    code = main(["suite", "--input", str(SCENARIOS / "single_half.json"), f"--tol={tol}"])
    _assert_refused(code, capsys, "tol must be a positive finite number")


def test_scenario_file_nan_tol_is_refused(tmp_path, capsys):
    # Python's json reads the NaN literal
    obj = {"factors": [{"matrix": matrix_to_obj(_scalar(0.5))}], "tol": float("nan")}
    code = main(["suite", "--input", _write_scenario(tmp_path, obj)])
    _assert_refused(code, capsys, "tol must be a positive finite number")


def test_cli_cumulants_nan_tol_is_refused(capsys):
    path = str(SCENARIOS / "semicircle_moments.json")
    code = main(["cumulants", "--input", path, "--tol", "nan"])
    _assert_refused(code, capsys, "tol must be a positive finite number")


@pytest.mark.parametrize("mode", ["single", "doubly", "tensor", "free"])
def test_suite_dimension_cap_in_every_mode(mode):
    # far beyond any memory: refused before allocation, as a failing entry
    factors = [_scalar_factor(0.5), _scalar_factor(0.3)][: 1 if mode == "single" else 2]
    report = run_theorem_suite(Scenario(mode=mode, factors=factors, degree=10**7))
    assert [c["name"] for c in report.checks] == ["construction"]
    assert "exceeds cap 5000" in report.checks[0]["witness"]["error"]


def test_cli_dimension_cap(capsys):
    path = str(SCENARIOS / "single_half.json")
    assert main(["suite", "--input", path, "--degree", str(10**7)]) == 1
    out = capsys.readouterr()
    entry = json.loads(out.out)["checks"][0]
    assert entry["name"] == "construction" and "exceeds cap 5000" in entry["witness"]["error"]
    assert "Traceback" not in out.err
    code = main(["moments", "--input", path, "--degree", str(10**7), "--word", "1^1"])
    _assert_refused(code, capsys, "exceeds cap 5000")


def test_cli_huge_truncation_is_refused_at_the_cap(capsys):
    path = str(SCENARIOS / "free_pair.json")
    t0 = time.perf_counter()
    code = main(["suite", "--input", path, "--trunc-len", "200000"])
    elapsed = time.perf_counter() - t0
    entry = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == 1 and elapsed < 1.0
    assert entry["name"] == "construction" and "exceeds cap 5000" in entry["witness"]["error"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_traciality_within_truncation_one(capsys, seed):
    # products of two words of one letter each: exact in the vacuum at L = 1
    path = str(SCENARIOS / "free_pair.json")
    code = main(["suite", "--input", path, "--trunc-len", "1", "--seed", str(seed)])
    entry = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}["traciality"]
    assert code == 0 and entry["passed"] and entry["residual"] <= 1e-15
    assert entry["details"]["degree"] == 1
    code = main(["check", "--input", path, "--property", "trace", "--trunc-len", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["pass"] and out["details"]["degree"] == 1


def test_suite_counters_in_free_and_dense_modes():
    sc = ingest(SCENARIOS / "free_pair.json")
    report = run_theorem_suite(sc, subset=("unitarity", "dilation_identity")).to_obj()
    entries = {c["name"]: c for c in report["checks"]}
    model = build_model(sc)
    fds = model.free
    words = alternating_words_within(2, min(sc.max_alt, sc.trunc), sc.degree)
    assert entries["construction"]["details"]["gen_bytes"] == (
        fds.unitaries.nbytes + fds.s_ops.nbytes
    )
    assert entries["construction"]["details"]["gen_bytes"] < fds.dim**2 * 16
    assert entries["unitarity"]["details"] == {
        # of the 79 words shorter than L = 4 (1 + 6 + 18 + 54), one Fock
        # group per pattern: a whole group of 4 and a lone tail of 3 letters
        "columns": 5,
        "words": 4,
        "letters_applied": 8,
        "fock_dim": 241,
        "fock_h_dim": 1,
    }
    assert entries["dilation_identity"]["details"] == {
        "degree": 3,
        "words": len(words),
        # each distinct suffix once, on the dilation and on the contractions
        "letters_applied": 2 * len({w.letters[k:] for w in words for k in range(len(w))}),
        "fock_dim": 241,
        "fock_h_dim": 1,
    }
    single = run_theorem_suite(ingest(SCENARIOS / "single_half.json")).to_obj()
    entries = {c["name"]: c for c in single["checks"]}
    dim = entries["construction"]["details"]["ambient_dim"]
    assert entries["unitarity"]["details"] == {"columns": dim, "words": 1, "letters_applied": 2}
    assert set(entries["power_dilation"]["details"]) == {"degree", "words", "letters_applied"}
    # check_degree 2: 6 nonempty words per factor, each a distinct suffix
    rng = np.random.default_rng(3)
    factors = [(np.diag(rng.uniform(-0.8, 0.8, 2)).astype(complex), State.basis_vector(2, 0))]
    tensor = Scenario(mode="tensor", factors=factors * 2, degree=1, check_degree=2, samples=5)
    details = run_theorem_suite(tensor, subset=("tensor_independence",)).checks[1]["details"]
    assert details["commutators"] == 2  # [A_1, A_2] and [A_1*, A_2]
    # per factor the word moments' halves, two letters for the L* in
    # {T*, T} and two for the R in {T, T*}, then its 6 nonempty words, the
    # first factor's held and the second's streamed: 7 x 7 Gram entries
    assert details["letters_applied"] == 2 * (2 + 2 + 6)
    assert (details["entries"], details["factors"]) == (49, [1, 2])
    doubly = Scenario(mode="doubly", factors=factors * 3, degree=1)
    details = run_theorem_suite(doubly, subset=("double_commutation",)).checks[1]["details"]
    # [A_i, A_j] and [A_i*, A_j] per pair, on the columns over the pair's two
    # C^2 legs and the C^2 leg they share
    assert details == {"operators": 3, "commutators": 6, "columns": 2 * 2 * 2}


def test_construction_reports_generator_bytes_in_every_mode():
    rng = np.random.default_rng(7)
    factors = [(np.diag(rng.uniform(-0.8, 0.8, 2)).astype(complex), State.basis_vector(2, 0))] * 3
    for sc in (
        ingest(SCENARIOS / "single_half.json"),
        ingest(SCENARIOS / "doubly_diag.json"),
        Scenario(mode="doubly", factors=factors, degree=2),
        Scenario(mode="tensor", factors=factors[:2], degree=2),
    ):
        construction, power = run_theorem_suite(sc, subset=("power_dilation",)).to_obj()["checks"]
        model = build_model(sc)
        details = construction["details"]
        assert details["gen_bytes"] == model.gens.nbytes
        if sc.mode != "single":  # axis actions: two small cores per generator, no dense matrix
            assert details["gen_bytes"] < len(model.gens.ids) * 16 * details["ambient_dim"] ** 2
        # the sweeps' letters: each distinct suffix once on each side of the identity
        suffixes = [
            {w.letters[k:] for w in ordered_words(len(r.gens.ids), sc.degree) for k in range(len(w))}
            for r in model.dilations
        ]
        assert power["details"]["letters_applied"] == sum(2 * len(s) for s in suffixes)


def test_traced_suite_names_resolve():
    # the benchmark's tracer binds package functions by name: a rename in src
    # must fail here, not only under ``perfbench/run.py --trace 1``
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced_suite.py"
    spec = importlib.util.spec_from_file_location("traced_suite", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for table in (traced.SPANNED, traced.COUNTED):
        for module, names in table.items():
            for name in names:
                assert callable(getattr(getattr(freedilation, module), name)), (module, name)
    assert callable(freedilation.harness.suite_plan)


def test_oracle_check_matches_per_word_loop():
    sc = ingest(SCENARIOS / "free_pair.json")
    model = build_model(sc)
    rep = CHECKS["oracle_equivalence"](sc, model)
    marginals = {
        i: matrix_marginal(g, s) for i, (g, s) in enumerate(model.factor_models, start=1)
    }
    words = signed_alternating_words(2, min(sc.max_alt, sc.trunc), sc.degree, 2 * sc.degree)
    swept = word_moments(model.state, model.gens, words)
    worst, witness = 0.0, None
    for w, lhs in zip(words, swept):
        rhs = per_word_free_moment(marginals, w)
        res = abs(lhs - rhs)
        if res >= worst:
            if res > worst or witness is None:
                witness = {
                    "word": w.format(),
                    "vacuum_moment": [lhs.real, lhs.imag],
                    "oracle_moment": [rhs.real, rhs.imag],
                }
            worst = max(worst, res)
    assert rep.residual == worst and rep.witness == witness
    assert rep.details == {
        "words": len(words),
        # the 85 distinct L* halves of the 4,436 words in 3 blocks, each
        # streaming the R halves its words need
        "letters_applied": 365,
        "max_blocks": 4,
        "memo_entries": 4468,
    }


def test_free_pair_work_counts_are_pinned():
    # deterministic counters of free_pair at seed 1: the Grams take 198
    # letters (16 for the means, 28 for the held images and 154 for the
    # streamed slots, where the sampled passes took 994) and traciality's
    # 360 (20 heads, 340 rests); the oracle sweep applies 365 and one
    # oracle recursion serves all 4,436 words; a change that undoes either
    # moves them
    sc = replace(ingest(SCENARIOS / "free_pair.json"), seed=1)
    model = build_model(sc)
    free = CHECKS["free_independence"](sc, model)
    trace = CHECKS["traciality"](sc, model)
    oracle = CHECKS["oracle_equivalence"](sc, model)
    assert free.details["letters_applied"] == 16 + 28 + 154
    assert trace.details["letters_applied"] == 20 + 340
    assert (oracle.details["words"], oracle.details["memo_entries"]) == (4436, 4468)
    assert oracle.details["letters_applied"] == 365


def test_tensor_power_dilation_covers_each_factor():
    sc = Scenario(mode="tensor", factors=[_scalar_factor(0.5), _scalar_factor(0.3 + 0.2j)])
    model = build_model(sc)
    assert len(model.dilations) == 2
    for res, (t, _) in zip(model.dilations, sc.factors):
        np.testing.assert_array_equal(res.contractions[1], t)
    assert CHECKS["power_dilation"](sc, model).passed
    # a wrong record for factor 2 alone is caught and named
    wrong = replace(model.dilations[1], contractions=GenSet({1: _scalar(0.9)}))
    rep = CHECKS["power_dilation"](sc, replace(model, dilations=(model.dilations[0], wrong)))
    assert not rep.passed and rep.residual > 0.1
    assert rep.witness["factor"] == 2


def test_cli_cumulants_semicircle(tmp_path, capsys):
    p = tmp_path / "moments.json"
    p.write_text(json.dumps({"moments": [0, 1, 0, 2, 0, 5]}))
    code = main(["cumulants", "--input", str(p)])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pass"] is True
    kappas = [complex(*k) for k in obj["cumulants"]]
    assert kappas[0] == 0 and kappas[1] == 1
    assert all(abs(k) < 1e-12 for k in kappas[2:])


def test_cli_ncpartitions(tmp_path, capsys):
    code = main(["ncpartitions", "--size", "4", "--list"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] == 14
    assert len(obj["partitions"]) == 14
    code = main(["ncpartitions", "--size", "40"])
    assert code == 2
    capsys.readouterr()


def test_cli_missing_and_invalid_input(tmp_path, capsys):
    assert main(["suite", "--input", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["suite", "--input", str(bad)]) == 2
    capsys.readouterr()


def test_cli_failing_suite_exits_one(tmp_path, capsys):
    # a free scenario whose truncated space overflows the cap yields a clean
    # failing report (exit 1), not a crash and not an input refusal (exit 2)
    mat = matrix_to_obj(np.array([[0.3, 0.1], [0.0, 0.4]], dtype=complex))
    path = _write_scenario(
        tmp_path, {"mode": "free", "factors": [{"matrix": mat}, {"matrix": mat}]}
    )
    code = main(["suite", "--input", path])
    assert code == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["overall_pass"] is False
    assert obj["checks"][0]["name"] == "construction"
    assert "error" in obj["checks"][0]["witness"]


def test_cli_oracle_strict_tolerance_exits_one(tmp_path, capsys):
    # an impossible tolerance turns a healthy cross-check into a clean failure
    path = _write_scenario(tmp_path, _free_obj())
    code = main(["oracle", "--input", path, "--word", "1^1 2^1", "--tol", "1e-300"])
    assert code in (0, 1)
    obj = json.loads(capsys.readouterr().out)
    if obj["max_residual"] > 0:
        assert code == 1 and obj["pass"] is False
    code = main(["oracle", "--input", path, "--word", "1^1 2^1"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pass"] is True and obj["max_residual"] <= 1e-8


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
