"""Acceptance gate: one test per headline property, each printing a verdict line.

Every numbered test certifies one externally visible guarantee of the package
at its stated tolerance. The verdict lines survive output capture so a plain
``pytest -v`` run shows the eleven pass/fail lines at a glance.
"""

import numpy as np
import pytest

from freedilation._freeprob import (
    free_cumulants,
    free_mixed_moments,
    haar_unitary_marginal,
    matrix_marginal,
    moments_from_cumulants,
    noncrossing_partitions,
)
from freedilation.dilation import (
    dilation_residuals,
    doubly_commuting_dilation,
    finite_unitary_dilation,
    unitarity_residual,
    verify_power_dilation,
)
from freedilation.free_product import free_unitary_dilation
from freedilation.harness import (
    Scenario,
    report_fingerprint,
    run_theorem_suite,
)
from freedilation._gram import (
    free_independence_check,
    make_tensor_independent,
    tensor_independence_check,
    trace_check,
)
from freedilation.ncprob import (
    GenSet,
    Word,
    _codes,
    faithfulness_check,
    free_mixed_moment_oracle,
    word_moments,
    worst_commutator,
)
from freedilation.operator_core import (
    State,
    random_contraction,
    random_unitary,
)
from partition_oracles import all_set_partitions, is_noncrossing
from word_list_oracles import alternating_words_within, ordered_words, signed_alternating_words


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num:02d} {name}: {'pass' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def scalar_pair():
    """Two freely dilated scalar contractions on the truncated product space."""
    s = State.basis_vector(1, 0)
    return free_unitary_dilation(
        [(np.array([[0.5]]), s), (np.array([[0.3 + 0.2j]]), s)], 3, 4
    )


@pytest.fixture(scope="module")
def zero_pair():
    """Two freely dilated zero scalars: the free Haar pair."""
    s = State.basis_vector(1, 0)
    return free_unitary_dilation([(np.zeros((1, 1)), s), (np.zeros((1, 1)), s)], 3, 4)


def test_01_dilation_exactness(capsys):
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        degree = int(rng.integers(1, 5))
        t = random_contraction(rng, dim)
        res = finite_unitary_dilation(t, degree)
        worst = max(worst, unitarity_residual(res.gens, 1))
        for k in range(degree + 1):
            worst = max(worst, verify_power_dilation(res, Word.from_runs([(1, k)])))
            worst = max(worst, verify_power_dilation(res, Word.from_runs([(1, -k)])))
    _verdict(
        capsys, 1, "dilation_exactness", worst <= 1e-10,
        f"200 contractions, max residual {worst:.2e} <= 1e-10",
    )


def _commuting_normals(rng, dim, count):
    q = random_unitary(rng, dim)
    ops = []
    for _ in range(count):
        eig = rng.uniform(0.1, 0.9, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
        ops.append(q @ np.diag(eig) @ q.conj().T)
    return ops


def test_02_doubly_commuting_suite(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for count in (2, 2, 2, 3, 3):
        dim = int(rng.integers(2, 4))
        ops = _commuting_normals(rng, dim, count)
        res = doubly_commuting_dilation(ops, 2)
        worst = max(worst, worst_commutator(res.gens)[0])
        for word in ordered_words(count, 2):
            worst = max(worst, verify_power_dilation(res, word))
    _verdict(
        capsys, 2, "doubly_commuting_suite", worst <= 1e-9,
        f"pairs and triples, max residual {worst:.2e} <= 1e-9",
    )


def test_03_tensor_independence(capsys):
    rng = np.random.default_rng(11)
    parts = []
    for dim in (1, 2, 2):
        t = random_contraction(rng, dim)
        res = finite_unitary_dilation(t, 2)
        # J e_0 is the first basis vector of the dilation space
        parts.append((res.gens[1], State.basis_vector(res.ambient_dim, 0)))
    gens, joint = make_tensor_independent(parts)
    rep = tensor_independence_check(joint, gens, degree=3, tol=1e-9)
    _verdict(
        capsys, 3, "tensor_independence", rep.passed and rep.residual <= 1e-9,
        f"3 ampliated dilations, degree 3, residual {rep.residual:.2e}",
    )


def test_04_free_dilation_identity(capsys, scalar_pair):
    s = State.basis_vector(1, 0)
    rng = np.random.default_rng(5)
    t2 = random_contraction(rng, 2)
    scenarios = [
        ("two scalars", scalar_pair),
        (
            "three scalars",
            free_unitary_dilation(
                [
                    (np.array([[0.5]]), s),
                    (np.array([[0.3 + 0.2j]]), s),
                    (np.array([[-0.4 + 0.1j]]), s),
                ],
                3,
                4,
            ),
        ),
        (
            "2x2 and scalar",
            free_unitary_dilation(
                [(t2, State.basis_vector(2, 0)), (np.array([[0.6]]), s)], 3, 4
            ),
        ),
    ]
    worst = 0.0
    words = 0
    dims = []
    for _, fds in scenarios:
        dims.append(fds.dim)
        table = _codes(alternating_words_within(fds.n_factors, 4, 3))
        residuals, _ = dilation_residuals(fds.unitaries, fds.s_ops, fds.coords, table)
        worst = max(worst, *residuals)
        words += len(table)
    _verdict(
        capsys, 4, "free_dilation_identity", worst <= 1e-8,
        f"{words} words at ambient dims {dims}, max residual {worst:.2e} <= 1e-8",
    )


def test_05_freeness_with_negative_control(capsys, scalar_pair):
    rep = free_independence_check(
        scalar_pair.vacuum, scalar_pair.unitaries,
        max_len=4, degree=3, tol=1e-9,
    )
    u1 = scalar_pair.unitaries[1]
    twin = free_independence_check(
        scalar_pair.vacuum, GenSet({1: u1, 2: u1}), max_len=4, degree=3, tol=1e-9
    )
    ok = rep.passed and rep.residual <= 1e-9 and not twin.passed and twin.residual >= 0.1
    _verdict(
        capsys, 5, "free_independence", ok,
        f"residual {rep.residual:.2e} <= 1e-9; twin control residual {twin.residual:.2f} >= 0.1",
    )


def test_06_oracle_equivalence(capsys, scalar_pair):
    marginals = {}
    for i in range(1, 3):
        fm_gens, fm_state = scalar_pair.factor_model(i)
        marginals[i] = matrix_marginal(fm_gens, fm_state)
    gens = scalar_pair.unitaries
    words = [w for w in signed_alternating_words(2, 4, 3, 6) if len(w.blocks()) <= 4]
    oracle, _ = free_mixed_moments(marginals, words)
    got = word_moments(scalar_pair.vacuum, gens, words)
    worst = max(0.0, *np.abs(got - oracle))
    _verdict(
        capsys, 6, "oracle_equivalence", worst <= 1e-8,
        f"{len(words)} in-budget words, max |fock - oracle| {worst:.2e} <= 1e-8",
    )


def test_07_traciality(capsys, scalar_pair):
    rep = trace_check(
        scalar_pair.vacuum, scalar_pair.unitaries,
        degree=3, tol=1e-9,
    )
    _verdict(
        capsys, 7, "traciality", rep.passed and rep.residual <= 1e-9,
        f"every word pair at degree 3, residual {rep.residual:.2e} <= 1e-9",
    )


def test_08_faithfulness_shadow(capsys):
    res = finite_unitary_dilation(np.array([[0.5]]), 3)
    xi = State.basis_vector(res.ambient_dim, 0)
    gens = res.gens
    positives = [faithfulness_check(xi, gens, d).passed for d in (1, 2, 3)]
    counter = faithfulness_check(
        State.basis_vector(2, 0), GenSet({1: np.diag([0.5, 0.25]).astype(complex)}), 1
    )
    gap = counter.details["span_dim"] - counter.details["gram_rank"]
    ok = all(positives) and not counter.passed and gap == 1
    _verdict(
        capsys, 8, "faithfulness_shadow", ok,
        f"dilated scalar faithful at degrees 1..3; counterexample rank gap {gap} == 1",
    )


def test_09_free_haar_emergence(capsys, zero_pair):
    gens = zero_pair.unitaries
    vac = zero_pair.vacuum
    worst = 0.0
    for i in (1, 2):
        got = word_moments(vac, gens, [Word.from_runs([(i, k)]) for k in range(-3, 4)])
        worst = max(worst, *np.abs(got - (np.arange(-3, 4) == 0)))
    cross = 0.0
    marginals = {1: haar_unitary_marginal(), 2: haar_unitary_marginal()}
    for k in (1, 2):
        w = Word.from_runs([(1, 1), (2, 1)] * k)
        got = word_moments(vac, gens, [w])[0]
        worst = max(worst, abs(got))
        cross = max(cross, abs(got - free_mixed_moment_oracle(marginals, w)))
    ok = worst <= 1e-10 and cross <= 1e-10
    _verdict(
        capsys, 9, "free_haar_emergence", ok,
        f"moment residual {worst:.2e} <= 1e-10, oracle gap {cross:.2e}",
    )


def test_10_partition_combinatorics(capsys):
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    counts_ok = True
    for k in range(1, 9):
        parts = noncrossing_partitions(k)
        brute = [p for p in all_set_partitions(k) if is_noncrossing(p)]
        canon = lambda ps: sorted(tuple(sorted(b)) for b in ps)
        counts_ok = counts_ok and len(parts) == catalan[k] and canon(parts) == canon(brute)
    rng = np.random.default_rng(3)
    # moment sequences here come from words of contractions, so |m_k| <= 1
    moments = list(
        rng.uniform(-1, 1, 8) * np.exp(2j * np.pi * rng.uniform(size=8))
    )
    back = moments_from_cumulants(free_cumulants(moments))
    round_trip = max(abs(a - b) for a, b in zip(moments, back))
    ok = counts_ok and round_trip <= 1e-10
    _verdict(
        capsys, 10, "partition_combinatorics", ok,
        f"counts match brute force for k <= 8, round trip {round_trip:.2e} <= 1e-10",
    )


def test_11_determinism(capsys):
    sc = Scenario(
        mode="free",
        factors=[
            (np.array([[0.5]]), State.basis_vector(1, 0)),
            (np.array([[0.3 + 0.2j]]), State.basis_vector(1, 0)),
        ],
        degree=2,
        trunc=3,
        samples=5,
        seed=42,
    )
    a = report_fingerprint(run_theorem_suite(sc))
    b = report_fingerprint(run_theorem_suite(sc))
    _verdict(
        capsys, 11, "determinism", a == b,
        "two suite runs, timing-stripped reports byte-identical",
    )
