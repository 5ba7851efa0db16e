"""Density states in every mode.

A state is its columns and weights: a density is decomposed once on its own
space, a dilation carries the columns, and a tensor product takes their
Kronecker products.  No model builds a matrix of its whole space for the
state, and every moment agrees with the dense references, which decompose
the state's density on the whole space themselves.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedilation.harness import Scenario, build_model, run_theorem_suite
from freedilation._gram import free_independence_check, tensor_independence_check
from freedilation.ncprob import Word, word_moments
from freedilation.operator_core import State, adjoint, random_contraction, random_unitary
from certificate_oracles import dense_word_moments, words_up_to
from free_independence_oracle import nested_free_independence_check, nested_tensor_factorization

MODES = ("single", "doubly", "tensor", "free")


def _commuting(rng, n, d):
    """``n`` normal contractions diagonal in one random basis: doubly commuting."""
    basis = random_unitary(rng, d)
    eigs = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, (n, d))) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (n, d)))
    return [(basis * eig) @ adjoint(basis) for eig in eigs]


def _mats(mode, rng, dims):
    if mode == "doubly":
        return _commuting(rng, len(dims), dims[0])
    return [random_contraction(rng, d, 0.9) for d in dims]


def _scenario(mode, mats, states, degree, seed=0):
    budgets = dict(trunc=2, check_degree=2, max_alt=2, samples=5, seed=seed)
    return Scenario(mode=mode, factors=list(zip(mats, states)), degree=degree, **budgets)


@pytest.mark.parametrize("mode", ["doubly", "tensor"])
def test_density_model_holds_no_matrix_of_the_whole_space(mode):
    # four commuting 4x4 factors at N=3 (dim 1,024) and three 3x3 tensor
    # factors at N=3 (dim 1,728), under full-rank densities: the model's
    # state is 4 and 27 columns, and the construction's peak stays below
    # one dim x dim complex matrix
    rng = np.random.default_rng(1)
    dims = [4] * 4 if mode == "doubly" else [3] * 3
    mats = _mats(mode, rng, dims)
    states = []
    for d in dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        states.append(State.from_density(g @ adjoint(g) / np.trace(g @ adjoint(g)).real))
    if mode == "doubly":
        states = [states[0]] * len(dims)
    sc = _scenario(mode, mats, states, 3)
    tracemalloc.start()
    try:
        model = build_model(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = model.gens.dim
    assert dim == (1024 if mode == "doubly" else 1728)
    assert peak < 16 * dim * dim, peak
    assert model.state.columns.shape == (dim, 4 if mode == "doubly" else 27)


@st.composite
def _density_scenarios(draw):
    """A small scenario in one of the four modes under densities of rank
    1..d: in a permuted standard basis, whose zero eigenvalues are exact,
    or in a random one."""
    mode = draw(st.sampled_from(MODES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = 2 if mode == "free" else 3
    if mode == "single":
        dims = [draw(st.integers(1, top))]
    elif mode == "doubly":
        dims = [draw(st.integers(1, top))] * 2
    else:
        dims = [draw(st.integers(1, top)) for _ in range(2)]
    states = []
    for d in dims:
        rank = draw(st.integers(1, d))
        p = np.zeros(d)
        p[:rank] = rng.uniform(0.1, 1.0, rank)
        u = random_unitary(rng, d) if draw(st.booleans()) else np.eye(d)[rng.permutation(d)]
        states.append(State.from_density((u * (p / p.sum())) @ adjoint(u)))
    if mode == "doubly":
        states = [states[0]] * 2
    degree = 1 if mode == "free" else draw(st.integers(1, 2))
    return mode, _mats(mode, rng, dims), states, degree, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(_density_scenarios())
def test_density_moments_match_the_dense_references(case):
    mode, mats, states, degree, seed = case
    model = build_model(_scenario(mode, mats, states, degree, seed))
    gens, state = model.gens, model.state
    words = words_up_to(gens.ids, 2)
    np.testing.assert_allclose(
        word_moments(state, gens, words), dense_word_moments(state, gens, words), rtol=0, atol=1e-12
    )
    # within the degree the dilation's powers compress to the factor's:
    # phi(U_i^k) = trace(rho_i T_i^k) from the density as given
    for i, (t, rho) in enumerate(zip(mats, states), start=1):
        for k in range(1, degree + 1):
            want = np.trace(rho.density @ np.linalg.matrix_power(t, k))
            got = word_moments(state, gens, [Word(((i, False),) * k)])[0]
            assert abs(got - want) <= 1e-12, (i, k, got, want)
    if mode == "tensor":
        rep = tensor_independence_check(state, gens, degree=2)
        worst, _ = nested_tensor_factorization(state, gens, degree=2, samples=5, seed=seed)
        assert rep.passed and abs(rep.residual - worst) <= 1e-12
    if mode == "free":
        got = free_independence_check(state, gens, max_len=2, degree=1, tol=1e-9)
        want = nested_free_independence_check(state, gens, max_len=2, degree=1, samples=3, tol=1e-9, seed=seed)
        assert got.passed and abs(got.residual - want.residual) <= 1e-12


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(MODES), st.integers(0, 2**32 - 1))
def test_rank_one_density_gives_the_vector_states_residuals(mode, seed):
    rng = np.random.default_rng(seed)
    dims = [1] if mode == "single" else [2, 2] if mode == "doubly" else [2, 1 + seed % 2]
    mats = _mats(mode, rng, dims)
    draws = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
    vectors = [State.from_vector(v / np.linalg.norm(v)) for v in draws]
    if mode == "doubly":
        vectors = [vectors[0]] * 2
    densities = [State.from_density(np.outer(s.vector, np.conj(s.vector))) for s in vectors]
    assert all(s.columns.shape[1] == 1 for s in densities)
    reports = [
        run_theorem_suite(_scenario(mode, mats, states, 2, seed)) for states in (vectors, densities)
    ]
    assert reports[0]["overall_pass"] and reports[1]["overall_pass"]
    pairs = list(zip(reports[0]["checks"], reports[1]["checks"]))
    assert [a["name"] for a, _ in pairs] == [b["name"] for _, b in pairs]
    for a, b in pairs:
        assert abs(a["residual"] - b["residual"]) <= 1e-13, (a["name"], a["residual"], b["residual"])
