from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedilation.dilation import (
    BudgetError,
    DilationResult,
    NotDoublyCommutingError,
    dilation_residuals,
    doubly_commuting_dilation,
    finite_unitary_dilation,
    unitarity_residual,
    verify_power_dilation,
)
import freedilation.ncprob as ncprob
from freedilation.free_product import free_unitary_dilation
from freedilation.harness import Scenario, build_model
from freedilation.ncprob import (
    GenSet,
    Word,
    _alternating_words,
    _ordered_words,
    _word,
    evaluate_word,
    worst_commutator,
)
from freedilation.operator_core import (
    ContractionError,
    State,
    adjoint,
    defect_pair,
    operator_norm,
    random_contraction,
    random_unitary,
)

from certificate_oracles import dense_dilation_residuals
from fock_oracle import fock_labels
from kron_oracle import kron_doubly_dilation
from word_list_oracles import ordered_words

SQ75 = 0.8660254037844386  # sqrt(1 - 0.25)
EPS = np.finfo(float).eps


def test_degree_one_block_structure():
    res = finite_unitary_dilation(np.array([[0.5]]), 1)
    expected = np.array([[0.5, SQ75], [SQ75, -0.5]])
    np.testing.assert_allclose(res.gens[1], expected, atol=1e-12)


def test_block_layout_degree_three():
    rng = np.random.default_rng(1)
    t = random_contraction(rng, 2)
    res = finite_unitary_dilation(t, 3)
    u = res.gens[1]
    assert u.shape == (8, 8)
    d = 2
    np.testing.assert_allclose(u[:d, :d], t)
    np.testing.assert_allclose(u[d : 2 * d, 3 * d :], -adjoint(t))
    # interior shift blocks are identities, everything else in those columns zero
    np.testing.assert_allclose(u[2 * d : 3 * d, d : 2 * d], np.eye(d))
    np.testing.assert_allclose(u[3 * d :, 2 * d : 3 * d], np.eye(d))
    assert np.all(u[:d, d : 3 * d] == 0.0)


def test_unitarity_and_power_exactness_random():
    rng = np.random.default_rng(2026)
    for trial in range(40):
        dim = int(rng.integers(1, 5))
        degree = int(rng.integers(1, 5))
        t = random_contraction(rng, dim)
        res = finite_unitary_dilation(t, degree)
        assert unitarity_residual(res.gens, 1) < 1e-12
        u = res.gens[1]
        for k in range(degree + 1):
            c = np.linalg.matrix_power(u, k)[:dim, :dim]
            assert operator_norm(c - np.linalg.matrix_power(t, k)) < 1e-12
            ca = np.linalg.matrix_power(adjoint(u), k)[:dim, :dim]
            assert operator_norm(ca - np.linalg.matrix_power(adjoint(t), k)) < 1e-12


def test_power_beyond_degree_wraps():
    # t = 0.5, N = 3: U^4 compressed picks up the defect cycle,
    # 0.5^4 + (1 - 0.25) = 0.8125 instead of 0.0625
    res = finite_unitary_dilation(np.array([[0.5]]), 3)
    c = np.linalg.matrix_power(res.gens[1], 4)
    assert c[0, 0].real == pytest.approx(0.8125, abs=1e-12)


def test_rejects_expansive_input():
    with pytest.raises(ContractionError):
        finite_unitary_dilation(np.array([[1.2]]), 2)


def test_rejects_bad_degree():
    with pytest.raises(ValueError):
        finite_unitary_dilation(np.array([[0.5]]), 0)


def _commuting_normal_pair(rng, dim):
    q = random_unitary(rng, dim)
    a = q @ np.diag(rng.uniform(0.1, 0.9, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))) @ adjoint(q)
    b = q @ np.diag(rng.uniform(0.1, 0.9, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))) @ adjoint(q)
    return a, b


def test_doubly_commuting_dilation_pair():
    rng = np.random.default_rng(5)
    a, b = _commuting_normal_pair(rng, 3)
    res = doubly_commuting_dilation([a, b], 2)
    assert res.ambient_dim == 27
    assert max(unitarity_residual(res.gens, f) for f in (1, 2)) < 1e-12
    assert worst_commutator(res.gens)[0] < 1e-12
    for ka in range(-2, 3):
        for kb in range(-2, 3):
            r = verify_power_dilation(res, Word.from_runs([(1, ka), (2, kb)]))
            assert r < 1e-10, (ka, kb, r)


def test_state_from_a_strided_isometry_column():
    # a column of a dilation's unitary is a strided view
    res = finite_unitary_dilation(np.array([[0.5, 0.2], [0.0, 0.3]]), 2)
    xi = res.gens[1][:, 0]
    assert not xi.flags.c_contiguous
    state = State.from_vector(xi)
    assert state.vector.flags.c_contiguous
    np.testing.assert_array_equal(state.vector, xi)


def test_doubly_commuting_rejects_noncommuting():
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(NotDoublyCommutingError):
        doubly_commuting_dilation([a, b], 2)


def test_doubly_commuting_rejects_star_violation():
    # a normal-free pair that commutes but fails the starred relation
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    with pytest.raises(NotDoublyCommutingError) as exc:
        doubly_commuting_dilation([a, a], 2)
    assert exc.value.pair == (1, 2)


def test_verify_rejects_out_of_budget_words():
    t = np.array([[0.5]])
    res = finite_unitary_dilation(t, 2)
    with pytest.raises(BudgetError):
        verify_power_dilation(res, Word.from_runs([(1, 3)]))
    # a huge power never reaches the verifier: the word itself is refused,
    # before a single letter is built
    with pytest.raises(ValueError, match="word letter cap"):
        Word.from_runs([(1, 10**12)])
    a = np.diag([0.5, 0.3])
    b = np.diag([0.2, 0.7])
    res2 = doubly_commuting_dilation([a, b], 2)
    with pytest.raises(BudgetError):
        verify_power_dilation(res2, Word.from_runs([(2, 1), (1, 1)]))
    with pytest.raises(BudgetError):
        verify_power_dilation(res2, Word.from_runs([(1, 1), (3, 1)]))



# ---------------------------------------------------------------------------
# the panel-based identity against a dense reference


def _dense_power(a, k):
    """``a^k`` for ``k >= 0``, ``(a*)^{-k}`` for ``k < 0``, as a dense matrix."""
    a = np.asarray(a, dtype=complex)
    return np.linalg.matrix_power(a if k >= 0 else adjoint(a), abs(k))


def _dense_residual(res, runs):
    d = res.contractions.dim
    big = np.eye(res.ambient_dim, dtype=complex)
    small = np.eye(d, dtype=complex)
    for f, k in runs:
        big = big @ _dense_power(evaluate_word(Word(((f, False),)), res.gens), k)
        small = small @ _dense_power(res.contractions[f], k)
    return operator_norm(big[:d, :d] - small)


def _assert_matches_dense(res, words):
    for w in words:
        got = verify_power_dilation(res, w)
        want = _dense_residual(res, w.runs())
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13), (w.format(), got, want)


def test_power_identity_matches_dense_reference_single():
    rng = np.random.default_rng(31)
    t = random_contraction(rng, 3)
    res = finite_unitary_dilation(t, 3)
    words = [Word.from_runs([(1, k)]) for k in range(-3, 4)]
    _assert_matches_dense(res, words)
    # a unitary that is no dilation of t gives O(1) residuals, which must agree too
    wrong = DilationResult(
        gens=GenSet({1: random_unitary(rng, res.ambient_dim)}),
        contractions=res.contractions,
        degree=3,
    )
    _assert_matches_dense(wrong, words)
    assert max(verify_power_dilation(wrong, w) for w in words) > 0.1


def test_power_identity_matches_dense_reference_doubly():
    rng = np.random.default_rng(32)
    a, b = _commuting_normal_pair(rng, 2)
    res = doubly_commuting_dilation([a, b], 2)
    words = [
        Word.from_runs([(1, ka), (2, kb)])
        for ka in range(-2, 3)
        for kb in range(-2, 3)
        if ka and kb
    ]
    _assert_matches_dense(res, words)
    swapped = DilationResult(
        gens=GenSet({1: res.gens[2], 2: res.gens[1]}),
        contractions=res.contractions,
        degree=2,
    )
    _assert_matches_dense(swapped, words)
    assert max(verify_power_dilation(swapped, w) for w in words) > 0.1


def _free_model():
    rho = State.from_density(np.array([[0.7, 0.1], [0.1, 0.3]]))
    t = np.array([[0.3, 0.4], [0.1, -0.2]])
    s = np.array([[0.5, 0.0], [0.2j, -0.4]])
    return free_unitary_dilation([(t, rho), (s, State.basis_vector(2, 1))], 2, 3)


def _coordinate_record(name):
    """``(gens, contractions, coords, table)`` of a single, a 3-factor doubly,
    a tensor factor's or a free dilation record, with its suite's words."""
    rng = np.random.default_rng(36)
    if name == "free":
        fds = _free_model()
        trunc, degree = fds.fock_k.max_len, fds.dilations[0].degree
        table = _alternating_words(fds.unitaries.ids, (1,), trunc, degree, degree)
        return fds.unitaries, fds.s_ops, fds.coords, table
    if name == "single":
        res = finite_unitary_dilation(random_contraction(rng, 3), 3)
    elif name == "doubly":
        q = random_unitary(rng, 2)
        eigs = 0.9 * rng.uniform(size=(3, 2)) * np.exp(2j * np.pi * rng.uniform(size=(3, 2)))
        res = doubly_commuting_dilation([(q * e) @ adjoint(q) for e in eigs], 2)
    else:
        parts = [(random_contraction(rng, d), State.basis_vector(d, 0)) for d in (2, 1)]
        res = build_model(Scenario(mode="tensor", factors=parts, degree=2)).dilations[0]
    table = _ordered_words(len(res.gens.ids), res.degree)
    return res.gens, res.contractions, np.arange(res.contractions.dim), table


@pytest.mark.parametrize("name", ["single", "doubly", "tensor", "free"])
def test_coordinate_identity_matches_dense_isometry(name):
    gens, contractions, coords, table = _coordinate_record(name)
    want = dense_dilation_residuals(gens, contractions, coords, [_word(row) for row in table])
    got, _ = dilation_residuals(gens, contractions, coords, table)
    np.testing.assert_array_equal(got, want)
    # three differences a stack: the stacked norms are the per-word ones
    d = len(coords)
    with mock.patch.object(ncprob, "SAMPLE_PANEL_BYTES", 3 * 16 * d * d):
        many, _ = dilation_residuals(gens, contractions, coords, table)
    assert len(table) > 3
    np.testing.assert_array_equal(many, want)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_single_dilation_degree_is_the_edge(d, n):
    # the degree budget N is where the identity stops holding: within it
    # J* U^k J = T^k to rounding, and one power past it
    # J* U^{N+1} J = T^{N+1} + D_{T*} D_T, so U^{+-(N+1)} miss by
    # ||D_{T*} D_T||, which is at least 1 - ||T||^2 since both defects are
    # at least sqrt(1 - ||T||^2) I (equal for d = 1, up to rounding)
    t = random_contraction(np.random.default_rng([d, n]), d, 0.9)
    res = finite_unitary_dilation(t, n)
    table = _ordered_words(1, n + 1)
    got, _ = dilation_residuals(res.gens, res.contractions, np.arange(d), table)
    powers = np.count_nonzero(table, axis=1) * np.where(table[:, 0] == 3, -1, 1)
    assert sorted(powers) == list(range(-n - 1, n + 2))
    bound = (n + 1) * d * np.finfo(float).eps
    assert got[np.abs(powers) <= n].max() <= bound
    d_t, d_ts = defect_pair(t)
    gap = operator_norm(d_ts @ d_t)
    assert gap >= 1 - operator_norm(t) ** 2 - bound > 0.1
    np.testing.assert_allclose(got[np.abs(powers) == n + 1], gap, rtol=0, atol=bound)


def test_free_coordinates_are_the_small_labels_in_order():
    fds = _free_model()
    coords = fds.coords
    assert coords.dtype == np.intp and coords.shape == (fds.fock_h.dim,) and fds.fock_h.dim > 1
    assert np.all(np.diff(coords) > 0)
    big, small = fock_labels(fds.fock_k), fock_labels(fds.fock_h)
    assert [big[c] for c in coords] == small


# ---------------------------------------------------------------------------
# the dilation record


def test_doubly_record_keeps_its_inputs():
    rng = np.random.default_rng(33)
    a, b = _commuting_normal_pair(rng, 2)
    res = doubly_commuting_dilation([a, b], 2)
    assert res.contractions.ids == (1, 2)
    np.testing.assert_array_equal(res.contractions[1], a)
    np.testing.assert_array_equal(res.contractions[2], b)
    words = ordered_words(2, 2)
    assert all(type(verify_power_dilation(res, w)) is float for w in words)
    assert max(verify_power_dilation(res, w) for w in words) < 1e-12
    # the same unitaries do not dilate the inputs in the other order
    swapped = replace(res, contractions=GenSet({1: b, 2: a}))
    assert max(verify_power_dilation(swapped, w) for w in words) > 0.1


def test_dimension_cap_refused_before_allocation():
    # (N+1) d and (N+1)^n d are far beyond any memory: refused, never allocated
    with pytest.raises(ValueError, match="dilation dimension 10000001 exceeds cap 5000"):
        finite_unitary_dilation(np.array([[0.5]]), 10**7)
    with pytest.raises(ValueError, match="exceeds cap 5000"):
        doubly_commuting_dilation([np.diag([0.5, 0.3]), np.diag([0.2, 0.7])], 10**7)


# ---------------------------------------------------------------------------
# unitarity on column panels


def _dense_unitarity(u):
    return operator_norm(adjoint(u) @ u - np.eye(u.shape[0]))


def test_unitarity_residual_matches_dense_reference():
    rng = np.random.default_rng(34)
    a, b = _commuting_normal_pair(rng, 2)
    single = finite_unitary_dilation(random_contraction(rng, 3), 3)
    for res, dense in (
        (single, [single.gens[1]]),
        (doubly_commuting_dilation([a, b], 2), kron_doubly_dilation([a, b], 2)),
    ):
        for f in res.gens.ids:
            got = unitarity_residual(res.gens, f)
            assert got <= 1e-14
            assert got == pytest.approx(_dense_unitarity(dense[f - 1]), abs=1e-15)
    # far from unitary, so the comparison is not lost in rounding
    t = random_contraction(rng, 5, 0.5)
    assert unitarity_residual(GenSet({1: t}), 1) == pytest.approx(_dense_unitarity(t), rel=1e-12)


# ---------------------------------------------------------------------------
# property tests of the whole single and doubly dilations: both are exact in
# exact arithmetic, so unitarity holds to a few ulps times the ambient
# dimension (the worst of 4,500 draws of these strategies read 7.2 dim eps,
# from the SVD of the defects) and the power identities to one ulp times it
# (worst 0.17 dim eps); the absolute bounds stay beside them


@st.composite
def _contractions(draw):
    """A non-normal contraction ``V diag(s) W*`` of dimension 1..4 whose
    singular values are exactly 0 or 1 or generic, so possibly rank
    deficient, a nilpotent shift, or a diagonal of 0s and 1s; ``N`` 1..4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, degree = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["svd", "shift", "diagonal"]))
    if shape == "shift":
        t = np.eye(d, k=-1, dtype=complex)
    elif shape == "diagonal":
        t = np.diag([draw(st.sampled_from([0.0, 1.0, -1.0, 1j])) for _ in range(d)])
    else:
        sv = [draw(st.sampled_from([0.0, 1.0, None])) for _ in range(d)]
        sv = [rng.uniform(0.0, 1.0) if x is None else x for x in sv]
        t = (random_unitary(rng, d) * sv) @ random_unitary(rng, d)
    return t, degree


@settings(max_examples=60, deadline=None)
@given(_contractions())
def test_single_dilation_is_exact_on_edge_inputs(case):
    t, degree = case
    res = finite_unitary_dilation(t, degree)
    dim = res.ambient_dim
    assert unitarity_residual(res.gens, 1) <= min(1e-13, 16 * dim * EPS)
    table = _ordered_words(1, degree)
    residuals, _ = dilation_residuals(res.gens, res.contractions, np.arange(res.contractions.dim), table)
    assert len(residuals) == 2 * degree + 1 and np.max(residuals) <= min(1e-13, dim * EPS)


@st.composite
def _doubly_edge_tuples(draw):
    """Commuting normal contractions ``Q diag(r e^{i theta}) Q*`` with moduli
    exactly 0 or 1 among generic ones, or diagonals of 0s and 1s; ``n`` 1..3
    factors of dimension 1..3, ``N`` 1..3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n, degree = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        ts = [np.diag([draw(st.sampled_from([0.0, 1.0])) for _ in range(d)]) for _ in range(n)]
        return ts, degree
    q = random_unitary(rng, d)
    ts = []
    for _ in range(n):
        radii = [draw(st.sampled_from([0.0, 1.0, None])) for _ in range(d)]
        radii = np.array([rng.uniform(0.0, 1.0) if r is None else r for r in radii])
        ts.append((q * (radii * np.exp(2j * np.pi * rng.uniform(size=d)))) @ adjoint(q))
    return ts, degree


@settings(max_examples=60, deadline=None)
@given(_doubly_edge_tuples())
def test_doubly_dilation_is_exact_on_edge_inputs(case):
    ts, degree = case
    res = doubly_commuting_dilation(ts, degree)
    dim = res.ambient_dim
    assert max(unitarity_residual(res.gens, f) for f in res.gens.ids) <= min(1e-13, 16 * dim * EPS)
    table = _ordered_words(len(ts), degree)
    residuals, _ = dilation_residuals(res.gens, res.contractions, np.arange(res.contractions.dim), table)
    assert len(residuals) == (2 * degree + 1) ** len(ts) and np.max(residuals) <= min(1e-12, dim * EPS)
