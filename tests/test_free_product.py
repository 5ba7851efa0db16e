import itertools
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedilation.dilation import dilation_residuals, unitarity_residual
from freedilation.free_product import (
    FockDimensionError,
    PointedSpace,
    build_fock,
    free_unitary_dilation,
    left_representation,
    restricted_unitarity_residual,
)
from freedilation._gram import free_independence_check
from freedilation.ncprob import (
    GenSet,
    Word,
    _alternating_words,
    _codes,
    parse_word,
    word_moments,
)
from freedilation.harness import Scenario, run_theorem_suite
from freedilation.operator_core import State, adjoint, operator_norm, random_contraction, random_state

from fock_oracle import dense, dense_left_representation, fock_dimension, fock_labels, fock_order
from word_list_oracles import alternating_words_within


def _scalar_pair(n_degree=3, trunc=4):
    t1 = np.array([[0.5]])
    t2 = np.array([[0.3 + 0.2j]])
    s = State.basis_vector(1, 0)
    return free_unitary_dilation([(t1, s), (t2, s)], n_degree, trunc)


def _identity_residuals(fds, words):
    """``||J* w(U) J - w(S)||`` for each word, as the suite's dilation identity reads it."""
    return dilation_residuals(fds.unitaries, fds.s_ops, fds.coords, _codes(words))[0]


# ---------------------------------------------------------------------------
# pointed spaces and Fock basis


def test_pointed_space_from_vector():
    ps = PointedSpace.from_state_vector(np.array([0.6, 0.8]))
    assert ps.dim == 2 and ps.complement_dim == 1
    assert abs(np.vdot(ps.base_vector, ps.complement_basis[:, 0])) < 1e-12


def test_pointed_space_rejects_skewed_frame():
    with pytest.raises(ValueError):
        PointedSpace(np.array([1.0, 0.0]), np.array([[1.0], [0.0]]))


def test_fock_dimension_closed_forms():
    # one factor: alternation forbids length > 1, so depth never helps
    assert fock_dimension({1: 1}, 3) == 2
    assert fock_dimension({1: 3}, 5) == 4
    assert fock_dimension({1: 1, 2: 1}, 2) == 5
    assert fock_dimension({1: 0, 2: 0, 3: 0}, 6) == 1
    # two factors with complements (7, 7): alternating words double each level
    assert fock_dimension({1: 7, 2: 7}, 4) == 1 + 14 + 98 + 686 + 4802


def test_build_fock_canonical_order():
    p2 = PointedSpace.from_state_vector(np.array([1.0, 0.0]))
    fb = build_fock({1: p2, 2: p2}, 2)
    assert fock_labels(fb) == [
        (),
        ((1, 0),),
        ((2, 0),),
        ((1, 0), (2, 0)),
        ((2, 0), (1, 0)),
    ]
    assert fb.dim == 5
    assert fb.lengths.tolist() == [0, 1, 1, 2, 2]
    assert fb.firsts.tolist() == [0, 1, 2, 1, 2]
    # ((2, 0), (1, 0)) is (2, 0) prepended to ((1, 0),)
    assert [(t.tolist(), g.tolist()) for t, g in fb.prepend[2]] == [([0], [[2]]), ([1], [[4]])]
    assert [(t.tolist(), g.tolist()) for t, g in fb.prepend[1]] == [([0], [[1]]), ([2], [[3]])]
    assert fb.short_indices().tolist() == [0, 1, 2]


def test_build_fock_dim_cap():
    p = PointedSpace.from_state_vector(np.eye(8)[:, 0])
    with pytest.raises(FockDimensionError):
        build_fock({1: p, 2: p}, 4)  # 5,601 > 5,000


def test_build_fock_one_factor_huge_truncation():
    # one factor has no word longer than one letter: both loops stop there
    p = PointedSpace.from_state_vector(np.eye(3)[:, 0])
    assert fock_dimension({1: 2}, 200_000) == 3
    fb = build_fock({1: p}, 200_000)
    assert fock_labels(fb) == [(), ((1, 0),), ((1, 1),)]
    assert fb.lengths.tolist() == [0, 1, 1] and fb.firsts.tolist() == [0, 1, 1]
    # the map ends at the last length with a word; every word of one letter
    # starts with the one factor, so none is a tail it prepends to
    assert [(t.tolist(), g.tolist()) for t, g in fb.prepend[1]] == [([0], [[1], [2]]), ([], [[], []])]


def test_left_representation_identity_is_identity():
    p = PointedSpace.from_state_vector(np.array([0.6, 0.8]))
    fb = build_fock({1: p, 2: p}, 3)
    m = dense(left_representation(1, np.eye(2), fb))
    np.testing.assert_allclose(m, np.eye(fb.dim), atol=1e-12)


def test_left_representation_state_compatibility():
    # <lambda(a) vacuum, vacuum> must equal <a xi, xi> for any factor operator
    rng = np.random.default_rng(17)
    p = PointedSpace.from_state_vector(np.array([0.6, 0.8]))
    fb = build_fock({1: p, 2: p}, 3)
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = dense(left_representation(1, a, fb))
        assert m[0, 0] == pytest.approx(np.vdot(p.base_vector, a @ p.base_vector), abs=1e-12)


def test_left_representation_respects_adjoints():
    rng = np.random.default_rng(23)
    p = PointedSpace.from_state_vector(np.array([0.8, 0.6]))
    fb = build_fock({1: p, 2: p}, 3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(
        adjoint(dense(left_representation(1, a, fb))),
        dense(left_representation(1, adjoint(a), fb)),
        atol=1e-12,
    )
    # a starred letter applies the same adjoint
    np.testing.assert_allclose(
        dense(left_representation(1, a, fb), star=True),
        dense_left_representation(1, adjoint(a), fb),
        atol=1e-12,
    )


@st.composite
def _fock_operands(draw):
    """Factors of different dimensions (a 1-dim factor has no complement),
    a non-normal operator of any rank on one of them, a truncation length
    1..4, and a vector or panel on the truncated free product."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    factors = {}
    for i, d in enumerate(dims, start=1):
        xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        factors[i] = PointedSpace.from_state_vector(xi / np.linalg.norm(xi))
    fb = build_fock(factors, draw(st.integers(1, 4)))
    factor = draw(st.integers(1, len(dims)))
    d = dims[factor - 1]
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rank = draw(st.integers(0, d))
    u, sv, vh = np.linalg.svd(a)
    sv[rank:] = 0.0
    a = (u * sv) @ vh
    cols = draw(st.sampled_from([None, 1, 3]))
    shape = (fb.dim,) if cols is None else (fb.dim, cols)
    panel = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return factor, a, fb, panel, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_fock_operands())
def test_left_representation_matches_dense_oracle(case):
    factor, a, fb, panel, star = case
    action = left_representation(factor, a, fb)
    m = dense_left_representation(factor, a, fb)
    want = (adjoint(m) if star else m) @ panel
    got = action.apply(panel, star)
    assert got.shape == panel.shape and action.shape == m.shape
    scale = operator_norm(a) * np.linalg.norm(panel)
    assert float(np.max(np.abs(got - want))) <= 1e-14 * scale


@settings(max_examples=100, deadline=None)
@given(_fock_operands())
def test_fock_map_matches_the_reference_labels(case):
    # the basis map is the sorted label tuples': each word's length and
    # first factor, each factor's tails per length and the positions of the
    # words it prepends to them, and so the groups of its left action
    factor, a, fb, _, _ = case
    labels = fock_labels(fb)
    assert fb.lengths.tolist() == [len(lab) for lab in labels]
    assert fb.firsts.tolist() == [lab[0][0] if lab else 0 for lab in labels]
    for i, steps in fb.prepend.items():
        assert len(steps) == min(fb.max_len, fb.lengths.max() + 1)
        for n, (tails, grid) in enumerate(steps):
            assert tails.tolist() == [p for p, lab in enumerate(labels) if len(lab) == n and fb.firsts[p] != i]
            assert grid.shape == (fb.factors[i].complement_dim, tails.size)
            for (m, j), p in np.ndenumerate(grid):
                assert labels[p] == ((i, m),) + labels[tails[j]]
    action = left_representation(factor, a, fb)
    order, grouped = fock_order(factor, fb)
    assert action.order.tolist() == order and action.grouped == grouped


def test_left_representation_dimension_mismatch():
    p = PointedSpace.from_state_vector(np.array([1.0, 0.0]))
    fb = build_fock({1: p}, 2)
    with pytest.raises(ValueError):
        left_representation(1, np.eye(3), fb)
    action = left_representation(1, np.eye(2), fb)
    with pytest.raises(ValueError, match="Fock dim 2"):
        action.apply(np.ones(3, dtype=complex), False)


# ---------------------------------------------------------------------------
# the joint free dilation


def test_scalar_pair_dimensions():
    fds = _scalar_pair()
    assert fds.dim == 241
    assert fds.fock_h.dim == 1
    assert fds.coords.dtype == np.intp and fds.coords.shape == (1,)


def test_single_factor_moments_match_input_state():
    fds = _scalar_pair()
    gens = fds.unitaries
    vac = fds.vacuum
    for k in range(4):
        assert word_moments(vac, gens, [Word.from_runs([(1, k)])])[0] == pytest.approx(
            0.5**k, abs=1e-12
        )
        assert word_moments(vac, gens, [Word.from_runs([(2, k)])])[0] == pytest.approx(
            (0.3 + 0.2j) ** k, abs=1e-12
        )
    # adjoint powers too
    assert word_moments(vac, gens, [Word.from_runs([(2, -2)])])[0] == pytest.approx(
        np.conj((0.3 + 0.2j) ** 2), abs=1e-12
    )


def test_vacuum_embedded():
    fds = _scalar_pair()
    # J maps the small vacuum, the empty word at coordinate 0, to the big one
    assert fds.coords[0] == 0
    # vacuum lies in the embedded subspace: <J J* vac, vac> = 1
    vac = fds.vacuum.vector[fds.coords]
    assert np.vdot(vac, vac) == pytest.approx(1.0)


def test_restricted_unitarity():
    fds = _scalar_pair()
    for i in (1, 2):
        assert restricted_unitarity_residual(fds, i) < 1e-12


def _dense_restricted_unitarity(u, cols):
    """The dense reference: both products formed, then cut to ``cols``."""
    eye = np.eye(u.shape[0])
    return max(
        operator_norm((adjoint(u) @ u - eye)[:, cols]),
        operator_norm((u @ adjoint(u) - eye)[:, cols]),
    )


def test_restricted_unitarity_matches_dense_reference():
    fds = _scalar_pair()
    cols = fds.fock_k.short_indices()
    for i in (1, 2):
        u = dense(fds.unitaries[i])
        got = restricted_unitarity_residual(fds, i)
        assert got == pytest.approx(_dense_restricted_unitarity(u, cols), abs=1e-15)
        # a scaled copy is far from unitary, so rounding cannot hide a difference
        scaled = GenSet({i: 0.9 * u})
        assert unitarity_residual(scaled, i, cols) == pytest.approx(
            _dense_restricted_unitarity(0.9 * u, cols), rel=1e-12
        )


def test_truncation_breaks_unitarity_only_on_long_words():
    fds = _scalar_pair()
    short = fds.fock_k.short_indices()
    assert len(short) < fds.dim
    for i in (1, 2):
        assert unitarity_residual(fds.unitaries, i) > 0.5
        assert unitarity_residual(fds.unitaries, i, short) <= 1e-12


def test_restricted_unitarity_forms_no_dense_product():
    factors = [
        (np.array([[0.3, 0.4], [0.1, -0.2]]), State.from_vector(np.array([0.6, 0.8]))),
        (0.5 * np.array([[0.0, 1.0], [1.0, 0.5]]), State.basis_vector(2, 0)),
    ]
    fds = free_unitary_dilation(factors, 2, 3)
    assert fds.dim == 311 and len(fds.fock_k.short_indices()) == 61
    dense_bytes = fds.dim * fds.dim * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert restricted_unitarity_residual(fds, 1) <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes, (peak, dense_bytes)


def _mixed_factors(kind):
    """Factors of dimensions 3 and 1 under vector states, or 2 and 1 with
    the first under a density state of rank two."""
    rng = np.random.default_rng(41)
    t3 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    scalar = (np.array([[0.4j]]), State.basis_vector(1, 0))
    if kind == "vector":
        xi = State.from_vector(np.array([0.6, 0.0, 0.8]))
        return [(0.9 * t3 / operator_norm(t3), xi), scalar]
    rho = State.from_density(np.diag([0.7, 0.3]).astype(complex))
    return [(np.array([[0.3, 0.4], [0.1, -0.2]]), rho), scalar]


@pytest.mark.parametrize("trunc", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["vector", "density"])
def test_pattern_columns_give_the_full_short_panel_residual(kind, trunc):
    # exact reduction: one Fock group per column pattern has the norms of all
    # the short columns, for unitaries and for the far from unitary left
    # actions of the contractions and of a scaled dilation; so it has those
    # of any columns, full-length words among them
    rng = np.random.default_rng(trunc)
    fds = free_unitary_dilation(_mixed_factors(kind), 1, trunc)
    short_k, short_h = fds.fock_k.short_indices(), fds.fock_h.short_indices()
    scaled = GenSet(
        {
            i: left_representation(i, 0.9 * fds.dilations[i - 1].gens[1], fds.fock_k)
            for i in fds.unitaries.ids
        }
    )
    for i in fds.unitaries.ids:
        full = unitarity_residual(fds.unitaries, i, short_k)
        assert restricted_unitarity_residual(fds, i) == pytest.approx(full, abs=1e-15)
        for gens, short in ((fds.s_ops, short_h), (scaled, short_k)):
            cols = gens[i].pattern_columns(short)
            assert len(cols) <= gens[i].block.shape[0] + 1 and set(cols) <= set(short)
            want = unitarity_residual(gens, i, short)
            assert want > 0.1
            assert unitarity_residual(gens, i, cols) == pytest.approx(want, rel=1e-12)
            some = np.flatnonzero(rng.random(gens.dim) < 0.5)
            assert unitarity_residual(gens, i, gens[i].pattern_columns(some)) == pytest.approx(
                unitarity_residual(gens, i, some), rel=1e-12
            )


def test_pattern_columns_of_free_pair():
    # L = 4: of the 79 short words, the first group whose members are all
    # short (the vacuum's) and the first tail of 3 letters, whose members
    # are not
    fds = _scalar_pair()
    short = fds.fock_k.short_indices()
    assert len(short) == 79
    for i in (1, 2):
        cols = fds.unitaries[i].pattern_columns(short)
        assert set(cols) <= set(short)
        assert sorted(fds.fock_k.lengths[cols]) == [0, 1, 1, 1, 3]


def test_fock_action_refuses_a_broken_permutation():
    act = _scalar_pair().unitaries[1]
    repeated = act.order.copy()
    repeated[1] = repeated[0]
    with pytest.raises(ValueError, match="permutation"):
        replace(act, order=repeated, inverse=np.argsort(repeated))
    with pytest.raises(ValueError, match="permutation"):
        replace(act, inverse=np.roll(act.inverse, 1))
    with pytest.raises(ValueError, match="permutation"):
        replace(act, order=act.order[:-1])
    wrapped = np.where(act.order == act.order.size - 1, -1, act.order)  # the same as an index
    with pytest.raises(ValueError, match="permutation"):
        replace(act, order=wrapped)
    with pytest.raises(ValueError, match="groups of 4"):
        replace(act, grouped=act.grouped - 1)
    assert replace(act).grouped == act.grouped


def test_restricted_unitarity_at_trunc_six_stays_small():
    # free_pair at L = 6 (dim 2,185): the 727 short columns alone took 25 MB
    fds = _scalar_pair(trunc=6)
    assert fds.dim == 2185 and len(fds.fock_k.short_indices()) == 727
    restricted_unitarity_residual(fds, 1)
    tracemalloc.start()
    try:
        for i in (1, 2):
            assert restricted_unitarity_residual(fds, i) <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_dilation_identity_within_budget():
    fds = _scalar_pair()
    words = alternating_words_within(2, 4, 3)
    assert _identity_residuals(fds, words).max() <= 1e-10
    # every positive word of at most 3 letters: a run count within L = 4 comes free
    assert sorted(w.runs() for w in words) == sorted(
        Word(letters).runs()
        for n in range(1, 4)
        for letters in itertools.product([(1, False), (2, False)], repeat=n)
    )


@pytest.mark.parametrize("trunc", [1, 2, 3, 4])
def test_dilation_identity_alternation_edge(trunc):
    # the run count L is no edge: at degree L + 1, L + 1 alternating single
    # letters hold as L do, each factor's power staying within the degree
    fds = _scalar_pair(n_degree=trunc + 1, trunc=trunc)
    runs = [(1 + k % 2, 1) for k in range(trunc + 1)]
    words = [Word.from_runs(runs[:-1]), Word.from_runs(runs)]  # exactly L runs, then L + 1
    assert _identity_residuals(fds, words).max() <= 1e-10


def test_matrix_factor_moments():
    t1 = np.array([[0.3, 0.4], [0.1, -0.2]])
    t2 = np.array([[0.6]])
    s1 = State.from_vector(np.array([1.0, 0.0]))
    s2 = State.basis_vector(1, 0)
    fds = free_unitary_dilation([(t1, s1), (t2, s2)], 3, 4)
    assert fds.dim == 1145
    gens = fds.unitaries
    vac = fds.vacuum
    for k in range(4):
        expected = (np.linalg.matrix_power(t1, k))[0, 0]
        assert word_moments(vac, gens, [Word.from_runs([(1, k)])])[0] == pytest.approx(
            expected, abs=1e-12
        )
    mixed = word_moments(vac, gens, [parse_word("1^1 2^1")])[0]
    assert mixed == pytest.approx(t1[0, 0] * 0.6, abs=1e-12)


def test_free_dilation_allocates_no_dense_fock_matrix():
    factors = [
        (np.array([[0.3, 0.4], [0.1, -0.2]]), State.from_vector(np.array([1.0, 0.0]))),
        (np.array([[0.6]]), State.basis_vector(1, 0)),
    ]
    free_unitary_dilation(factors, 3, 4)  # first-call imports and caches stay out
    tracemalloc.start()
    try:
        fds = free_unitary_dilation(factors, 3, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fds.dim == 1145
    dense_bytes = fds.dim * fds.dim * np.dtype(complex).itemsize  # 21 MB
    assert peak < dense_bytes // 10, (peak, dense_bytes)
    assert fds.unitaries.nbytes + fds.s_ops.nbytes < dense_bytes // 100


def test_density_state_factor_purified():
    rho = np.array([[0.7, 0.1], [0.1, 0.3]])
    t1 = np.array([[0.3, 0.4], [0.1, -0.2]])
    t2 = np.array([[0.5]])
    fds = free_unitary_dilation(
        [(t1, State.from_density(rho)), (t2, State.basis_vector(1, 0))], 2, 3
    )
    gens = fds.unitaries
    for k in range(3):
        expected = np.trace(rho @ np.linalg.matrix_power(t1, k))
        assert word_moments(fds.vacuum, gens, [Word.from_runs([(1, k)])])[0] == pytest.approx(
            expected, abs=1e-12
        )
    # adjoint powers come along for free by conjugate symmetry of the vacuum state
    expected = np.trace(rho @ adjoint(t1) @ adjoint(t1))
    assert word_moments(fds.vacuum, gens, [Word.from_runs([(1, -2)])])[0] == pytest.approx(
        expected, abs=1e-12
    )


def test_one_factor_reduces_to_single_dilation():
    t = np.array([[0.5]])
    fds = free_unitary_dilation([(t, State.basis_vector(1, 0))], 3, 4)
    # one-factor free product of the dilation space is the dilation space
    assert fds.dim == fds.dilations[0].ambient_dim
    words = [parse_word(text) for text in ("1^1", "1^2", "1^3")]
    assert _identity_residuals(fds, words).max() <= 1e-10


def test_factor_model_is_exactly_unitary():
    fds = _scalar_pair()
    gens, st = fds.factor_model(1)
    u = gens[1]
    assert operator_norm(adjoint(u) @ u - np.eye(u.shape[0])) < 1e-12
    assert st.kind == "vector"


def test_scenario_dim_cap():
    t = np.array([[0.3, 0.1], [0.0, 0.4]])
    s = State.from_vector(np.array([1.0, 0.0]))
    with pytest.raises(FockDimensionError):
        free_unitary_dilation([(t, s), (t, s)], 3, 4)  # would be 5601-dimensional


def _dense_free_residual(fds, runs):
    big = np.eye(fds.dim, dtype=complex)
    small = np.eye(fds.fock_h.dim, dtype=complex)
    for f, k in runs:
        big = big @ np.linalg.matrix_power(dense(fds.unitaries[f]), k)
        small = small @ np.linalg.matrix_power(dense(fds.s_ops[f]), k)
    return operator_norm(big[np.ix_(fds.coords, fds.coords)] - small)


def test_free_identity_matches_dense_reference():
    t1 = np.array([[0.3, 0.4], [0.1, -0.2]])
    rho = State.from_density(np.array([[0.7, 0.1], [0.1, 0.3]]))
    fds = free_unitary_dilation(
        [(t1, rho), (np.array([[0.6]]), State.basis_vector(1, 0))], 2, 3
    )
    # S_1 and S_2 exchanged: the identity fails, by the same amount both ways
    crossed = replace(fds, s_ops=GenSet({1: fds.s_ops[2], 2: fds.s_ops[1]}))
    words = alternating_words_within(2, 3, 2)
    for model in (fds, crossed):
        for w, got in zip(words, _identity_residuals(model, words)):
            want = _dense_free_residual(model, w.runs())
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13), (w.format(), got, want)
    assert _identity_residuals(crossed, words).max() > 0.1


@st.composite
def _density_factors(draw):
    """Two factors of dimensions 1-3 or three of dimensions 1-2, each a
    random contraction under a density state of full or lower rank."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3))
    factors = []
    for _ in range(n):
        dim = draw(st.integers(1, 3 if n == 2 else 2))
        rank = draw(st.integers(1, dim))
        v = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        rho = v @ adjoint(v)
        factors.append((random_contraction(rng, dim, 0.95), State.from_density(rho / np.trace(rho).real)))
    return factors, draw(st.integers(1, 2)), draw(st.integers(0, 2**16))


@settings(max_examples=20, deadline=None)
@given(_density_factors(), st.integers(1, 2))
def test_free_coordinates_are_the_label_lookups(case, trunc):
    # J maps each small Fock word to the big word of the same labels: the
    # upstairs complement keeps the small one's indices first
    factors, degree, _ = case
    fds = free_unitary_dilation(factors, degree, trunc)
    pos = {lab: p for p, lab in enumerate(fock_labels(fds.fock_k))}
    assert fds.coords.tolist() == [pos[lab] for lab in fock_labels(fds.fock_h)]


@settings(max_examples=12, deadline=None)
@given(_density_factors())
def test_free_suite_of_purified_density_factors_of_different_dimensions(case):
    # factors of different dimensions under density states are purified,
    # dilated and placed on one free product: every certificate of the
    # free suite passes, and the exact ones, unitarity on the short words
    # and the dilation identity within budget, reach machine precision: the
    # identity within one ulp times the Fock dimension (the worst of 180
    # generic free scenarios read 0.28 dim eps)
    factors, degree, seed = case
    budgets = dict(degree=degree, trunc=2, check_degree=2, max_alt=3, samples=5, seed=seed)
    sc = Scenario(mode="free", factors=factors, **budgets)
    report = run_theorem_suite(sc)
    checks = {c["name"]: c for c in report["checks"]}
    assert report["overall_pass"], [(c["name"], c["residual"], c["witness"]) for c in report["checks"]]
    assert set(checks) >= {"unitarity", "dilation_identity", "free_independence", "oracle_equivalence"}
    assert checks["unitarity"]["residual"] <= 1e-13
    identity = checks["dilation_identity"]
    assert identity["residual"] <= min(1e-13, identity["details"]["fock_dim"] * np.finfo(float).eps)


@st.composite
def _free_pairs(draw):
    """Two factors of dimensions 1-2, or three scalars, each a random
    contraction under a random unit vector, with a dilation degree ``N``, a
    truncation ``L``, and a check degree of at most ``N``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3))
    factors = []
    for _ in range(n):
        dim = draw(st.integers(1, 2 if n == 2 else 1))
        factors.append((random_contraction(rng, dim), random_state(rng, dim)))
    degree = draw(st.integers(1, 3 if n == 2 else 2))
    return factors, degree, draw(st.integers(2, 3)), draw(st.integers(1, degree))


@settings(max_examples=40, deadline=None)
@given(_free_pairs())
def test_free_independence_gram_entries_are_within_rounding(case):
    # In exact arithmetic every entry M[i, J] = phi(z_1 ... z_m) of the
    # free-independence Grams is 0: alternating products of at most L
    # blocks have exact vacuum moments on the truncated Fock space.  The
    # bound on the computed entries, stated before the test was first run:
    # each letter is a contraction (a compressed unitary), so a centered
    # word z = w - phi(w) has norm at most 2 and a product of m slots at
    # most 2^m; applying one letter, subtracting a computed mean and the
    # final inner product each add at most dim * eps times the norms, and
    # an entry takes at most m * (check degree + 2) + 1 such steps, so
    #   max |M| <= 2^m * (m * (check degree + 2) + 1) * dim * eps,
    # m = L (the longest sequence), dim the Fock dimension.
    factors, degree, trunc, check_degree = case
    fds = free_unitary_dilation(factors, degree, trunc)
    rep = free_independence_check(fds.vacuum, fds.unitaries, max_len=trunc, degree=check_degree)
    dim, eps = fds.fock_k.dim, np.finfo(float).eps
    bound = 2**trunc * (trunc * (check_degree + 2) + 1) * dim * eps
    assert rep.passed
    assert rep.details["max_entry"] <= bound, (rep.details, bound)


# ---------------------------------------------------------------------------
# where the free budgets sit against the mathematics

EPS = np.finfo(float).eps


@pytest.mark.parametrize("trunc", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_free_dilation_identity_edge_is_each_factors_power(degree, trunc):
    # The suite checks J* w(U) J = w(S) on words of total power at most N
    # and at most L runs.  That bound is conservative: every positive word
    # of at most L factor blocks holds while each factor's total power is at
    # most N, however the runs split it and whatever the total.  The edge
    # is one factor's power N + 1: its single run misses by ||D_{T*} D_T||
    # of that factor's (lifted) contraction, at least 1 - ||T||^2, as in the
    # single dilation.  Words past the edge with several runs are not all
    # failures, so nothing is claimed of them.
    for dims in ((1, 2), (2, 2)):
        rng = np.random.default_rng([degree, trunc, *dims])
        fds = free_unitary_dilation(
            [(random_contraction(rng, d, 0.9), random_state(rng, d)) for d in dims], degree, trunc
        )
        table = _alternating_words((1, 2), (1,), trunc, degree + 1, trunc * (degree + 1))
        got, _ = dilation_residuals(fds.unitaries, fds.s_ops, fds.coords, table)
        power = np.stack([np.count_nonzero(table == 2 * f, axis=1) for f in (1, 2)], axis=1)
        inside = power.max(axis=1) <= degree
        # past the suite's total power N once two blocks are admitted
        assert (power.sum(axis=1)[inside] > degree).any() == (trunc > 1)
        bound = trunc * (degree + 1) * fds.fock_h.dim * EPS
        assert got[inside].max() <= bound, (dims, got[inside].max(), bound)
        for f in (1, 2):
            run = np.flatnonzero((power[:, f - 1] == degree + 1) & (power.sum(axis=1) == degree + 1))
            t = fds.dilations[f - 1].contractions[1]
            assert len(run) == 1 and got[run[0]] >= 1 - operator_norm(t) ** 2 - bound > 0.1


@pytest.mark.parametrize("trunc", [1, 2])
def test_free_independence_clip_edge_is_twice_the_truncation(trunc):
    # The suite clips free independence to max_len = min(max_alt, L).  At
    # check degree 1 no sequence length fails: a centered letter scales a
    # full-length word by B[0, 0] - phi(U) = 0.  From degree 2 on a centered
    # word does not vanish there (U* U scales it by |B[0, 0]|^2, not 1), and
    # a vacuum moment meets that truncation artifact only after L slots up
    # to the full length, one slot on it and L back down.  So the clip is
    # conservative and the edge is 2L: sequences of 2L slots stay within the
    # Gram entries' rounding bound and 2L + 1 fail by orders of magnitude.
    rng = np.random.default_rng(trunc)
    factors = [(random_contraction(rng, 2, 0.9), random_state(rng, 2)) for _ in range(2)]
    fds = free_unitary_dilation(factors, 2, trunc)
    assert fds.dim == (11, 61)[trunc - 1]
    check = partial(free_independence_check, fds.vacuum, fds.unitaries)
    for degree in (1, 2):
        m = 2 * trunc
        bound = 2**m * (m * (degree + 2) + 1) * fds.dim * EPS
        held = check(max_len=m, degree=degree)
        assert held.passed and held.details["max_entry"] <= bound, (degree, held.details)
        past = check(max_len=m + 1, degree=degree)
        if degree == 1:
            assert past.details["max_entry"] <= 2 ** (m + 1) * ((m + 1) * 3 + 1) * fds.dim * EPS
        else:
            assert past.residual > 1.0, past.residual
