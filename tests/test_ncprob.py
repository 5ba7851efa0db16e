import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freedilation.ncprob as ncprob
from freedilation.dilation import doubly_commuting_dilation, finite_unitary_dilation
from freedilation.ncprob import (
    MAX_WORD_LETTERS,
    BudgetError,
    GenSet,
    Word,
    alternating_words_within,
    apply_word,
    center,
    evaluate_word,
    faithfulness_check,
    free_cumulants,
    free_independence_check,
    free_mixed_moment_oracle,
    free_mixed_moments,
    haar_unitary_marginal,
    make_tensor_independent,
    matrix_marginal,
    moments_from_cumulants,
    noncrossing_partitions,
    parse_word,
    signed_alternating_words,
    state_moment,
    tensor_independence_check,
    trace_check,
    word_moment,
    word_moments,
    worst_commutator,
)
from freedilation.free_product import free_unitary_dilation
from freedilation.operator_core import (
    AxisAction,
    State,
    adjoint,
    operator_norm,
    random_contraction,
    random_state,
    random_unitary,
)
from certificate_oracles import (
    dense_gram_ranks,
    dense_tensor_gaps,
    dense_trace_gram,
    word_commutation_residual,
    words_up_to,
)
from free_independence_oracle import (
    _random_element,
    _sequences,
    nested_free_gram,
    nested_free_independence_check,
    nested_monomial_halves,
    nested_tensor_factorization,
    random_sample,
)
from free_moment_oracle import per_word_free_moment
from partition_oracles import all_set_partitions, is_noncrossing

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430]


# ---------------------------------------------------------------------------
# words


def test_parse_and_format_round_trip():
    for text in ["1^2 2^-1", "3^1", "1^-3", "2^2 1^1 2^-2"]:
        assert parse_word(text).format() == text
    assert parse_word("").format() == ""
    assert parse_word("2*").letters == ((2, True),)
    assert parse_word("2*^3").letters == ((2, True),) * 3
    assert parse_word("2").letters == ((2, False),)


def test_parse_word_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("x^2")
    with pytest.raises(ValueError):
        parse_word("0^1")
    with pytest.raises(ValueError):
        parse_word("1^b")


def test_word_adjoint_and_blocks():
    w = parse_word("1^2 2^-1")
    assert w.adjoint.format() == "2^1 1^-2"
    assert w.blocks() == ((1, (False, False)), (2, (True,)))
    assert parse_word("1^1 1^-1 2^1").blocks() == ((1, (False, True)), (2, (False,)))


def test_positive_alternating_words_one_factor():
    # one factor, one block: the positive words are the 30 single runs,
    # generated directly rather than filtered from the signed words
    words = alternating_words_within(1, 4, 30)
    assert [w.runs() for w in words] == [((1, k),) for k in range(1, 31)]


def test_positive_alternating_words_order():
    # pinned: by length, then run count, then the runs themselves
    assert [w.runs() for w in alternating_words_within(2, 2, 2)] == [
        ((1, 1),), ((2, 1),), ((1, 2),), ((2, 2),), ((1, 1), (2, 1)), ((2, 1), (1, 1)),
    ]


def test_word_letter_cap_edge():
    # exactly the cap is built; one letter more is refused before any is
    assert len(Word.from_runs([(1, MAX_WORD_LETTERS)])) == MAX_WORD_LETTERS
    assert len(parse_word(f"1^{MAX_WORD_LETTERS - 1} 2*")) == MAX_WORD_LETTERS
    with pytest.raises(ValueError, match=f"word of {MAX_WORD_LETTERS + 1} letters"):
        Word.from_runs([(1, MAX_WORD_LETTERS), (2, -1)])
    with pytest.raises(ValueError, match=f"word letter cap {MAX_WORD_LETTERS}"):
        parse_word(f"1^{MAX_WORD_LETTERS} 1^-1")
    with pytest.raises(ValueError, match="word letter cap"):
        Word.from_runs([(1, -(10**12))])


def _merged_runs(runs):
    """Zero powers dropped, adjacent runs of one factor and sign summed."""
    out = []
    for f, k in runs:
        if k == 0:
            continue
        if out and out[-1][0] == f and (out[-1][1] < 0) == (k < 0):
            out[-1] = (f, out[-1][1] + k)
        else:
            out.append((f, k))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=8))
def test_word_runs_round_trip(runs):
    w = Word.from_runs(runs)
    assert w.runs() == _merged_runs(runs)
    assert len(w) == sum(abs(k) for _, k in runs)
    assert parse_word(w.format()) == w


# ---------------------------------------------------------------------------
# generator sets and the letter primitive


@pytest.mark.parametrize(
    "mats",
    [
        {1: np.array([[np.nan, 0.0], [0.0, 1.0]])},
        {1: np.array([[0.0, np.inf], [0.0, 1.0]])},
        {1: np.ones((2, 3))},
        {1: np.eye(2), 2: np.eye(3)},
        {},
    ],
    ids=["nan", "inf", "non-square", "mismatched", "empty"],
)
def test_genset_rejects_bad_generators(mats):
    with pytest.raises(ValueError):
        GenSet(mats)


def test_genset_shares_complex_arrays():
    u = np.eye(3, dtype=complex)
    gens = GenSet({2: u, 1: 0.5 * u})
    assert gens[2] is u
    assert gens.ids == (1, 2)
    assert gens.dim == 3


def test_genset_of_finite_checks_shapes_only():
    u = np.eye(2, dtype=complex)
    assert GenSet.of_finite({1: u}).mats[1] is u
    for mats in ({1: np.eye(2), 2: np.eye(3)}, {1: np.ones((2, 3))}, {}):
        with pytest.raises(ValueError):
            GenSet.of_finite(mats)


def test_factor_ids_start_at_one():
    # code 0 pads a word table, so a letter of factor 0 would read as none
    # and its word as the unit: ids below 1 are refused
    for ids in ((0, 1), (-1,)):
        with pytest.raises(ValueError, match="1-based"):
            GenSet({f: np.eye(2) for f in ids})
        with pytest.raises(ValueError, match="1-based"):
            GenSet.of_finite({f: np.eye(2, dtype=complex) for f in ids})
    gens = GenSet({1: np.diag([0.5, 0.25])})
    with pytest.raises(ValueError, match="1-based"):
        word_moments(State.basis_vector(2, 0), gens, [Word(((0, False),))])


def test_genset_unknown_factor_names_known_ids():
    gens = GenSet({1: np.eye(2), 4: np.eye(2)})
    with pytest.raises(KeyError, match=r"known ids: \[1, 4\]"):
        gens[3]


@st.composite
def _words_and_panels(draw):
    """Generators (non-normal, some rank-deficient), a word of length <= 6,
    and a vector or a panel to apply it to."""
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    mats = {}
    for f in range(1, n + 1):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rank = draw(st.integers(0, dim))
        if rank < dim:
            u, s, vh = np.linalg.svd(m)
            s[rank:] = 0.0
            m = (u * s) @ vh
        mats[f] = m
    letters = draw(
        st.lists(st.tuples(st.integers(1, n), st.booleans()), max_size=6)
    )
    cols = draw(st.sampled_from([None, 1, 3]))
    shape = (dim,) if cols is None else (dim, cols)
    panel = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return mats, Word(tuple(letters)), panel


@settings(max_examples=200, deadline=None)
@given(_words_and_panels())
def test_apply_word_matches_letter_product(case):
    mats, word, panel = case
    want = panel.astype(complex)
    for f, starred in reversed(word.letters):
        want = (adjoint(mats[f]) if starred else mats[f]) @ want
    got = apply_word(word, GenSet(mats), panel)
    assert got.shape == panel.shape
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-13 * scale


@st.composite
def _states_and_word_lists(draw):
    """Contractions, a vector or density state (possibly rank-deficient), and
    up to 12 words, each a few letters prefixed to the unit or to an earlier
    word: shared suffixes, duplicates and the unit word all occur."""
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    mats = {f: random_contraction(rng, dim) for f in range(1, n + 1)}
    if draw(st.booleans()):
        state = random_state(rng, dim)
    else:
        g = rng.standard_normal((dim, draw(st.integers(1, dim))))
        rho = g @ g.T
        state = State.from_density(rho / np.trace(rho))
    letters = st.tuples(st.integers(1, n), st.booleans())
    words: list[Word] = []
    for _ in range(draw(st.integers(0, 12))):
        base = draw(st.sampled_from(words)) if words and draw(st.booleans()) else Word()
        words.append(Word(tuple(draw(st.lists(letters, max_size=3)))) * base)
    return mats, state, words


def _dense_moment(mats, state, word):
    """``phi(w)`` from the dense product of the word's letters."""
    dim = next(iter(mats.values())).shape[0]
    w = np.eye(dim, dtype=complex)
    for f, starred in word.letters:
        w = w @ (adjoint(mats[f]) if starred else mats[f])
    if state.kind == "vector":
        return np.vdot(state.vector, w @ state.vector)
    return np.trace(state.density @ w)


@settings(max_examples=200, deadline=None)
@given(_states_and_word_lists())
def test_word_moments_match_letter_products(case):
    mats, state, words = case
    got = word_moments(state, GenSet(mats), words)
    assert got.shape == (len(words),)
    for w, value in zip(words, got):
        assert abs(value - _dense_moment(mats, state, w)) <= 1e-13


def test_word_moments_edge_lists():
    gens = GenSet({1: np.array([[0.0, 1.0], [0.5, 0.0]]), 2: np.diag([0.3, 0.7])})
    s = State.basis_vector(2, 0)
    assert word_moments(s, gens, []).shape == (0,)
    w = parse_word("1^1 2^1 1^-1")
    got = word_moments(s, gens, [Word(), w, w, Word()])
    assert got[0] == got[3] == 1.0
    assert got[1] == got[2] == word_moment(s, gens, w)


def test_word_moments_apply_each_distinct_suffix_once(monkeypatch):
    gens = GenSet({1: np.diag([0.5, 0.25]), 2: np.eye(2) * 0.5})
    s = State.basis_vector(2, 0)
    # distinct nonempty suffixes: 2, 1 2, 2 1 2, 1, 2 1
    words = [parse_word(t) for t in ("2 1 2", "1 2", "2", "2 1", "1 2", "")]
    applied = []
    original = ncprob.apply_word
    monkeypatch.setattr(
        ncprob, "apply_word", lambda word, g, panel: applied.append(word) or original(word, g, panel)
    )
    word_moments(s, gens, words)
    assert [len(w) for w in applied] == [1] * 5


@st.composite
def _generator_sets_states_and_words(draw):
    """Dense, Fock or axis generators; a vector, full-rank density or
    rank-deficient density state on their space; and up to 12 words of up
    to 7 letters, or of 44 to 60, some of them repeated or twinned in
    their middle letter:
    the unit, odd and even lengths and shared halves all occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "fock", "axis"]))
    if kind == "dense":
        dim = draw(st.integers(1, 4))
        gens = GenSet({f: 1.5 * random_contraction(rng, dim) for f in (1, 2, 3)})
    elif kind == "fock":
        d = draw(st.integers(1, 2))
        factors = [(random_contraction(rng, d, 0.9), random_state(rng, d)) for _ in range(2)]
        gens = free_unitary_dilation(factors, 2, draw(st.integers(1, 2))).unitaries
    else:
        legs = (2, 3)
        axes = [(0,), (1,), (0, 1)]
        cores = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (2, 3, 6)]
        gens = GenSet({f: AxisAction(legs, a, c) for f, (a, c) in enumerate(zip(axes, cores), 1)})
    dim, ids = gens.dim, list(gens.ids)
    shape = draw(st.sampled_from(["vector", "full", "deficient"]))
    if shape == "vector":
        state = random_state(rng, dim)
    else:
        rank = dim if shape == "full" else max(1, dim - 1)
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        state = State.from_density(g @ adjoint(g) / np.linalg.norm(g) ** 2)
    letters = st.tuples(st.sampled_from(ids), st.booleans())
    words: list[Word] = [Word()]
    sizes = draw(st.sampled_from([(0, 7), (44, 60)]))
    for _ in range(draw(st.integers(0, 11))):
        if words and draw(st.booleans()):
            words.append(draw(st.sampled_from(words)))
        else:
            words.append(Word(tuple(draw(st.lists(letters, min_size=sizes[0], max_size=sizes[1])))))
            if sizes[0] and draw(st.booleans()):  # a twin that differs in its middle letter alone
                (f, s), h = words[-1].letters[len(words[-1]) // 2], len(words[-1]) // 2
                words.append(Word(words[-1].letters[:h] + ((f, not s),) + words[-1].letters[h + 1 :]))
    return gens, state, draw(st.permutations(words))


@settings(max_examples=200, deadline=None)
@given(_generator_sets_states_and_words())
def test_word_moments_from_halves_match_per_word_products(case):
    # phi(L R) = <R v, L* v> is exact: each moment matches the whole word
    # applied by apply_word to within 1e-13 of its letters' norms, and has
    # the same digits alone (word_moment), in any list and in any blocks
    gens, state, words = case
    got = word_moments(state, gens, words)
    eye = np.eye(gens.dim, dtype=complex)
    norm = {f: operator_norm(apply_word(Word(((f, False),)), gens, eye)) for f in gens.ids}
    for w, value in zip(words, got):
        if state.kind == "vector":
            want = np.vdot(state.vector, apply_word(w, gens, state.vector))
        else:
            want = np.vdot(state.density.conj().T, apply_word(w, gens, eye))
        scale = math.prod(norm[f] for f, _ in w.letters)
        assert abs(value - want) <= 1e-13 * scale
        assert word_moment(state, gens, w) == value
    assert np.array_equal(word_moments(state, gens, words[::-1])[::-1], got)
    with mock.patch.object(ncprob, "SAMPLE_PANEL_BYTES", 1):  # one L* image a block
        assert np.array_equal(word_moments(state, gens, words), got)


def test_word_moments_hold_their_halves_in_blocks():
    # free_pair at L = 6 (dim 2,185): the oracle's 4,436 words have 85
    # distinct halves L* and 84 R, whose images take 3 MB.  The L* images
    # are held three at a time within SAMPLE_PANEL_BYTES, and each block
    # streams the R its words need: the sweep stays under the sample panel
    # bytes plus 1 MB.  Holding all the L* at once goes over that, applies
    # fewer letters and gives the same digits
    scalars = [np.array([[0.5]]), np.array([[0.3 + 0.2j]])]
    fds = free_unitary_dilation([(t, State.basis_vector(1, 0)) for t in scalars], 3, 6)
    assert fds.dim == 2185
    table = ncprob._alternating_words([1, 2], (1, -1), 4, 3, 6)
    runs = []
    for budget in (ncprob.SAMPLE_PANEL_BYTES, 2**30):
        sweep = ncprob._Sweep(fds.vacuum, fds.unitaries)
        with mock.patch.object(ncprob, "SAMPLE_PANEL_BYTES", budget):
            tracemalloc.start()
            try:
                moments = sweep.word_moments(table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        runs.append((moments, sweep.letters, peak))
    (blocked, letters, peak), (whole, fewer, more) = runs
    assert peak < ncprob.SAMPLE_PANEL_BYTES + 2**20 < more, (peak, more)
    assert (letters, fewer) == (2475, 168)
    assert np.array_equal(blocked, whole)


def test_trace_check_reports_letters_applied():
    gens = GenSet({1: np.diag([0.5, 0.25]), 2: np.eye(2) * 0.5})
    rep = trace_check(State.basis_vector(2, 0), gens, degree=1)
    # the 16 products of two letters split after one letter: the 4 letters
    # held as heads, then streamed as the rests, each applied once
    assert rep.details["letters_applied"] == 8
    assert (rep.details["words"], rep.details["entries"]) == (4, 16)


def test_evaluate_word_diagonal():
    gens = GenSet({1: np.diag([0.5, 0.25])})
    m = evaluate_word(parse_word("1^2"), gens)
    np.testing.assert_allclose(m, np.diag([0.25, 0.0625]))


def test_evaluate_word_unknown_factor():
    with pytest.raises(KeyError):
        evaluate_word(parse_word("3^1"), GenSet({1: np.eye(2)}))


def test_state_moment_vector_vs_density():
    rng = np.random.default_rng(9)
    t = rng.normal(size=(3, 3)) * 0.3
    gens = GenSet({1: t})
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    s = State.from_density(rho)
    w = parse_word("1^2 1^-1")
    expected = np.trace(rho @ t @ t @ adjoint(t))
    assert word_moment(s, gens, w) == pytest.approx(expected, abs=1e-12)


def test_center_kills_mean():
    gens = GenSet({1: np.diag([0.5, 0.25])})
    s = State.from_vector(np.array([0.6, 0.8]))
    comb = ((parse_word("1^1"),), [1])
    words, coeffs = center(comb, s, gens)
    assert words == (parse_word("1^1"), Word(()))  # the unit joins at -phi
    assert coeffs[1] == -word_moment(s, gens, parse_word("1^1"))
    assert abs(state_moment(s, gens, [(words, coeffs)])) < 1e-14


def test_random_element_coefficients_on_disc():
    # the sampled reference combines every word of a factor, in the check's
    # table order, with one draw on the unit disc per word: the coefficients
    # over which the Grams' sum |M| bounds every moment
    element = _random_element(np.random.default_rng(1), 1, 2)
    words = ncprob._all_words([1], 2)
    assert list(element) == words and len(words) == 7  # unit + 2 letters + 4 two-letter words
    assert all(abs(c) <= 1.0 + 1e-12 for c in element.values())


# ---------------------------------------------------------------------------
# independence checks


def _free_grams(state, gens, max_len, degree, sequences=None):
    """Each sequence's Gram as the free check streams it, assembled whole,
    for every alternating sequence (both twins) unless given."""
    sequences = sequences or _sequences(list(gens.ids), max_len)
    tables = {f: ncprob._codes(ncprob._all_words([f], degree)[1:]) for f in gens.ids}
    grams = {s: np.full([len(tables[f]) for f in s], np.nan, dtype=complex) for s in sequences}
    sweep = ncprob._Sweep(state, gens)
    means = {f: sweep.word_moments(t) for f, t in tables.items()}
    for seq, slots, block in ncprob._grams(sweep, sequences, tables, means):
        grams[seq][np.ix_(*slots)] = block
    assert not any(np.isnan(g).any() for g in grams.values())
    return grams


def _witness_entry(rep, state, gens, max_len, degree):
    """``|M|`` at the free check's witness, from the assembled Grams."""
    words = {f: ncprob._all_words([f], degree)[1:] for f in gens.ids}
    seq = tuple(rep.witness["sequence"])
    at = tuple(words[f].index(parse_word(slot[2:-1])) for f, slot in zip(seq, rep.witness["slots"]))
    return abs(_free_grams(state, gens, max_len, degree, [seq])[seq][at])


def _worst_entry(rep, state, gens, max_len, degree):
    """The largest ``|M|`` of the witness's sequence."""
    seq = tuple(rep.witness["sequence"])
    return np.abs(_free_grams(state, gens, max_len, degree, [seq])[seq]).max()


def _read_off(gram, coeffs):
    """``sum_I prod_j coeffs[j][i_j] M[I]``: a sample's moment from its slots' coefficients."""
    for c in coeffs:
        gram = np.tensordot(c, gram, axes=(0, 0))
    return complex(gram)


def test_tensor_independence_positive():
    t1 = np.array([[0.5]])
    t2 = np.array([[0.0, 0.4], [0.1, 0.2]])
    s1 = State.basis_vector(1, 0)
    s2 = State.from_vector(np.array([0.8, 0.6]))
    gens, joint = make_tensor_independent([(t1, s1), (t2, s2)])
    rep = tensor_independence_check(joint, gens, degree=2, tol=1e-10)
    assert rep.passed, rep.residual
    assert rep.details["entries"] == 7 * 7 and rep.details["max_entry"] <= 1e-15


def test_tensor_independence_detects_noncommuting():
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    gens = GenSet({1: a, 2: adjoint(a)})
    s = State.basis_vector(2, 0)
    rep = tensor_independence_check(s, gens, degree=1, tol=1e-8)
    assert not rep.passed
    assert rep.witness["part"] == "commutation"


@pytest.mark.parametrize("seed", range(6))
def test_tensor_commutation_matches_word_level_reference_at_degree_one(seed):
    # noncommuting generators: every commutator norm of a pair counts, and at
    # degree 1 the generator commutators are all the word pairs there are;
    # the residual is the larger of that and the factorization part's sum
    rng = np.random.default_rng(seed)
    dim, n = 2 + seed % 2, 2 + seed % 3 // 2
    gens = GenSet({f: random_contraction(rng, dim) for f in range(1, n + 1)})
    state = State.basis_vector(dim, 0)
    rep = tensor_independence_check(state, gens, degree=1)
    want = word_commutation_residual(gens, 1)
    assert not rep.passed and want > 1e-3
    assert worst_commutator(gens)[0] == pytest.approx(want, rel=1e-12)
    gaps = np.abs(dense_tensor_gaps(state, gens, 1)).sum()
    assert rep.residual == pytest.approx(max(want, gaps), rel=1e-12)
    assert rep.details["commutators"] == n * (n - 1)


def _tensor_witness_gap(rep, state, gens, degree):
    """The dense gap at the factorization witness's words."""
    words = [words_up_to([f], degree) for f in gens.ids]
    at = tuple(ws.index(parse_word(w)) for ws, w in zip(words, rep.witness["words"]))
    return abs(dense_tensor_gaps(state, gens, degree)[at])


def test_tensor_factorization_matches_reference():
    # commuting but not tensor independent: diagonal operators under a mixed
    # state.  The Gram's D matches the dense gaps, and the witness names an
    # entry of the largest modulus (T* = T, so entries tie)
    rng = np.random.default_rng(8)
    gens = GenSet({f: np.diag(rng.uniform(-0.9, 0.9, 3)) for f in (1, 2)})
    s = State.from_density(np.diag([0.5, 0.3, 0.2]).astype(complex))
    rep = tensor_independence_check(s, gens, degree=2, tol=1e-8)
    gaps = np.abs(dense_tensor_gaps(s, gens, 2))
    assert not rep.passed and type(rep.residual) is float
    assert rep.residual == pytest.approx(gaps.sum(), rel=1e-12)
    assert rep.details["max_entry"] == pytest.approx(gaps.max(), rel=1e-12)
    assert rep.witness["part"] == "factorization"
    assert _tensor_witness_gap(rep, s, gens, 2) == pytest.approx(gaps.max(), rel=1e-12)
    # per factor the moments' halves, L* in {T*, T} and R in {T, T*}, then
    # the images of its 6 nonempty words, the first factor's held and the
    # second's streamed
    assert rep.details["letters_applied"] == 2 * (2 + 2 + 6)


def test_make_tensor_independent_dim_cap():
    t = np.eye(8) * 0.5
    s = State.basis_vector(8, 0)
    with pytest.raises(ValueError):
        make_tensor_independent([(t, s)] * 5)


def test_free_independence_negative_control_two_copies():
    # two labels pointing at the same dilated unitary are maximally non-free:
    # phi(c(U*) c(U)) = phi(c(U) c(U*)) = 1 - |t|^2, and the other entries
    # vanish
    res = finite_unitary_dilation(np.array([[0.5]]), 3)
    u = res.gens[1]
    xi = res.embedding.isometry[:, 0]
    s = State.from_vector(xi)
    rep = free_independence_check(s, GenSet({1: u, 2: u}), max_len=2, degree=1, tol=1e-8)
    assert not rep.passed
    assert rep.residual == pytest.approx(1.5) and rep.details["max_entry"] == pytest.approx(0.75)
    assert rep.witness["sequence"] == [1, 2]
    assert rep.witness["slots"] in (["c(1^-1)", "c(2^1)"], ["c(1^1)", "c(2^-1)"])
    assert (rep.details["sequences"], rep.details["entries"]) == (1, 4)  # (2, 1) is the twin of (1, 2)


def test_free_independence_refuses_degree_zero():
    s = State.basis_vector(2, 0)
    with pytest.raises(ValueError, match="degree >= 1"):
        free_independence_check(s, GenSet({1: np.eye(2), 2: np.eye(2)}), degree=0)


def _two_by_two_free_model():
    rng = np.random.default_rng(21)
    factors = [(random_contraction(rng, 2, 0.8), random_state(rng, 2)) for _ in range(2)]
    return free_unitary_dilation(factors, 2, 3)


@pytest.mark.parametrize("twin", [False, True])
def test_free_independence_matches_nested_loops(twin):
    # trunc 3, degree 2: every entry of every sequence's Gram (both twins)
    # against the nested loops, which apply each product from scratch; the
    # residual is the largest sum |M| over the sequences the check takes,
    # and it bounds every sampled and monomial residual of the nested loops
    fds = _two_by_two_free_model()
    gens = GenSet({1: fds.unitaries[1], 2: fds.unitaries[1]}) if twin else fds.unitaries
    got = free_independence_check(fds.vacuum, gens, max_len=3, degree=2, tol=1e-9)
    want = nested_free_independence_check(fds.vacuum, gens, max_len=3, degree=2, samples=6, tol=1e-9, seed=4)
    assert got.passed == want.passed == (not twin)
    grams = _free_grams(fds.vacuum, gens, 3, 2)
    for seq, gram in grams.items():
        np.testing.assert_allclose(gram, nested_free_gram(fds.vacuum, gens, seq, 2), rtol=0, atol=1e-13)
    sums = {seq: np.abs(gram).sum() for seq, gram in grams.items() if seq <= seq[::-1]}
    assert got.residual == pytest.approx(max(sums.values()), rel=1e-12, abs=1e-15)
    assert want.residual <= got.residual + 1e-13
    assert got.details["letters_applied"] > 0
    assert (got.details["sequences"], got.details["entries"]) == (3, 6**2 + 2 * 6**3)


def _panel_state(rng, dim, kind):
    """A unit vector, a full-rank density, or a density with one zero
    eigenvalue in a random eigenbasis: one, ``dim`` or ``dim - 1`` columns."""
    if kind == "vector":
        return random_state(rng, dim)
    w = rng.uniform(0.2, 1.0, dim)
    if kind == "kernel":
        w[0] = 0.0
    u = random_unitary(rng, dim)
    return State.from_density(u @ np.diag(w / w.sum()).astype(complex) @ adjoint(u))


PANEL_COLUMNS = {"vector": 1, "density": 3, "kernel": 2}


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_free_independence_sample_panels_match_nested_loops(kind):
    # two random contractions are far from free.  Every sample of the
    # nested loops, a centered random combination per slot with
    # coefficients on the unit disc, has its moment read off the Gram of
    # its sequence, and its modulus within the residual
    rng = np.random.default_rng(31)
    gens = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    got = free_independence_check(state, gens, max_len=3, degree=2, tol=1e-9)
    want = nested_free_independence_check(state, gens, max_len=3, degree=2, samples=7, tol=1e-9, seed=5)
    assert not got.passed and want.residual <= got.residual + 1e-13
    samples = np.random.default_rng(5)
    for seq, gram in _free_grams(state, gens, 3, 2).items():
        for _ in range(3):
            moment, coeffs = random_sample(samples, state, gens, seq, 2)
            assert abs(_read_off(gram, coeffs) - moment) <= 1e-13
            assert abs(moment) <= got.residual + 1e-13


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_tensor_factorization_sample_panels_match_reference(kind):
    # the sampled reference's residual is within sum |D|, and D matches the
    # dense gaps entry by entry in sum and maximum
    rng = np.random.default_rng(32)
    gens = GenSet({f: np.diag(rng.uniform(-0.9, 0.9, 3)) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    rep = tensor_independence_check(state, gens, degree=2)
    worst, _ = nested_tensor_factorization(state, gens, degree=2, samples=9, seed=6)
    gaps = np.abs(dense_tensor_gaps(state, gens, 2))
    assert worst <= rep.residual + 1e-13
    assert rep.residual == pytest.approx(gaps.sum(), rel=1e-12)
    assert rep.details["max_entry"] == pytest.approx(gaps.max(), rel=1e-12)


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("kind", ["vector", "kernel"])
def test_sample_chunks_give_the_one_panel_result(kind, columns):
    # a block bound of one or two state columns streams the Grams' images
    # one or two at a time: the same residuals up to the order of their
    # sums, more letters for the free and tensor Grams, whose deeper slots
    # are walked once per block, and the same for the trace Gram, whose
    # rests are walked once in any blocks
    rng = np.random.default_rng(33)
    free = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2)})
    diag = GenSet({f: np.diag(rng.uniform(-0.9, 0.9, 3)) for f in (1, 2, 3)})
    state = _panel_state(rng, 3, kind)

    def run():
        return (
            free_independence_check(state, free, max_len=3, degree=2),
            tensor_independence_check(state, diag, degree=2),
            trace_check(state, free, degree=3),
        )

    whole = run()
    with mock.patch.object(ncprob, "SAMPLE_PANEL_BYTES", columns * 3 * 16):
        chunked = run()
    for one, many in zip(whole, chunked):
        assert many.residual == pytest.approx(one.residual, rel=1e-12, abs=1e-15)
        assert many.details.get("max_entry") == pytest.approx(one.details.get("max_entry"), rel=1e-12)
    # the largest entry of the worst sequence, or its adjoint twin there
    for rep in (whole[0], chunked[0]):
        assert _witness_entry(rep, state, free, 3, 2) == pytest.approx(_worst_entry(rep, state, free, 3, 2))
    assert whole[2].witness == chunked[2].witness
    assert [many.details["letters_applied"] > one.details["letters_applied"] for one, many in zip(whole, chunked)] == [
        True, True, False
    ]


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_random_passes_do_not_depend_on_the_chunking(kind):
    # real letters with one nonzero per row image a column alike in any
    # panel, so the Gram entries, and every sample's moment read off them,
    # are the same in blocks of one image as in the default blocks
    rng = np.random.default_rng(37)
    shift = np.roll(np.diag(rng.uniform(0.3, 0.9, 3)), 1, axis=0)
    free = GenSet({1: shift, 2: np.diag(rng.uniform(-0.9, 0.9, 3))})
    state = _panel_state(rng, 3, kind)
    whole = _free_grams(state, free, 3, 2)
    with mock.patch.object(ncprob, "SAMPLE_PANEL_BYTES", PANEL_COLUMNS[kind] * 3 * 16):
        single = _free_grams(state, free, 3, 2)
    samples = np.random.default_rng(9)
    for seq, gram in whole.items():
        np.testing.assert_allclose(single[seq], gram, rtol=0, atol=1e-16)
        _, coeffs = random_sample(samples, state, free, seq, 2)
        assert _read_off(single[seq], coeffs) == pytest.approx(_read_off(gram, coeffs), rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_random_passes_report_the_scalar_abs_of_their_worst_moment(kind):
    # 37 samples a sequence: the scalar abs of every sampled moment, and of
    # every sampled factorization gap, is within the Grams' residual, which
    # is the sum of the moduli of the worst sequence's entries
    rng = np.random.default_rng(51)
    free = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2)})
    diag = GenSet({f: np.diag(rng.uniform(-0.9, 0.9, 3)) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    rep = free_independence_check(state, free, max_len=3, degree=2)
    want = nested_free_independence_check(state, free, max_len=3, degree=2, samples=37, tol=1e-9, seed=7)
    grams = _free_grams(state, free, 3, 2)
    assert rep.residual == pytest.approx(max(np.abs(grams[s]).sum() for s in [(1, 2), (1, 2, 1), (2, 1, 2)]))
    assert rep.details["max_entry"] == pytest.approx(max(np.abs(g).max() for g in grams.values()))
    assert want.residual <= rep.residual
    rep = tensor_independence_check(state, diag, degree=2)
    worst, _ = nested_tensor_factorization(state, diag, degree=2, samples=37, seed=8)
    assert rep.witness["part"] == "factorization" and worst <= rep.residual


def test_sample_draws_equal_the_per_slot_draws():
    # a sample of the sampled pass, drawn slot by slot, has the moment that
    # its slots' coefficients read off the Gram, for every sequence of
    # three factors up to length 3 and a density state of rank two
    rng = np.random.default_rng(9)
    gens = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2, 3)})
    state = _panel_state(rng, 3, "kernel")
    for seq, gram in _free_grams(state, gens, 3, 1).items():
        moment, coeffs = random_sample(rng, state, gens, seq, 1)
        assert abs(_read_off(gram, coeffs) - moment) <= 1e-13


def _monomial_entries(grams, degree):
    """``|phi|`` of the centered monomial products ``c(T^p) ...`` from the
    Grams, keyed as the nested loops of the half products key them."""
    words = ncprob._all_words([1], degree)[1:]
    rows = [words.index(Word(((1, s),) * p)) for p in range(1, min(degree, 3) + 1) for s in (False, True)]
    return {seq: np.abs(gram[np.ix_(*[rows] * len(seq))]) for seq, gram in grams.items()}


@pytest.mark.parametrize("nodes", [None, 1, 2])
@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_monomial_node_panels_match_nested_loops(monkeypatch, kind, nodes):
    # the centered monomials T^p and (T*)^p, p <= 3, are words of the
    # Gram: each monomial product is an entry, equal to the nested loops'
    # product read off its two halves within 1e-15, whatever the blocks
    # (one or two nodes of six options once, now as many images a block),
    # and the residual is at least the worst of them
    rng = np.random.default_rng(34)
    shift = np.roll(np.diag(rng.uniform(0.3, 0.9, 3)), 1, axis=0)
    gens = GenSet({1: shift, 2: np.diag(rng.uniform(-0.9, 0.9, 3))})
    state = _panel_state(rng, 3, kind)
    want, _ = nested_monomial_halves(state, gens, max_len=4, degree=3)
    if nodes is not None:
        monkeypatch.setattr(ncprob, "SAMPLE_PANEL_BYTES", nodes * 6 * PANEL_COLUMNS[kind] * 3 * 16)
    got = free_independence_check(state, gens, max_len=4, degree=3, tol=1e-9)
    monomials = _monomial_entries(_free_grams(state, gens, 4, 3), 3)
    assert not got.passed
    assert max(m.max() for m in monomials.values()) == pytest.approx(want, abs=1e-15)
    assert got.residual >= want and got.details["max_entry"] >= want - 1e-15


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_monomial_node_panels_of_dense_letters_match_nested_loops(kind):
    # dense letters: the monomial products read off the Grams match the
    # nested loops over whole products, and the residual bounds them
    rng = np.random.default_rng(34)
    gens = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    got = free_independence_check(state, gens, max_len=4, degree=3, tol=1e-9)
    want = nested_free_independence_check(state, gens, max_len=4, degree=3, samples=0, tol=1e-9)
    monomials = _monomial_entries(_free_grams(state, gens, 4, 3), 3)
    assert max(m.max() for m in monomials.values()) == pytest.approx(want.residual, abs=1e-12)
    assert want.residual <= got.residual


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_monomial_witness_does_not_depend_on_node_panels(monkeypatch, kind):
    # a block bound of one node's six images moves the residual only in
    # the order of its sums, and names the same largest entry
    rng = np.random.default_rng(34)
    gens = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    default = free_independence_check(state, gens, max_len=4, degree=3)
    monkeypatch.setattr(ncprob, "SAMPLE_PANEL_BYTES", 6 * PANEL_COLUMNS[kind] * 3 * 16)
    one = free_independence_check(state, gens, max_len=4, degree=3)
    assert one.witness["sequence"] == default.witness["sequence"]
    worst = _worst_entry(default, state, gens, 4, 3)
    for rep in (one, default):
        assert _witness_entry(rep, state, gens, 4, 3) == pytest.approx(worst, rel=1e-12)
    assert one.residual == pytest.approx(default.residual, rel=1e-12)
    assert one.details["max_entry"] == pytest.approx(default.details["max_entry"], rel=1e-12)


@pytest.mark.parametrize("nodes", [None, 1, 2])
def test_monomial_node_panels_keep_the_first_of_equal_witnesses(monkeypatch, nodes):
    # one Fock unitary under both labels and a density state of rank two:
    # the sequences (1, 2, 1) and (2, 1, 2) have the same Gram, computed
    # alike, so their sums are equal and the first in product order is the
    # witness's, whatever the blocks; it names the entry that the nested
    # loops find largest
    scalars = [np.array([[0.5]]), np.array([[0.3 + 0.2j]])]
    fds = free_unitary_dilation([(t, State.basis_vector(1, 0)) for t in scalars], 2, 3)
    gens = GenSet({1: fds.unitaries[1], 2: fds.unitaries[1]})
    rng = np.random.default_rng(35)
    v = rng.normal(size=(fds.dim, 2)) + 1j * rng.normal(size=(fds.dim, 2))
    state = State.from_density(v @ adjoint(v) / np.linalg.norm(v) ** 2)
    if nodes is not None:  # a node was two columns, with four centered options
        monkeypatch.setattr(ncprob, "SAMPLE_PANEL_BYTES", nodes * 4 * 2 * fds.dim * 16)
    got = free_independence_check(state, gens, max_len=3, degree=2, tol=1e-9)
    grams = _free_grams(state, gens, 3, 2, [(1, 2, 1), (2, 1, 2)])
    assert np.abs(grams[1, 2, 1]).sum() == np.abs(grams[2, 1, 2]).sum()
    assert not got.passed and got.witness["sequence"] == [1, 2, 1]
    assert _witness_entry(got, state, gens, 3, 2) == pytest.approx(np.abs(grams[1, 2, 1]).max(), rel=1e-12)


def test_monomial_pass_counts_letters_per_node_panel():
    # free_pair's model: the Grams of its 4 sequences (one of each twin
    # pair) take 44,100 entries.  34 images of dim 241 fit in
    # SAMPLE_PANEL_BYTES, so a block of a suffix of two slots holds two
    # words' images of the 14 of the last slot: 16 letters for the means,
    # 28 for the held images, 28 each for the suffixes of one and of two
    # slots, and 98 for the suffix of three, one walk of its first slot's
    # 14 words on each of the 7 blocks.  At six images a block each suffix
    # is walked once per block: 618
    scalars = [np.array([[0.5]]), np.array([[0.3 + 0.2j]])]
    fds = free_unitary_dilation([(t, State.basis_vector(1, 0)) for t in scalars], 3, 4)
    rep = free_independence_check(fds.vacuum, fds.unitaries, max_len=4, degree=3)
    with mock.patch.object(ncprob, "SAMPLE_PANEL_BYTES", 6 * 241 * 16):
        six = free_independence_check(fds.vacuum, fds.unitaries, max_len=4, degree=3)
    assert (rep.details["letters_applied"], six.details["letters_applied"]) == (198, 618)
    assert (rep.details["sequences"], rep.details["entries"]) == (4, 14**2 + 2 * 14**3 + 14**4)
    assert six.residual == pytest.approx(rep.residual, rel=1e-12)


def test_sampled_pass_is_bounded_in_bytes():
    # free_pair's model: the held centered images take 2 x 14 x 241 x 16 B
    # (108 KB), and each streamed block at most SAMPLE_PANEL_BYTES, with
    # the stack of its walk: the traced peak of the check is 1.3 MB
    scalars = [np.array([[0.5]]), np.array([[0.3 + 0.2j]])]
    fds = free_unitary_dilation([(t, State.basis_vector(1, 0)) for t in scalars], 3, 4)
    assert fds.dim == 241
    free_independence_check(fds.vacuum, fds.unitaries, max_len=2, degree=1)
    tracemalloc.start()
    try:
        rep = free_independence_check(fds.vacuum, fds.unitaries, max_len=4, degree=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 1.5 * 2**20, peak


def test_gram_work_budget_refuses_before_any_image(monkeypatch):
    # free_pair at --max-alt 6 --trunc-len 6: 14^6 entries for each length-6
    # sequence, over MAX_GRAM_WORK times the dimension 2,185; refused
    # before a letter is applied
    scalars = [np.array([[0.5]]), np.array([[0.3 + 0.2j]])]
    fds = free_unitary_dilation([(t, State.basis_vector(1, 0)) for t in scalars], 3, 6)
    letters = _spy_letters(monkeypatch)
    with pytest.raises(BudgetError, match="MAX_GRAM_WORK"):
        free_independence_check(fds.vacuum, fds.unitaries, max_len=6, degree=3)
    assert letters == []
    assert free_independence_check(fds.vacuum, fds.unitaries, max_len=4, degree=3).passed
    letters.clear()
    monkeypatch.setattr(ncprob, "MAX_GRAM_WORK", 84 * 84 * fds.dim - 1)
    with pytest.raises(BudgetError, match="7056 Gram entries"):
        trace_check(fds.vacuum, fds.unitaries, degree=3)
    monkeypatch.setattr(ncprob, "MAX_GRAM_WORK", 15 * 15 * fds.dim - 1)
    with pytest.raises(BudgetError, match="225 Gram entries"):
        tensor_independence_check(fds.vacuum, fds.unitaries, degree=3)
    assert letters == []


def _spy_letters(monkeypatch):
    """Record every letter a sweep applies."""
    seen, apply = [], ncprob._Sweep.apply

    def spy(self, code, panel):
        seen.append(code)
        return apply(self, code, panel)

    monkeypatch.setattr(ncprob._Sweep, "apply", spy)
    return seen


def test_trace_gram_matches_dense_reference():
    # every pair of words up to the degree, in three factors under a
    # density state and in one factor: max |G - G^T| of the dense Gram,
    # and the witness names a pair of that gap
    rng = np.random.default_rng(3)
    for n, degree, kind in ((3, 2, "density"), (1, 4, "vector"), (2, 3, "kernel")):
        gens = GenSet({f: random_contraction(rng, 3, 0.9) for f in range(1, n + 1)})
        state = _panel_state(rng, 3, kind)
        rep = trace_check(state, gens, degree=degree)
        gram = dense_trace_gram(state, gens, degree)
        gaps = np.abs(gram - gram.T)
        words = words_up_to(gens.ids, degree)[1:]
        assert rep.residual == pytest.approx(gaps.max(), rel=1e-12)
        at = words.index(parse_word(rep.witness["left"])), words.index(parse_word(rep.witness["right"]))
        assert gaps[at] == pytest.approx(gaps.max(), rel=1e-12)
        assert (rep.details["words"], rep.details["entries"]) == (len(words), len(words) ** 2)


def test_trace_check_positive_maximally_mixed():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = State.maximally_mixed(3)
    rep = trace_check(s, GenSet({1: a * 0.1, 2: b * 0.1}), degree=3, tol=1e-10)
    assert rep.passed, rep.residual


def test_trace_check_negative_shift():
    shift = np.array([[0.0, 0.0], [1.0, 0.0]])
    s = State.basis_vector(2, 0)
    rep = trace_check(s, GenSet({1: shift}), degree=2, tol=1e-8)
    assert not rep.passed
    assert rep.residual >= 0.99  # phi(S*S) = 1 vs phi(SS*) = 0


# ---------------------------------------------------------------------------
# faithfulness


def test_faithfulness_positive_cyclic():
    res = finite_unitary_dilation(np.array([[0.5]]), 3)
    s = State.from_vector(res.embedding.isometry[:, 0])
    rep = faithfulness_check(s, res.gens, degree=2)
    assert rep.passed
    assert rep.details["span_dim"] == rep.details["gram_rank"]


def test_faithfulness_negative_rank_gap():
    gens = GenSet({1: np.diag([0.5, 0.25])})
    s = State.basis_vector(2, 0)
    rep = faithfulness_check(s, gens, degree=1)
    assert not rep.passed
    assert rep.details["span_dim"] == 2
    assert rep.details["gram_rank"] == 1
    assert rep.details["rank_gap"] == 1


def _gram_model_contraction(rng, dim, kind):
    """A contraction of norm 0.9, or for ``"partial_isometry"`` one with
    singular values exactly 0 and 1."""
    if kind == "generic":
        return random_contraction(rng, dim, 0.9)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "partial_isometry":
        w, _, vh = np.linalg.svd(g)
        return w[:, :1] @ vh[:1]
    m = np.triu(g, 1) if kind == "nilpotent" else np.outer(g[:, 0], g[0])  # rank one
    norm = np.linalg.norm(m, 2)
    return m if norm == 0 else 0.9 * m / norm


def _gram_model_state(rng, dim, kind):
    if kind in ("vector", "density"):
        return random_state(rng, dim, kind)
    # a density with zero eigenvalues: all but one of them when dim > 1
    p = np.zeros(dim)
    p[: max(1, dim - int(rng.integers(1, dim + 1)))] = rng.uniform(0.1, 1.0)
    u = random_unitary(rng, dim)
    return State.from_density((u * (p / p.sum())) @ adjoint(u))


_GRAM_KINDS = ("generic", "nilpotent", "rank_one", "partial_isometry")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.lists(st.sampled_from(_GRAM_KINDS), min_size=1, max_size=2),
    st.sampled_from(("vector", "density", "degenerate")),
    st.integers(1, 2),
)
def test_faithfulness_ranks_match_dense_reference(seed, dim, kinds, state_kind, degree):
    rng = np.random.default_rng(seed)
    gens = GenSet({f: _gram_model_contraction(rng, dim, k) for f, k in enumerate(kinds, start=1)})
    state = _gram_model_state(rng, dim, state_kind)
    want = dense_gram_ranks(state, gens, degree)
    rep = faithfulness_check(state, gens, degree)
    assert (rep.details["span_dim"], rep.details["gram_rank"]) == want
    assert rep.passed == (want[0] == want[1]) and rep.residual == want[0] - want[1]
    with mock.patch.object(ncprob, "GRAM_BLOCK_BYTES", 1):  # one panel column per block
        rep = faithfulness_check(state, gens, degree)
    assert (rep.details["span_dim"], rep.details["gram_rank"]) == want


def test_faithfulness_gram_is_bounded_in_bytes():
    # 259 words on a 54-dim space: their images on all 54 identity columns
    # take 12 MB; under a 1 MiB block they are filled four columns at a time
    diag = [np.diag([0.5, -0.3 + 0.2j]), np.diag([0.1j, 0.6]), np.diag([-0.4, 0.7])]
    res = doubly_commuting_dilation(diag, 2)
    state = State.from_vector(res.embedding.isometry @ np.array([0.6, 0.8]))
    words = 1 + 6 + 36 + 216
    assert 16 * res.ambient_dim**2 * words > 12e6
    want = dense_gram_ranks(state, res.gens, 3)
    with mock.patch.object(ncprob, "GRAM_BLOCK_BYTES", 2**20):
        faithfulness_check(state, res.gens, 1)  # first-call caches stay out
        tracemalloc.start()
        try:
            rep = faithfulness_check(state, res.gens, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rep.details["word_count"] == words
    assert (rep.details["span_dim"], rep.details["gram_rank"]) == want
    assert peak < 6 * 2**20, peak  # 37 MB with every word matrix kept


def test_faithfulness_word_cap():
    with pytest.raises(BudgetError, match="MAX_GRAM_WORDS"):
        faithfulness_check(
            State.basis_vector(2, 0), GenSet({1: np.eye(2), 2: np.eye(2)}), degree=9
        )


# ---------------------------------------------------------------------------
# partitions and cumulants


def test_noncrossing_counts_are_catalan():
    for k, c in enumerate(CATALAN, start=1):
        assert len(noncrossing_partitions(k)) == c


def test_noncrossing_matches_filtered_set_partitions():
    for k in range(1, 7):
        brute = {p for p in all_set_partitions(k) if is_noncrossing(p)}
        assert set(noncrossing_partitions(k)) == brute


def test_partitions_cover_ground_set():
    for p in noncrossing_partitions(4):
        flat = sorted(x for block in p for x in block)
        assert flat == [1, 2, 3, 4]


def test_is_noncrossing_detects_crossing():
    assert not is_noncrossing(((1, 3), (2, 4)))
    assert is_noncrossing(((1, 4), (2, 3)))


def test_partition_size_guards():
    with pytest.raises(ValueError):
        noncrossing_partitions(0)
    with pytest.raises(ValueError):
        noncrossing_partitions(13)
    with pytest.raises(ValueError):
        all_set_partitions(9)


def test_semicircle_cumulants():
    # standard semicircle moments: 0, 1, 0, 2, 0, 5 -> only kappa_2 = 1
    kap = free_cumulants([0, 1, 0, 2, 0, 5])
    np.testing.assert_allclose(kap, [0, 1, 0, 0, 0, 0], atol=1e-12)


def test_free_poisson_moments_are_catalan():
    # all free cumulants 1 -> moments count noncrossing partitions
    moments = moments_from_cumulants([1.0] * 8)
    np.testing.assert_allclose(moments, CATALAN, atol=1e-9)


def test_cumulant_round_trip_random():
    rng = np.random.default_rng(12)
    moments = list(rng.normal(size=8) + 1j * rng.normal(size=8))
    back = moments_from_cumulants(free_cumulants(moments))
    np.testing.assert_allclose(back, moments, atol=1e-10)


# ---------------------------------------------------------------------------
# mixed moment oracle


def test_oracle_scalar_product():
    phi1 = matrix_marginal(GenSet({1: np.array([[0.5]])}), State.basis_vector(1, 0))
    phi2 = matrix_marginal(GenSet({2: np.array([[0.5]])}), State.basis_vector(1, 0))
    val = free_mixed_moment_oracle({1: phi1, 2: phi2}, parse_word("1^1 2^1"))
    assert val == pytest.approx(0.25)


def test_oracle_haar_words():
    h = {1: haar_unitary_marginal(), 2: haar_unitary_marginal()}
    assert free_mixed_moment_oracle(h, parse_word("1^1 2^1 1^-1 2^-1")) == pytest.approx(0.0)
    assert free_mixed_moment_oracle(h, parse_word("1^1 2^1 2^-1 1^-1")) == pytest.approx(1.0)
    assert free_mixed_moment_oracle(h, parse_word("1^2 2^1")) == pytest.approx(0.0)


def test_oracle_alternating_centered_vanishes():
    # freeness produces zero for alternating centered blocks; check one case
    # against the definition: phi((a - phi(a))(b - phi(b))) = 0
    phi1 = matrix_marginal(
        GenSet({1: np.diag([0.5, 0.25])}), State.from_vector(np.array([0.6, 0.8]))
    )
    phi2 = haar_unitary_marginal()
    marg = {1: phi1, 2: phi2}
    w_ab = parse_word("1^1 2^1")
    a_mean = phi1(ncprob._codes([parse_word("1^1")]))[0]
    b_mean = phi2(ncprob._codes([parse_word("2^1")]))[0]
    joint = free_mixed_moment_oracle(marg, w_ab)
    assert joint == pytest.approx(a_mean * b_mean, abs=1e-12)


def test_oracle_single_block_is_marginal():
    phi1 = matrix_marginal(
        GenSet({1: np.diag([0.5, 0.25])}), State.from_vector(np.array([0.6, 0.8]))
    )
    w = parse_word("1^2 1^-1")
    assert free_mixed_moment_oracle({1: phi1}, w) == pytest.approx(phi1(ncprob._codes([w]))[0])


def test_oracle_guards():
    h = {1: haar_unitary_marginal()}
    with pytest.raises(ValueError):
        free_mixed_moment_oracle(h, Word(((1, False),) * 17))
    with pytest.raises(KeyError):
        free_mixed_moment_oracle(h, parse_word("2^1"))


@st.composite
def _marginals_and_words(draw):
    """Marginals of 2-3 factors, each a random matrix marginal (a vector or a
    density state) or the Haar unitary one, and words in those factors that
    share many blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3))
    marginals = {}
    for f in range(1, n + 1):
        kind = draw(st.sampled_from(["haar", "vector", "density"]))
        if kind == "haar":
            marginals[f] = haar_unitary_marginal()
        else:
            dim = draw(st.integers(1, 3))
            gens = GenSet({f: random_contraction(rng, dim, 0.95)})
            marginals[f] = matrix_marginal(gens, random_state(rng, dim, kind))
    letters = st.tuples(st.integers(1, n), st.booleans())
    word = st.lists(letters, max_size=7).map(lambda ls: Word(tuple(ls)))
    return marginals, draw(st.lists(word, min_size=1, max_size=12))


@settings(max_examples=100, deadline=None)
@given(_marginals_and_words(), st.sampled_from([None, 256, 4096]))
def test_shared_oracle_memo_matches_per_word_recursion(case, budget):
    # one recursion for all words gives the per-word recursion's bits, signed
    # zeros included, also when a budget of 256 or 4,096 bytes splits the
    # words into batches of one or a few
    marginals, words = case
    want = [per_word_free_moment(marginals, w) for w in words]
    with mock.patch.object(ncprob, "ORACLE_MEMO_BYTES", budget or ncprob.ORACLE_MEMO_BYTES):
        got, entries = free_mixed_moments(marginals, words)
    assert _bits(got) == _bits(want)
    assert _bits(free_mixed_moment_oracle(marginals, w) for w in words) == _bits(want)
    assert entries >= len({w.letters for w in words if w.letters})


def _bits(values):
    """Each complex value's two float64 bit patterns, so ``-0.0 != 0.0``."""
    return np.array(list(values), dtype=complex).view(np.uint64).tolist()


def test_oracle_memo_stays_within_its_bytes():
    # free_pair's 4,436 oracle words under two matrix marginals: one batch of
    # 4,468 sequences within the default bytes, and batches that take in
    # more sequences within a budget of 256 KiB, with the same moments; the
    # traced peak, beyond the moments and the table's one-byte copy, stays
    # within the budget
    rng = np.random.default_rng(36)
    words = signed_alternating_words(2, 4, 3, 6)
    marginals = {
        f: matrix_marginal(GenSet({f: random_contraction(rng, 2, 0.9)}), random_state(rng, 2))
        for f in (1, 2)
    }
    table = ncprob._codes(words)
    runs = []
    for budget in (ncprob.ORACLE_MEMO_BYTES, 256 * 2**10):
        recursion = ncprob._FreeRecursion(marginals, budget)
        tracemalloc.start()
        start = tracemalloc.get_traced_memory()[0]
        moments = recursion(table)
        peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.stop()
        assert peak - moments.nbytes - table.size <= budget
        runs.append((moments, recursion.entries))
    (whole, entries), (bounded, more) = runs
    assert (len(words), entries) == (4436, 4468) and more > entries
    assert _bits(bounded) == _bits(whole)
    assert free_mixed_moments(marginals, words) == (whole.tolist(), entries)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3), max_size=6))
def test_oracle_on_two_byte_codes_and_long_words(seed, word_runs):
    # factors 200 and 201, whose codes take two bytes, and words of up to 16
    # letters: the recursion keys its rows by their bytes and gives the
    # per-word recursion's bits all the same
    rng = np.random.default_rng(seed)
    marginals = {
        200: haar_unitary_marginal(),
        201: matrix_marginal(GenSet({201: random_contraction(rng, 2, 0.95)}), random_state(rng, 2, "density")),
    }

    def letters(f, n):  # a run of n letters of factor f, starred at random
        return tuple((f, bool(s)) for s in rng.integers(0, 2, n))

    words = [Word(letters(200, 6) + letters(201, 4) + letters(200, 6))]
    words += [Word(sum((letters(200 + i % 2, n) for i, n in enumerate(runs)), ())) for runs in word_runs]
    got, _ = free_mixed_moments(marginals, words)
    assert _bits(got) == _bits(per_word_free_moment(marginals, w) for w in words)


def test_oracle_refuses_every_word_before_expanding_any(monkeypatch):
    def refuse(self, letters):
        raise AssertionError("a word was expanded")

    monkeypatch.setattr(ncprob._FreeRecursion, "__call__", refuse)
    h = {1: haar_unitary_marginal()}
    with pytest.raises(ValueError, match="word length 17 exceeds oracle cap 16"):
        free_mixed_moments(h, [parse_word("1^1"), Word(((1, False),) * 17)])
    with pytest.raises(KeyError, match="no marginal for factor 2"):
        free_mixed_moments(h, [parse_word("1^1"), parse_word("1^1 2^1")])


def test_state_moment_of_element_product():
    # phi(a b) with explicit combinations equals the expanded combination
    gens = GenSet({1: np.diag([0.5, 0.25]), 2: np.array([[0.0, 0.3], [0.3, 0.0]])})
    s = State.from_vector(np.array([0.6, 0.8]))
    a = ((parse_word("1^1"), Word(())), [2.0, 1.0])
    b = ((parse_word("2^1"),), [1.0j])
    lhs = state_moment(s, gens, [a, b])
    rhs = 2.0 * 1.0j * word_moment(s, gens, parse_word("1^1 2^1")) + 1.0j * word_moment(
        s, gens, parse_word("2^1")
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)
