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
from certificate_oracles import dense_gram_ranks, word_commutation_residual
from free_independence_oracle import (
    nested_free_independence_check,
    nested_monomial_halves,
    nested_tensor_factorization,
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
    rep = trace_check(State.basis_vector(2, 0), gens, degree=1, samples=0)
    # the 16 products of two letters split into one-letter halves: the 4
    # letters as L*, then as R, each applied once
    assert rep.details["letters_applied"] == 8


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
    # a random combination of one factor's words: one disc draw per word
    rng = np.random.default_rng(1)
    words = ncprob._all_words([1], 2)
    (coeffs,) = ncprob._disc_coefficients(rng.uniform(0.0, 1.0, 2 * len(words)), [len(words)])
    assert len(words) == len(coeffs) == 7  # unit + 2 letters + 4 two-letter words
    assert len(set(words)) == 7
    assert all(abs(c) <= 1.0 + 1e-12 for c in coeffs)


# ---------------------------------------------------------------------------
# independence checks


def test_tensor_independence_positive():
    t1 = np.array([[0.5]])
    t2 = np.array([[0.0, 0.4], [0.1, 0.2]])
    s1 = State.basis_vector(1, 0)
    s2 = State.from_vector(np.array([0.8, 0.6]))
    gens, joint = make_tensor_independent([(t1, s1), (t2, s2)])
    rep = tensor_independence_check(joint, gens, degree=2, samples=25, tol=1e-10, seed=4)
    assert rep.passed, rep.residual


def test_tensor_independence_detects_noncommuting():
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    gens = GenSet({1: a, 2: adjoint(a)})
    s = State.basis_vector(2, 0)
    rep = tensor_independence_check(s, gens, degree=1, samples=0, tol=1e-8, seed=0)
    assert not rep.passed
    assert rep.witness["part"] == "commutation"


@pytest.mark.parametrize("seed", range(6))
def test_tensor_commutation_matches_word_level_reference_at_degree_one(seed):
    # noncommuting generators: every commutator norm of a pair counts, and at
    # degree 1 the generator commutators are all the word pairs there are
    rng = np.random.default_rng(seed)
    dim, n = 2 + seed % 2, 2 + seed % 3 // 2
    gens = GenSet({f: random_contraction(rng, dim) for f in range(1, n + 1)})
    rep = tensor_independence_check(State.basis_vector(dim, 0), gens, degree=1, samples=0)
    want = word_commutation_residual(gens, 1)
    assert not rep.passed and want > 1e-3
    assert rep.residual == pytest.approx(want, rel=1e-12)
    assert rep.details["commutators"] == n * (n - 1)


def test_tensor_factorization_matches_reference():
    # commuting but not tensor independent: diagonal operators under a mixed
    # state; the sweep sums each combination in another order than the reference
    rng = np.random.default_rng(8)
    gens = GenSet({f: np.diag(rng.uniform(-0.9, 0.9, 3)) for f in (1, 2)})
    s = State.from_density(np.diag([0.5, 0.3, 0.2]).astype(complex))
    rep = tensor_independence_check(s, gens, degree=2, samples=20, tol=1e-8, seed=3)
    worst, sample = nested_tensor_factorization(s, gens, degree=2, samples=20, seed=3)
    assert not rep.passed and type(rep.residual) is float
    assert rep.witness == {"part": "factorization", "sample": sample, "seed": 3}
    assert abs(rep.residual - worst) <= 1e-12
    # per factor the moments' halves, L* in {T*, T} and R in {T, T*}, then
    # the images of its 7 words on the state's columns: with two factors
    # each half of a product is one slot, combined from those images
    assert rep.details["letters_applied"] == 2 * (2 + 2 + 6)


def test_make_tensor_independent_dim_cap():
    t = np.eye(8) * 0.5
    s = State.basis_vector(8, 0)
    with pytest.raises(ValueError):
        make_tensor_independent([(t, s)] * 5)


def test_free_independence_negative_control_two_copies():
    # two labels pointing at the same dilated unitary are maximally non-free:
    # phi(c(U*) c(U)) = 1 - |t|^2
    res = finite_unitary_dilation(np.array([[0.5]]), 3)
    u = res.gens[1]
    xi = res.embedding.isometry[:, 0]
    s = State.from_vector(xi)
    rep = free_independence_check(s, GenSet({1: u, 2: u}), max_len=2, degree=1, samples=0, tol=1e-8, seed=0)
    assert not rep.passed
    assert rep.residual >= 0.1
    assert rep.witness["part"] == "monomial"


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
    fds = _two_by_two_free_model()
    gens = GenSet({1: fds.unitaries[1], 2: fds.unitaries[1]}) if twin else fds.unitaries
    args = dict(max_len=3, degree=2, samples=0 if twin else 6, tol=1e-9, seed=4)
    got = free_independence_check(fds.vacuum, gens, **args)
    want = nested_free_independence_check(fds.vacuum, gens, **args)
    assert got.passed == want.passed == (not twin)
    assert abs(got.residual - want.residual) <= 1e-12
    assert got.witness["part"] == want.witness["part"]
    if twin:
        assert got.witness == want.witness
    assert got.details["letters_applied"] > 0


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
    # two random contractions are far from free, and the random pass sets the
    # worst residual: each sample's moment is read from its own panel columns
    rng = np.random.default_rng(31)
    gens = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    args = dict(max_len=3, degree=2, samples=7, tol=1e-9, seed=5)
    got = free_independence_check(state, gens, **args)
    want = nested_free_independence_check(state, gens, **args)
    assert got.witness["part"] == "random"
    assert abs(got.residual - want.residual) <= 1e-12
    assert got.witness == want.witness
    assert got.details["panel_bytes"] == 7 * PANEL_COLUMNS[kind] * 3 * 16


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_tensor_factorization_sample_panels_match_reference(kind):
    rng = np.random.default_rng(32)
    gens = GenSet({f: np.diag(rng.uniform(-0.9, 0.9, 3)) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    rep = tensor_independence_check(state, gens, degree=2, samples=9, seed=6)
    worst, sample = nested_tensor_factorization(state, gens, degree=2, samples=9, seed=6)
    assert abs(rep.residual - worst) <= 1e-12
    assert rep.witness == {"part": "factorization", "sample": sample, "seed": 6}
    assert rep.details["panel_bytes"] == 9 * PANEL_COLUMNS[kind] * 3 * 16


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("kind", ["vector", "kernel"])
def test_sample_chunks_give_the_one_panel_result(kind, columns):
    # a sample panel bound of one or two state columns splits the samples
    # into chunks of one or two
    rng = np.random.default_rng(33)
    free = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2)})
    diag = GenSet({f: np.diag(rng.uniform(-0.9, 0.9, 3)) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)

    def run():
        return (
            free_independence_check(state, free, max_len=3, degree=2, samples=7, seed=5),
            tensor_independence_check(state, diag, degree=2, samples=7, seed=6),
        )

    whole = run()
    with mock.patch.object(ncprob, "SAMPLE_PANEL_BYTES", columns * 3 * 16):
        chunked = run()
    per_chunk = max(1, columns // PANEL_COLUMNS[kind])  # 7 samples: 1 * 7 or 1 + 2 + 2 + 2
    for one, many in zip(whole, chunked):
        assert many.residual == pytest.approx(one.residual, rel=1e-12, abs=1e-15)
        assert many.witness == one.witness
        assert many.details["panel_bytes"] == per_chunk * PANEL_COLUMNS[kind] * 3 * 16
        assert many.details["letters_applied"] > one.details["letters_applied"]


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_random_passes_do_not_depend_on_the_chunking(monkeypatch, kind):
    # real letters with one nonzero per row image a column alike in any
    # panel, so one sample per chunk gives every sample's moment, and the
    # residual and witness of the default chunks, to the bit: the slot means
    # and the tensor split are taken sample by sample
    rng = np.random.default_rng(37)
    shift = np.roll(np.diag(rng.uniform(0.3, 0.9, 3)), 1, axis=0)
    free = GenSet({1: shift, 2: np.diag(rng.uniform(-0.9, 0.9, 3))})
    diag = GenSet({f: np.diag(rng.uniform(-0.9, 0.9, 3)) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    moments, real = [], ncprob._Sweep.moments
    monkeypatch.setattr(ncprob._Sweep, "moments", lambda *a: moments.append(real(*a)) or moments[-1])
    runs = []
    for budget in (ncprob.SAMPLE_PANEL_BYTES, PANEL_COLUMNS[kind] * 3 * 16):
        monkeypatch.setattr(ncprob, "SAMPLE_PANEL_BYTES", budget)
        moments.clear()
        reps = (
            free_independence_check(state, free, max_len=3, degree=2, samples=9, seed=5),
            tensor_independence_check(state, diag, degree=2, samples=9, seed=6),
        )
        runs.append((np.concatenate(moments), reps))
    (whole, default), (single, one) = runs
    assert len(single) == len(whole) == 9 * (4 + 1)  # 4 free sequences, 1 tensor pass
    assert np.array_equal(single, whole)
    for a, b in zip(default, one):
        assert (b.residual, b.witness) == (a.residual, a.witness)
        assert b.details["panel_bytes"] == PANEL_COLUMNS[kind] * 3 * 16


def test_sample_draws_equal_the_per_slot_draws():
    # the samples draw all their slots, one sample after another, from one
    # generator per salt, each slot's radii and then its phases: the values
    # of one draw per slot, in the default chunk or in chunks of two
    sweep = ncprob._Sweep(State.from_density(np.diag([0.5, 0.3, 0.2]).astype(complex)), GenSet({1: np.eye(3)}))
    counts = [3, 7, 15]
    rng, want = ncprob._derive_rng(9, 2, 1), []
    for _ in range(5):
        want.append([])
        for n in counts:
            radii = np.sqrt(rng.uniform(0.0, 1.0, size=n))
            want[-1].append(radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=n)))
    for budget, chunks in ((ncprob.SAMPLE_PANEL_BYTES, 1), (2 * sweep.panel.nbytes, 3)):
        with mock.patch.object(ncprob, "SAMPLE_PANEL_BYTES", budget):
            got = list(sweep.sample_draws(5, (9, 2, 1), counts))
        assert len(got) == chunks
        for chunk, coeffs in got:
            for at, s in enumerate(chunk):
                for c, w in zip(coeffs, want[s]):
                    assert np.array_equal(c[at], w)


def _spy_arrays(monkeypatch, owner, name, length):
    """Record every array of ``length`` entries that ``owner.name`` returns."""
    seen, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        if np.ndim(out) == 1 and len(out) == length:
            seen.append(np.array(out))
        return out

    monkeypatch.setattr(owner, name, spy)
    return seen


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_random_passes_report_the_scalar_abs_of_their_worst_moment(monkeypatch, kind):
    # each random pass reads one chunk of 37 samples, and its residual is the
    # largest scalar ``abs`` of a sample's moment (for tensor independence,
    # of the moment minus the product of the factors' moments); ``np.abs`` of
    # a complex array may round a modulus otherwise, and does so at the
    # worst sample of each pass for some kind of state at this seed
    rng = np.random.default_rng(51)
    free = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2)})
    diag = GenSet({f: np.diag(rng.uniform(-0.9, 0.9, 3)) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    moments = _spy_arrays(monkeypatch, ncprob._Sweep, "moments", 37)
    rep = free_independence_check(state, free, max_len=3, degree=2, samples=37, seed=7)
    assert rep.witness["part"] == "random" and len(moments) == 4  # one per sequence
    assert rep.residual == max(abs(complex(v)) for m in moments for v in m)

    moments.clear()
    splits = _spy_arrays(monkeypatch, math, "prod", 37)
    rep = tensor_independence_check(state, diag, degree=2, samples=37, seed=8)
    assert rep.witness["part"] == "factorization" and len(moments) == len(splits) == 1
    assert rep.residual == max(abs(complex(v)) for v in moments[0] - splits[0])


def _node_widths(monkeypatch):
    """Record the columns of every panel a sweep applies a letter to."""
    widths = []
    apply = ncprob._Sweep.apply

    def spy(self, letter, panel):
        widths.append(panel.shape[1])
        return apply(self, letter, panel)

    monkeypatch.setattr(ncprob._Sweep, "apply", spy)
    return widths


def _adjoint_twin(witness):
    """The monomial witness of the adjoint product, whose moment is the
    conjugate: ``c(1^2) c(2^-1)`` for ``c(2^1) c(1^-2)``."""
    slots = [s.replace("^", "^-").replace("--", "") for s in reversed(witness["slots"])]
    return {**witness, "sequence": witness["sequence"][::-1], "slots": slots}


@pytest.mark.parametrize("nodes", [None, 1, 2])
@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_monomial_node_panels_match_nested_loops(monkeypatch, kind, nodes):
    # with no samples the monomial pass sets the witness; a budget of one or
    # two nodes' six centered options holds that many half images at a
    # time.  Each product is read off the images of its two halves, so the
    # digits and the witness equal those of the nested loops over the same
    # half products exactly, whatever the blocks.  The whole products of the
    # nested loops round otherwise: they agree to 1e-15, and their witness
    # is the check's one or its adjoint twin, of equal moment modulus
    rng = np.random.default_rng(34)
    shift = np.roll(np.diag(rng.uniform(0.3, 0.9, 3)), 1, axis=0)
    gens = GenSet({1: shift, 2: np.diag(rng.uniform(-0.9, 0.9, 3))})
    state = _panel_state(rng, 3, kind)
    args = dict(max_len=4, degree=3, samples=0, tol=1e-9, seed=5)
    want = nested_monomial_halves(state, gens, max_len=4, degree=3)
    whole = nested_free_independence_check(state, gens, **args)
    default = free_independence_check(state, gens, **args)
    if nodes is not None:
        monkeypatch.setattr(ncprob, "SAMPLE_PANEL_BYTES", nodes * 6 * PANEL_COLUMNS[kind] * 3 * 16)
    widths = _node_widths(monkeypatch)
    got = free_independence_check(state, gens, **args)
    assert not got.passed and got.witness["part"] == "monomial"
    assert (got.residual, got.witness) == want
    assert abs(got.residual - whole.residual) <= 1e-15
    assert got.witness in (whole.witness, _adjoint_twin(whole.witness))
    # every letter meets the state's columns of one image, and a budget of
    # fewer images a block walks the R halves once per block: more letters
    assert max(widths) == PANEL_COLUMNS[kind]
    if nodes is not None:
        assert got.details["letters_applied"] > default.details["letters_applied"]
    assert got.details["panel_bytes"] == 0  # the largest sample panel: none ran


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_monomial_node_panels_of_dense_letters_match_nested_loops(kind):
    # a dense letter's image of a column may round differently in a wider
    # panel, so the residual matches to an ulp and the witness may be the
    # adjoint twin of the nested loops' one, of equal moment modulus
    rng = np.random.default_rng(34)
    gens = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    args = dict(max_len=4, degree=3, samples=0, tol=1e-9, seed=5)
    got = free_independence_check(state, gens, **args)
    want = nested_free_independence_check(state, gens, **args)
    assert abs(got.residual - want.residual) <= 1e-12
    assert got.witness in (want.witness, _adjoint_twin(want.witness))


@pytest.mark.parametrize("kind", PANEL_COLUMNS)
def test_monomial_witness_does_not_depend_on_node_panels(monkeypatch, kind):
    # the monomial pass runs in no sample panel, so a budget of one node's
    # six options (what the node panels once took) moves no digit; the
    # witness is read off the maximum of a product and its adjoint twin
    rng = np.random.default_rng(34)
    gens = GenSet({f: random_contraction(rng, 3, 0.9) for f in (1, 2)})
    state = _panel_state(rng, 3, kind)
    args = dict(max_len=4, degree=3, samples=0, tol=1e-9, seed=5)
    default = free_independence_check(state, gens, **args)
    monkeypatch.setattr(ncprob, "SAMPLE_PANEL_BYTES", 6 * PANEL_COLUMNS[kind] * 3 * 16)
    one = free_independence_check(state, gens, **args)
    assert one.witness == default.witness
    assert one.residual == default.residual


@pytest.mark.parametrize("nodes", [None, 1, 2])
def test_monomial_node_panels_keep_the_first_of_equal_witnesses(monkeypatch, nodes):
    # one Fock unitary under both labels and a density state of rank two:
    # every product has a twin of equal moment under the swapped labels,
    # and the witness is the first of the worst in product order, as in the
    # nested loops over the same half products, whatever the blocks.  The
    # whole products of the other nested loops agree to 1e-12
    scalars = [np.array([[0.5]]), np.array([[0.3 + 0.2j]])]
    fds = free_unitary_dilation([(t, State.basis_vector(1, 0)) for t in scalars], 2, 3)
    gens = GenSet({1: fds.unitaries[1], 2: fds.unitaries[1]})
    rng = np.random.default_rng(35)
    v = rng.normal(size=(fds.dim, 2)) + 1j * rng.normal(size=(fds.dim, 2))
    state = State.from_density(v @ adjoint(v) / np.linalg.norm(v) ** 2)
    args = dict(max_len=3, degree=2, samples=0, tol=1e-9, seed=4)
    want = nested_monomial_halves(state, gens, max_len=3, degree=2)
    whole = nested_free_independence_check(state, gens, **args)
    if nodes is not None:  # a node is two columns, with four centered options
        monkeypatch.setattr(ncprob, "SAMPLE_PANEL_BYTES", nodes * 4 * 2 * fds.dim * 16)
    got = free_independence_check(state, gens, **args)
    assert not got.passed and got.witness["part"] == "monomial"
    assert (got.residual, got.witness) == want
    assert got.witness["sequence"][0] == 1  # before its label twin
    assert abs(got.residual - whole.residual) <= 1e-12


def test_monomial_pass_counts_letters_per_node_panel():
    # free_pair's model: the monomial pass reads its 3,096 products off 84
    # distinct halves L* and 84 R of one or two centered slots.  33 images
    # of dim 241 fit in SAMPLE_PANEL_BYTES, so the L* are held in 3 blocks
    # and each block streams its R: 608 letters, and 1,392 at six images a
    # block (node panels took 700 letters, and 3,148 one node at a time).
    # 6 more give the monomials' means and 16 the random pass's moments
    scalars = [np.array([[0.5]]), np.array([[0.3 + 0.2j]])]
    fds = free_unitary_dilation([(t, State.basis_vector(1, 0)) for t in scalars], 3, 4)
    args = dict(max_len=4, degree=3, samples=0, seed=1)
    rep = free_independence_check(fds.vacuum, fds.unitaries, **args)
    with mock.patch.object(ncprob, "SAMPLE_PANEL_BYTES", 6 * 241 * 16):
        one = free_independence_check(fds.vacuum, fds.unitaries, **args)
    assert (rep.details["letters_applied"], one.details["letters_applied"]) == (630, 1414)
    assert rep.residual == one.residual and rep.witness == one.witness


def test_sampled_pass_is_bounded_in_bytes():
    # free_pair's model: dim 241, so 33 samples fit in a sample panel, and
    # the 100 samples of a sequence run as four chunks of 25
    scalars = [np.array([[0.5]]), np.array([[0.3 + 0.2j]])]
    fds = free_unitary_dilation([(t, State.basis_vector(1, 0)) for t in scalars], 3, 4)
    assert fds.dim == 241
    args = dict(max_len=4, degree=3, samples=100, seed=1)
    free_independence_check(fds.vacuum, fds.unitaries, max_len=2, degree=1, samples=1)
    tracemalloc.start()
    try:
        rep = free_independence_check(fds.vacuum, fds.unitaries, **args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert rep.details["panel_bytes"] == 25 * 241 * 16
    # 1.0 MB in four chunks of 25; one panel of all 100 samples peaks at 3.9 MB
    assert peak < 1.5 * 2**20, peak


def test_trace_check_positive_maximally_mixed():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = State.maximally_mixed(3)
    rep = trace_check(s, GenSet({1: a * 0.1, 2: b * 0.1}), degree=3, samples=40, tol=1e-10, seed=2)
    assert rep.passed, rep.residual


def test_trace_check_negative_shift():
    shift = np.array([[0.0, 0.0], [1.0, 0.0]])
    s = State.basis_vector(2, 0)
    rep = trace_check(s, GenSet({1: shift}), degree=2, samples=0, tol=1e-8, seed=0)
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
