"""Dense word-matrix references for certificates that run without them.

The commutation part of ``ncprob.tensor_independence_check`` takes the
generator commutators of each factor pair, its factorization part and
``ncprob.trace_check`` stream word images into Grams, and
``ncprob.faithfulness_check`` fills its Grams from word sweeps.  These
references build every word's matrix instead: a word-level commutator loop,
the factorization gaps and the trace Gram from products of word matrices,
the Hilbert-Schmidt Gram of the stacked word matrices, and the state Gram
summed column by column.  The state is read through a dense ``eigh`` of its
density on the whole space, and word moments from the words' matrices.
Meant for small models only.
"""

import itertools

import numpy as np

from freedilation.ncprob import Word, apply_word, evaluate_word
from freedilation.operator_core import adjoint, operator_norm


def dense_state_columns(state):
    """Columns and weights that give the state, ``phi(a) = sum_k w_k <a v_k,
    v_k>``: a vector state's own vector, or else the eigenvectors of the
    state's density on its whole space, from a dense ``eigh`` (eigenvalues
    above 1e-14).  The density is the given one, or ``sum_k w_k v_k v_k*``
    of the state's columns, never those columns themselves."""
    if state.kind == "vector":
        return state.vector.reshape(-1, 1), np.ones(1)
    rho = state.density
    if rho is None:
        rho = (state.columns * state.weights) @ adjoint(state.columns)
    weights, panel = np.linalg.eigh(rho)
    keep = weights > 1e-14
    return panel[:, keep], weights[keep]


def dense_word_moments(state, gens, words):
    """``phi(w)`` of each word, from the word's matrix and
    :func:`dense_state_columns`."""
    panel, weights = dense_state_columns(state)
    images = (evaluate_word(w, gens) @ panel for w in words)
    return np.array([np.sum(weights * np.einsum("ik,ik->k", np.conj(panel), y)) for y in images])


def words_up_to(ids, degree):
    """The unit and every word of 1..degree letters in the factors ``ids``
    and their adjoints."""
    letters = [(f, s) for f in ids for s in (False, True)]
    return [Word(())] + [
        Word(combo)
        for length in range(1, degree + 1)
        for combo in itertools.product(letters, repeat=length)
    ]


def word_commutation_residual(gens, degree):
    """Max of ``||[w_a, w_b]||`` over nonempty words up to the degree in two
    distinct factors, from the words' matrices."""
    mats = {f: [evaluate_word(w, gens) for w in words_up_to([f], degree)[1:]] for f in gens.ids}
    worst = 0.0
    for fa, fb in itertools.combinations(gens.ids, 2):
        for ma in mats[fa]:
            for mb in mats[fb]:
                worst = max(worst, operator_norm(ma @ mb - mb @ ma))
    return worst


def _rank(gram, rank_rtol):
    s = np.linalg.svd(gram, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > rank_rtol * s[0]))


def dense_gram_ranks(state, gens, degree, rank_rtol=1e-9):
    """``(span_dim, gram_rank)``: the ranks of the Hilbert-Schmidt Gram of
    every word's matrix and of the state Gram ``sum_k w_k B_k* B_k``, where
    ``B_k`` holds every word applied to the state column ``v_k``."""
    words = words_up_to(gens.ids, degree)
    flat = np.stack([evaluate_word(w, gens).reshape(-1) for w in words], axis=1)
    span_dim = _rank(adjoint(flat) @ flat, rank_rtol)
    panel, weights = dense_state_columns(state)
    gram = np.zeros((len(words), len(words)), dtype=complex)
    for k in range(panel.shape[1]):
        block = np.stack([apply_word(w, gens, panel[:, k]) for w in words], axis=1)
        gram += weights[k] * (adjoint(block) @ block)
    return span_dim, _rank(gram, rank_rtol)


def _dense_moment(mat, panel, weights):
    return complex(np.sum(weights * np.einsum("ik,ik->k", np.conj(panel), mat @ panel)))


def dense_tensor_gaps(state, gens, degree):
    """``D[i_1, ..., i_n] = phi(w_1 ... w_n) - prod_j phi(w_j)`` over one
    word per factor in id order, each ``words_up_to([f], degree)[i_j]``."""
    panel, weights = dense_state_columns(state)
    mats = [[evaluate_word(w, gens) for w in words_up_to([f], degree)] for f in gens.ids]
    means = [[_dense_moment(m, panel, weights) for m in ms] for ms in mats]
    gaps = np.empty([len(ms) for ms in mats], dtype=complex)
    for idx in itertools.product(*map(range, gaps.shape)):
        product = np.linalg.multi_dot([mats[j][i] for j, i in enumerate(idx)] + [np.eye(gens.dim)])
        gaps[idx] = _dense_moment(product, panel, weights) - np.prod([means[j][i] for j, i in enumerate(idx)])
    return gaps


def dense_trace_gram(state, gens, degree):
    """``G[a, b] = phi(ab)`` over the nonempty words up to the degree, in the
    order of :func:`words_up_to`."""
    panel, weights = dense_state_columns(state)
    mats = [evaluate_word(w, gens) for w in words_up_to(gens.ids, degree)[1:]]
    return np.array([[_dense_moment(a @ b, panel, weights) for b in mats] for a in mats])
