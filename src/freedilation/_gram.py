"""The Gram certificates of tensor independence, free independence and
traciality, over the word sweeps of :mod:`.ncprob`, and the tensor product
model; loaded only on tensor and free paths.  Each check streams the images
of its words into exact Grams of state moments, refused past
``MAX_GRAM_WORK`` before any word is built.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._inputs import BudgetError
from .ncprob import CheckReport, GenSet, _all_words, _alternating_words, _first_use, _span_size, _Sweep
from .ncprob import _walk_plan, _word, worst_commutator
from .operator_core import DEFAULT_TOL, AxisAction, State, as_matrix, check_dim_cap

# the work of a certificate's Grams, their entries times the entries of the
# state's panel (dim x columns), refused past this before any word is
# built: free_pair at --trunc-len 6 takes 44,100 x 2,185 (9.6e7) and at
# --max-alt 6 8.6e6 x 2,185 (1.9e10)
MAX_GRAM_WORK = 2**32

# The largest check degree of tensor independence and traciality: the
# ``n x n`` pair moments that :func:`trace_check` compares are outside
# ``MAX_GRAM_WORK``, and at degree 12 (n = 8,190 on one factor) take 1.07 GB.
MAX_SMALL_CHECK_DEGREE = 3


def _small_degree(degree: int) -> int:
    """The check degree of tensor independence and traciality, refused above
    ``MAX_SMALL_CHECK_DEGREE``."""
    if degree > MAX_SMALL_CHECK_DEGREE:
        raise BudgetError(
            f"check degree {degree} exceeds cap {MAX_SMALL_CHECK_DEGREE} of tensor independence "
            "and traciality; lower the check degree"
        )
    return degree


def _gram_budget(sweep: _Sweep, entries: int) -> None:
    """Refuse a certificate's Grams of ``entries`` entries in all on the
    state's panel when ``entries * dim * k`` exceeds ``MAX_GRAM_WORK``,
    before any word is built."""
    dim, k = sweep.panel.shape
    if entries * dim * k > MAX_GRAM_WORK:
        raise BudgetError(
            f"{entries} Gram entries on a {dim} x {k} state panel exceed the work budget "
            f"MAX_GRAM_WORK = {MAX_GRAM_WORK} (entries x dim x columns); lower max_alt or the check degree"
        )


def _adjoint_rows(table: np.ndarray) -> np.ndarray:
    """The row of each word's adjoint, in a table closed under adjoint."""
    rows = [tuple(filter(None, row)) for row in table.tolist()]
    at = {row: i for i, row in enumerate(rows)}
    return np.array([at[tuple(c ^ 1 for c in reversed(row))] for row in rows], dtype=np.intp)


# ---------------------------------------------------------------------------
# tensor independence


def tensor_independence_check(
    state: State,
    gens: GenSet,
    degree: int = 2,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Certify a commuting family as tensor independent for the given state.

    Part (a) checks that the generators of distinct factors doubly commute,
    ``[A_i, A_j] = [A_i*, A_j] = 0``: then so do the *-algebras they
    generate, and for contractions ``||[w_a, w_b]|| <= |w_a| |w_b|`` times
    the larger of the pair's two norms (Leibniz rule).  Part (b) takes
    ``D[I] = phi(w_I) - prod_j phi(w_ij)`` over every product ``w_I = w_i1
    ... w_in`` of one word per factor in id order, each up to the degree,
    the unit included; ``sum |D|`` bounds ``|phi(a_1 ... a_n) - prod
    phi(a_j)|`` for every combination ``a_j`` of those words with
    coefficients in the unit disc, by multilinearity; the Grams of
    ``phi(w_I)`` come in blocks from :func:`_grams`.  The residual is the
    larger of the parts.
    """
    ids = list(gens.ids)
    sweep = _Sweep(state, gens)
    entries = _span_size(2, degree) ** len(ids)
    _gram_budget(sweep, entries)
    tables = {f: _all_words([f], degree) for f in ids}  # the unit first
    worst, pair = worst_commutator(gens)
    witness = {"part": "commutation", **pair} if worst > 0 else None

    phis = {f: sweep.word_moments(t) for f, t in tables.items()}
    total, top, at = 0.0, 0.0, None
    for seq, slots, gram in _grams(sweep, [tuple(ids)] if len(ids) > 1 else [], tables):
        gap = np.abs(gram - reduce(np.multiply.outer, [phis[f][s] for f, s in zip(seq, slots)]))
        total += float(gap.sum())
        value, where = _top(gap, slots)
        if at is None or value > top:
            top, at = value, where
    if total > worst:
        worst = total
        witness = {"part": "factorization", "words": [_word(tables[f][r]).format() for f, r in zip(ids, at)]}

    return CheckReport(
        name="tensor_independence",
        residual=worst,
        tol=tol,
        passed=worst <= tol,
        witness=witness,
        details={
            "degree": degree,
            "factors": ids,
            "commutators": len(ids) * (len(ids) - 1),
            "entries": entries,
            "max_entry": top,
            "letters_applied": sweep.letters,
        },
    )


# ---------------------------------------------------------------------------
# free independence


def _grams(
    sweep: _Sweep,
    sequences: Sequence[tuple[int, ...]],
    tables: Mapping[int, np.ndarray],
    means: Mapping[int, np.ndarray] | None = None,
) -> Iterator[tuple[tuple[int, ...], list[np.ndarray], np.ndarray]]:
    """``(seq, slots, gram)`` for every block of the Grams of the
    independence checks: ``gram[i_1, ..., i_m] = phi(x_1 ... x_m)``, ``x_j``
    the word ``slots[j][i_j]`` of ``tables[seq[j]]``, less its mean when
    ``means`` are given.

    ``phi(x_1 x_J) = <x_1* v, x_J v>``, and ``x_1*`` is a word of the same
    table, less the conjugate mean: the first slots' images are held, and
    the slots ``2 .. m`` streamed depth first in blocks
    (:meth:`_Sweep.descend`), one matrix product a block; sequences that
    share their last slots share those images."""
    plans = {f: _walk_plan(t) for f, t in tables.items()}
    held = {}  # f: the adjoint row of each column's word, and the conjugate images
    for f in {s[0] for s in sequences}:
        mean = None if means is None else means[f]
        ((order, images),) = sweep.blocks(plans[f], sweep.scaled, len(tables[f]), mean)
        held[f] = _adjoint_rows(tables[f])[order], np.conj(images, out=images).reshape(-1, len(order))
    by_right: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for s in sequences:
        by_right.setdefault(s[1:], []).append(s)
    needed = {s[j:] for s in sequences for j in range(1, len(s))}
    for suffix, rows, images in sweep.descend(plans, needed, means):
        for seq in by_right.get(suffix, ()):
            adjoints, conj = held[seq[0]]
            gram = (images.reshape(len(conj), -1).T @ conj).reshape(*map(len, rows), -1)
            yield seq, [adjoints, *rows[::-1]], gram.transpose()


def _top(gram: np.ndarray, slots: Sequence[np.ndarray]) -> tuple[float, list[int]]:
    """The first largest entry of a block of moduli, and the rows of its words."""
    at = int(np.argmax(gram))
    return float(gram.flat[at]), [s[i] for s, i in zip(slots, np.unravel_index(at, gram.shape))]


def free_independence_check(
    state: State,
    gens: GenSet,
    max_len: int = 4,
    degree: int = 2,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Certify free independence: centered alternating products have zero moment.

    For each alternating factor sequence ``f_1 ... f_m``, ``2 <= m <=
    max_len``, the check takes the Gram ``M[i, J] = phi(z_i z_J)`` over
    the centered words ``z = w - phi(w)`` of each factor up to the degree,
    the unit left out (its ``z`` is 0), ``z_J`` the product of slots ``2 ..
    m``.  ``M = 0`` for every sequence is freeness up to length
    ``max_len`` (Nica and Speicher, Lecture 5), and ``sum |M|`` bounds
    ``|phi(x_1 ... x_m)|`` for every choice of ``x_j`` that combines the
    centered words of ``f_j`` with coefficients in the unit disc, by
    multilinearity.  The residual is the largest ``sum |M|`` over the
    sequences; the witness names the largest entry of that sequence as
    centered slots, ``c(word)``, and the details give ``max |M|`` over all
    of them (``max_entry``) and the ``entries`` taken.

    Of each pair of adjoint twins, ``f_m ... f_1`` and ``f_1 ... f_m``,
    only the first in product order is taken: a word list is closed under
    adjoint, so the twin's Gram holds the conjugates of the same entries.
    The Grams of the centered words come in blocks from :func:`_grams`.  More than
    ``MAX_GRAM_WORK`` of them raise :class:`BudgetError` before any word
    is built.
    """
    ids = list(gens.ids)
    if len(ids) < 2:
        raise ValueError("free independence needs at least two factors")
    if degree < 1:
        raise ValueError(f"free independence needs degree >= 1, got {degree}")
    # alternating factor sequences of length 2..max_len, one of each twin pair
    chains = _alternating_words(ids, (1,), max_len, 1, max_len).tolist()
    sequences = [s for r in chains if len(s := tuple(c >> 1 for c in r if c)) >= 2 and s <= s[::-1]]
    sweep = _Sweep(state, gens)
    entries = sum((_span_size(2, degree) - 1) ** len(s) for s in sequences)  # the unit left out
    _gram_budget(sweep, entries)

    tables = {f: _all_words([f], degree)[1:] for f in ids} if sequences else {}
    means = {f: sweep.word_moments(t) for f, t in tables.items()}
    sums, tops = dict.fromkeys(sequences, 0.0), {}
    for seq, slots, gram in _grams(sweep, sequences, tables, means):
        gram = np.abs(gram)
        sums[seq] += float(gram.sum())
        value, where = _top(gram, slots)
        if seq not in tops or value > tops[seq][0]:
            tops[seq] = value, where
    seq = max(sequences, key=sums.__getitem__, default=None)  # the first of the worst
    worst, witness = 0.0 if seq is None else sums[seq], None
    if worst > 0:
        words = [_word(tables[f][r]) for f, r in zip(seq, tops[seq][1])]
        witness = {"sequence": list(seq), "slots": [f"c({w.format()})" for w in words]}

    return CheckReport(
        name="free_independence",
        residual=worst,
        tol=tol,
        passed=worst <= tol,
        witness=witness,
        details={
            "max_len": max_len,
            "degree": degree,
            "factors": ids,
            "sequences": len(sequences),
            "entries": entries,
            "max_entry": max((t[0] for t in tops.values()), default=0.0),
            "letters_applied": sweep.letters,
        },
    )


# ---------------------------------------------------------------------------
# traciality


def trace_check(
    state: State,
    gens: GenSet,
    degree: int = 3,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Check ``phi(ab) = phi(ba)`` for every pair of nonempty words up to the
    degree: the residual is ``max |G - G^T|`` for ``G[a, b] = phi(ab)``.

    A word ``a = u t`` splits after its first ``ceil(degree / 2)`` letters,
    and ``phi(ab) = phi(u y)`` for ``y = t b``: a Gram of :func:`_grams`
    over the heads ``u``, every word of ``1 .. ceil(degree / 2)`` letters
    and so closed under adjoint, and the distinct ``y``.  More than
    ``MAX_GRAM_WORK`` of ``G``, or a degree above ``MAX_SMALL_CHECK_DEGREE``,
    raises :class:`BudgetError` before any word is built.
    """
    ids = list(gens.ids)
    n, h = _span_size(2 * len(ids), degree) - 1, (degree + 1) // 2
    sweep = _Sweep(state, gens)
    _gram_budget(sweep, n * n)
    _small_degree(degree)
    table = _all_words(ids, degree)[1:]
    # joined[t, b]: the distinct tail t (a word's letters after its head),
    # then the letters of b; word a's rest with b is joined[ti[a], b]
    (tails, ti), width = _first_use(table[:, h:]), table.shape[1]
    ends = np.count_nonzero(tails, axis=1)
    joined = np.zeros((len(tails), n, tails.shape[1] + width), dtype=np.intp)
    joined[:, :, : tails.shape[1]] = tails[:, None]
    joined[np.arange(len(tails))[:, None, None], np.arange(n)[:, None], ends[:, None, None] + np.arange(width)] = table
    (heads, hi), (rests, ri) = _first_use(table[:, :h]), _first_use(joined.reshape(len(tails) * n, -1))
    gram = np.empty((len(heads), len(rests)), dtype=complex)  # gram[u, y] = phi(u y)
    for _, (us, ys), block in _grams(sweep, [(0, 1)], {0: heads, 1: rests}):
        gram[us[:, None], ys] = block
    moments = gram[hi[:, None], ri.reshape(len(tails), n)[ti]]  # phi(ab)
    res = np.abs(moments - moments.T)
    at = int(np.argmax(res))  # the first of the worst
    worst, witness = float(res.flat[at]), None
    if worst > 0:
        a, b = np.unravel_index(at, res.shape)
        witness = {"left": _word(table[a]).format(), "right": _word(table[b]).format()}
    return CheckReport(
        name="traciality",
        residual=worst,
        tol=tol,
        passed=worst <= tol,
        witness=witness,
        details={
            "degree": degree,
            "factors": ids,
            "words": n,
            "entries": n * n,
            "letters_applied": sweep.letters,
        },
    )


# ---------------------------------------------------------------------------
# tensor product model


def make_tensor_independent(factors: Sequence[tuple[np.ndarray, State]]) -> tuple[GenSet, State]:
    """Ampliate factors onto the tensor product space with the product state.

    Returns the generators keyed 1..n and the joint state, whose columns
    are the Kronecker products of the factors' columns, weighted by the
    products of their weights; tensor independence holds by construction.
    Generator ``i`` is the ampliation
    ``I (x) ... (x) T_i (x) ... (x) I``, kept as an :class:`AxisAction` of
    ``T_i`` on leg ``i - 1``, never as a matrix of the product space.
    """
    mats = [as_matrix(t) for t, _ in factors]
    dims = [m.shape[0] for m in mats]
    check_dim_cap(math.prod(dims), "tensor product")
    gens = GenSet({i: AxisAction(dims, (i - 1,), m) for i, m in enumerate(mats, start=1)})
    columns = reduce(np.kron, [s.columns for _, s in factors])
    weights = reduce(np.kron, [s.weights for _, s in factors])
    return gens, State.from_columns(columns, weights)
