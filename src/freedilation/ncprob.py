"""Noncommutative probability toolkit: words and their enumeration, moments,
commutators and the faithfulness certificate.

Everything here works against a :class:`GenSet`, the square generators of
one common space keyed by 1-based factor id, together with a
:class:`~.operator_core.State` on that space; :func:`apply_word` is the one
place a generator letter is applied.  Checks return structured reports
carrying the worst residual and a witness sufficient to reproduce it; the
Gram certificates of independence and traciality are in ``_gram``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._inputs import BudgetError
from .operator_core import (
    RANK_RTOL,
    AxisAction,
    LetterAction,
    State,
    adjoint,
    as_matrix,
    identity_panel,
    operator_norm,
)

MAX_GRAM_WORDS = 4096
# the longest word ``Word.from_runs`` expands, and so the longest parsed
# word (``parse_word``, every ``--word``); word tables never pass through it
MAX_WORD_LETTERS = 2**16
# bytes of the stacked word images of one column block of a faithfulness
# Gram; their conjugate, for the Gram product, takes as much again
GRAM_BLOCK_BYTES = 64 * 2**20
# bytes of the per-word arrays held at once: the half images of word
# moments, the blocks that the independence and trace Grams stream, and the
# stacked differences of the dilation identity, whose Grams take as much again
SAMPLE_PANEL_BYTES = 128 * 2**10


# ---------------------------------------------------------------------------
# words and combinations


@dataclass(frozen=True, slots=True)
class Word:
    """Finite product of generators and adjoints; ``letters`` is a tuple of
    ``(factor id, star flag)`` pairs, empty meaning the unit.  Word lists
    run as code tables (:func:`_codes`), not as words."""

    letters: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple((int(f), bool(s)) for f, s in self.letters))

    @staticmethod
    def from_runs(runs: Iterable[tuple[int, int]]) -> "Word":
        """Build from signed power runs: ``(i, k)`` contributes ``T_i^k`` for
        ``k >= 0`` and ``(T_i*)^{-k}`` for ``k < 0``.  More than
        ``MAX_WORD_LETTERS`` letters in all are refused before any is built."""
        runs = [(int(f), int(k)) for f, k in runs]
        total = sum(abs(k) for _, k in runs)
        if total > MAX_WORD_LETTERS:
            raise ValueError(
                f"word of {total} letters exceeds the word letter cap {MAX_WORD_LETTERS}"
            )
        return Word(tuple((f, k < 0) for f, k in runs for _ in range(abs(k))))

    def __len__(self) -> int:
        return len(self.letters)

    def runs(self) -> tuple[tuple[int, int], ...]:
        """Signed power runs, merging consecutive letters with equal factor and flag."""
        out: list[tuple[int, int]] = []
        for f, s in self.letters:
            step = -1 if s else 1
            if out and out[-1][0] == f and (out[-1][1] < 0) == s:
                out[-1] = (f, out[-1][1] + step)
            else:
                out.append((f, step))
        return tuple(out)

    def blocks(self) -> tuple[tuple[int, tuple[bool, ...]], ...]:
        """Maximal same-factor blocks, as ``(factor id, star flags of its
        consecutive letters)`` (stars may mix inside a block)."""
        runs = itertools.groupby(self.letters, key=itemgetter(0))
        return tuple((f, tuple(s for _, s in run)) for f, run in runs)

    def format(self) -> str:
        """Signed power runs, ``"1^2 2^-1"``; the unit is ``""``."""
        return " ".join(f"{f}^{k}" for f, k in self.runs())


def parse_word(text: str) -> Word:
    """Parse ``"1^2 2^-1"`` style words, and the unit ``""``: the inverse of
    :meth:`Word.format`.  ``"2*"`` is shorthand for ``2^-1`` and a bare
    ``"3"`` for ``3^1``."""
    text = text.strip()
    if not text:
        return Word(())
    runs: list[tuple[int, int]] = []
    for token in text.split():
        head, sep, tail = token.partition("^")
        starred = head.endswith("*")
        if starred:
            head = head[:-1]
        try:
            factor = int(head)
        except ValueError:
            raise ValueError(f"bad word token {token!r}: factor must be an integer") from None
        if factor < 1:
            raise ValueError(f"bad word token {token!r}: factor ids are 1-based")
        if sep:
            try:
                power = int(tail)
            except ValueError:
                raise ValueError(f"bad word token {token!r}: power must be an integer") from None
        else:
            power = 1
        if starred:
            power = -power
        runs.append((factor, power))
    return Word.from_runs(runs)


def _word(row: Iterable[int]) -> Word:
    return Word(tuple((c >> 1, c & 1) for c in row if c))


def _table(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Rows of letter codes as a table, each padded with zeros to the longest."""
    width = max([1, *map(len, rows)])
    return np.array([[*row, *[0] * (width - len(row))] for row in rows], dtype=np.intp).reshape(-1, width)


def _codes(words: Sequence[Word]) -> np.ndarray:
    """A word list's table: row ``i`` is word ``i``'s codes ``2 * factor + star``, then zeros."""
    if any(f < 1 for w in words for f, _ in w.letters):  # code 0 pads
        raise ValueError("factor ids are 1-based: a word names a factor below 1")
    return _table([[2 * f + s for f, s in w.letters] for w in words])


# a linear combination of words, as the words and their complex coefficients
Combination = tuple[Sequence[Word], Sequence[complex]]


def _apply_dense(m: np.ndarray, panel: np.ndarray, star: bool) -> np.ndarray:
    """A starred letter is ``conj(m.T @ conj(panel))``, which equals
    ``m* @ panel`` without forming the adjoint."""
    return np.conj(m.T @ np.conj(panel)) if star else m @ panel


@dataclass(frozen=True, eq=False)
class GenSet:
    """Square generators of one common space, keyed by 1-based factor id:
    matrices, or :class:`LetterAction` objects that apply a generator
    without storing its matrix.

    Validated once, by the constructor: every matrix passes ``as_matrix``
    (finite complex entries), all generators share one square shape, and
    there is at least one.  Complex arrays are shared with the caller, not
    copied, and no adjoint is stored.  :meth:`apply` is the one place a
    letter meets its generator.
    """

    mats: Mapping[int, np.ndarray | LetterAction]

    def __post_init__(self):
        mats = {f: m if isinstance(m, LetterAction) else as_matrix(m) for f, m in self.mats.items()}
        if not mats:
            raise ValueError("a generator set needs at least one generator")
        if min(mats) < 1:  # a letter's code ``2 * factor + star`` must not be 0
            raise ValueError(f"generator ids are 1-based, got {min(mats)}")
        shapes = {m.shape for m in mats.values()}
        if len(shapes) != 1 or any(a != b for a, b in shapes):
            raise ValueError(
                f"generators must be square matrices on a common space, got shapes {sorted(shapes)}"
            )
        mats = dict(sorted(mats.items()))
        object.__setattr__(self, "mats", mats)
        object.__setattr__(
            self,
            "_letters",
            {
                f: m.apply if isinstance(m, LetterAction) else partial(_apply_dense, m)
                for f, m in mats.items()
            },
        )

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(self.mats)

    @property
    def dim(self) -> int:
        return next(iter(self.mats.values())).shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes the generators hold: their matrices or their actions' data."""
        return sum(m.nbytes for m in self.mats.values())

    def support(self, factors: Iterable[int]) -> np.ndarray:
        """The identity columns on which every product of the letters of
        ``factors`` shows its full norm.

        When the factors are axis actions on the same legs, a product of
        their letters is ``K (x) I`` with ``K`` on the union of their legs,
        so its columns over those legs, with every other leg at
        index 0, hold a copy of ``K`` and nothing else: there
        ``||(K (x) I) P|| = ||K||`` and ``||(K (x) I - I) P|| = ||K - I||``,
        exactly.  Any other generators give all columns.
        """
        acts = [self[f] for f in factors]
        legs = acts[0].legs if isinstance(acts[0], AxisAction) else None
        if legs is None or any(not isinstance(a, AxisAction) or a.legs != legs for a in acts):
            return np.arange(self.dim)
        used = set().union(*(a.axes for a in acts))
        grid = np.arange(self.dim).reshape(legs)
        return grid[tuple(slice(None) if k in used else 0 for k in range(len(legs)))].ravel()

    def __getitem__(self, factor: int) -> np.ndarray | LetterAction:
        try:
            return self.mats[factor]
        except KeyError:
            raise self._unknown(factor) from None

    def apply(self, letter: tuple[int, bool], panel: np.ndarray) -> np.ndarray:
        """The letter ``(factor, star)`` applied to a complex vector or panel."""
        factor, star = letter
        try:
            apply = self._letters[factor]
        except KeyError:
            raise self._unknown(factor) from None
        return apply(panel, star)

    def _unknown(self, factor: int) -> KeyError:
        return KeyError(f"unknown factor id {factor}; known ids: {list(self.mats)}")


def apply_word(word: Word, gens: GenSet, panel: np.ndarray) -> np.ndarray:
    """Apply a word to a vector or column panel, rightmost letter first, one
    :meth:`GenSet.apply` per letter."""
    out = np.asarray(panel, dtype=complex)
    for letter in reversed(word.letters):
        out = gens.apply(letter, out)
    return out


def evaluate_word(word: Word, gens: GenSet) -> np.ndarray:
    """The matrix of a word: the word applied to the identity."""
    return apply_word(word, gens, np.eye(gens.dim, dtype=complex))


_code_word = lru_cache(maxsize=None)(lambda code: _word((code,)))


# a table's walk: its rows in visiting order, the letters each keeps of the
# row before, every row's codes, last letter first, and each visit's stack
# steps: whether it pops the panel it resumes from, and the depths it pushes
WalkPlan = tuple[list[int], list[int], list[list[int]], list[tuple[bool, list[int]]]]


def _walk_plan(table: np.ndarray) -> WalkPlan:
    """A table's walk: the words sorted by their reversed letters, each
    keeping the suffix it shares with the word before, which ``map(eq,
    ...)`` finds without a Python step per letter.

    A walk holds a suffix's panel only while a later word resumes from it:
    after word ``t``, at depth ``keep[t + 1]`` and each later keep smaller
    than all before it (a next-smaller chain, built backwards).  Word ``t``
    pops the panel it resumes from unless its own chain holds that depth,
    and pushes its chain's depths above ``keep[t]``."""
    backs = [list(filter(None, reversed(row.tolist()))) for row in table]
    order = sorted(range(len(backs)), key=backs.__getitem__)
    keep, done = [], []
    for todo in map(backs.__getitem__, order):
        keep.append([*map(eq, todo, done), False].index(False))
        done = todo
    chain, steps = [], []  # chain: the depths later words resume from, increasing
    for k in reversed(keep):
        at = bisect_left(chain, k)
        held = chain[at : at + 1] == [k]  # a later word resumes from k too
        steps.append((not held, chain[at + held :]))
        chain[at:] = [k]
    steps.reverse()
    return order, keep, backs, steps


class _Sweep:
    """A state's columns and a generator set, for word sweeps that share work.

    Every letter goes through :meth:`apply`, one :func:`apply_word` call per
    letter, and ``letters`` counts them: the work a sweep actually did.
    ``scaled`` is the state's columns times ``sqrt(w_k)``, so that
    ``phi(X) = <P, X P>`` over all its columns.

    The certificates' Grams take word images in blocks (:meth:`blocks`,
    :meth:`descend`): an image of the ``k`` state columns is ``k`` columns,
    and a block of ``c`` images is a ``(dim, k, c)`` array, whose ``(dim, k
    * c)`` form is a panel for further letters and whose ``(dim * k, c)``
    form meets another block's in one matrix product.
    """

    def __init__(self, state: State | None, gens: GenSet):
        self.gens = gens
        if state is not None:  # a bare sweep walks only the panels it is given
            self.panel, self.weights = state.columns, state.weights
            self.scaled = self.panel * np.sqrt(self.weights)
        self.letters = 0

    def apply(self, code: int, panel: np.ndarray) -> np.ndarray:
        self.letters += 1
        return apply_word(_code_word(code), self.gens, panel)

    def walk(self, plan: WalkPlan, panel: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(i, word i applied to panel)`` for every word of a
        table, in the order of its :func:`_walk_plan`: a stack keeps the
        applied suffixes that later words resume from, so each distinct
        suffix costs one code (:meth:`apply`), and only the stack's panels
        and the current image are live."""
        order, keep, backs, steps = plan
        stack = [panel]  # the panels of the plan's chain, deepest last
        for i, k, (pop, pushes) in zip(order, keep, steps):
            image = stack.pop() if pop else stack[-1]
            for depth, code in enumerate(backs[i][k:], k + 1):
                image = self.apply(code, image)
                if depth in pushes:
                    stack.append(image)
            yield i, image

    def blocks(
        self, plan: WalkPlan, panel: np.ndarray, size: int, means: np.ndarray | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(rows, images)`` for consecutive blocks of at most ``size`` of a
        table's words, in the order of one walk of its plan: ``images[...,
        j]``, of shape ``panel.shape``, is word ``rows[j]`` applied to the
        panel, less ``means[rows[j]]`` times the panel when means are given."""
        walk, left = self.walk(plan, panel), len(plan[0])
        while left > 0:
            n = min(size, left)
            left -= n
            rows, images = np.empty(n, dtype=np.intp), np.empty((*panel.shape, n), dtype=complex)
            for j, (i, image) in zip(range(n), walk):
                rows[j], images[..., j] = i, image
                if means is not None:
                    images[..., j] -= means[i] * panel
            yield rows, images

    def descend(
        self,
        plans: Mapping[int, WalkPlan],
        needed: set[tuple[int, ...]],
        means: Mapping[int, np.ndarray] | None = None,
    ) -> Iterator[tuple[tuple[int, ...], list[np.ndarray], np.ndarray]]:
        """``(suffix, rows, images)`` for every block of every factor sequence
        in ``needed`` (closed under taking suffixes, adjacent factors
        distinct): the products ``x_1 ... x_r`` of one word of the table
        planned in ``plans[f]`` per factor ``f`` of ``suffix``, less its mean
        when ``means`` are given, applied to ``scaled``.

        Depth first: a block of a suffix is the panel that each word of the
        factor in front of it is applied to, by one walk, so each image is
        computed once, and a block holds at most ``SAMPLE_PANEL_BYTES`` of
        images (one parent block at least).  ``rows[j]`` are the block's
        words of the factor applied ``j``-th, ``suffix[-1 - j]``, and an
        image's index in the block runs over them with ``rows[0]``
        outermost.
        """
        dim, size = len(self.scaled), max(1, SAMPLE_PANEL_BYTES // self.scaled.nbytes)

        def visit(suffix, rows, images):
            yield suffix, rows, images
            wide = images.size // self.scaled.size  # the images in this block
            for g, plan in plans.items():
                if g != suffix[0] and (g, *suffix) in needed:
                    mean = None if means is None else means[g]
                    for new, child in self.blocks(plan, images.reshape(dim, -1), max(1, size // wide), mean):
                        yield from visit((g, *suffix), [*rows, new], child)

        for f, plan in plans.items():
            if (f,) in needed:
                for new, images in self.blocks(plan, self.scaled, size, None if means is None else means[f]):
                    yield from visit((f,), [new], images)
        del visit  # its closure holds it: break the cycle, so the sweep is freed with its check

    def word_moments(self, table: np.ndarray) -> np.ndarray:
        """``phi(w)`` for every word of a table, from two half-words.

        ``w = L R``, ``R`` its last ``ceil(n/2)`` letters, has ``phi(w) = sum_k
        w_k <R v_k, L* v_k>`` exactly, for any generators: one ``vdot`` of the
        images of ``L*`` and ``R`` on the state's columns scaled by
        ``sqrt(w_k)``, the same digits in any list.  The distinct ``L*`` are
        held in blocks within ``SAMPLE_PANEL_BYTES`` (one image at least), each
        streaming the ``R`` its words need.  Code ``c ^ 1`` is the adjoint
        of ``c``.
        """
        panel = self.scaled
        if len(table) == 0:
            return np.zeros(0, dtype=complex)
        n = np.count_nonzero(table, axis=1)[:, None]
        h, col, last = n // 2, np.arange((table.shape[1] + 1) // 2), table.shape[1] - 1
        right = np.where(h + col < n, np.take_along_axis(table, np.minimum(h + col, last), 1), 0)
        left = np.where(col < h, np.take_along_axis(table, np.maximum(h - 1 - col, 0), 1) ^ 1, 0)
        (lefts, li), (rights, ri) = _first_use(left), _first_use(right)
        size = max(1, SAMPLE_PANEL_BYTES // panel.nbytes)
        block = li // size
        order = np.lexsort((ri, block))  # the words by block of L*, then by R
        cuts = np.flatnonzero(np.diff(block[order]) | np.diff(ri[order])) + 1
        groups, heads = np.split(order, cuts), order[np.r_[0, cuts]]  # a group's words share both
        ends = np.searchsorted(block[heads], np.arange(1, -(-len(lefts) // size) + 1))
        out, vdot = np.empty(len(table), dtype=complex), np.vdot
        for b, (lo, hi) in enumerate(zip([0, *ends], ends)):
            held = [None] * min(size, len(lefts) - b * size)
            for i, image in self.walk(_walk_plan(lefts[b * size : b * size + size]), panel):
                held[i] = image.ravel()
            for j, image in self.walk(_walk_plan(rights[ri[heads[lo:hi]]]), panel):
                words, right = groups[lo + j], image.ravel()
                out[words] = [vdot(held[i], right) for i in (li[words] - b * size).tolist()]
            del held  # before the next block is walked
        return out

    def combine(self, table: np.ndarray, coeffs: np.ndarray, panel: np.ndarray) -> np.ndarray:
        """``sum_i coeffs[i] word_i`` applied to panel, by one walk."""
        out = np.zeros(panel.shape, dtype=complex)
        for i, term in self.walk(_walk_plan(table), panel):
            out += coeffs[i] * term
        return out


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of codes as one sortable key, its bytes: rows of one width
    and dtype have equal keys exactly when their codes are equal."""
    return np.ascontiguousarray(rows).view(f"V{rows.shape[-1] * rows.itemsize}")[..., 0]


def _first_use(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A table's distinct rows in order of first use, and each row's index among them."""
    if rows.shape[1] == 0:  # rows of no codes are all the one empty row
        return rows[:1], np.zeros(len(rows), dtype=np.intp)
    _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rows[np.sort(first)], rank[inverse]


def word_moments(state: State, gens: GenSet, words: Sequence[Word]) -> np.ndarray:
    """``phi(w)`` for every word, from half-words (:meth:`_Sweep.word_moments`)."""
    return _Sweep(state, gens).word_moments(_codes(words))


def free_mixed_moment_oracle(marginals: Mapping[int, Callable], word: Word) -> complex:
    """``_freeprob.free_mixed_moments`` of one word; the free module loads
    on the first call."""
    from ._freeprob import free_mixed_moments

    return free_mixed_moments(marginals, [word])[0][0]


def state_moment(state: State, gens: GenSet, factors: Sequence[Combination]) -> complex:
    """``phi(a_1 a_2 ... a_m)`` for combinations ``a_k``, applied right to left
    to the scaled state columns on one sweep; a word ``w`` alone is ``((w,), [1])``.
    One combination is its words' :func:`word_moments`, the digits every
    certificate and the oracle read."""
    sweep = _Sweep(state, gens)
    if len(factors) == 1:
        words, coeffs = factors[0]
        return complex(np.dot(coeffs, sweep.word_moments(_codes(words))))
    applied = sweep.scaled
    for words, coeffs in reversed(factors):
        applied = sweep.combine(_codes(words), coeffs, applied)
    return complex(np.vdot(sweep.scaled, applied))


def center(comb: Combination, state: State, gens: GenSet) -> Combination:
    """Subtract the state mean: the unit word joins at coefficient ``-phi(a)``."""
    words, coeffs = comb
    return (*words, Word(())), np.append(coeffs, -state_moment(state, gens, [comb]))


# ---------------------------------------------------------------------------
# word enumeration


def _all_words(ids: Sequence[int], max_len: int) -> np.ndarray:
    """The table of the unit, then every word of length 1..max_len in the
    factors and their adjoints, by length and then in product order."""
    codes = [2 * f + s for f in ids for s in (0, 1)]
    return _table([(), *(w for n in range(1, max_len + 1) for w in itertools.product(codes, repeat=n))])


def _span_size(letters: int, degree: int) -> int:
    """``len(_all_words(ids, degree))`` for ``letters = 2 * len(ids)``,
    counted without building a word."""
    return sum(letters**k for k in range(max(degree, 0) + 1))


def _alternating_words(
    ids: Sequence[int],
    signs: tuple[int, ...],
    max_blocks: int,
    per_run_max: int,
    total_max: int,
) -> np.ndarray:
    """The table of the nonempty words in the factors ``ids`` as signed power
    runs ``(factor id, k)``, signs drawn from ``signs``: adjacent runs differ
    in factor or sign, factor blocks at most ``max_blocks``, each ``|k| <=
    per_run_max``, ``sum |k| <= total_max``; by total power, run count, runs."""
    powers = range(1, min(per_run_max, total_max) + 1)
    runs = sorted((f, s * p) for f in ids for s in signs for p in powers)
    f, k = np.array(runs, dtype=np.intp).reshape(-1, 2).T
    # the words of c runs in order of their runs, grown a run at a time (word
    # i, then run j, keeps the order): factors, powers, total power and blocks
    level, tables, totals = (f[:, None], k[:, None], np.abs(k), np.ones_like(f)), [], []
    while max_blocks > 0 and len(level[0]):
        wf, wk, total, blocks = level
        # letter p of a word is the code of the run whose end comes after p
        codes, ends, rows = 2 * wf + (wk < 0), np.cumsum(np.abs(wk), axis=1), np.arange(len(wf))
        tables.append(np.zeros((len(wf), max(1, total_max)), dtype=np.intp))
        for p in range(int(total.max())):
            run = np.minimum(np.count_nonzero(ends <= p, axis=1), wf.shape[1] - 1)
            tables[-1][:, p] = np.where(p < total, codes[rows, run], 0)
        totals.append(total)
        new = f != wf[:, -1:]  # word i, then run j
        ok = (total[:, None] + np.abs(k) <= total_max) & (blocks[:, None] + new <= max_blocks)
        i, j = np.nonzero(ok & (new | ((k < 0) != (wk[:, -1:] < 0))))
        level = (
            np.column_stack([wf[i], f[j]]),
            np.column_stack([wk[i], k[j]]),
            total[i] + np.abs(k[j]),
            blocks[i] + new[i, j],
        )
    if not tables:
        return np.zeros((0, max(1, total_max)), dtype=np.intp)
    # by total power, then run count and runs
    return np.concatenate(tables)[np.argsort(np.concatenate(totals), kind="stable")]


def _ordered_words(n_factors: int, max_power: int) -> np.ndarray:
    """The table of one signed power per factor in order 1..n, all ``|k| <=
    max_power``: the unit first, then by run count and then the runs."""
    powers = range(-max_power, max_power + 1)
    runs = (tuple((i + 1, k) for i, k in enumerate(c) if k) for c in itertools.product(powers, repeat=n_factors))
    runs = sorted(runs, key=lambda r: (len(r), r))
    table = np.zeros((len(runs), max(1, n_factors * max_power)), dtype=np.intp)
    for row, r in zip(table, runs):
        at = 0
        for f, k in r:
            row[at : at + abs(k)] = 2 * f + (k < 0)
            at += abs(k)
    return table


# ---------------------------------------------------------------------------
# check reports


@dataclass
class CheckReport:
    name: str
    residual: float
    tol: float
    passed: bool
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# commutators


def commutator_norms(gens: GenSet) -> Iterator[tuple[int, int, float, bool]]:
    """``(i, j, norm, starred)`` for each pair ``i < j`` of generators:
    ``||[A_i, A_j]||`` first, then ``||[A_i*, A_j]||``; lazy, so a caller
    can stop early.  The pair's other two commutators are these up to
    adjoint and sign.

    Each commutator is applied by letters to the identity columns of
    ``gens.support((i, j))``, where its norm is exact: on axis actions that
    share legs the commutator is ``K (x) I``, with ``K`` on the union of the
    pair's legs, and those columns hold ``K``; otherwise they are all
    columns.
    """
    for i, j in itertools.combinations(gens.ids, 2):
        panel = identity_panel(gens.dim, gens.support((i, j)))
        for star in (False, True):
            x, y = Word(((i, star), (j, False))), Word(((j, False), (i, star)))
            yield i, j, operator_norm(apply_word(x, gens, panel) - apply_word(y, gens, panel)), star


def worst_commutator(gens: GenSet) -> tuple[float, dict | None]:
    """The first of the largest :func:`commutator_norms`, with its pair as
    one-letter words, ``{"left": "1^-1", "right": "2^1"}``; ``(0.0, None)``
    for a single generator."""
    worst = max(commutator_norms(gens), key=lambda c: c[2], default=None)
    if worst is None:
        return 0.0, None
    i, j, norm, starred = worst
    return norm, {"left": Word(((i, starred),)).format(), "right": Word(((j, False),)).format()}


# ---------------------------------------------------------------------------
# faithfulness


def _gram_rank(
    sweep: _Sweep,
    plan: WalkPlan,
    columns: Callable[[int, int], np.ndarray],
    weights: np.ndarray,
) -> int:
    """Rank of ``G[u, v] = sum_k w_k <v p_k, u p_k>`` over a planned table's words, for
    panel columns ``p_k`` (``columns(lo, hi)`` gives ``p_lo .. p_{hi-1}``)
    with weights ``w_k``.

    The panel runs in column blocks: one walk per block fills the word
    images of that block, one column per word and scaled by ``sqrt(w_k)``,
    and ``G`` accumulates their Gram.  A block's images stay within
    ``GRAM_BLOCK_BYTES``, or one panel column if that alone is larger.
    """
    n = len(plan[0])
    step = max(1, GRAM_BLOCK_BYTES // (16 * sweep.gens.dim * n))
    gram = np.zeros((n, n), dtype=complex)
    for lo in range(0, len(weights), step):
        hi = min(lo + step, len(weights))
        roots = np.sqrt(weights[lo:hi])
        panel = columns(lo, hi)
        images = np.empty((panel.size, n), dtype=complex)
        for i, applied in sweep.walk(plan, panel):
            images[:, i] = (applied * roots).reshape(-1)
        gram += adjoint(images) @ images
    s = np.linalg.svd(gram, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def faithfulness_check(
    state: State,
    gens: GenSet,
    degree: int = 2,
) -> CheckReport:
    """Compare operator-space and state-space ranks of the word span.

    Both are ranks of a Gram ``G[u, v] = sum_k w_k <v p_k, u p_k>`` over all
    words up to the degree: ``span_dim`` on the identity columns with unit
    weights (the Hilbert-Schmidt Gram), ``gram_rank`` on the state's
    columns and weights (``G[u, v] = phi(u* v)``).  Equality certifies that
    no nonzero element of the span is annihilated by the state's seminorm;
    the residual is the rank gap.  More than ``MAX_GRAM_WORDS`` words raise
    :class:`BudgetError` before any is built.
    """
    count = _span_size(2 * len(gens.ids), degree)
    if count > MAX_GRAM_WORDS:
        raise BudgetError(f"word count {count} exceeds MAX_GRAM_WORDS = {MAX_GRAM_WORDS}; lower the degree")
    table = _all_words(list(gens.ids), degree)
    sweep, plan = _Sweep(state, gens), _walk_plan(table)
    dim = gens.dim
    span_dim = _gram_rank(sweep, plan, lambda lo, hi: np.eye(dim, hi - lo, -lo, dtype=complex), np.ones(dim))
    gram_rank = _gram_rank(sweep, plan, lambda lo, hi: sweep.panel[:, lo:hi], sweep.weights)
    faithful = span_dim == gram_rank
    return CheckReport(
        name="faithfulness",
        residual=float(span_dim - gram_rank),
        tol=0.5,
        passed=faithful,
        witness={"span_dim": span_dim, "gram_rank": gram_rank},
        details={
            "faithful_on_span": faithful,
            "span_dim": span_dim,
            "gram_rank": gram_rank,
            "rank_gap": span_dim - gram_rank,
            "word_count": len(table),
            "degree": degree,
            "rank_rtol": RANK_RTOL,
        },
    )
