"""Noncommutative probability toolkit: words and their enumeration, moments,
independence certificates.

Everything here works against a :class:`GenSet`, the square generators of
one common space keyed by 1-based factor id, together with a
:class:`~.operator_core.State` on that space; :func:`apply_word` is the one
place a generator letter is applied.  Checks return structured reports
carrying the worst residual and a witness sufficient to reproduce it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial, reduce
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._free_recursion import _FreeRecursion, _row_keys
from .operator_core import (
    AxisAction,
    LetterAction,
    State,
    adjoint,
    as_matrix,
    check_dim_cap,
    identity_panel,
    operator_norm,
)

MAX_PARTITION_SIZE = 12
MAX_ORACLE_LETTERS = 16
MAX_GRAM_WORDS = 4096
# the longest word ``Word.from_runs`` expands; power_dilation reaches 4,999
# letters under the 5,000 dimension cap
MAX_WORD_LETTERS = 2**16
# bytes of the stacked word images of one column block of a faithfulness
# Gram; their conjugate, for the Gram product, takes as much again
GRAM_BLOCK_BYTES = 64 * 2**20
# bytes of one sample panel: the chunk of random samples a sampled
# certificate applies side by side; also of the half images a word-moment
# sweep holds at a time
SAMPLE_PANEL_BYTES = 128 * 2**10
# bytes of the arrays of one batch of the free mixed moment oracle's words,
# as ``_FreeRecursion`` charges them: free_pair's 4,468 sequences are
# charged 3.3 MB and run as one batch (a traced peak of 2.0 MB)
ORACLE_MEMO_BYTES = 4 * 2**20


class BudgetError(ValueError):
    """A request lies outside a stated budget: a word beyond a construction's
    exactness budget, or a word span over a check's cap."""


# ---------------------------------------------------------------------------
# words and combinations


@lru_cache(maxsize=None)
def _letter(factor: int, star: bool) -> tuple[int, bool]:
    return (factor, star)


@dataclass(frozen=True, slots=True)
class Word:
    """Finite product of generators and adjoints; ``letters`` is a tuple of
    ``(factor id, star flag)`` pairs, empty meaning the unit.

    Words share one tuple per distinct letter and keep no ``__dict__``, so a
    sweep over thousands of words costs about a pointer per letter."""

    letters: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "letters", tuple(_letter(int(f), bool(s)) for f, s in self.letters)
        )

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

    @property
    def adjoint(self) -> "Word":
        return Word(tuple((f, not s) for f, s in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

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


def _codes(words: Sequence[Word]) -> np.ndarray:
    """A word list's table: row ``i`` is word ``i``'s codes ``2 * factor + star``, then zeros."""
    if any(f < 1 for w in words for f, _ in w.letters):  # code 0 pads
        raise ValueError("factor ids are 1-based: a word names a factor below 1")
    width = max([1, *map(len, words)])
    rows = [[2 * f + s for f, s in w.letters] + [0] * (width - len(w)) for w in words]
    return np.array(rows, dtype=np.intp).reshape(-1, width)


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
    there is at least one; :meth:`of_finite` skips only the entry scan.
    Complex arrays are shared with the caller, not copied, and no adjoint is
    stored.  :meth:`apply` is the one place a letter meets its generator.
    """

    mats: Mapping[int, np.ndarray | LetterAction]

    def __post_init__(self):
        self._keep(
            {
                f: m if isinstance(m, LetterAction) else as_matrix(m)
                for f, m in self.mats.items()
            }
        )

    @classmethod
    def of_finite(cls, mats: Mapping[int, np.ndarray]) -> "GenSet":
        """Complex matrices the caller built from operators that already
        passed ``as_matrix``, so finite by construction: only the shapes are
        checked, and a large dilation is not scanned a second time."""
        gens = object.__new__(cls)
        gens._keep(mats)
        return gens

    def _keep(self, mats: Mapping[int, np.ndarray | LetterAction]) -> None:
        """Check the shapes, store the generators in factor id order, and
        bind each one's letter application."""
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


class _Sweep:
    """A state's columns and a generator set, for word sweeps that share work.

    Every letter goes through :meth:`apply`, one :func:`apply_word` call per
    letter, and ``letters`` counts them: the work a sweep actually did.

    A sampled pass draws its samples' coefficients chunk by chunk from
    :meth:`sample_draws`, and :meth:`product_moments` reads each chunk's
    moments off two half images, side by side.
    """

    def __init__(self, state: State | None, gens: GenSet):
        self.gens = gens
        if state is not None:  # a bare sweep walks only the panels it is given
            self.panel, self.weights = state.columns, state.weights
        self.letters = 0
        self.panel_bytes = 0

    def apply(self, code: int, panel: np.ndarray) -> np.ndarray:
        self.letters += 1
        return apply_word(_code_word(code), self.gens, panel)

    def moments(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``phi`` of each sample's product from the images of its two halves
        on the state's columns, ``L* v`` and ``R v`` (sample ``s`` in columns
        ``s*k .. s*k+k-1``): ``sum_k w_k <R v_k, L* v_k>``, sample by sample;
        the state columns alone are one sample."""
        k = len(self.weights)
        left, right = (x.reshape(len(x), -1, k) for x in (left, right))
        return (self.weights * np.einsum("isk,isk->sk", np.conj(left), right)).sum(axis=1)

    def sample_draws(
        self, samples: int, salt: tuple[int, ...], counts: Sequence[int]
    ) -> Iterator[tuple[range, list[np.ndarray]]]:
        """``(chunk, coeffs)`` for consecutive chunks of ``range(samples)``:
        the fewest chunks whose sample panels, the state's columns once per
        sample, fit in ``SAMPLE_PANEL_BYTES`` (one sample at least), of sizes
        that differ by one at most: free_pair's 100 samples as 4 x 25 keep
        its peak RSS flat, where 33 + 33 + 33 + 1 raised it by 0.8 MB.

        ``coeffs`` holds one ``(len(chunk), counts[j])`` array per slot ``j``;
        the samples draw all their slots, one sample after another, from one
        generator ``_derive_rng(*salt)``, so a sample's draws do not depend
        on the chunks.  ``panel_bytes`` keeps the largest panel's size.
        """
        n = -(-samples // max(1, SAMPLE_PANEL_BYTES // self.panel.nbytes))
        rng = _derive_rng(*salt)
        for chunk in (range(samples * i // n, samples * (i + 1) // n) for i in range(n)):
            self.panel_bytes = max(self.panel_bytes, self.panel.nbytes * len(chunk))
            draws = rng.uniform(0.0, 1.0, (len(chunk), 2 * sum(counts)))
            yield chunk, _disc_coefficients(draws, counts)

    def word_images(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A factor's words for :meth:`product_moments`: the table (closed
        under adjoint), its words applied to the state's columns, ``(dim, k,
        words)``, and the row of each word's adjoint."""
        images = np.empty((*self.panel.shape, len(table)), dtype=complex)
        for i, image in self.walk_table(table, self.panel):
            images[..., i] = image
        rows = [tuple(filter(None, row)) for row in table.tolist()]
        at = {row: i for i, row in enumerate(rows)}
        return table, images, np.array([at[tuple(c ^ 1 for c in reversed(row))] for row in rows])

    def product_moments(
        self, factors: Sequence[tuple], coeffs: Sequence[np.ndarray], means: Sequence[np.ndarray]
    ) -> np.ndarray:
        """``phi(c_1 ... c_m)`` of each sample, for ``c_j = sum_i coeffs[j][s,
        i] word_i - means[j][s]`` over the words of ``factors[j]`` (see
        :meth:`word_images`), from two halves: ``R = c_{h+1} ... c_m`` and
        ``L* = c_h* ... c_1*``, ``h = m // 2``, by :meth:`moments`.  ``c_j*``
        has the conjugate coefficients at the adjoint words and the mean
        ``conj(means[j])``.  The first slot a half applies, ``c_m`` or
        ``c_1*``, is combined from its factor's word images, sample by
        sample; only the later ones meet a sample panel, by :meth:`combine`.
        """
        h, n, k = len(factors) // 2, len(means[0]), len(self.weights)
        left = [
            (t, img, np.conj(c)[:, adj], np.conj(m)) for (t, img, adj), c, m in zip(factors[:h], coeffs, means)
        ]
        right = [(t, img, c, m) for (t, img, _), c, m in zip(factors, coeffs, means)][h:][::-1]
        halves = []
        for slots in (left, right):  # each in the order it is applied
            if not slots:  # the unit
                halves.append(np.tile(self.panel, (1, n)))
                continue
            (_, images, c, m), *rest = slots
            # a sum over the words alone, so no chunking moves a digit; not a
            # BLAS product, whose threads cost milliseconds a call on large
            # states in some windows (ROADMAP item 4)
            panel = np.einsum("ikw,sw->isk", images, c) - m[:, None] * self.panel[:, None, :]
            panel = panel.reshape(len(self.panel), -1)
            for t, _, c, m in rest:
                panel = self.combine(t, np.repeat(c.T, k, axis=1), panel, np.repeat(m, k))
            halves.append(panel)
        return self.moments(*halves)

    def walk(self, words: Sequence[Word], panel: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """:meth:`walk_table` of a word list."""
        return self.walk_table(_codes(words), panel)

    def walk_table(
        self, table: np.ndarray, panel: np.ndarray, apply: Callable | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(i, word i of the table applied to panel)`` for every row,
        ``apply(code, panel)`` applying a code (default :meth:`apply`).  The
        words are visited sorted by their reversed letters, so a stack keeps
        the applied suffix of the current word and each distinct suffix costs
        one code; only the stack's panels are live.
        """
        apply = apply or self.apply
        backs = [[c for c in reversed(row) if c] for row in table.tolist()]  # last letter first
        stack, done = [panel], []  # stack[j]: the last j letters of ``done`` applied
        for i in sorted(range(len(backs)), key=backs.__getitem__):
            todo, keep = backs[i], 0
            while keep < min(len(todo), len(done)) and todo[keep] == done[keep]:
                keep += 1
            del stack[keep + 1 :]
            for code in todo[keep:]:
                stack.append(apply(code, stack[-1]))
            done = todo
            yield i, stack[-1]

    def word_moments(self, table: np.ndarray, apply: Callable | None = None) -> np.ndarray:
        """``phi(w)`` for every word of a table, from two half-words.

        ``w = L R``, ``R`` its last ``ceil(n/2)`` letters, has ``phi(w) = sum_k
        w_k <R v_k, L* v_k>`` exactly, for any generators: one ``vdot`` of the
        images of ``L*`` and ``R`` on the state's columns scaled by
        ``sqrt(w_k)``, the same digits in any list.  The distinct ``L*`` are
        held in blocks within ``SAMPLE_PANEL_BYTES`` (one image at least), each
        streaming the ``R`` its words need; one word alone is applied code by
        code.  ``apply`` is the walks'; code ``c ^ 1`` is the adjoint of ``c``.
        """
        apply, panel = apply or self.apply, self.panel * np.sqrt(self.weights)
        if len(table) == 0:
            return np.zeros(0, dtype=complex)
        if len(table) == 1:
            codes, left, right = [c for c in table[0].tolist() if c], panel, panel
            for c in codes[: len(codes) // 2]:  # L* = l_h* ... l_1*: l_1* first
                left = apply(c ^ 1, left)
            for c in reversed(codes[len(codes) // 2 :]):
                right = apply(c, right)
            return np.array([np.vdot(left.ravel(), right.ravel())])
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
            for i, image in self.walk_table(lefts[b * size : b * size + size], panel, apply):
                held[i] = image.ravel()
            for j, image in self.walk_table(rights[ri[heads[lo:hi]]], panel, apply):
                words, right = groups[lo + j], image.ravel()
                out[words] = [vdot(held[i], right) for i in (li[words] - b * size).tolist()]
            del held  # before the next block is walked
        return out

    def combine(
        self, table: np.ndarray, coeffs: np.ndarray, panel: np.ndarray, mean: complex | np.ndarray = 0j
    ) -> np.ndarray:
        """``sum_i coeffs[i] word_i - mean`` applied to panel, by one walk.
        Scalar coefficients and mean act on every column; ``(words, cols)``
        coefficients and a ``(cols,)`` mean act column by column."""
        out = -mean * panel
        for i, term in self.walk_table(table, panel):
            out += coeffs[i] * term
        return out


def _first_use(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A table's distinct rows in order of first use, and each row's index among them."""
    _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rows[np.sort(first)], rank[inverse]


def word_moments(state: State, gens: GenSet, words: Sequence[Word]) -> np.ndarray:
    """``phi(w)`` for every word, from half-words (:meth:`_Sweep.word_moments`)."""
    return _Sweep(state, gens).word_moments(_codes(words))


def word_moment(state: State, gens: GenSet, word: Word) -> complex:
    """:func:`word_moments` of one word."""
    return complex(word_moments(state, gens, [word])[0])


def state_moment(state: State, gens: GenSet, factors: Sequence[Combination]) -> complex:
    """``phi(a_1 a_2 ... a_m)`` for combinations ``a_k``, applied right to left
    to the state columns on one sweep; a word ``w`` alone is ``((w,), [1])``."""
    sweep = _Sweep(state, gens)
    applied = sweep.panel
    for words, coeffs in reversed(factors):
        applied = sweep.combine(_codes(words), coeffs, applied)
    return complex(sweep.moments(sweep.panel, applied)[0])


def center(comb: Combination, state: State, gens: GenSet) -> Combination:
    """Subtract the state mean: the unit word joins at coefficient ``-phi(a)``."""
    words, coeffs = comb
    return (*words, Word(())), np.append(coeffs, -state_moment(state, gens, [comb]))


# ---------------------------------------------------------------------------
# word enumeration


def _all_words(ids: Sequence[int], max_len: int) -> list[Word]:
    """The unit, then every word of length 1..max_len in the factors and their
    adjoints, by length and then in product order."""
    letters = [(f, s) for f in ids for s in (False, True)]
    out: list[Word] = [Word(())]
    for length in range(1, max_len + 1):
        out.extend(Word(combo) for combo in itertools.product(letters, repeat=length))
    return out


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


def signed_alternating_words(
    n_factors: int, max_blocks: int, per_run_max: int, total_max: int
) -> list[Word]:
    """Nonempty words in factors ``1..n_factors`` and their adjoints, as
    signed power runs: adjacent runs differ in factor or sign, factor blocks
    at most ``max_blocks``, each ``|k| <= per_run_max``, total length
    ``sum |k| <= total_max``."""
    table = _alternating_words(range(1, n_factors + 1), (1, -1), max_blocks, per_run_max, total_max)
    return [_word(row) for row in table.tolist()]


def alternating_words_within(n_factors: int, max_alt: int, max_total: int) -> list[Word]:
    """All nonempty words of positive powers with at most ``max_alt``
    alternating runs and length at most ``max_total``."""
    table = _alternating_words(range(1, n_factors + 1), (1,), max_alt, max_total, max_total)
    return [_word(row) for row in table.tolist()]


def ordered_words(n_factors: int, max_power: int) -> list[Word]:
    """One signed power per factor in order 1..n, all ``|k| <= max_power``;
    the unit first, then by run count and then the runs themselves."""
    powers = range(-max_power, max_power + 1)
    runs = {
        tuple((i + 1, k) for i, k in enumerate(combo) if k != 0)
        for combo in itertools.product(powers, repeat=n_factors)
    }
    return [Word.from_runs(r) for r in sorted(runs, key=lambda r: (len(r), r))]


def _disc_coefficients(draws: np.ndarray, counts: Sequence[int]) -> list[np.ndarray]:
    """``counts[j]`` points uniform on the complex unit disc for slot ``j``: its
    radii, then its phases, from the next uniform ``draws`` along the last axis."""
    at = (2 * np.cumsum([0, *counts])).tolist()
    cuts = zip(at, at[1:], counts)
    return [np.sqrt(draws[..., a : a + n]) * np.exp(2j * np.pi * draws[..., a + n : b]) for a, b, n in cuts]


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


def _derive_rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, salt)])))


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
# tensor independence


def tensor_independence_check(
    state: State,
    gens: GenSet,
    degree: int = 2,
    samples: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
) -> CheckReport:
    """Certify a commuting family as tensor independent for the given state.

    Part (a) checks that the generators of distinct factors doubly commute,
    ``[A_i, A_j] = [A_i*, A_j] = 0``: then so do the *-algebras they
    generate, and for contractions ``||[w_a, w_b]|| <= |w_a| |w_b|`` times
    the larger of the pair's two norms (Leibniz rule).  Part (b) checks
    ``phi(a_1 ... a_n) = prod phi(a_i)`` over random one-per-factor tuples
    of combinations of words up to the degree, each product read off two
    halves (:meth:`_Sweep.product_moments`) for a chunk of samples side by
    side; with two factors each half is one slot, combined from the words'
    images on the state's columns.
    """
    ids = list(gens.ids)
    words = {f: _codes(_all_words([f], degree)) for f in ids}
    worst, pair = worst_commutator(gens)
    witness = {"part": "commutation", **pair} if worst > 0 else None

    sweep = _Sweep(state, gens)
    phis = [sweep.word_moments(words[f]) for f in ids]
    factors = [sweep.word_images(words[f]) for f in ids] if samples else []
    # each sample drawn factor by factor in id order
    for chunk, coeffs in sweep.sample_draws(samples, (seed, 1), [len(words[f]) for f in ids]):
        m = sweep.product_moments(factors, coeffs, [np.zeros(len(chunk))] * len(ids))
        # sample by sample, so that no chunking moves a digit
        split = math.prod(np.einsum("w,sw->s", phi, c) for phi, c in zip(phis, coeffs))
        res = np.hypot((m := m - split).real, m.imag)  # as a scalar abs
        at = int(np.argmax(res))  # the first sample of the worst
        if res[at] > worst:
            worst = float(res[at])
            witness = {"part": "factorization", "sample": chunk[at], "seed": seed}

    return CheckReport(
        name="tensor_independence",
        residual=worst,
        tol=tol,
        passed=worst <= tol,
        witness=witness,
        details={
            "degree": degree,
            "samples": samples,
            "factors": ids,
            "commutators": len(ids) * (len(ids) - 1),
            "letters_applied": sweep.letters,
            "panel_bytes": sweep.panel_bytes,
        },
    )


# ---------------------------------------------------------------------------
# free independence


def free_independence_check(
    state: State,
    gens: GenSet,
    max_len: int = 4,
    degree: int = 2,
    samples: int = 20,
    tol: float = 1e-8,
    seed: int = 0,
) -> CheckReport:
    """Certify free independence: centered alternating products have zero moment.

    Runs a deterministic pass over centered monomials (exhaustive per
    alternating factor sequence), then a seeded random pass with a centered
    random combination of the factor's words in each slot.

    The monomial pass is :meth:`_Sweep.word_moments` of the products, a
    centered slot applied as one code: a product ``X = L R``, ``R`` its last
    ``ceil(m/2)`` slots, has ``phi(X) = <R v, L* v>``, and ``L*`` is the
    twin of ``L``, its slots reversed and stars flipped, exactly, since a
    starred option is centered at the conjugate of its twin's mean.  The
    random pass reads each chunk of samples off the same two halves, side
    by side (:meth:`_Sweep.product_moments`), with each slot's means taken
    as dot products with the factor's word moments; a sequence draws all
    its samples from one generator.
    """
    ids = list(gens.ids)
    if len(ids) < 2:
        raise ValueError("free independence needs at least two factors")
    if degree < 1:
        raise ValueError(f"free independence needs degree >= 1, got {degree}")
    # alternating factor sequences of length 2..max_len, one letter per slot
    chains = _alternating_words(ids, (1,), max_len, 1, max_len).tolist()
    sequences = [seq for r in chains if len(seq := tuple(c >> 1 for c in r if c)) >= 2]
    sweep = _Sweep(state, gens)
    worst = 0.0
    witness: dict | None = None

    # centered T^p and (T*)^p for 1 <= p <= min(degree, 3); option 2(p-1) + star
    powers = min(degree, 3)
    opts = 2 * powers
    flip = np.arange(opts) ^ 1  # the option of the adjoint: star flipped
    monomials = {
        f: [Word(((f, s),) * p) for p in range(1, powers + 1) for s in (False, True)]
        for f in ids
    }
    # phi((T*)^p) = conj phi(T^p), so an option's adjoint is exactly its twin
    plain = {f: sweep.word_moments(_codes(ws[::2])) for f, ws in monomials.items()}
    means = {f: np.ravel([m, np.conj(m)], order="F") for f, m in plain.items()}

    def centered(code: int, panel: np.ndarray) -> np.ndarray:
        """Option ``code % opts`` of factor ``code // opts`` applied to a panel."""
        (f, o), power = divmod(code, opts), panel
        for _ in range(o // 2 + 1):
            power = sweep.apply(2 * f + o % 2, power)
        return power - means[f][o] * panel

    # a row per product: slot j of factor f_j with option o_j is code
    # opts * f_j + o_j, nonzero, and the code of its adjoint option is code ^ 1
    table = np.zeros((0, max_len), dtype=np.intp)
    for seq in sequences:  # the options in product order
        codes = np.indices((opts,) * len(seq)).reshape(len(seq), -1).T + opts * np.array(seq)
        table = np.vstack([table, np.pad(codes, ((0, 0), (0, max_len - len(seq))))])
    res = np.hypot((m := sweep.word_moments(table, centered)).real, m.imag)  # as a scalar abs
    # residuals[seq][o_1, ..., o_m]: |phi| of the product with option o_j in slot j
    cuts = np.cumsum([opts ** len(seq) for seq in sequences])[:-1]
    residuals = {seq: r.reshape((opts,) * len(seq)) for seq, r in zip(sequences, np.split(res, cuts))}
    for seq in sequences:
        # the adjoint twin (slots reversed, stars flipped) has the same |phi|
        # in exact arithmetic: take the pair's maximum, whichever rounds higher
        twin = residuals[seq[::-1]].transpose()[np.ix_(*(flip,) * len(seq))]
        res = np.maximum(residuals[seq], twin)
        at = int(np.argmax(res))  # the first of the worst, in product order
        if res.flat[at] > worst:
            worst = float(res.flat[at])
            combo = np.unravel_index(at, res.shape)
            slots = [f"c({monomials[f][o].format()})" for f, o in zip(seq, combo)]
            witness = {"part": "monomial", "sequence": list(seq), "slots": slots}

    words = {f: _codes(_all_words([f], degree)) for f in ids}
    phis = {f: sweep.word_moments(ws) for f, ws in words.items()}
    factors = {f: sweep.word_images(ws) for f, ws in words.items()} if samples else {}
    for si, seq in enumerate(sequences):
        # each sample drawn slot by slot from the left
        counts = [len(words[f]) for f in seq]
        for chunk, coeffs in sweep.sample_draws(samples, (seed, 2, si), counts):
            means = [np.einsum("w,sw->s", phis[f], c) for f, c in zip(seq, coeffs)]  # sample by sample
            m = sweep.product_moments([factors[f] for f in seq], coeffs, means)
            res = np.hypot(m.real, m.imag)  # as a scalar abs
            at = int(np.argmax(res))  # the first sample of the worst
            if res[at] > worst:
                worst = float(res[at])
                witness = {"part": "random", "sequence": list(seq), "sample": chunk[at], "seed": seed}

    return CheckReport(
        name="free_independence",
        residual=worst,
        tol=tol,
        passed=worst <= tol,
        witness=witness,
        details={
            "max_len": max_len,
            "degree": degree,
            "samples": samples,
            "factors": ids,
            "sequences": len(sequences),
            "letters_applied": sweep.letters,
            "panel_bytes": sweep.panel_bytes,
        },
    )


# ---------------------------------------------------------------------------
# traciality


def trace_check(
    state: State,
    gens: GenSet,
    degree: int = 3,
    samples: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
) -> CheckReport:
    """Check ``phi(ab) = phi(ba)``: all single-letter pairs, then random word
    pairs, drawn from one generator; every product's moment comes from one
    half-word sweep."""
    ids = list(gens.ids)
    codes, width = np.array([2 * f + s for f in ids for s in (0, 1)]), max(1, degree)
    # pairs[p] = (a, b), each a row of codes; the letter pairs first
    letters = np.zeros((len(codes) ** 2, 2, width), dtype=np.intp)
    letters[:, 0, 0], letters[:, 1, 0] = np.repeat(codes, len(codes)), np.tile(codes, len(codes))
    rng = _derive_rng(seed, 3)
    length = rng.integers(1, degree + 1, (samples, 2, 1))
    drawn = 2 * np.array(ids)[rng.integers(0, len(ids), (samples, 2, width))]
    drawn += rng.integers(0, 2, (samples, 2, width))
    drawn[np.arange(width) >= length] = 0
    pairs = np.concatenate([letters, drawn])
    ab = np.concatenate([pairs, pairs[:, ::-1]], axis=2).reshape(-1, 2 * width)  # ab, then ba
    ab = np.take_along_axis(ab, np.argsort(ab == 0, axis=1, kind="stable"), 1)  # letters first
    sweep = _Sweep(state, gens)
    moments = sweep.word_moments(ab)
    res = np.hypot((gap := moments[0::2] - moments[1::2]).real, gap.imag)  # as a scalar abs
    at = int(np.argmax(res))  # the first of the worst
    worst, witness = 0.0, None
    if res[at] > 0:
        worst = float(res[at])
        left, right = (_word(w).format() for w in pairs[at])
        witness = {"part": "letters", "left": left, "right": right}
        if at >= len(letters):
            witness |= {"part": "random", "sample": at - len(letters), "seed": seed}
    return CheckReport(
        name="traciality",
        residual=worst,
        tol=tol,
        passed=worst <= tol,
        witness=witness,
        details={
            "degree": degree,
            "samples": samples,
            "factors": ids,
            "letters_applied": sweep.letters,
        },
    )


# ---------------------------------------------------------------------------
# faithfulness


def _gram_rank(
    sweep: _Sweep,
    words: Sequence[Word],
    columns: Callable[[int, int], np.ndarray],
    weights: np.ndarray,
    rank_rtol: float,
) -> int:
    """Rank of ``G[u, v] = sum_k w_k <v p_k, u p_k>`` over the words, for
    panel columns ``p_k`` (``columns(lo, hi)`` gives ``p_lo .. p_{hi-1}``)
    with weights ``w_k``.

    The panel runs in column blocks: one walk per block fills the word
    images of that block, one column per word and scaled by ``sqrt(w_k)``,
    and ``G`` accumulates their Gram.  A block's images stay within
    ``GRAM_BLOCK_BYTES``, or one panel column if that alone is larger.
    """
    n = len(words)
    step = max(1, GRAM_BLOCK_BYTES // (16 * sweep.gens.dim * n))
    gram = np.zeros((n, n), dtype=complex)
    for lo in range(0, len(weights), step):
        hi = min(lo + step, len(weights))
        roots = np.sqrt(weights[lo:hi])
        panel = columns(lo, hi)
        images = np.empty((panel.size, n), dtype=complex)
        for i, applied in sweep.walk(words, panel):
            images[:, i] = (applied * roots).reshape(-1)
        gram += adjoint(images) @ images
    s = np.linalg.svd(gram, compute_uv=False)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > rank_rtol * s[0]))


def faithfulness_check(
    state: State,
    gens: GenSet,
    degree: int = 2,
    rank_rtol: float = 1e-9,
) -> CheckReport:
    """Compare operator-space and state-space ranks of the word span.

    Both are ranks of a Gram ``G[u, v] = sum_k w_k <v p_k, u p_k>`` over all
    words up to the degree: ``span_dim`` on the identity columns with unit
    weights (the Hilbert-Schmidt Gram), ``gram_rank`` on the state's
    columns and weights (``G[u, v] = phi(u* v)``).  Equality certifies that
    no nonzero element of the span is annihilated by the state's seminorm;
    the residual is the rank gap.  More than ``MAX_GRAM_WORDS`` words raise
    :class:`BudgetError` before any is applied.
    """
    words = _all_words(list(gens.ids), degree)
    if len(words) > MAX_GRAM_WORDS:
        raise BudgetError(
            f"word count {len(words)} exceeds MAX_GRAM_WORDS = {MAX_GRAM_WORDS}; lower the degree"
        )
    sweep = _Sweep(state, gens)
    dim = gens.dim
    span_dim = _gram_rank(
        sweep, words, lambda lo, hi: np.eye(dim, hi - lo, -lo, dtype=complex), np.ones(dim), rank_rtol
    )
    gram_rank = _gram_rank(
        sweep, words, lambda lo, hi: sweep.panel[:, lo:hi], sweep.weights, rank_rtol
    )
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
            "word_count": len(words),
            "degree": degree,
            "rank_rtol": rank_rtol,
        },
    )


# ---------------------------------------------------------------------------
# noncrossing partitions and free cumulants

Partition = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _nc_shapes(length: int) -> tuple[Partition, ...]:
    """Noncrossing partitions of ``range(length)`` (0-based), canonical order."""
    if length == 0:
        return ((),)
    out: list[Partition] = []
    rest = list(range(1, length))
    # block of 0: any subset; the gaps between chosen points split independently
    for mask in range(1 << (length - 1)):
        chosen = [0] + [rest[i] for i in range(length - 1) if mask >> i & 1]
        gaps = [(a + 1, b) for a, b in zip(chosen, chosen[1:] + [length])]
        pieces: list[tuple[Partition, ...]] = []
        for lo, hi in gaps:
            pieces.append(
                tuple(
                    tuple(tuple(x + lo for x in block) for block in part)
                    for part in _nc_shapes(hi - lo)
                )
            )
        head = (tuple(chosen),)
        for combo in itertools.product(*pieces):
            blocks = list(head)
            for part in combo:
                blocks.extend(part)
            blocks.sort(key=lambda b: b[0])
            out.append(tuple(blocks))
    out.sort(key=lambda p: (len(p), p))
    return tuple(out)


def noncrossing_partitions(k: int) -> list[Partition]:
    """All noncrossing partitions of ``{1, ..., k}``; blocks sorted by least
    element, partitions ordered by block count then lexicographically."""
    if not 1 <= k <= MAX_PARTITION_SIZE:
        raise ValueError(f"partition size must be in 1..{MAX_PARTITION_SIZE}, got {k}")
    return [
        tuple(tuple(x + 1 for x in block) for block in part) for part in _nc_shapes(k)
    ]


def _nc_sum(kappas: Sequence[complex], n: int, total: complex) -> complex:
    """``total`` plus ``prod_B kappa_|B|`` over the noncrossing partitions of
    ``{1..n}`` with more than one block, added in their order."""
    for part in noncrossing_partitions(n)[1:]:
        prod = 1.0 + 0.0j
        for block in part:
            prod *= complex(kappas[len(block) - 1])
        total += prod
    return total


def free_cumulants(moments: Sequence[complex]) -> list[complex]:
    """Free cumulants ``kappa_1..kappa_k`` from moments ``m_1..m_k`` by the
    noncrossing moment-cumulant recursion."""
    k = len(moments)
    if not 1 <= k <= MAX_PARTITION_SIZE:
        raise ValueError(f"need 1..{MAX_PARTITION_SIZE} moments, got {k}")
    kappas: list[complex] = []
    for n in range(1, k + 1):
        kappas.append(complex(moments[n - 1]) - _nc_sum(kappas, n, 0.0 + 0.0j))
    return kappas


def moments_from_cumulants(kappas: Sequence[complex]) -> list[complex]:
    k = len(kappas)
    if not 1 <= k <= MAX_PARTITION_SIZE:
        raise ValueError(f"need 1..{MAX_PARTITION_SIZE} cumulants, got {k}")
    # the one-block partition first, as 0 + kappa_n
    return [_nc_sum(kappas, n, 0.0 + complex(kappas[n - 1])) for n in range(1, k + 1)]


# ---------------------------------------------------------------------------
# free mixed moment oracle

# a marginal: the moments of a code table's words (see :func:`_codes`), all
# in one factor and its adjoint
Marginal = Callable[[np.ndarray], np.ndarray]


def matrix_marginal(gens: GenSet, state: State) -> Marginal:
    """Marginal distribution of one factor's generators under a state: the
    :meth:`_Sweep.word_moments` of a table whose words name that factor's
    own id, each with the digits it has in any table."""
    return _Sweep(state, gens).word_moments


def haar_unitary_marginal() -> Marginal:
    """Haar unitary marginal: ``phi(u^k) = 1`` iff the net exponent is 0."""
    return lambda table: (np.count_nonzero(table, 1) == 2 * np.count_nonzero(table & 1, 1)).astype(complex)


def free_mixed_moments(
    marginals: Mapping[int, Marginal], words: Sequence[Word]
) -> tuple[list[complex], int]:
    """Mixed moments of words in freely independent factors, from marginals
    only, and the entries the memo of their one recursion took in.

    Subtracting the mean from each factor block of an alternating word gives
    a product with zero moment, so the word's moment expands over subsets of
    blocks replaced by their means, with the complementary blocks re-merged
    and recursed on.  Every word is checked before any is expanded: one over
    ``MAX_ORACLE_LETTERS`` letters raises ``ValueError``, one naming a factor
    without a marginal ``KeyError``."""
    for word in words:
        if len(word) > MAX_ORACLE_LETTERS:
            raise ValueError(f"word length {len(word)} exceeds oracle cap {MAX_ORACLE_LETTERS}")
        for f, _ in word.letters:
            if f not in marginals:
                raise KeyError(f"no marginal for factor {f}; known: {sorted(marginals)}")
    recursion = _FreeRecursion(marginals, ORACLE_MEMO_BYTES)
    return recursion(_codes(words)).tolist(), recursion.entries


def free_mixed_moment_oracle(marginals: Mapping[int, Marginal], word: Word) -> complex:
    """:func:`free_mixed_moments` of one word."""
    return free_mixed_moments(marginals, [word])[0][0]


def oracle_equivalence_check(
    state: State,
    gens: GenSet,
    marginals: Mapping[int, Marginal],
    max_blocks: int,
    degree: int,
    tol: float = 1e-8,
) -> CheckReport:
    """Compare the model's moment with the free mixed moment oracle of the
    marginals for each :func:`signed_alternating_words` word in ``gens.ids``
    with ``max_blocks``, runs up to ``degree`` and ``2 * degree`` letters
    (kept within ``MAX_ORACLE_LETTERS`` by the caller), enumerated as one
    code table: one half-word sweep, one recursion keyed by its rows
    (``memo_entries``), and only the witness becomes a :class:`Word`."""
    table = _alternating_words(gens.ids, (1, -1), max_blocks, degree, 2 * degree)
    model = (sweep := _Sweep(state, gens)).word_moments(table)
    oracle = (memo := _FreeRecursion(marginals, ORACLE_MEMO_BYTES))(table)
    res = np.hypot((gap := model - oracle).real, gap.imag)  # as a scalar abs
    at = int(np.argmax(res)) if len(res) else None  # the first of the worst
    witness = None if at is None else {
        "word": _word(table[at].tolist()).format(),
        "vacuum_moment": [model[at].real.item(), model[at].imag.item()],
        "oracle_moment": [oracle[at].real.item(), oracle[at].imag.item()],
    }
    worst = 0.0 if at is None else float(res[at])
    return CheckReport(
        name="oracle_equivalence",
        residual=worst,
        tol=tol,
        passed=worst <= tol,
        witness=witness,
        details={"words": len(table), "letters_applied": sweep.letters, "memo_entries": memo.entries},
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
