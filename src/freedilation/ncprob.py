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
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

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
# certificate applies side by side
SAMPLE_PANEL_BYTES = 128 * 2**10
# bytes of the free mixed moment oracle's memo, at 256 B an entry: a key of
# ``MAX_ORACLE_LETTERS`` letters (168 B), its complex value (32 B) and its
# dict slot; free_pair's 4,468 entries take 1.1 MiB and never clear it
ORACLE_MEMO_BYTES = 2 * 2**20


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


def _state_panel(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Columns to propagate and their weights: ``phi(a) = sum_k w_k <a v_k, v_k>``."""
    if state.kind == "vector":
        return state.vector.reshape(-1, 1), np.ones(1)
    w, v = np.linalg.eigh(state.density)
    keep = w > 1e-14
    return v[:, keep], w[keep]


def _chunks(total: int, most: int) -> list[range]:
    """``range(total)`` as the fewest chunks of at most ``most`` items (one at
    least), of sizes that differ by one at most."""
    n = -(-total // max(1, most))
    return [range(total * i // n, total * (i + 1) // n) for i in range(n)]


@lru_cache(maxsize=None)
def _letter_word(letter: tuple[int, bool]) -> Word:
    return Word((letter,))


class _Sweep:
    """A state's columns and a generator set, for word sweeps that share work.

    Every letter goes through :meth:`apply`, one :func:`apply_word` call per
    letter, and ``letters`` counts them: the work a sweep actually did.

    A sampled pass runs its samples side by side in the panels of
    :meth:`sample_panels`, and :meth:`moments` reads all their moments at
    once.
    """

    def __init__(self, state: State | None, gens: GenSet):
        self.gens = gens
        if state is not None:  # a bare sweep walks only the panels it is given
            self.panel, self.weights = _state_panel(state)
            self._conj_panel = np.conj(self.panel)
        self.letters = 0
        self.panel_bytes = 0

    def apply(self, letter: tuple[int, bool], panel: np.ndarray) -> np.ndarray:
        self.letters += 1
        return apply_word(_letter_word(letter), self.gens, panel)

    def moments(self, applied: np.ndarray) -> np.ndarray:
        """``phi(a)`` of each sample, from ``a`` applied to a sample panel:
        ``sum_k w_k <applied_{k,s}, v_k>`` for each sample ``s``; the state
        columns alone are one sample."""
        k = len(self.weights)
        vals = np.einsum("ik,isk->sk", self._conj_panel, applied.reshape(len(applied), -1, k))
        return (self.weights * vals).sum(axis=1)

    def sample_panels(
        self, samples: int, salt: tuple[int, ...], counts: Sequence[int]
    ) -> Iterator[tuple[range, np.ndarray, list[np.ndarray]]]:
        """``(chunk, panel, coeffs)`` for consecutive chunks of
        ``range(samples)``: the fewest chunks whose sample panels fit in
        ``SAMPLE_PANEL_BYTES`` (one sample at least), of sizes that differ by
        one at most: free_pair's 100 samples as 4 x 25 keep its peak RSS
        flat, where 33 + 33 + 33 + 1 raised it by 0.8 MB.

        A chunk of ``n`` samples has the state's ``k`` columns tiled ``n``
        times as its panel, sample ``s`` in columns ``s*k .. s*k+k-1``, and
        one ``(counts[j], n*k)`` coefficient array per slot ``j``: sample
        ``s`` draws its slots in order from ``_derive_rng(*salt, s)``, and
        its draw fills its own columns.  ``panel_bytes`` keeps the largest
        panel's size.
        """
        k = len(self.weights)
        for chunk in _chunks(samples, SAMPLE_PANEL_BYTES // self.panel.nbytes):
            rngs = [_derive_rng(*salt, s) for s in chunk]
            draws = [[_disc_coefficients(rng, n) for n in counts] for rng in rngs]
            coeffs = [np.repeat(np.stack(slot, axis=1), k, axis=1) for slot in zip(*draws)]
            panel = np.tile(self.panel, (1, len(chunk)))
            self.panel_bytes = max(self.panel_bytes, panel.nbytes)
            yield chunk, panel, coeffs

    def walk(self, words: Sequence[Word], panel: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(i, words[i] applied to panel)`` for every word.

        The words are visited sorted by their reversed letters, so words
        that end alike are adjacent: a stack keeps the applied suffix of the
        current word, and each distinct suffix costs one letter.  Only the
        stack, at most the longest word plus one panels, is live.  The sort
        runs on a small integer array of letter codes, not on Python tuples.
        """
        codes: dict[tuple[int, bool], int] = {}
        width = max([1, *map(len, words)])  # lexsort needs one key at least
        rows = np.zeros((len(words), width), dtype=np.intp)
        for i, w in enumerate(words):
            for j, letter in enumerate(reversed(w.letters)):
                rows[i, j] = codes.setdefault(letter, len(codes) + 1)
        order = np.lexsort(rows.T[::-1])  # column 0, the last letter, sorts first
        del rows
        stack = [panel]  # stack[k]: the last k letters of ``done`` applied
        done: tuple[tuple[int, bool], ...] = ()
        for i in order:
            todo = words[i].letters[::-1]
            keep = 0
            while keep < len(done) and keep < len(todo) and done[keep] == todo[keep]:
                keep += 1
            del stack[keep + 1 :]
            for letter in todo[keep:]:
                stack.append(self.apply(letter, stack[-1]))
            done = todo
            yield i, stack[-1]

    def word_moments(self, words: Sequence[Word]) -> np.ndarray:
        out = np.empty(len(words), dtype=complex)
        for i, applied in self.walk(words, self.panel):
            out[i] = self.moments(applied)[0]
        return out

    def combine(
        self, comb: Combination, panel: np.ndarray, mean: complex | np.ndarray = 0j
    ) -> np.ndarray:
        """``sum_i coeffs[i] words[i] - mean`` applied to panel, by one walk.
        Scalar coefficients and mean act on every column; ``(words, cols)``
        coefficients and a ``(cols,)`` mean act column by column."""
        words, coeffs = comb
        out = -mean * panel
        for i, term in self.walk(words, panel):
            out += coeffs[i] * term
        return out


def word_moments(state: State, gens: GenSet, words: Sequence[Word]) -> np.ndarray:
    """``phi(w)`` for every word, sharing suffixes: a word set with ``s``
    distinct nonempty suffixes costs ``s`` letter applications.  Each word's
    letters are applied in the same order as :func:`apply_word` applies them."""
    return _Sweep(state, gens).word_moments(words)


def word_moment(state: State, gens: GenSet, word: Word) -> complex:
    return complex(word_moments(state, gens, [word])[0])


def state_moment(state: State, gens: GenSet, factors: Sequence[Combination]) -> complex:
    """``phi(a_1 a_2 ... a_m)`` for combinations ``a_k``, applied right to left
    to the state columns on one sweep; a word ``w`` alone is ``((w,), [1])``."""
    sweep = _Sweep(state, gens)
    applied = sweep.panel
    for comb in reversed(factors):
        applied = sweep.combine(comb, applied)
    return complex(sweep.moments(applied)[0])


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
) -> list[Word]:
    """Nonempty words in the factors ``ids``, built as signed power runs
    ``(factor id, k)`` with signs drawn from ``signs``: adjacent runs differ
    in factor or sign, factor blocks at most ``max_blocks``, each
    ``|k| <= per_run_max``, total ``sum |k| <= total_max``; ordered by
    total power, then run count, then the runs themselves."""
    out: list[tuple[tuple[int, int], ...]] = []
    # an explicit stack, not a recursive closure, whose reference cycle would
    # keep ``out`` alive until the next garbage collection
    stack = [((), 0, total_max)]
    while stack:
        prefix, blocks, budget = stack.pop()
        if prefix:
            out.append(prefix)
        for i in ids:
            new_block = not prefix or prefix[-1][0] != i
            if blocks + new_block > max_blocks:
                continue
            for sign in signs:
                if not new_block and (prefix[-1][1] > 0) == (sign > 0):
                    continue
                for k in range(1, min(per_run_max, budget) + 1):
                    stack.append((prefix + ((i, sign * k),), blocks + new_block, budget - k))
    # by (total power, run count, runs), as three stable sorts whose keys are
    # small cached ints rather than one tuple per sequence
    out.sort()
    out.sort(key=len)
    out.sort(key=lambda runs: sum(abs(k) for _, k in runs))
    return [Word.from_runs(runs) for runs in out]


def signed_alternating_words(
    n_factors: int, max_blocks: int, per_run_max: int, total_max: int
) -> list[Word]:
    """Nonempty words in factors ``1..n_factors`` and their adjoints, as
    signed power runs: adjacent runs differ in factor or sign, factor blocks
    at most ``max_blocks``, each ``|k| <= per_run_max``, total length
    ``sum |k| <= total_max``."""
    return _alternating_words(range(1, n_factors + 1), (1, -1), max_blocks, per_run_max, total_max)


def alternating_words_within(n_factors: int, max_alt: int, max_total: int) -> list[Word]:
    """All nonempty words of positive powers with at most ``max_alt``
    alternating runs and length at most ``max_total``."""
    return _alternating_words(range(1, n_factors + 1), (1,), max_alt, max_total, max_total)


def ordered_words(n_factors: int, max_power: int) -> list[Word]:
    """One signed power per factor in order 1..n, all ``|k| <= max_power``;
    the unit first, then by run count and then the runs themselves."""
    powers = range(-max_power, max_power + 1)
    runs = {
        tuple((i + 1, k) for i, k in enumerate(combo) if k != 0)
        for combo in itertools.product(powers, repeat=n_factors)
    }
    return [Word.from_runs(r) for r in sorted(runs, key=lambda r: (len(r), r))]


def _disc_coefficients(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws uniform on the complex unit disc."""
    radii = np.sqrt(rng.uniform(0.0, 1.0, size=count))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=count))
    return radii * phases


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
    of words up to the degree, applied right to left by one walk per factor
    for each chunk of samples, side by side in one sample panel.
    """
    ids = list(gens.ids)
    words = {f: _all_words([f], degree) for f in ids}
    worst, pair = worst_commutator(gens)
    witness = {"part": "commutation", **pair} if worst > 0 else None

    sweep = _Sweep(state, gens)
    phis = [sweep.word_moments(words[f]) for f in ids]
    k = len(sweep.weights)
    # each sample drawn factor by factor in id order
    counts = [len(words[f]) for f in ids]
    for chunk, applied, coeffs in sweep.sample_panels(samples, (seed, 1), counts):
        for f, c in zip(reversed(ids), reversed(coeffs)):
            applied = sweep.combine((words[f], c), applied)
        split = np.prod([phi @ c[:, ::k] for phi, c in zip(phis, coeffs)], axis=0)
        res = np.hypot((m := sweep.moments(applied) - split).real, m.imag)  # as a scalar abs
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

    The monomial pass walks the tree of alternating slot choices depth first
    from the rightmost slot, so a product shares its right part with its
    siblings.  It runs in node panels of siblings and cousins, laid out as
    sample panels: each letter of a slot's powers goes to the whole panel,
    whose centered options together fit in ``SAMPLE_PANEL_BYTES`` (one node
    at least), and each option's moments are read at once.  The random pass
    runs each chunk of samples side by side in one sample panel: it takes
    each slot's means as dot products with the factor's word moments and
    applies the slot by one :meth:`_Sweep.combine`.
    """
    ids = list(gens.ids)
    if len(ids) < 2:
        raise ValueError("free independence needs at least two factors")
    if degree < 1:
        raise ValueError(f"free independence needs degree >= 1, got {degree}")
    # alternating factor sequences of length 2..max_len, one letter per slot
    sequences = [
        tuple(f for f, _ in w.letters)
        for w in _alternating_words(ids, (1,), max_len, 1, max_len)
        if len(w) >= 2
    ]
    sweep = _Sweep(state, gens)
    worst = 0.0
    witness: dict | None = None

    # centered T^p and (T*)^p for 1 <= p <= min(degree, 3); option 2(p-1) + star
    powers = min(degree, 3)
    opts = 2 * powers
    monomials = {
        f: [Word(((f, s),) * p) for p in range(1, powers + 1) for s in (False, True)]
        for f in ids
    }
    means = {f: sweep.word_moments(words) for f, words in monomials.items()}
    # residuals[seq][o_1, ..., o_m]: |phi| of the product with option o_k in slot k
    residuals = {seq: np.zeros((opts,) * len(seq)) for seq in sequences}

    def centered(f: int, panel: np.ndarray) -> np.ndarray:
        out = np.empty((len(panel), opts, panel.shape[1]), dtype=complex)  # option-major
        for s in (False, True):
            power = panel
            for p in range(powers):
                power = sweep.apply((f, s), power)
                out[:, 2 * p + s] = power - means[f][2 * p + s] * panel
        return out.reshape(len(panel), -1)

    # depth first over node panels of one slot sequence, from the rightmost
    # slot leftwards; ``flat`` holds each node's flat index into its
    # ``residuals`` array, and a node is the state's ``k`` columns
    k = len(sweep.weights)
    per_panel = SAMPLE_PANEL_BYTES // (opts * sweep.panel.nbytes)
    stack = [((), sweep.panel, np.zeros(1, dtype=np.intp))]
    while stack:
        slots, panel, flat = stack.pop()
        for f in ids:
            if slots and slots[-1] == f:
                continue
            here = slots + (f,)
            applied = centered(f, panel)
            at = (np.arange(opts)[:, None] * opts ** len(slots) + flat).ravel()
            if len(here) >= 2:  # hypot rounds as a scalar abs; np.abs of an array may not
                m = sweep.moments(applied)
                residuals[here[::-1]].flat[at] = np.hypot(m.real, m.imag)
            if len(here) < max_len:
                for c in _chunks(len(at), per_panel):
                    stack.append((here, applied[:, c.start * k : c.stop * k], at[c.start : c.stop]))
    flip = np.arange(opts) ^ 1  # the option of the adjoint: star flipped
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

    words = {f: _all_words([f], degree) for f in ids}
    phis = {f: sweep.word_moments(ws) for f, ws in words.items()}
    for si, seq in enumerate(sequences):
        # each sample drawn slot by slot from the left
        counts = [len(words[f]) for f in seq]
        for chunk, applied, coeffs in sweep.sample_panels(samples, (seed, 2, si), counts):
            for f, c in zip(reversed(seq), reversed(coeffs)):
                applied = sweep.combine((words[f], c), applied, mean=phis[f] @ c)
            res = np.hypot((m := sweep.moments(applied)).real, m.imag)  # as a scalar abs
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
    pairs; every product's moment comes from one shared-suffix sweep."""
    ids = list(gens.ids)
    letters = [Word(((f, s),)) for f in ids for s in (False, True)]
    pairs = [(wa, wb) for wa in letters for wb in letters]
    first_random = len(pairs)
    for s in range(samples):
        rng = _derive_rng(seed, 3, s)
        wa = _random_word(rng, ids, degree)
        pairs.append((wa, _random_word(rng, ids, degree)))
    sweep = _Sweep(state, gens)
    moments = sweep.word_moments([w for wa, wb in pairs for w in (wa * wb, wb * wa)])
    worst = 0.0
    witness: dict | None = None
    for k, (wa, wb) in enumerate(pairs):
        res = abs(complex(moments[2 * k]) - complex(moments[2 * k + 1]))
        if res > worst:
            worst = res
            witness = {"part": "letters", "left": wa.format(), "right": wb.format()}
            if k >= first_random:
                witness |= {"part": "random", "sample": k - first_random, "seed": seed}

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


def _random_word(rng: np.random.Generator, ids: Sequence[int], degree: int) -> Word:
    length = int(rng.integers(1, degree + 1))
    letters = tuple(
        (int(ids[rng.integers(0, len(ids))]), bool(rng.integers(0, 2)))
        for _ in range(length)
    )
    return Word(letters)


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

Marginal = Callable[[Word], complex]


def matrix_marginal(gens: GenSet, state: State) -> Marginal:
    """Marginal distribution of one factor's generators under a state; the
    words it is asked for name that factor's own id.  Each word's moment is
    computed once and cached, so the oracle's many words share block values."""
    return lru_cache(maxsize=None)(partial(word_moment, state, gens))


def haar_unitary_marginal() -> Marginal:
    """Haar unitary marginal: ``phi(u^k) = 1`` iff the net exponent is 0."""
    return lambda word: complex(sum(-1 if s else 1 for _, s in word.letters) == 0)


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
    recursion = _FreeRecursion(marginals)
    return [recursion(w.letters) for w in words], recursion.entries


def free_mixed_moment_oracle(marginals: Mapping[int, Marginal], word: Word) -> complex:
    """:func:`free_mixed_moments` of one word."""
    return free_mixed_moments(marginals, [word])[0][0]


class _FreeRecursion:
    """The oracle's recursion on flat letter tuples (a block sequence is fixed
    by its letters), one memo for all words; a single block's mean is read
    from its marginal.  A value depends only on its letters and the
    marginals, so sharing or clearing the memo changes no digit.  The memo is
    cleared before an entry would take it past ``ORACLE_MEMO_BYTES``;
    ``entries`` counts the entries it took in, the distinct sequences
    evaluated unless it was cleared.  A class, not a recursive closure, so
    no reference cycle keeps the memo alive."""

    def __init__(self, marginals: Mapping[int, Marginal]):
        self.marginals = marginals
        self.memo: dict[tuple[tuple[int, bool], ...], complex] = {}
        self.entries = 0

    def __call__(self, letters: tuple[tuple[int, bool], ...]) -> complex:
        if not letters:
            return 1.0 + 0.0j
        total = self.memo.get(letters)
        if total is not None:
            return total
        blocks = [tuple(run) for _, run in itertools.groupby(letters, key=itemgetter(0))]
        if len(blocks) == 1:
            total = self.marginals[letters[0][0]](Word(letters))
        else:
            phis = [self(b) for b in blocks]
            total = 0.0 + 0.0j
            for mask in range(1, 1 << len(blocks)):
                coeff = 1.0 + 0.0j
                sign = -1.0
                kept: tuple[tuple[int, bool], ...] = ()
                for j, b in enumerate(blocks):
                    if mask >> j & 1:
                        coeff *= phis[j]
                        sign = -sign
                    else:
                        kept += b
                if coeff != 0:
                    total += sign * coeff * self(kept)
        if len(self.memo) >= ORACLE_MEMO_BYTES // 256:
            self.memo.clear()
        self.memo[letters] = total
        self.entries += 1
        return total


def oracle_equivalence_check(
    state: State,
    gens: GenSet,
    marginals: Mapping[int, Marginal],
    words: Sequence[Word],
    tol: float = 1e-8,
) -> CheckReport:
    """Compare each word's moment in the model with the free mixed moment
    oracle of the marginals: the model side is one shared-suffix sweep, the
    oracle side one :func:`free_mixed_moments` call, whose memo entries the
    details report as ``memo_entries``."""
    sweep = _Sweep(state, gens)
    model = sweep.word_moments(words)
    oracle, entries = free_mixed_moments(marginals, words)
    worst = 0.0
    witness: dict | None = None
    for w, lhs, rhs in zip(words, model, oracle):
        lhs = complex(lhs)
        res = abs(lhs - rhs)
        if res >= worst:
            if res > worst or witness is None:
                witness = {
                    "word": w.format(),
                    "vacuum_moment": [lhs.real, lhs.imag],
                    "oracle_moment": [rhs.real, rhs.imag],
                }
            worst = max(worst, res)
    return CheckReport(
        name="oracle_equivalence",
        residual=worst,
        tol=tol,
        passed=worst <= tol,
        witness=witness,
        details={"words": len(words), "letters_applied": sweep.letters, "memo_entries": entries},
    )


# ---------------------------------------------------------------------------
# tensor product model


def make_tensor_independent(factors: Sequence[tuple[np.ndarray, State]]) -> tuple[GenSet, State]:
    """Ampliate factors onto the tensor product space with the product state.

    Returns the generators keyed 1..n and the joint state; tensor
    independence holds by construction.  Generator ``i`` is the ampliation
    ``I (x) ... (x) T_i (x) ... (x) I``, kept as an :class:`AxisAction` of
    ``T_i`` on leg ``i - 1``, never as a matrix of the product space.
    """
    mats = [as_matrix(t) for t, _ in factors]
    states = [s for _, s in factors]
    dims = [m.shape[0] for m in mats]
    check_dim_cap(math.prod(dims), "tensor product")
    gens = GenSet({i: AxisAction(dims, (i - 1,), m) for i, m in enumerate(mats, start=1)})

    if all(s.kind == "vector" for s in states):
        vec = np.array([1.0 + 0.0j])
        for s in states:
            vec = np.kron(vec, s.vector)
        return gens, State.from_vector(vec)

    rho = np.array([[1.0 + 0.0j]])
    for s in states:
        block = (
            np.outer(s.vector, np.conj(s.vector)) if s.kind == "vector" else s.density
        )
        rho = np.kron(rho, block)
    return gens, State.from_density(rho)
