"""Free probability over :mod:`.ncprob`, loaded only by free runs and the
``oracle``, ``cumulants`` and ``ncpartitions`` commands: noncrossing
partitions, free cumulants, marginals, and the free mixed moment oracle,
which evaluates a code table's words (``ncprob._codes``) from the marginals
alone, all rows at once, with the per-word recursion's values bit for bit.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .ncprob import CheckReport, GenSet, Word, _alternating_words, _codes, _row_keys, _Sweep, _word
from .operator_core import DEFAULT_TOL, State

MAX_PARTITION_SIZE = 12
MAX_ORACLE_LETTERS = 16
# bytes of the arrays of one batch of the free mixed moment oracle's words,
# as ``_FreeRecursion`` charges them: free_pair's 4,468 sequences are
# charged 3.3 MB and run as one batch (a traced peak of 2.0 MB)
ORACLE_MEMO_BYTES = 4 * 2**20


# ---------------------------------------------------------------------------
# noncrossing partitions and free cumulants

Partition = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _nc_shapes(length: int) -> tuple[Partition, ...]:
    """Noncrossing partitions of ``range(length)`` (0-based), canonical order."""
    if length == 0:
        return ((),)
    out: list[Partition] = []
    # block of 0: any subset; the gaps between chosen points split independently
    for mask in range(1 << (length - 1)):
        chosen = [0, *(x for x in range(1, length) if mask >> (x - 1) & 1)]
        pieces = [
            [tuple(tuple(x + lo for x in block) for block in part) for part in _nc_shapes(hi - lo)]
            for lo, hi in zip([x + 1 for x in chosen], [*chosen[1:], length])
        ]
        # blocks are disjoint, so sorting them sorts them by least element
        out += (tuple(sorted([tuple(chosen), *itertools.chain(*combo)])) for combo in itertools.product(*pieces))
    return tuple(sorted(out, key=lambda p: (len(p), p)))


def noncrossing_partitions(k: int) -> list[Partition]:
    """All noncrossing partitions of ``{1, ..., k}``; blocks sorted by least
    element, partitions ordered by block count then lexicographically."""
    if not 1 <= k <= MAX_PARTITION_SIZE:
        raise ValueError(f"partition size must be in 1..{MAX_PARTITION_SIZE}, got {k}")
    return [tuple(tuple(x + 1 for x in block) for block in part) for part in _nc_shapes(k)]


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

# a marginal: the moments of a code table's words, all in one factor and its
# adjoint
Marginal = Callable[[np.ndarray], np.ndarray]


def matrix_marginal(gens: GenSet, state: State) -> Marginal:
    """Marginal distribution of one factor's generators under a state: the
    :meth:`_Sweep.word_moments` of a table whose words name that factor's
    own id, each with the digits it has in any table."""
    return _Sweep(state, gens).word_moments


def haar_unitary_marginal() -> Marginal:
    """Haar unitary marginal: ``phi(u^k) = 1`` iff the net exponent is 0."""
    return lambda table: (np.count_nonzero(table, 1) == 2 * np.count_nonzero(table & 1, 1)).astype(complex)


def oracle_codes(marginals: Mapping[int, Marginal], words: Sequence[Word]) -> np.ndarray:
    """The code table of words the oracle takes, every word checked before
    any is expanded: one over ``MAX_ORACLE_LETTERS`` letters raises
    ``ValueError``, one naming a factor without a marginal ``KeyError``."""
    for word in words:
        if len(word) > MAX_ORACLE_LETTERS:
            raise ValueError(f"word length {len(word)} exceeds oracle cap {MAX_ORACLE_LETTERS}")
        for f, _ in word.letters:
            if f not in marginals:
                raise KeyError(f"no marginal for factor {f}; known: {sorted(marginals)}")
    return _codes(words)


def free_mixed_moments(marginals: Mapping[int, Marginal], words: Sequence[Word]) -> tuple[list[complex], int]:
    """Mixed moments of words in freely independent factors, from marginals
    only, and the entries the memo of their one recursion took in.

    Subtracting the mean from each factor block of an alternating word gives
    a product with zero moment, so the word's moment expands over subsets of
    blocks replaced by their means, with the complementary blocks re-merged
    and recursed on.  The words are refused as :func:`oracle_codes` says."""
    recursion = _FreeRecursion(marginals, ORACLE_MEMO_BYTES)
    return recursion(oracle_codes(marginals, words)).tolist(), recursion.entries


def oracle_comparison(
    state: State, gens: GenSet, marginals: Mapping[int, Marginal], table: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """The model's moments of a code table's words (one half-word sweep),
    the oracle's (one recursion), their gaps as a scalar abs, and the work:
    ``letters_applied`` and ``memo_entries``."""
    sweep, memo = _Sweep(state, gens), _FreeRecursion(marginals, ORACLE_MEMO_BYTES)
    model, oracle = sweep.word_moments(table), memo(table)
    gap, work = model - oracle, {"letters_applied": sweep.letters, "memo_entries": memo.entries}
    return model, oracle, np.hypot(gap.real, gap.imag), work


def oracle_equivalence_check(
    state: State,
    gens: GenSet,
    marginals: Mapping[int, Marginal],
    max_blocks: int,
    degree: int,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Compare the model's moment with the free mixed moment oracle of the
    marginals for each nonempty word in ``gens.ids`` and their adjoints as
    signed power runs, adjacent runs differing in factor or sign, with at
    most ``max_blocks`` factor blocks, runs up to ``degree`` and ``2 *
    degree`` letters (kept within ``MAX_ORACLE_LETTERS`` by the caller),
    enumerated as one code table for :func:`oracle_comparison`; only the
    witness becomes a :class:`Word`."""
    table = _alternating_words(gens.ids, (1, -1), max_blocks, degree, 2 * degree)
    model, oracle, res, work = oracle_comparison(state, gens, marginals, table)
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
        details={"words": len(table), **work},
    )


# ---------------------------------------------------------------------------
# the oracle's recursion on arrays


def _coefficients(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each mask's blocks' means multiplied in block order, as ``complex``
    multiplies: mask ``m`` with top block ``j`` is mask ``m - 2^j`` times
    block ``j``'s mean, from ``1 + 0j``; real and imaginary parts of
    ``(rows, masks)``, from those of ``(rows, blocks)`` means."""
    n = re.shape[1]
    cr, ci = np.ones((len(re), 1 << n)), np.zeros((len(re), 1 << n))
    for j in range(n):
        ar, ai, br, bi = cr[:, : 1 << j], ci[:, : 1 << j], re[:, j, None], im[:, j, None]
        cr[:, 1 << j : 2 << j], ci[:, 1 << j : 2 << j] = ar * br - ai * bi, ar * bi + ai * br
    return cr, ci


def _kept(rows: np.ndarray, block: np.ndarray, at: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Row ``at[i]`` without its blocks in mask ``masks[i]``, left-packed:
    ``block`` gives each letter's block (a pad's is the last block's)."""
    src, block, masks = rows[at], block[at], masks.astype(np.uint16)  # at most 16 blocks
    out = np.zeros(src.size, dtype=rows.dtype)
    end = np.arange(0, out.size, rows.shape[1])  # each row's next slot, flat
    for i in range(rows.shape[1]):  # a dropped letter writes the 0 its slot keeps until a kept one comes
        gone = (masks >> block[:, i]) & 1
        out[end] = np.where(gone, 0, src[:, i])
        end += 1 - gone
    return out.reshape(src.shape)


def _blocks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each letter's block in rows of codes (a pad's is the last block's),
    and each row's block count (0 for the unit)."""
    change = (rows[:, 1:] >> 1 != rows[:, :-1] >> 1) & (rows[:, 1:] != 0)
    block = np.zeros(rows.shape, dtype=np.uint8)
    np.cumsum(change, axis=1, out=block[:, 1:])
    return block, (block[:, -1] + 1) * (rows[:, 0] != 0)


class _FreeRecursion:
    """The oracle's recursion on a code table, on arrays.

    A sequence is keyed by its padded code row (a block sequence is fixed by
    its letters).  Discovery walks down by block count: the sequences of
    ``b`` blocks take their blocks' means, read by one marginal call per
    factor on a table of the new single-block sequences, and keep the
    re-merged rest of each mask whose coefficient is not zero, which has
    fewer blocks.  Evaluation walks back up, each kept sequence found by one
    sorted lookup.  Every complex product is formed from float64 parts in
    the order of the per-word recursion (Python ``complex`` arithmetic,
    ``sign * coeff`` promoted to complex), since numpy's complex multiply
    may round otherwise, so a value depends only on its letters and the
    marginals.

    Words run in batches whose arrays fit in ``budget`` bytes (one word at
    least), halving a batch that does not fit, and a batch is refused
    before each level builds its arrays.  A batch is charged 8 bytes a
    letter of its words (their blocks), 256 a sequence (its row, means, key
    and value), ``1 + width`` a mask it holds (a flag and a kept row,
    ``width`` a row's bytes), and ``48 + 3 width`` a mask of its largest
    level, for the coefficients, indices and copies one level builds and
    drops.  ``entries`` counts the distinct sequences of each batch, those
    the per-word recursion evaluates: the memo's entries when one batch
    holds every word."""

    def __init__(self, marginals: Mapping[int, Marginal], budget: int):
        self.marginals, self.budget = marginals, budget
        self.entries = 0

    def __call__(self, table: np.ndarray) -> np.ndarray:
        """The moments of the table's words; the unit's is ``1 + 0j``."""
        table = table.astype(np.min_scalar_type(int(table.max(initial=0))))  # small rows
        out = np.empty(len(table), dtype=complex)
        start, size, budget = 0, len(table), self.budget
        while start < len(table):
            size = min(size, len(table) - start)
            while (found := self._discover(table[start : start + size], budget if size > 1 else None)) is None:
                size = (size + 1) // 2
            out[start : start + size] = self._evaluate(table[start : start + size], *found)
            start += size
        return out

    def _discover(self, words: np.ndarray, budget: int | None):
        """The batch's sequences: the single-block ones, sorted by their
        bytes, and their means, and per block count the rows, their blocks'
        means, their masks with a nonzero coefficient and those masks' kept
        rows; ``None`` once the batch is charged more than ``budget`` bytes."""
        known, means, groups, found = words[:0], np.zeros(0, dtype=complex), [], 0
        width, held, most = words.shape[1] * words.itemsize, 8 * words.size, 0

        def over() -> bool:  # before each level's arrays are built, and after the last
            return budget is not None and held + most * (48 + 3 * width) + 256 * len(known) > budget

        if over():
            return None
        count = _blocks(words)[1]
        pending = [[words[count == b]] for b in range(count.max(initial=1) + 1)]
        for b in range(len(pending) - 1, 0, -1):
            rows = np.concatenate(pending[b])
            rows = rows[np.unique(_row_keys(rows), return_index=True)[1]]
            if b > 1:
                found, held = found + len(rows), held + len(rows) * (((1 + width) << b) + 256)
                most = max(most, len(rows) << b)
            if over():
                return None
            block, single = _blocks(rows)[0], rows
            if b > 1:  # block j of each row: the row without the other blocks
                masks = np.tile((1 << b) - 1 - (1 << np.arange(b)), len(rows))
                single = _kept(rows, block, np.repeat(np.arange(len(rows)), b), masks)
            # the new single-block sequences join the known ones, with their means
            every = np.concatenate([known, single])
            first = np.unique(_row_keys(every), return_index=True)[1]
            fresh, old, known = first >= len(known), means, every[first]
            means = np.empty(len(known), dtype=complex)
            means[~fresh] = old[first[~fresh]]
            factors = known[:, 0] >> 1
            for f in sorted(set(factors[fresh].tolist())):  # np.unique alone would import numpy.ma
                asked = fresh & (factors == f)
                means[asked] = self.marginals[f](known[asked].astype(np.intp))
            if b > 1:
                phis = means[np.searchsorted(_row_keys(known), _row_keys(single))].reshape(len(rows), b)
                cr, ci = _coefficients(phis.real, phis.imag)
                nonzero = (cr != 0) | (ci != 0)
                nonzero[:, 0] = False  # the empty mask keeps the row itself
                more = _kept(rows, block, *np.nonzero(nonzero))
                groups.append((rows, phis, nonzero, more))
                count = _blocks(more)[1]
                for c in set(count.tolist()) - {0}:
                    pending[c].append(more[count == c])
        if over():
            return None
        self.entries += found + len(known)
        return known, means, groups

    def _evaluate(self, words: np.ndarray, known: np.ndarray, means: np.ndarray, groups) -> np.ndarray:
        """The words' values from the discovered sequences, by block count up."""
        keys = _row_keys(np.concatenate([np.zeros_like(words[:1]), known, *(g[0] for g in groups)]))
        order = np.argsort(keys)
        keys, rest = keys[order], np.zeros(len(keys) - 1 - len(known))
        re = np.concatenate([[1.0], means.real, rest])[order]  # the unit, then the means
        im = np.concatenate([[0.0], means.imag, rest])[order]
        for rows, phis, nonzero, kept in reversed(groups):
            cr, ci = _coefficients(phis.real, phis.imag)
            at = np.zeros(nonzero.shape, dtype=np.intp)  # zero coefficients read the unit
            at[nonzero] = np.searchsorted(keys, _row_keys(kept))
            total_r, total_i = np.zeros(len(rows)), np.zeros(len(rows))
            for m in range(1, nonzero.shape[1]):  # the masks in order, zero coefficients skipped
                sign, c_r, c_i = (-1.0, 1.0)[m.bit_count() % 2], cr[:, m], ci[:, m]
                v_r, v_i = re[at[:, m]], im[at[:, m]]
                # sign * coeff as Python promotes it, (sign + 0j) * coeff, then times the value
                s_r, s_i = sign * c_r - 0.0 * c_i, sign * c_i + 0.0 * c_r
                np.add(total_r, s_r * v_r - s_i * v_i, out=total_r, where=nonzero[:, m])
                np.add(total_i, s_r * v_i + s_i * v_r, out=total_i, where=nonzero[:, m])
            at = np.searchsorted(keys, _row_keys(rows))
            re[at], im[at] = total_r, total_i
        at = np.searchsorted(keys, _row_keys(words))
        out = np.empty(len(words), dtype=complex)
        out.real, out.imag = re[at], im[at]
        return out
