"""The free mixed moment recursion on a code table, on arrays.

A word list travels as a table of letter codes ``2 * factor + star``, one
word per row, zeros after (see ``ncprob._codes``); :class:`_FreeRecursion`
evaluates the recursion of ``ncprob.free_mixed_moments`` for every row at
once, with the per-word recursion's values bit for bit.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of codes as one sortable key, its bytes: rows of one width
    and dtype have equal keys exactly when their codes are equal."""
    return np.ascontiguousarray(rows).view(f"V{rows.shape[-1] * rows.itemsize}")[..., 0]


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

    def __init__(self, marginals: Mapping[int, Callable[[np.ndarray], np.ndarray]], budget: int):
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
