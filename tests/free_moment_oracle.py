"""The per-word free mixed moment recursion that ``_freeprob.free_mixed_moments``
is tested against.

Each word gets its own memo, keyed by nested block tuples ``(factor id,
star flags)``, and blocks are re-merged after every expansion step, as the
package once computed the oracle one word at a time.  The arithmetic is the
same, term for term, so the shared memo must give the same digits.
"""

from freedilation.ncprob import Word, _codes


def _merge_blocks(blocks):
    """Concatenate adjacent blocks of the same factor."""
    out = []
    for f, stars in blocks:
        if out and out[-1][0] == f:
            out[-1] = (f, out[-1][1] + stars)
        else:
            out.append((f, stars))
    return tuple(out)


def _expand_blocks(blocks, marginals, memo):
    if not blocks:
        return 1.0 + 0.0j
    if blocks in memo:
        return memo[blocks]
    phis = []
    for b in blocks:
        phi = memo.get(b)
        if phi is None:
            f, stars = b
            word = Word(tuple((f, s) for s in stars))
            phi = memo[b] = complex(marginals[f](_codes([word]))[0])
        phis.append(phi)
    m = len(blocks)
    if m == 1:
        return phis[0]
    total = 0.0 + 0.0j
    for mask in range(1, 1 << m):
        coeff = 1.0 + 0.0j
        sign = -1.0
        kept = []
        for j in range(m):
            if mask >> j & 1:
                coeff *= phis[j]
                sign = -sign
            else:
                kept.append(blocks[j])
        if coeff == 0:
            continue
        total += sign * coeff * _expand_blocks(_merge_blocks(kept), marginals, memo)
    memo[blocks] = total
    return total


def per_word_free_moment(marginals, word):
    """The mixed moment of one word, with a memo of its own."""
    return _expand_blocks(_merge_blocks((f, (s,)) for f, s in word.letters), marginals, {})
