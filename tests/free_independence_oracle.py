"""Nested-loop free independence check that the shared-suffix sweep is tested against.

Every centered product is built as a list of elements and evaluated from
scratch with ``state_moment``; the sequences, random draws and witness rules
are those of ``ncprob.free_independence_check``.
"""

import itertools

import numpy as np

from freedilation.ncprob import (
    CheckReport,
    Element,
    Word,
    center,
    random_element,
    state_moment,
)


def _sequences(ids, max_len):
    """Alternating factor sequences of length 2..max_len, by length then lexicographically."""
    return [
        seq
        for length in range(2, max_len + 1)
        for seq in itertools.product(ids, repeat=length)
        if all(a != b for a, b in zip(seq, seq[1:]))
    ]


def _rng(seed, *salt):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *salt])))


def nested_free_independence_check(state, gens, max_len, degree, samples, tol, seed=0):
    ids = list(gens.ids)
    sequences = _sequences(ids, max_len)
    worst = 0.0
    witness = None

    monomials = {}
    for f in ids:
        monomials[f] = []
        for p in range(1, min(degree, 3) + 1):
            for starred in (False, True):
                word = Word.from_runs([(f, -p if starred else p)])
                el = center(Element.from_word(word), state, gens)
                monomials[f].append((f"c({word.format()})", el))
    for seq in sequences:
        for combo in itertools.product(*(monomials[f] for f in seq)):
            res = abs(state_moment(state, gens, [el for _, el in combo]))
            if res > worst:
                worst = res
                witness = {
                    "part": "monomial",
                    "sequence": list(seq),
                    "slots": [label for label, _ in combo],
                }

    for si, seq in enumerate(sequences):
        for s in range(samples):
            rng = _rng(seed, 2, si, s)
            elements = [center(random_element(rng, f, degree), state, gens) for f in seq]
            res = abs(state_moment(state, gens, elements))
            if res > worst:
                worst = res
                witness = {"part": "random", "sequence": list(seq), "sample": s, "seed": seed}

    return CheckReport(
        name="free_independence",
        residual=worst,
        tol=tol,
        passed=worst <= tol,
        witness=witness,
    )
