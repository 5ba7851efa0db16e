"""Nested-loop independence checks that the shared-suffix sweep is tested against.

A self-contained reference built on ``apply_word`` alone: an element is a
dict from word to coefficient, applied word by word, and centered by a unit
coefficient; every product is evaluated from scratch.  The sequences,
random draws and witness rules are those of
``ncprob.free_independence_check`` and of the factorization part of
``ncprob.tensor_independence_check``, except that the check reads each
monomial residual as the larger of the product's and its adjoint twin's,
which are equal in exact arithmetic; here each product counts alone.
"""

import itertools

import numpy as np

from freedilation.ncprob import CheckReport, Word, apply_word

UNIT = Word(())


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


def _moment(state, gens, elements):
    """``phi(a_1 ... a_m)``: the elements applied right to left to the state's
    columns, each as the sum of its words applied one at a time."""
    if state.kind == "vector":
        panel, weights = state.vector.reshape(-1, 1), np.ones(1)
    else:
        weights, panel = np.linalg.eigh(state.density)
        keep = weights > 1e-14
        panel, weights = panel[:, keep], weights[keep]
    out = panel
    for el in reversed(elements):
        out = sum(c * apply_word(w, gens, out) for w, c in el.items())
    return complex(np.sum(weights * np.einsum("ik,ik->k", np.conj(panel), out)))


def _center(el, state, gens):
    return {**el, UNIT: el.get(UNIT, 0) - _moment(state, gens, [el])}


def _random_element(rng, factor, degree):
    """Every word of length <= degree in one factor and its adjoint, by length
    then in product order, with coefficients uniform on the complex unit disc."""
    letters = [(factor, False), (factor, True)]
    words = [Word(combo) for n in range(degree + 1) for combo in itertools.product(letters, repeat=n)]
    radii = np.sqrt(rng.uniform(0.0, 1.0, size=len(words)))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=len(words)))
    return {w: complex(c) for w, c in zip(words, radii * phases)}


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
                el = _center({word: 1.0}, state, gens)
                monomials[f].append((f"c({word.format()})", el))
    for seq in sequences:
        for combo in itertools.product(*(monomials[f] for f in seq)):
            res = abs(_moment(state, gens, [el for _, el in combo]))
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
            elements = [_center(_random_element(rng, f, degree), state, gens) for f in seq]
            res = abs(_moment(state, gens, elements))
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


def nested_tensor_factorization(state, gens, degree, samples, seed=0):
    """The worst ``|phi(a_1 ... a_n) - prod phi(a_i)|`` over the random
    one-per-factor tuples, and the first sample that attains it."""
    ids = list(gens.ids)
    worst, at = 0.0, None
    for s in range(samples):
        rng = _rng(seed, 1, s)
        elements = [_random_element(rng, f, degree) for f in ids]
        split = np.prod([_moment(state, gens, [el]) for el in elements])
        res = abs(_moment(state, gens, elements) - split)
        if res > worst:
            worst, at = res, s
    return worst, at
