"""Nested-loop independence checks that the shared-suffix sweep is tested against.

A self-contained reference built on ``apply_word`` alone: an element is a
dict from word to coefficient, applied word by word, and centered by a unit
coefficient; every product is evaluated from scratch.  The sequences,
random draws and witness rules are those of
``ncprob.free_independence_check`` and of the factorization part of
``ncprob.tensor_independence_check``, except that the check reads each
monomial residual as the larger of the product's and its adjoint twin's,
which are equal in exact arithmetic; here each product counts alone.
``nested_monomial_halves`` reads the monomial pass as the check does, off
the images of each product's two halves with the twin maximum, one product
at a time.
"""

import itertools

import numpy as np

from freedilation.ncprob import CheckReport, Word, apply_word
from certificate_oracles import dense_state_columns

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
    panel, weights = dense_state_columns(state)
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
        rng = _rng(seed, 2, si)  # one generator per sequence, sample after sample
        for s in range(samples):
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


def nested_monomial_halves(state, gens, max_len, degree):
    """The monomial pass of ``ncprob.free_independence_check`` read off
    half products, one product at a time: ``X = L R``, ``R`` its last
    ``ceil(m/2)`` centered slots, as ``<R v, L* v>`` on the state's columns
    scaled by ``sqrt(w_k)``.  ``L*`` is ``L``'s slots reversed with stars
    flipped; a starred slot is centered at the conjugate of its twin's mean,
    and ``phi(T^p)`` is read off its own halves.  Each half is applied slot
    by slot from the state's columns, and a product's residual is the larger
    of its own and its adjoint twin's.  Returns the worst residual and the
    first product that attains it."""
    ids = list(gens.ids)
    panel, weights = dense_state_columns(state)
    panel = panel * np.sqrt(weights)

    def moment(left, right):
        return complex(np.vdot(left.ravel(), right.ravel()))

    def half(slots):
        """The slots' product applied to the columns, the last slot first."""
        out = panel
        for word, mean in reversed(slots):
            out = apply_word(word, gens, out) - mean * out
        return out

    options = {}  # option 2(p-1) + star: the word T^p or (T*)^p and its mean
    for f in ids:
        options[f] = []
        for p in range(1, min(degree, 3) + 1):
            star, plain = Word(((f, True),) * (p // 2)), Word(((f, False),) * (p - p // 2))
            mean = moment(apply_word(star, gens, panel), apply_word(plain, gens, panel))
            options[f] += [(Word(((f, False),) * p), mean), (Word(((f, True),) * p), np.conj(mean))]
    residual = {}
    for seq in _sequences(ids, max_len):
        h = len(seq) // 2
        for combo in itertools.product(range(len(options[seq[0]])), repeat=len(seq)):
            slots = [options[f][o] for f, o in zip(seq, combo)]
            twins = [options[f][o ^ 1] for f, o in zip(seq[:h], combo[:h])]
            residual[seq, combo] = abs(moment(half(twins[::-1]), half(slots[h:])))
    worst, witness = 0.0, None
    for (seq, combo), res in residual.items():
        res = max(res, residual[seq[::-1], tuple(o ^ 1 for o in combo[::-1])])
        if res > worst:
            slots = [f"c({options[f][o][0].format()})" for f, o in zip(seq, combo)]
            worst, witness = res, {"part": "monomial", "sequence": list(seq), "slots": slots}
    return worst, witness


def nested_tensor_factorization(state, gens, degree, samples, seed=0):
    """The worst ``|phi(a_1 ... a_n) - prod phi(a_i)|`` over the random
    one-per-factor tuples, and the first sample that attains it."""
    ids = list(gens.ids)
    worst, at = 0.0, None
    rng = _rng(seed, 1)  # one generator, sample after sample
    for s in range(samples):
        elements = [_random_element(rng, f, degree) for f in ids]
        split = np.prod([_moment(state, gens, [el]) for el in elements])
        res = abs(_moment(state, gens, elements) - split)
        if res > worst:
            worst, at = res, s
    return worst, at
