"""Word-list references for the package's code-table enumerators.

The package enumerates word spans only as integer code tables
(``ncprob._all_words``, ``ncprob._ordered_words``,
``ncprob._alternating_words``) and builds a ``Word`` only for a witness or at
the text edge.  These references build the same spans as ``Word`` lists,
each by a direct enumeration of signed power runs, in the order the tables
promise, so that a test can compare the tables with them word by word.
Meant for small budgets only.
"""

import itertools

from freedilation.ncprob import Word


def ordered_words(n_factors, max_power):
    """One signed power per factor in order 1..n, all ``|k| <= max_power``;
    the unit first, then by run count and then the runs themselves."""
    powers = range(-max_power, max_power + 1)
    runs = {
        tuple((i + 1, k) for i, k in enumerate(combo) if k != 0)
        for combo in itertools.product(powers, repeat=n_factors)
    }
    return [Word.from_runs(r) for r in sorted(runs, key=lambda r: (len(r), r))]


def _run_sequences(n_factors, signs, max_blocks, per_run_max, total_max):
    """Every nonempty sequence of runs ``(factor, k)``, ``k`` a sign of
    ``signs`` times ``1..per_run_max``, adjacent runs differing in factor or
    sign, at most ``max_blocks`` maximal same-factor blocks and ``sum |k|
    <= total_max``: by total power, then run count, then the runs."""
    runs = [(f, s * p) for f in range(1, n_factors + 1) for s in signs for p in range(1, per_run_max + 1)]
    out, level = [], [()]
    while level:
        grown = []
        for seq in level:
            for f, k in runs:
                if seq and (f, k > 0) == (seq[-1][0], seq[-1][1] > 0):
                    continue  # the same factor and sign would merge into one run
                new = seq + ((f, k),)
                blocks = 1 + sum(a[0] != b[0] for a, b in zip(new, new[1:]))
                if blocks <= max_blocks and sum(abs(p) for _, p in new) <= total_max:
                    grown.append(new)
        out.extend(grown)
        level = grown
    return sorted(out, key=lambda r: (sum(abs(k) for _, k in r), len(r), r))


def signed_alternating_words(n_factors, max_blocks, per_run_max, total_max):
    """Nonempty words in factors ``1..n_factors`` and their adjoints, as
    signed power runs: adjacent runs differ in factor or sign, factor blocks
    at most ``max_blocks``, each ``|k| <= per_run_max``, total length
    ``sum |k| <= total_max``."""
    seqs = _run_sequences(n_factors, (1, -1), max_blocks, per_run_max, total_max)
    return [Word.from_runs(r) for r in seqs]


def alternating_words_within(n_factors, max_alt, max_total):
    """All nonempty words of positive powers with at most ``max_alt``
    alternating runs and length at most ``max_total``."""
    return [Word.from_runs(r) for r in _run_sequences(n_factors, (1,), max_alt, max_total, max_total)]
