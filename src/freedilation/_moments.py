"""The product grammar of the ``moments`` command, which ``oracle`` shares
for its budget: plain signed-power words with ``c(...)`` groups centered
by their state mean, and the scenario's budget on the words it reads.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from ._inputs import BudgetError, IngestError
from .ncprob import Word, center, parse_word, state_moment

if TYPE_CHECKING:
    from .harness import Model, Scenario

_CENTER_RE = re.compile(r"c\(([^()]*)\)|(\S+)")


def parse_product(text: str) -> list[tuple[bool, Word]]:
    """Parse a product expression: a plain signed-power word, with any number
    of ``c(...)`` groups whose state mean is subtracted before multiplying.

    Consecutive plain tokens form one word; each ``c(...)`` group is its own
    factor of the product.
    """
    out: list[tuple[bool, Word]] = []
    plain: list[str] = []

    def flush() -> None:
        if plain:
            out.append((False, parse_word(" ".join(plain))))
            plain.clear()

    for m in _CENTER_RE.finditer(text):
        if m.group(1) is not None:
            flush()
            out.append((True, parse_word(m.group(1))))
        else:
            plain.append(m.group(2))
    flush()
    if not out:
        out.append((False, Word(())))
    return out


def evaluate_product(text: str, model: Model) -> complex:
    factors = []
    for centered, w in parse_product(text):
        comb = ((w,), [1])
        factors.append(center(comb, model.state, model.gens) if centered else comb)
    return state_moment(model.state, model.gens, factors)


def moment_budget_check(sc: Scenario, word: Word) -> None:
    """Refuse words the scenario's model cannot evaluate exactly.

    Every factor id must name one of the scenario's factors.  In free mode a
    product touches words of length at most its factor-block count, so the
    vacuum moment is exact iff that count stays within the truncation length;
    any centered expansion only shortens words, so checking the full
    concatenation covers every term.
    """
    n = len(sc.factors)
    unknown = sorted({f for f, _ in word.letters} - set(range(1, n + 1)))
    if unknown:
        raise IngestError(f"word uses factor ids {unknown}; the scenario has factors 1..{n}")
    if sc.mode != "free":
        return
    blocks = word.blocks()
    if len(blocks) > sc.trunc:
        raise BudgetError(
            f"word has {len(blocks)} factor blocks, exceeding the truncation length {sc.trunc}; "
            "vacuum moments are exact only up to that alternation depth"
        )
