"""The per-letter shared-suffix walk that ``ncprob._walk_plan`` replaced,
kept as a reference for its visiting order and the codes it applies.

It sorts a table's words by their reversed letters and finds the suffix
each word shares with the word before one letter at a time in Python, as
``_Sweep.walk_table`` once did.  Meant for small tables only: the letter
loop is what made the walk slow on long words.
"""


def per_letter_walk(table):
    """``(i, codes applied for word i)`` for every row, in visiting order."""
    backs = [[c for c in reversed(row) if c] for row in table.tolist()]  # last letter first
    out, done = [], []
    for i in sorted(range(len(backs)), key=backs.__getitem__):
        todo, keep = backs[i], 0
        while keep < min(len(todo), len(done)) and todo[keep] == done[keep]:
            keep += 1
        out.append((i, todo[keep:]))
        done = todo
    return out
