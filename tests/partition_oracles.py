"""Brute-force set-partition oracles that the noncrossing enumerator is tested against."""

import itertools

Partition = tuple[tuple[int, ...], ...]


def is_noncrossing(partition: Partition) -> bool:
    """Blocks cross iff their sorted merge alternates through 4+ runs."""
    blocks = [set(b) for b in partition]
    for bi, bj in itertools.combinations(blocks, 2):
        merged = sorted((x, x in bi) for x in bi | bj)
        runs = 1
        for (_, a), (_, b) in zip(merged, merged[1:]):
            if a != b:
                runs += 1
        if runs >= 4:
            return False
    return True


def all_set_partitions(k: int) -> list[Partition]:
    """Every set partition of ``{1, ..., k}`` via restricted growth strings."""
    if not 1 <= k <= 8:
        raise ValueError(f"set partition enumeration capped at 8, got {k}")
    out: list[Partition] = []

    def rec(i: int, assignment: list[int], nblocks: int) -> None:
        if i == k:
            blocks: list[list[int]] = [[] for _ in range(nblocks)]
            for pos, b in enumerate(assignment):
                blocks[b].append(pos + 1)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(nblocks):
            assignment.append(b)
            rec(i + 1, assignment, nblocks)
            assignment.pop()
        assignment.append(nblocks)
        rec(i + 1, assignment, nblocks + 1)
        assignment.pop()

    rec(0, [], 0)
    return out
