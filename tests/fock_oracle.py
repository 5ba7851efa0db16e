"""Loop builders of a truncated free product's basis words and of the left
action on it, the references ``free_product.build_fock`` and
``free_product.left_representation`` are tested against, and the group
pattern scan that ``FockBasis.short_columns`` is tested against.

The basis words are built as label tuples and sorted, and the left action
walks every word and writes the image of its first letter into a ``dim x
dim`` matrix, so both are meant for small Fock spaces only.
"""

import numpy as np

from freedilation.free_product import FockAction, FockBasis
from freedilation.operator_core import LetterAction


def _labels(compl, max_len) -> list:
    """The words of the free product of spaces with complement dimensions
    ``compl`` (by factor id), truncated at ``max_len`` letters, as tuples of
    ``(factor, complement index)`` pairs, adjacent factors distinct: the
    vacuum ``()``, then each length's words sorted."""
    labels, stack = [()], [()]
    for _ in range(max_len):
        stack = [
            lab + ((i, m),)
            for lab in stack
            for i in sorted(compl)
            if not lab or lab[-1][0] != i
            for m in range(compl[i])
        ]
        if not stack:
            break
        labels.extend(sorted(stack))
    return labels


def fock_dimension(compl, max_len):
    """Dimension of the free product of spaces with complement dimensions
    ``compl``, truncated at words of ``max_len`` letters: its words counted."""
    return len(_labels(compl, max_len))


def complement_dims(fb: FockBasis) -> dict:
    """Each factor's complement dimension, the rows of its first grid."""
    return {i: steps[0][1].shape[0] for i, steps in fb.prepend.items()}


def fock_labels(fb: FockBasis) -> list:
    """The basis words of ``fb`` as label tuples (see :func:`_labels`)."""
    return _labels(complement_dims(fb), fb.max_len)


def fock_order(factor: int, fb: FockBasis) -> tuple[list, int]:
    """``FockAction.order`` and ``grouped`` of factor ``factor``'s left
    action, from the labels: each short word ``t`` that does not start with
    the factor heads the group ``t, (factor, 0) + t, ...``, group-major,
    then the full-length words that do not start with it."""
    labels, c = fock_labels(fb), complement_dims(fb)[factor]
    pos = {lab: p for p, lab in enumerate(labels)}
    heads = [lab for lab in labels if not lab or lab[0][0] != factor]
    groups = [
        [pos[lab]] + [pos[((factor, m),) + lab] for m in range(c)]
        for lab in heads
        if len(lab) < fb.max_len
    ]
    singles = [pos[lab] for lab in heads if len(lab) == fb.max_len]
    grouped = [p for column in zip(*groups) for p in column]
    return grouped + singles, len(grouped)


def dense_left_representation(factor: int, block: np.ndarray, fb: FockBasis) -> np.ndarray:
    """Matrix of the left action on the truncated free product of an
    operator on factor ``factor``'s space, given as its block ``F* a F`` in
    the factor's frame ``F = [xi | complement basis]``.

    Only the first letter of a word is touched: the base-vector component of
    the image stays or shortens, the complement component prepends or
    rewrites a letter.  Components that would exceed the truncation length
    are dropped.
    """
    c = block.shape[0] - 1
    alpha = block[0, 0]  # <a xi, xi>
    prepend = block[1:, 0]  # components of a(xi) in the complement
    shorten = block[0, 1:]  # <a e_m, xi> per complement vector
    rewrite = block[1:, 1:]  # complement-to-complement part

    dim = fb.dim
    out = np.zeros((dim, dim), dtype=complex)
    labels = fock_labels(fb)
    pos = {lab: p for p, lab in enumerate(labels)}
    for p, lab in enumerate(labels):
        if lab and lab[0][0] == factor:
            m0 = lab[0][1]
            tail = lab[1:]
            out[pos[tail], p] += shorten[m0]
            for m in range(c):
                out[pos[((factor, m),) + tail], p] += rewrite[m, m0]
        else:
            out[p, p] += alpha
            if len(lab) < fb.max_len:
                for m in range(c):
                    out[pos[((factor, m),) + lab], p] += prepend[m]
    return out


def dense(action: LetterAction, star: bool = False) -> np.ndarray:
    """The matrix of a letter action, or with ``star`` of its adjoint: the
    letter applied to the identity."""
    return action.apply(np.eye(action.shape[0], dtype=complex), star)


def pattern_columns(action: FockAction, cols) -> np.ndarray:
    """The columns of ``cols`` in one group of ``action`` per pattern, a
    pattern being the set of a group's members that ``cols`` holds, and in
    one full-length word if ``cols`` holds any: a scan over the groups.

    Groups are disjoint in rows and in columns and all carry the one block,
    and a full-length word is only scaled, so on the columns ``P`` of
    ``cols`` the products ``U*U - I`` and ``U U* - I`` are block diagonal
    up to the permutation: one block per group that meets ``cols``,
    ``(B*B - I)[:, pattern]`` or ``(B B* - I)[:, pattern]``, and one scalar
    per full-length word.  Each norm on ``P`` is the largest of those
    blocks', so it is the same on the returned columns, exactly.
    """
    rows, g = action.block.shape[0], action.grouped
    held = np.zeros(action.order.size, dtype=bool)
    held[np.asarray(cols, dtype=np.intp)] = True
    held = held[action.order]  # group-major, as ``order``
    groups = held[:g].reshape(rows, -1)
    _, first = np.unique(groups.T, axis=0, return_index=True)
    keep = np.zeros_like(groups)
    keep[:, first] = groups[:, first]
    picks = np.concatenate([np.flatnonzero(keep), g + np.flatnonzero(held[g:])[:1]])
    return np.sort(action.order[picks])
