"""Loop builders of a truncated free product's basis words and of the left
action on it, the references ``free_product.build_fock`` and
``free_product.left_representation`` are tested against.

The basis words are built as label tuples and sorted, and the left action
walks every word and writes the image of its first letter into a ``dim x
dim`` matrix, so both are meant for small Fock spaces only.
"""

import itertools

import numpy as np

from freedilation.free_product import FockBasis, _fock_dims
from freedilation.operator_core import LetterAction
from freedilation.operator_core import adjoint, as_matrix


def fock_dimension(complement_dims, max_len):
    """Dimension of the free product of spaces with these complement
    dimensions, truncated at words of ``max_len`` letters."""
    *_, dim = itertools.islice(_fock_dims(complement_dims), max_len + 1)
    return dim


def fock_labels(fb: FockBasis) -> list:
    """The basis words of ``fb`` as tuples of ``(factor, complement index)``
    pairs, adjacent factors distinct: the vacuum ``()``, then each length's
    words sorted."""
    compl = {i: ps.complement_dim for i, ps in fb.factors.items()}
    labels, stack = [()], [()]
    for _ in range(fb.max_len):
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


def fock_order(factor: int, fb: FockBasis) -> tuple[list, int]:
    """``FockAction.order`` and ``grouped`` of factor ``factor``'s left
    action, from the labels: each short word ``t`` that does not start with
    the factor heads the group ``t, (factor, 0) + t, ...``, group-major,
    then the full-length words that do not start with it."""
    labels = fock_labels(fb)
    pos = {lab: p for p, lab in enumerate(labels)}
    heads = [lab for lab in labels if not lab or lab[0][0] != factor]
    groups = [
        [pos[lab]] + [pos[((factor, m),) + lab] for m in range(fb.factors[factor].complement_dim)]
        for lab in heads
        if len(lab) < fb.max_len
    ]
    singles = [pos[lab] for lab in heads if len(lab) == fb.max_len]
    grouped = [p for column in zip(*groups) for p in column]
    return grouped + singles, len(grouped)


def dense_left_representation(factor: int, a: np.ndarray, fb: FockBasis) -> np.ndarray:
    """Matrix of the left action of ``a`` (an operator on factor ``factor``'s
    space) on the truncated free product.

    Only the first letter of a word is touched: the base-vector component of
    the image stays or shortens, the complement component prepends or
    rewrites a letter.  Components that would exceed the truncation length
    are dropped.
    """
    ps = fb.factors[factor]
    a = as_matrix(a)
    xi = ps.base_vector
    comp = ps.complement_basis
    c = ps.complement_dim

    a_xi = a @ xi
    alpha = complex(np.vdot(xi, a_xi))
    prepend = adjoint(comp) @ a_xi  # components of a(xi) in the complement
    a_comp = a @ comp
    shorten = (np.conj(xi) @ a_comp).reshape(-1)  # <a e_m, xi> per complement vector
    rewrite = adjoint(comp) @ a_comp  # complement-to-complement part

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
