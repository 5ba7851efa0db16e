"""Dense loop builder of the left action on a truncated free product, the
reference ``free_product.left_representation`` is tested against.

It walks every basis word and writes the image of its first letter into a
``dim x dim`` matrix, so it is meant for small Fock spaces only.
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
    pos = fb.position
    for p, lab in enumerate(fb.labels):
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
