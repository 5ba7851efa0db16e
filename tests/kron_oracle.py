"""``np.kron`` builders of the doubly commuting dilation and of the tensor
ampliations: the dense references the axis actions of
``dilation.doubly_commuting_dilation`` and ``_gram.make_tensor_independent``
are tested against.

Both build every generator as a matrix of the whole product space, as the
package once did, so they are meant for small spaces only.
"""

import math

import numpy as np

from freedilation.dilation import finite_unitary_dilation
from freedilation.operator_core import DEFAULT_TOL, as_matrix


def kron_doubly_dilation(ts, n_degree, tol=DEFAULT_TOL):
    """The iterated dilation: at step ``j`` the current ``j``-th operator is
    replaced by its dilation and every other one by ``I_{N+1} (x) op``."""
    ops = [as_matrix(t) for t in ts]
    eye = np.eye(n_degree + 1, dtype=complex)
    for j in range(len(ops)):
        big = finite_unitary_dilation(ops[j], n_degree, tol).gens[1]
        ops = [big if i == j else np.kron(eye, op) for i, op in enumerate(ops)]
    return ops


def kron_ampliations(mats):
    """``I (x) ... (x) m_i (x) ... (x) I`` for each factor matrix ``m_i``."""
    mats = [as_matrix(m) for m in mats]
    dims = [m.shape[0] for m in mats]
    return [
        np.kron(np.eye(math.prod(dims[:i])), np.kron(m, np.eye(math.prod(dims[i + 1 :]))))
        for i, m in enumerate(mats)
    ]


def kron_axis(legs, axes, core):
    """``core`` on the legs ``axes`` of ``C^{legs[0]} (x) C^{legs[1]} (x) ...``
    and the identity on the others: ``np.kron`` of the core with the identity
    of the other legs, its rows and columns then put back in leg order."""
    rest = [k for k in range(len(legs)) if k not in axes]
    m = np.kron(as_matrix(core), np.eye(math.prod(legs[k] for k in rest)))
    order = [*axes, *rest]  # the legs of ``m``'s coordinates, most significant first
    at = np.arange(m.shape[0]).reshape([legs[k] for k in order]).transpose(np.argsort(order))
    at = at.ravel()  # at[i]: the coordinate of ``m`` that coordinate ``i`` is
    return m[np.ix_(at, at)]
