"""Finite unitary power-dilations of contractions and doubly commuting tuples.

The single-operator construction is the classic Schaffer block layout wrapped
cyclically at degree ``N``: the resulting matrix is exactly unitary and its
compression to the original space reproduces ``T^k`` and ``(T*)^k`` for all
``0 <= k <= N``.  Powers beyond ``N`` wrap around the cycle, so every verifier
here carries the degree as an explicit exactness budget and refuses words
outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ncprob import BudgetError, GenSet, Word, apply_word, commutator_norms, worst_commutator
from .operator_core import (
    DEFAULT_TOL,
    ContractionError,
    Embedding,
    adjoint,
    as_matrix,
    check_dim_cap,
    defect_pair,
    operator_norm,
)


class NotDoublyCommutingError(ValueError):
    def __init__(self, i: int, j: int, residual: float, starred: bool):
        self.pair = (i, j)
        self.residual = float(residual)
        which = "T_i* T_j - T_j T_i*" if starred else "T_i T_j - T_j T_i"
        super().__init__(
            f"factors {i} and {j} do not doubly commute: ||{which}|| = {residual:.3e}"
        )


@dataclass(frozen=True)
class DilationResult:
    """A finite dilation: unitaries ``gens`` on the ambient space, the
    contractions they dilate, both keyed 1..n, and the embedding ``J`` with
    ``J* U_w J = T_w`` for every ordered word ``w`` with powers up to
    ``degree``."""

    gens: GenSet
    contractions: GenSet
    embedding: Embedding
    degree: int

    @property
    def ambient_dim(self) -> int:
        return self.embedding.big_dim

    def unitarity_residual(self) -> float:
        return max(unitarity_residual(self.gens, f) for f in self.gens.ids)


def unitarity_residual(gens: GenSet, factor: int, cols: Sequence[int] | None = None) -> float:
    """``||(U*U - I) P||`` for ``U = gens[factor]`` and ``P`` the identity
    columns ``cols`` (default all), applied to that panel, never as a dense
    product.  On a strict subset of the columns ``||(U U* - I) P||`` counts
    too; on all columns of a square ``U`` the two norms coincide."""
    dim = gens.dim
    cols = np.arange(dim) if cols is None else np.asarray(cols, dtype=int)
    panel = np.zeros((dim, cols.size), dtype=complex)
    panel[cols, np.arange(cols.size)] = 1.0
    u, u_star = (factor, False), (factor, True)
    words = [Word((u_star, u))] + ([Word((u, u_star))] if cols.size < dim else [])
    return max(operator_norm(apply_word(w, gens, panel) - panel) for w in words)


def finite_unitary_dilation(t: np.ndarray, n_degree: int, tol: float = DEFAULT_TOL) -> DilationResult:
    """Degree-``N`` unitary power-dilation of a single contraction.

    Block layout on ``C^{N+1} (x) C^d`` (block indices 0..N)::

        U[0][0] = T      U[0][N] = D_{T*}
        U[1][0] = D_T    U[1][N] = -T*
        U[j+1][j] = I    for 1 <= j <= N-1

    The first column block is isometric because ``T*T + D_T^2 = I``, the last
    because ``D_{T*}^2 + T T* = I``, and they are orthogonal by the
    intertwining relation ``T D_T = D_{T*} T``.  Content injected by ``D_T``
    needs ``N+1`` consecutive applications to wrap back into block 0, so
    compressions of powers up to ``N`` are exact.
    """
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ValueError(f"finite_unitary_dilation needs a square matrix, got {t.shape}")
    if n_degree < 1:
        raise ValueError(f"dilation degree must be >= 1, got {n_degree}")
    d = t.shape[0]
    nb = n_degree + 1
    check_dim_cap(nb * d, "dilation")
    d_t, d_tstar = defect_pair(t, tol)

    u = np.zeros((nb * d, nb * d), dtype=complex)

    def block(i: int, j: int, value: np.ndarray) -> None:
        u[i * d : (i + 1) * d, j * d : (j + 1) * d] = value

    block(0, 0, t)
    block(1, 0, d_t)
    block(0, n_degree, d_tstar)
    block(1, n_degree, -adjoint(t))
    for j in range(1, n_degree):
        block(j + 1, j, np.eye(d))

    return DilationResult(
        gens=GenSet.of_finite({1: u}),
        contractions=GenSet.of_finite({1: t}),
        embedding=Embedding.coordinate(nb * d, range(d)),
        degree=n_degree,
    )


def doubly_commuting_dilation(
    ts: Sequence[np.ndarray], n_degree: int, tol: float = DEFAULT_TOL
) -> DilationResult:
    """Simultaneous unitary dilation of a doubly commuting tuple.

    Iterates the single-operator construction: at step ``j`` the current
    ``j``-th operator is replaced by its dilation while every other operator is
    ampliated by ``I_{N+1} (x) .``; double commutation survives each step
    because the defect operators are functions of the dilated factor alone.
    """
    inputs = GenSet(dict(enumerate(ts, start=1)))
    ops = list(inputs.mats.values())
    d = inputs.dim
    check_dim_cap((n_degree + 1) ** len(ops) * d, "doubly commuting dilation")
    for t in ops:
        norm = operator_norm(t)
        if norm > 1.0 + tol:
            raise ContractionError(norm, tol)
    for i, j, residual, starred in commutator_norms(inputs):
        if residual > tol:
            raise NotDoublyCommutingError(i, j, residual, starred)

    eye_nb = np.eye(n_degree + 1, dtype=complex)
    for j in range(len(ops)):
        big = finite_unitary_dilation(ops[j], n_degree, tol).gens[1]
        ops = [big if i == j else np.kron(eye_nb, op) for i, op in enumerate(ops)]

    # each step keeps the previous space as its block 0: the original space
    # is the span of the first d coordinates
    return DilationResult(
        gens=GenSet.of_finite(dict(enumerate(ops, start=1))),
        contractions=inputs,
        embedding=Embedding.coordinate(ops[0].shape[0], range(d)),
        degree=n_degree,
    )


def double_commutation_residual(gens: GenSet) -> float:
    """Max over pairs of ``||[A_i, A_j]||`` and ``||[A_i*, A_j]||``."""
    return worst_commutator(gens)[0]


def identity_residual(gens: GenSet, contractions: GenSet, j: np.ndarray, word: Word) -> float:
    """``||J* w(U) J - w(T)||``, with the word applied to the columns of the
    isometry ``j`` and of the identity, never as a dense power."""
    lhs = adjoint(j) @ apply_word(word, gens, j)
    rhs = apply_word(word, contractions, np.eye(j.shape[1], dtype=complex))
    return operator_norm(lhs - rhs)


def verify_power_dilation(res: DilationResult, word: Word) -> float:
    """Residual of the ordered joint power-dilation identity
    ``J* U_1(k_1) ... U_n(k_n) J = T_1(k_1) ... T_n(k_n)``.

    The word's signed power runs must name factors in increasing order, one
    run each, with ``|k| <= degree``; other words raise :class:`BudgetError`,
    they are never silently evaluated.
    """
    n = len(res.gens.ids)
    runs = word.runs()
    factors = [f for f, _ in runs]
    if any(not 1 <= f <= n for f in factors):
        raise BudgetError(f"word uses factor outside 1..{n}: {factors}")
    if any(factors[a] >= factors[a + 1] for a in range(len(factors) - 1)):
        raise BudgetError(
            f"ordered variant requires one signed power per factor in increasing order, got {factors}"
        )
    for f, k in runs:
        if abs(k) > res.degree:
            raise BudgetError(f"|power| {abs(k)} of factor {f} exceeds dilation degree {res.degree}")
    return identity_residual(res.gens, res.contractions, res.embedding.isometry, word)
