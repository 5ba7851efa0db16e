"""Finite unitary power-dilations of contractions and doubly commuting tuples.

The single-operator construction is the classic Schaffer block layout wrapped
cyclically at degree ``N``: the resulting matrix is exactly unitary and its
compression to the original space reproduces ``T^k`` and ``(T*)^k`` for all
``0 <= k <= N``.  Powers beyond ``N`` wrap around the cycle, so every verifier
here carries the degree as an explicit exactness budget and refuses words
outside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ncprob import GenSet, Word, apply_word
from .operator_core import (
    DEFAULT_TOL,
    ContractionError,
    Embedding,
    adjoint,
    as_matrix,
    defect_pair,
    operator_norm,
)

# word letter: (factor id, signed power); k >= 0 means T^k, k < 0 means (T*)^{-k}
SignedPowerWord = Sequence[tuple[int, int]]


class BudgetError(ValueError):
    """A requested word lies outside the construction's exactness budget."""


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
    """Unitaries on an ambient space together with the embedding of the original one."""

    unitaries: tuple[np.ndarray, ...]
    embedding: Embedding
    degree: int
    gens: GenSet = field(init=False, repr=False)

    def __post_init__(self):
        # keyed 1..n, sharing the unitaries' arrays
        object.__setattr__(self, "gens", GenSet(dict(enumerate(self.unitaries, start=1))))

    @property
    def ambient_dim(self) -> int:
        return self.embedding.big_dim

    def unitarity_residual(self) -> float:
        eye = np.eye(self.ambient_dim)
        return max(operator_norm(adjoint(u) @ u - eye) for u in self.unitaries)


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
    d_t, d_tstar = defect_pair(t, tol)

    nb = n_degree + 1
    u = np.zeros((nb * d, nb * d), dtype=complex)

    def block(i: int, j: int, value: np.ndarray) -> None:
        u[i * d : (i + 1) * d, j * d : (j + 1) * d] = value

    block(0, 0, t)
    block(1, 0, d_t)
    block(0, n_degree, d_tstar)
    block(1, n_degree, -adjoint(t))
    for j in range(1, n_degree):
        block(j + 1, j, np.eye(d))

    embedding = Embedding.coordinate(nb * d, range(d))
    return DilationResult(unitaries=(u,), embedding=embedding, degree=n_degree)


def doubly_commuting_dilation(
    ts: Sequence[np.ndarray], n_degree: int, tol: float = DEFAULT_TOL
) -> DilationResult:
    """Simultaneous unitary dilation of a doubly commuting tuple.

    Iterates the single-operator construction: at step ``j`` the current
    ``j``-th operator is replaced by its dilation while every other operator is
    ampliated by ``I_{N+1} (x) .``; double commutation survives each step
    because the defect operators are functions of the dilated factor alone.
    """
    ops = [as_matrix(t) for t in ts]
    if not ops:
        raise ValueError("doubly_commuting_dilation needs at least one contraction")
    d = ops[0].shape[0]
    for i, t in enumerate(ops):
        if t.shape != (d, d):
            raise ValueError(f"factor {i + 1} has shape {t.shape}, expected ({d}, {d})")
        norm = operator_norm(t)
        if norm > 1.0 + tol:
            raise ContractionError(norm, tol)
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            plain = operator_norm(ops[i] @ ops[j] - ops[j] @ ops[i])
            if plain > tol:
                raise NotDoublyCommutingError(i + 1, j + 1, plain, starred=False)
            starred = operator_norm(adjoint(ops[i]) @ ops[j] - ops[j] @ adjoint(ops[i]))
            if starred > tol:
                raise NotDoublyCommutingError(i + 1, j + 1, starred, starred=True)

    embed = np.eye(d, dtype=complex)
    eye_nb = np.eye(n_degree + 1, dtype=complex)
    e0 = np.zeros((n_degree + 1, 1), dtype=complex)
    e0[0, 0] = 1.0
    for j in range(len(ops)):
        step = finite_unitary_dilation(ops[j], n_degree, tol)
        big = step.unitaries[0]
        prev_dim = ops[j].shape[0]
        for i in range(len(ops)):
            ops[i] = big if i == j else np.kron(eye_nb, ops[i])
        embed = np.kron(e0, np.eye(prev_dim, dtype=complex)) @ embed

    return DilationResult(unitaries=tuple(ops), embedding=Embedding(embed), degree=n_degree)


def double_commutation_residual(ops: Sequence[np.ndarray]) -> float:
    """Max over pairs of ``||[A_i, A_j]||`` and ``||[A_i*, A_j]||``."""
    worst = 0.0
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            worst = max(worst, operator_norm(ops[i] @ ops[j] - ops[j] @ ops[i]))
            worst = max(
                worst, operator_norm(adjoint(ops[i]) @ ops[j] - ops[j] @ adjoint(ops[i]))
            )
    return worst


@dataclass(frozen=True)
class WordResidual:
    word: tuple[tuple[int, int], ...]
    residual: float
    tol: float
    passed: bool


def verify_power_dilation(
    res: DilationResult, ts: Sequence[np.ndarray], word: SignedPowerWord, tol: float = 1e-10
) -> WordResidual:
    """Residual of the ordered joint power-dilation identity
    ``J* U_1(k_1) ... U_n(k_n) J = T_1(k_1) ... T_n(k_n)``, with the word
    applied to the embedding's columns ``J``, never as a dense power.

    Factors must appear in increasing order, one signed power each, with
    ``|k| <= degree``; other words raise :class:`BudgetError`, they are never
    silently evaluated.
    """
    word = tuple((int(f), int(k)) for f, k in word)
    n = len(res.unitaries)
    # refused before the runs are expanded into letters and merged
    total = sum(abs(k) for _, k in word)
    if total > n * res.degree:
        raise BudgetError(f"total |power| {total} exceeds {n} factors times degree {res.degree}")
    w = Word.from_runs(word)
    runs = w.runs()
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
    j = res.embedding.isometry
    small = GenSet(dict(enumerate(ts, start=1)))
    lhs = adjoint(j) @ apply_word(w, res.gens, j)
    rhs = apply_word(w, small, np.eye(res.embedding.small_dim, dtype=complex))
    residual = operator_norm(lhs - rhs)
    return WordResidual(word=word, residual=residual, tol=tol, passed=residual <= tol)
