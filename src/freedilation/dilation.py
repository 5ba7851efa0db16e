"""Finite unitary power-dilations of contractions and doubly commuting tuples.

The single-operator construction is the classic Schaffer block layout wrapped
cyclically at degree ``N``: the resulting matrix is exactly unitary and its
compression to the original space reproduces ``T^k`` and ``(T*)^k`` for all
``0 <= k <= N``.  Powers beyond ``N`` wrap around the cycle, so every verifier
here carries the degree as an explicit exactness budget and refuses words
outside it.

The doubly commuting construction iterates it (Sz.-Nagy and Foias,
*Harmonic Analysis of Operators on Hilbert Space*): step ``j`` dilates the
current ``j``-th operator on a new ``C^{N+1}`` leg and ampliates the others
by ``I (x) .``.  The defect of ``I (x) T`` is ``I (x) D_T``, so the dilation
of an ampliated operator is the small dilation ``Dil(T)`` on its new leg and
the ``C^d`` leg, and the identity on the legs between them.  Every ``U_j`` is
therefore kept as that small dilation acting on two tensor legs, an
:class:`~.operator_core.AxisAction`, never as a matrix of the ambient space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import ncprob
from .ncprob import (
    BudgetError,
    GenSet,
    Word,
    _codes,
    _Sweep,
    _walk_plan,
    apply_word,
    commutator_norms,
)
from .operator_core import (
    DEFAULT_TOL,
    AxisAction,
    ContractionError,
    PhaseClock,
    adjoint,
    as_matrix,
    check_dim_cap,
    defect_pair,
    identity_panel,
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
    contractions they dilate, both keyed 1..n, with ``J* U_w J = T_w`` for
    every ordered word ``w`` with powers up to ``degree``, where ``J`` is the
    inclusion of the first ``contractions.dim`` coordinates.
    ``phase_seconds`` holds the seconds the construction spent per phase:
    ``defects`` (with the input checks), ``block_dilation`` and
    ``embedding``."""

    gens: GenSet
    contractions: GenSet
    degree: int
    phase_seconds: Mapping[str, float] = field(default_factory=dict, compare=False)

    @property
    def ambient_dim(self) -> int:
        return self.gens.dim


def unitarity_residual(gens: GenSet, factor: int, cols: Sequence[int] | None = None) -> float:
    """``||(U*U - I) P||`` for ``U = gens[factor]`` and ``P`` the identity
    columns ``cols``, applied to that panel, never as a dense product.

    By default ``P`` is ``gens.support((factor,))``: all columns, or for an
    axis action ``U = C (x) I`` the columns over its legs with every other leg
    at 0, where the residual is exactly ``||C*C - I||``.  On explicit
    ``cols`` that are a strict subset of the columns ``||(U U* - I) P||``
    counts too; on a complete panel the two norms coincide, ``C`` being
    square.
    """
    dim = gens.dim
    full = cols is None
    cols = gens.support((factor,)) if full else np.asarray(cols, dtype=int)
    panel = identity_panel(dim, cols)
    u, u_star = (factor, False), (factor, True)
    words = [Word((u_star, u))] + ([] if full or cols.size == dim else [Word((u, u_star))])
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
    clock = PhaseClock()
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ValueError(f"finite_unitary_dilation needs a square matrix, got {t.shape}")
    if n_degree < 1:
        raise ValueError(f"dilation degree must be >= 1, got {n_degree}")
    d = t.shape[0]
    nb = n_degree + 1
    check_dim_cap(nb * d, "dilation")
    d_t, d_tstar = defect_pair(t, tol)
    clock.lap("defects")

    u = np.zeros((nb * d, nb * d), dtype=complex)

    def block(i: int, j: int, value: np.ndarray) -> None:
        u[i * d : (i + 1) * d, j * d : (j + 1) * d] = value

    block(0, 0, t)
    block(1, 0, d_t)
    block(0, n_degree, d_tstar)
    block(1, n_degree, -adjoint(t))
    for j in range(1, n_degree):
        block(j + 1, j, np.eye(d))
    gens, contractions = GenSet({1: u}), GenSet({1: t})
    clock.lap("block_dilation")
    # J includes C^d as block 0, the first d coordinates: nothing to build,
    # and the phase keeps its place in the report
    clock.lap("embedding")
    return DilationResult(gens=gens, contractions=contractions, degree=n_degree, phase_seconds=clock)


def doubly_commuting_dilation(
    ts: Sequence[np.ndarray], n_degree: int, tol: float = DEFAULT_TOL
) -> DilationResult:
    """Simultaneous unitary dilation of a doubly commuting tuple.

    The iterated single-operator construction: at step ``j`` the current
    ``j``-th operator is replaced by its dilation while every other operator
    is ampliated by ``I_{N+1} (x) .``; double commutation survives each step
    because the defect operators are functions of the dilated factor alone.

    The ambient space is ``C^{N+1} (x) ... (x) C^{N+1} (x) C^d``, one leg per
    factor with factor ``n`` on leg 0 and factor 1 on leg ``n - 1``, since
    each step puts its new leg in front, and ``C^d`` last.  At step ``j`` the
    operator ``T_j`` has been ampliated to ``I_m (x) T_j``, whose defects are
    ``I_m (x) D_{T_j}`` and ``I_m (x) D_{T_j*}``: every block of its dilation
    is ``I_m (x)`` the block of ``Dil(T_j)``, and the later steps ampliate the
    result again.  So ``U_j`` is ``Dil(T_j)`` on the legs ``(n - j, n)``,
    factor ``j``'s own ``C^{N+1}`` leg and the ``C^d`` leg, and the identity
    on every other leg: an :class:`~.operator_core.AxisAction` that holds the
    ``(N+1) d x (N+1) d`` matrix ``Dil(T_j)`` and its adjoint.
    """
    clock = PhaseClock()
    inputs = GenSet(dict(enumerate(ts, start=1)))
    ops = list(inputs.mats.values())
    d, n, nb = inputs.dim, len(ops), n_degree + 1
    check_dim_cap(nb**n * d, "doubly commuting dilation")
    for t in ops:
        norm = operator_norm(t)
        if norm > 1.0 + tol:
            raise ContractionError(norm, tol)
    for i, j, residual, starred in commutator_norms(inputs):
        if residual > tol:
            raise NotDoublyCommutingError(i, j, residual, starred)

    clock.lap("defects")
    legs, gens = (nb,) * n + (d,), {}
    for j, t in enumerate(ops, start=1):
        factor = finite_unitary_dilation(t, n_degree, tol)
        clock.add(factor.phase_seconds)
        gens[j] = AxisAction(legs, (n - j, n), factor.gens[1])
    gens = GenSet(gens)
    clock.lap("block_dilation")
    # each step keeps the previous space as its block 0: the original space
    # is the span of the first d coordinates, as in a single dilation
    clock.lap("embedding")
    return DilationResult(gens=gens, contractions=inputs, degree=n_degree, phase_seconds=clock)


def dilation_residuals(
    gens: GenSet, contractions: GenSet, coords: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, int]:
    """``||J* w(U) J - w(T)||`` for every word of a code table, and the
    letters applied, where ``J`` includes the small space as the ambient
    coordinates ``coords``, in order.

    Two shared-suffix walks of one plan run side by side,
    :meth:`~.ncprob._Sweep.walk` over the identity columns ``coords`` (the
    columns of ``J``) with the dilation ``gens`` and over the identity with
    the ``contractions``; both visit the words in the same order.  ``J*``
    of an image is the gather of its rows ``coords``.  The ``d x d``
    differences are stacked, at most ``ncprob.SAMPLE_PANEL_BYTES`` of them
    at a time, and each stack's norms come from one stacked ``eigvalsh`` of
    their Grams.  No word's matrix on the ambient space is ever formed.
    """
    d = len(coords)
    lhs, rhs = _Sweep(None, gens), _Sweep(None, contractions)
    out = np.empty(len(table))
    depth = max(1, min(len(table), ncprob.SAMPLE_PANEL_BYTES // (16 * d * d)))
    stack = np.empty((depth, d, d), dtype=complex)
    at: list[int] = []  # the word of each stacked difference

    def norms() -> None:
        diffs = stack[: len(at)]
        w = np.linalg.eigvalsh(np.conj(diffs).transpose(0, 2, 1) @ diffs)
        out[at] = np.sqrt(np.maximum(w[:, -1], 0.0))
        at.clear()

    plan = _walk_plan(table)
    walks = zip(lhs.walk(plan, identity_panel(gens.dim, coords)), rhs.walk(plan, np.eye(d, dtype=complex)))
    for (i, left), (_, right) in walks:
        np.subtract(left[coords], right, out=stack[len(at)])
        at.append(i)
        if len(at) == len(stack):
            norms()
    if at:
        norms()
    return out, lhs.letters + rhs.letters


def verify_power_dilation(res: DilationResult, word: Word) -> float:
    """Residual of the ordered joint power-dilation identity
    ``J* U_1(k_1) ... U_n(k_n) J = T_1(k_1) ... T_n(k_n)``: the one-word case
    of :func:`dilation_residuals`.

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
    coords = np.arange(res.contractions.dim)
    residuals, _ = dilation_residuals(res.gens, res.contractions, coords, _codes([word]))
    return float(residuals[0])
