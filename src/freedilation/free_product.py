"""Freely independent unitary dilations on a truncated free product space.

Each factor gets its own finite unitary dilation; the joint model places all
of them on the free product of the pointed ambient spaces, truncated at a
maximum word length.  The left action of factor ``i`` touches only the first
letter of a basis word, so products of few letters are unaffected by the
truncation: moments and dilation identities are exact inside explicit budgets,
which the suite's word enumerations keep (README "Budgets").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dilation import DilationResult, finite_unitary_dilation, unitarity_residual
from .ncprob import GenSet
from .operator_core import (
    DEFAULT_DIM_CAP,
    DEFAULT_TOL,
    LetterAction,
    PhaseClock,
    State,
    _pad_rows,
    adjoint,
    purify,
)

class FockDimensionError(ValueError):
    """The truncated free product is too large: its words up to ``length``
    letters alone span ``dim > cap`` dimensions."""

    def __init__(self, dim: int, cap: int, length: int):
        self.dim = dim
        self.cap = cap
        self.length = length
        super().__init__(
            f"truncated free product dimension exceeds cap {cap}: words of length "
            f"<= {length} already span {dim}; reduce the truncation length or factor dimensions"
        )


def _frame(xi: np.ndarray) -> np.ndarray:
    """The frame ``F = [xi | complement basis]`` of a pointed space: ``xi``
    normalised, then the complement from the QR of ``[xi | I]``."""
    xi = xi / np.linalg.norm(xi)
    d = xi.size
    q, _ = np.linalg.qr(np.concatenate([xi.reshape(-1, 1), np.eye(d)], axis=1))
    return np.concatenate([xi.reshape(-1, 1), q[:, 1:d]], axis=1)


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Canonically ordered basis of a truncated free product: the vacuum,
    then the alternating words ``(i, m) + t`` of complement indices by
    length, factor ``i``, index ``m`` and tail ``t``.  ``lengths`` and
    ``firsts`` hold each word's length and first factor (0 for the vacuum);
    ``prepend[i][n] = (tails, grid)`` holds the words of length ``n < max_len``
    that do not start with ``i`` and, at ``grid[m, j]``, ``(i, m) + tails[j]``;
    so factor ``i``'s complement dimension is ``prepend[i][0][1].shape[0]``."""

    max_len: int
    lengths: np.ndarray
    firsts: np.ndarray
    prepend: dict

    @property
    def dim(self) -> int:
        return self.lengths.size

    def short_columns(self, factor: int) -> np.ndarray:
        """Sorted columns of the words shorter than ``max_len`` on which
        factor ``factor``'s left action has the unitarity residual of all of
        them (:func:`restricted_unitarity_residual`): from ``max_len`` 2 on,
        the vacuum's whole group, and the head of the first group whose tail
        has ``max_len - 1`` letters, if one exists."""
        steps = self.prepend[factor]
        tails, grid = steps[0]
        cols = [tails, grid[:, 0]] if self.max_len > 1 else []
        if len(steps) == self.max_len:  # the map reaches tails of max_len - 1 letters
            cols.append(steps[-1][0][:1])
        return np.sort(np.concatenate(cols))


def build_fock(compl: Mapping[int, int], max_len: int) -> FockBasis:
    """The free product of spaces with complement dimensions ``compl`` (by
    factor id), truncated at words of ``max_len`` letters."""
    if not compl:
        raise ValueError("build_fock needs at least one factor")
    if max_len < 1:
        raise ValueError(f"truncation length must be >= 1, got {max_len}")
    ids = sorted(compl)
    firsts = [np.zeros(1, dtype=np.intp)]  # each length's first factors
    prepend: dict = {i: [] for i in ids}
    start = 0  # the position of the last length's first word
    # the next length: each factor's letters in turn, prepended to the last
    # length's words that do not start with it; one with no word ends it
    while len(firsts) <= max_len and firsts[-1].size:
        top = start + firsts[-1].size
        tails = {i: start + np.flatnonzero(firsts[-1] != i) for i in ids}
        # refused at the first length past the cap, before its grids exist
        dim = top + sum(compl[i] * tails[i].size for i in ids)
        if dim > DEFAULT_DIM_CAP:
            raise FockDimensionError(dim, DEFAULT_DIM_CAP, len(firsts))
        for i in ids:
            grid = top + np.arange(compl[i] * tails[i].size).reshape(compl[i], tails[i].size)
            prepend[i].append((tails[i], grid))
            top += grid.size
        start += firsts[-1].size
        firsts.append(np.repeat(ids, [prepend[i][-1][1].size for i in ids]))
    return FockBasis(
        max_len=max_len,
        lengths=np.repeat(np.arange(len(firsts)), [f.size for f in firsts]),
        firsts=np.concatenate(firsts),
        prepend={i: tuple(p) for i, p in prepend.items()},
    )


@dataclass(frozen=True, eq=False)
class FockAction(LetterAction):
    """Left action of one factor's operator ``a`` on a truncated free
    product, kept as one small block instead of a ``dim x dim`` matrix.

    The action touches only the first letter of a word.  Each word ``t``
    shorter than the truncation length that does not start with the factor
    heads a group ``(t, (i,0)+t, ..., (i,c-1)+t)`` whose span the action maps
    into itself by ``block = F* a F``, ``F = [xi | complement basis]``.  The
    remaining words, of full length and not starting with the factor, would
    leave the truncated space under a prepended letter; they are only
    scaled, by ``block[0, 0] = <a xi, xi>``.

    ``order`` lists the basis positions group-major: its first ``grouped``
    entries, read as a ``(c+1, G)`` array, hold group ``g`` in column ``g``;
    the full-length words follow.  A letter is one gather by ``order``, one
    ``(c+1) x (c+1)`` matrix product, one scaling, and one gather back by
    ``inverse``.
    """

    order: np.ndarray
    inverse: np.ndarray
    grouped: int
    block: np.ndarray
    block_star: np.ndarray  # the adjoint of ``block``, for starred letters

    def __post_init__(self):
        # the groups partition the positions only if ``order`` is a
        # permutation; :meth:`FockBasis.short_columns` relies on it
        order, inverse, dim = self.order, self.inverse, self.order.size
        if (
            order.shape != (dim,)
            or inverse.shape != (dim,)
            or not 0 <= order.min() <= order.max() < dim
            or (inverse[order] != np.arange(dim)).any()
        ):
            raise ValueError("order must be a permutation of the positions, inverse its inverse")
        rows = self.block.shape[0]
        if self.block.shape != (rows, rows) or self.block_star.shape != (rows, rows):
            raise ValueError(f"blocks {self.block.shape}, {self.block_star.shape} not one square")
        if not 0 <= self.grouped <= dim or self.grouped % rows:
            raise ValueError(f"{self.grouped} grouped positions do not fill groups of {rows}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order.size, self.order.size)

    @property
    def nbytes(self) -> int:
        return sum(x.nbytes for x in (self.order, self.inverse, self.block, self.block_star))

    def apply(self, panel: np.ndarray, star: bool) -> np.ndarray:
        if panel.shape[:1] != self.shape[:1]:
            raise ValueError(
                f"operand of shape {panel.shape} does not match Fock dim {self.shape[0]}"
            )
        block = self.block_star if star else self.block
        rows, g = block.shape[0], self.grouped
        x = panel.take(self.order, axis=0)
        out = np.empty(x.shape, dtype=complex)
        np.matmul(block, x[:g].reshape(rows, -1), out=out[:g].reshape(rows, -1))
        np.multiply(x[g:], block[0, 0], out=out[g:])
        return out.take(self.inverse, axis=0)


def left_representation(factor: int, block: np.ndarray, fb: FockBasis) -> FockAction:
    """The left action on the truncated free product of an operator ``a`` on
    factor ``factor``'s space, given as its block ``F* a F`` in the factor's
    frame ``F = [xi | complement basis]``, as a :class:`FockAction`.

    The base-vector component of the image of a word's first letter keeps or
    shortens the word, the complement component prepends or rewrites a
    letter, and components that would exceed the truncation length are
    dropped.
    """
    if factor not in fb.prepend:
        raise KeyError(f"unknown factor id {factor}; known ids: {sorted(fb.prepend)}")
    rows = fb.prepend[factor][0][1].shape[0] + 1
    if block.shape != (rows, rows):
        raise ValueError(f"block shape {block.shape} does not match factor {factor}'s frame of {rows}")

    # each short word ``t`` that does not start with the factor heads the
    # group ``t, (factor, 0) + t, ...``; the full-length ones are only scaled
    groups = np.concatenate([np.vstack(pair) for pair in fb.prepend[factor]], axis=1)
    singles = np.flatnonzero((fb.lengths == fb.max_len) & (fb.firsts != factor))
    order = np.concatenate([groups.ravel(), singles])
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    return FockAction(
        order=order,
        inverse=inverse,
        grouped=groups.size,
        block=block,
        block_star=adjoint(block).copy(),
    )


@dataclass(frozen=True)
class FreeDilationScenario:
    """Joint free dilation: per-factor finite unitary dilations represented on
    the truncated free product of the dilation spaces.

    ``unitaries[i]`` acts on the big product space, ``s_ops[i]`` is the same
    construction applied to the original contractions (both keyed by factor
    id 1..n, both :class:`FockAction` letters, never dense matrices), and
    ``coords`` (strictly increasing) holds the positions in ``fock_k`` of
    ``fock_h``'s words, which map identically: the inclusion ``J`` between
    the two product spaces.  The record keeps each value once: the degree
    is each dilation's ``degree``, the truncation length ``fock_k.max_len``,
    and factor ``i``'s lifted contraction ``dilations[i - 1].contractions[1]``.
    ``frames[i - 1]`` is factor ``i``'s frame on its purified space, its
    pointed vector first.
    ``vacuum`` is the joint state; single-factor moments match the input
    states exactly, and mixed moments realize free independence inside the
    stated budgets.  ``phase_seconds`` holds the seconds the construction
    spent per phase: ``defects`` (with the pointed vectors and their
    purification), ``block_dilation``, ``fock_basis``, ``left_action`` and
    ``embedding``.
    """

    dilations: tuple[DilationResult, ...]
    frames: tuple[np.ndarray, ...]
    fock_h: FockBasis
    fock_k: FockBasis
    unitaries: GenSet
    s_ops: GenSet
    coords: np.ndarray
    vacuum: State
    phase_seconds: Mapping[str, float] = field(default_factory=dict, compare=False)

    @property
    def n_factors(self) -> int:
        return len(self.dilations)

    @property
    def dim(self) -> int:
        return self.fock_k.dim

    def factor_model(self, factor: int) -> tuple[GenSet, State]:
        """The single-factor dilation, keyed by ``factor``, with its pointed
        state, on the small dilation space (exactly unitary, no truncation
        artifacts)."""
        if not 1 <= factor <= self.n_factors:
            raise ValueError(f"factor id {factor} outside 1..{self.n_factors}")
        res = self.dilations[factor - 1]
        xi = _pad_rows(self.frames[factor - 1][:, 0], res.ambient_dim)
        return GenSet({factor: res.gens[1]}), State.from_vector(xi)


def free_unitary_dilation(
    factors: Sequence[tuple[np.ndarray, State]],
    n_degree: int,
    trunc_len: int,
    tol: float = DEFAULT_TOL,
) -> FreeDilationScenario:
    """Build the joint freely independent dilation of a family of contractions.

    ``factors`` is a sequence of ``(matrix, state)`` pairs.  Each factor is
    pointed by its state's purification (:func:`purify`; a state of one
    column is its own), with the matrix lifted to that space.  Each
    contraction is dilated to degree ``n_degree``; the dilations act on the
    free product truncated at words of length ``trunc_len``.
    """
    if not factors:
        raise ValueError("free_unitary_dilation needs at least one factor")
    clock = PhaseClock()
    mats: list[np.ndarray] = []
    frames: list[np.ndarray] = []
    for t, state in factors:
        pure, lift = purify(state)
        mats.append(lift(t))
        frames.append(_frame(pure.columns[:, 0]))
    clock.lap("defects")
    dils = [finite_unitary_dilation(m, n_degree, tol) for m in mats]
    for res in dils:
        clock.add(res.phase_seconds)

    # the small frame embedded first, then the pure dilation blocks: every
    # small-space label keeps its complement index upstairs
    frames_k = [
        np.concatenate([_pad_rows(f, big), np.eye(big, dtype=complex)[:, len(f) :]], axis=1)
        for f, big in zip(frames, (res.ambient_dim for res in dils))
    ]
    ids = range(1, len(factors) + 1)
    fock_k = build_fock({i: len(frames_k[i - 1]) - 1 for i in ids}, trunc_len)
    fock_h = build_fock({i: len(frames[i - 1]) - 1 for i in ids}, trunc_len)
    clock.lap("fock_basis")

    def act(i: int, a: np.ndarray, frame: np.ndarray, fb: FockBasis) -> FockAction:
        return left_representation(i, adjoint(frame) @ a @ frame, fb)

    unitaries = GenSet({i: act(i, dils[i - 1].gens[1], frames_k[i - 1], fock_k) for i in ids})
    s_ops = GenSet({i: act(i, mats[i - 1], frames[i - 1], fock_h) for i in ids})
    clock.lap("left_action")

    # an h-word ``(i, m) + t`` sits at ``(i, m) + coords[t]`` in ``fock_k``
    coords = np.zeros(fock_h.dim, dtype=np.intp)
    for n in range(len(fock_h.prepend[1])):
        for i in ids:
            (tails_h, grid_h), (tails_k, grid_k) = fock_h.prepend[i][n], fock_k.prepend[i][n]
            coords[grid_h] = grid_k[: len(grid_h), np.searchsorted(tails_k, coords[tails_h])]
    vacuum = State.basis_vector(fock_k.dim, 0)
    clock.lap("embedding")
    return FreeDilationScenario(
        dilations=tuple(dils),
        frames=tuple(frames),
        fock_h=fock_h,
        fock_k=fock_k,
        unitaries=unitaries,
        s_ops=s_ops,
        coords=coords,
        vacuum=vacuum,
        phase_seconds=clock,
    )


def restricted_unitarity_residual(fds: FreeDilationScenario, factor: int) -> float:
    """``max(||(U*U - I) P||, ||(U U* - I) P||)`` over the columns ``P`` of
    words shorter than the truncation length.

    The left action of a unitary is isometric except where the truncation
    drops a prepended letter, so the residual vanishes on short words.  It
    is taken on :meth:`FockBasis.short_columns`, where the norms are the
    same, exactly: the groups are disjoint in rows and columns and all carry
    one block, and the short words meet a group in one of two patterns, a
    tail of at most ``L-2`` letters with its whole group and a tail of
    ``L-1`` letters alone; one group of each pattern carries the norms.
    """
    if not 1 <= factor <= fds.n_factors:
        raise ValueError(f"factor id {factor} outside 1..{fds.n_factors}")
    return unitarity_residual(fds.unitaries, factor, fds.fock_k.short_columns(factor))
