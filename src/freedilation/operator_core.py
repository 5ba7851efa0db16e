"""Dense complex operator arithmetic: defects, states, and operators given by
how they act.

Everything operates on plain ``numpy`` arrays of ``complex128``; a "matrix" is a
2-d array, a vector a 1-d array.  All functions are pure and never mutate their
arguments.  A :class:`LetterAction` applies an operator without storing its
matrix; an :class:`AxisAction` is a small core acting on some legs of a tensor
product.

The package's one numerical policy is the constants below; residuals are
returned or raised inside errors rather than hidden behind booleans.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

import numpy as np

# The numerical policy (README "Tolerances").  DEFAULT_TOL, absolute: every
# certificate's pass/fail bound and the contraction slack ``||T|| <= 1 + tol``
# (defaults of the ``tol`` a scenario or ``--tol`` sets), and the one bound
# input validation reads.  RANK_RTOL, relative to the largest singular value:
# the faithfulness rank cut.  DENSITY_EIGEN_CUT, absolute: a density keeps
# the eigenvectors above it.  :func:`defect_pair` takes a singular value
# within ``8 * dim * eps`` of 1 as 1, so a unitary's defect is exactly zero.
DEFAULT_TOL = 1e-8
RANK_RTOL = 1e-9
DENSITY_EIGEN_CUT = 1e-14

# Largest space any construction builds (a dense complex matrix: 400 MB).
DEFAULT_DIM_CAP = 5000


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractionError(ValueError):
    """Operator norm exceeds 1 beyond tolerance; carries the measured norm."""

    def __init__(self, norm: float, tol: float):
        self.norm = float(norm)
        self.tol = float(tol)
        super().__init__(f"not a contraction: operator norm {norm:.6e} > 1 + {tol:g}")


class StateError(ValueError):
    """A state fails its defining invariant."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite complex 2-d array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def check_dim_cap(dim: int, what: str) -> None:
    """Refuse a ``what`` space above :data:`DEFAULT_DIM_CAP`, before allocating it."""
    if dim > DEFAULT_DIM_CAP:
        raise ValueError(f"{what} dimension {dim} exceeds cap {DEFAULT_DIM_CAP}")


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a)).T


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value, via Hermitian eigendecomposition of a*a.

    ``a`` is first scaled by the power of two ``2^-e`` that brings its
    largest real or imaginary part into ``[0.5, 1)``, and the norm scaled
    back by ``2^e``: both exact in floating point, so ``a*a`` cannot
    overflow and any other matrix keeps its digits.  A norm past the float
    range is ``inf``."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    _, e = math.frexp(float(np.abs(np.ascontiguousarray(a).view(float)).max()))
    if e:
        a = a * math.ldexp(1.0, -e)
    w = np.linalg.eigvalsh(adjoint(a) @ a)
    try:
        return math.ldexp(math.sqrt(max(w[-1], 0.0)), e)
    except OverflowError:
        return math.inf


def defect_pair(t: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Defect operators ``((I - t*t)^{1/2}, (I - t t*)^{1/2})`` of a contraction.

    Both come from one SVD ``t = W S V*``: ``D_t = V sqrt(1 - S^2) V*`` and
    ``D_t* = W sqrt(1 - S^2) W*``, so ``t D_t = D_t* t`` holds by
    construction.  A singular value above ``1 + tol`` raises
    :class:`ContractionError`; the rest are clipped to ``[0, 1]``, and those
    within a few ulps of 1 (scaled by the dimension, never by ``tol``) are
    set to 1, so the defect of a unitary is exactly zero.
    """
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatchError(f"defect_pair needs a square matrix, got {t.shape}")
    w, s, vh = np.linalg.svd(t)
    if s.size and s[0] > 1.0 + tol:
        raise ContractionError(s[0], tol)
    s = np.clip(s, 0.0, 1.0)
    s[1.0 - s <= 8 * t.shape[0] * np.finfo(float).eps] = 1.0
    d = np.sqrt((1.0 - s) * (1.0 + s))
    return (adjoint(vh) * d) @ vh, (w * d) @ adjoint(w)


class PhaseClock(dict):
    """Seconds per construction phase, by phase name: :meth:`lap` charges
    the time since the last mark to a phase, :meth:`add` folds in the phases
    a part of the construction timed itself."""

    def __init__(self) -> None:
        super().__init__()
        self.mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self[phase], self.mark = self.get(phase, 0.0) + now - self.mark, now

    def add(self, phases: Mapping[str, float]) -> None:
        for phase, seconds in phases.items():
            self[phase] = self.get(phase, 0.0) + seconds
        self.mark = time.perf_counter()


class LetterAction:
    """A generator given by how it acts, not by a stored matrix.

    :meth:`apply` returns the generator, or with ``star`` its adjoint,
    applied to a vector or to the columns of a panel; ``shape`` is the
    generator's and ``nbytes`` counts the data the action holds."""

    shape: tuple[int, int]
    nbytes: int

    def apply(self, panel: np.ndarray, star: bool) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class AxisAction(LetterAction):
    """A generator that acts as a small square ``core`` on some tensor legs
    of its space and as the identity on the others.

    The space is ``C^{legs[0]} (x) C^{legs[1]} (x) ...``, the first leg the
    most significant in a coordinate; ``axes`` names the legs the core acts
    on, in increasing order, and the core's rows and columns run over those
    legs in the same order.  A letter views the panel as one array with an
    axis per leg, moves the acted legs next to the last of them and takes one
    ``core @ x``, broadcast over the legs in front; when the acted legs are
    adjacent nothing moves and the panel is not copied.
    """

    legs: tuple[int, ...]
    axes: tuple[int, ...]
    core: np.ndarray
    core_star: np.ndarray = field(init=False, repr=False)  # for starred letters

    def __post_init__(self):
        legs, axes = tuple(map(int, self.legs)), tuple(map(int, self.axes))
        if not axes or list(axes) != sorted(set(axes)) or not 0 <= axes[0] <= axes[-1] < len(legs):
            raise ValueError(f"axes {axes} must be increasing legs of {legs}")
        core = as_matrix(self.core)
        size = math.prod(legs[a] for a in axes)
        if core.shape != (size, size):
            raise ValueError(f"core of shape {core.shape} does not act on legs {axes} of {legs}")
        rest = [k for k in range(len(legs)) if k not in axes]
        front = [k for k in rest if k < axes[-1]]
        back = [k for k in rest if k > axes[-1]]
        perm = (*front, *axes, *back, len(legs))  # the column axis stays last
        keep = partial(object.__setattr__, self)
        keep("legs", legs)
        keep("axes", axes)
        keep("core", core)
        keep("core_star", adjoint(core).copy())
        # the legs in front of the acted block, its size, and the legs behind it
        keep("_block", (math.prod(legs[k] for k in front), size, math.prod(legs[k] for k in back)))
        keep("_perm", perm)
        keep("_inverse", tuple(np.argsort(perm)))

    @property
    def shape(self) -> tuple[int, int]:
        dim = math.prod(self.legs)
        return (dim, dim)

    @property
    def nbytes(self) -> int:
        return self.core.nbytes + self.core_star.nbytes

    def apply(self, panel: np.ndarray, star: bool) -> np.ndarray:
        if panel.shape[:1] != self.shape[:1]:
            raise ValueError(f"operand of shape {panel.shape} does not match dim {self.shape[0]}")
        core = self.core_star if star else self.core
        before, size, after = self._block
        cols = math.prod(panel.shape[1:])
        x = panel.reshape(*self.legs, cols).transpose(self._perm)
        y = np.matmul(core, x.reshape(before, size, after * cols))
        return y.reshape(x.shape).transpose(self._inverse).reshape(panel.shape)


def identity_panel(dim: int, cols: Sequence[int] | np.ndarray) -> np.ndarray:
    """The identity columns ``cols`` of ``C^dim``, as a ``dim x len(cols)`` panel."""
    cols = np.asarray(cols, dtype=np.intp)
    panel = np.zeros((dim, cols.size), dtype=complex)
    panel[cols, np.arange(cols.size)] = 1.0
    return panel


def _pad_rows(a: np.ndarray, dim: int) -> np.ndarray:
    """``J a`` for the inclusion ``J`` of ``C^len(a)`` as the first
    coordinates of ``C^dim``: ``a``'s rows on top, zeros below."""
    out = np.zeros((dim, *a.shape[1:]), dtype=complex)
    out[: len(a)] = a
    return out


@dataclass(frozen=True)
class State:
    """Positive normalized functional ``phi(a) = sum_k w_k <a v_k, v_k>``:
    the orthonormal ``columns`` ``v_k`` (``dim x k``) and positive
    ``weights`` ``w_k`` summing to 1, which every computation reads.

    ``kind`` with the given ``vector`` or ``density`` is the file-format
    record.  A unit vector is one column of weight 1; a PSD trace-1 density
    is decomposed once, into its eigenvectors above
    :data:`DENSITY_EIGEN_CUT`; kind ``"columns"`` (:meth:`from_columns`)
    takes both as given, as for a state carried to a larger space.
    """

    kind: str
    vector: np.ndarray | None = None
    density: np.ndarray | None = None
    columns: np.ndarray | None = field(default=None, compare=False, repr=False)
    weights: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        keep = partial(object.__setattr__, self)
        if self.kind == "vector":
            v = np.ascontiguousarray(self.vector, dtype=complex).reshape(-1)
            if not np.all(np.isfinite(v.view(float))):
                raise StateError("state vector contains NaN or Inf")
            nrm = float(np.linalg.norm(v))
            if abs(nrm - 1.0) > DEFAULT_TOL:
                raise StateError(f"state vector norm {nrm:.12g} != 1 (tol {DEFAULT_TOL:g})")
            keep("vector", v)
            keep("columns", v.reshape(-1, 1))
            keep("weights", np.ones(1))
        elif self.kind == "density":
            rho = as_matrix(self.density)
            if rho.shape[0] != rho.shape[1]:
                raise StateError(f"density matrix must be square, got {rho.shape}")
            if operator_norm(rho - adjoint(rho)) > DEFAULT_TOL:
                raise StateError("density matrix is not Hermitian within tolerance")
            w, v = np.linalg.eigh(rho)
            if w[0] < -DEFAULT_TOL:
                raise StateError(f"density matrix not PSD: eigenvalue {w[0]:.6e}")
            tr = float(np.trace(rho).real)
            if abs(tr - 1.0) > DEFAULT_TOL:
                raise StateError(f"density matrix trace {tr:.12g} != 1")
            kept = w > DENSITY_EIGEN_CUT
            keep("density", rho)
            keep("columns", v[:, kept])
            keep("weights", w[kept])
        elif self.kind == "columns":
            c, w = as_matrix(self.columns), np.asarray(self.weights, dtype=float).reshape(-1)
            if w.size != c.shape[1] or not np.all(w > 0.0) or abs(float(w.sum()) - 1.0) > DEFAULT_TOL:
                raise StateError(f"need {c.shape[1]} positive weights summing to 1, got {w}")
            if np.linalg.norm(adjoint(c) @ c - np.eye(w.size)) > DEFAULT_TOL:
                raise StateError("state columns are not orthonormal")
            keep("columns", c)
            keep("weights", w)
        else:
            raise StateError(f"unknown state kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @staticmethod
    def from_vector(v) -> "State":
        return State(kind="vector", vector=v)

    @staticmethod
    def from_density(rho) -> "State":
        return State(kind="density", density=rho)

    @staticmethod
    def from_columns(columns, weights) -> "State":
        return State(kind="columns", columns=columns, weights=weights)

    @staticmethod
    def basis_vector(dim: int, index: int = 0) -> "State":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return State.from_vector(v)


def purify(state: State):
    """Vector-state purification of a state.

    Returns ``(xi_state, lift)`` with ``xi`` a unit vector and
    ``<lift(a) xi, xi> = phi(a)`` for every ``d x d`` operator ``a``: a
    state of ``k`` columns has ``xi = sum_j sqrt(w_j) v_j (x) e_j`` in
    ``C^d (x) C^k`` and ``lift(a) = a (x) I_k``, built by copying ``a``, so
    a state of one column lifts ``a`` to itself, digit for digit.
    """
    d, k = state.columns.shape
    xi = (state.columns * np.sqrt(state.weights)).reshape(-1)

    def lift(a: np.ndarray) -> np.ndarray:
        a = as_matrix(a)
        if a.shape != (d, d):
            raise ShapeMismatchError(f"purified lift expects ({d}, {d}), got {a.shape}")
        out = np.zeros((d, k, d, k), dtype=complex)
        for j in range(k):
            out[:, j, :, j] = a
        return out.reshape(d * k, d * k)

    return State.from_vector(xi), lift


def random_contraction(rng: np.random.Generator, dim: int, norm: float | None = None) -> np.ndarray:
    """Random contraction: a complex Ginibre matrix rescaled to the given norm.

    ``norm`` defaults to a uniform draw from (0, 1]; pass 1.0 for a matrix
    sitting exactly on the unit ball boundary.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    target = float(rng.uniform(0.05, 1.0)) if norm is None else float(norm)
    return g * (target / operator_norm(g))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase so the draw is a Haar sample, not a QR artifact
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, dim: int, kind: str = "vector") -> State:
    """A random unit vector (``kind="vector"``) or full-rank density
    (``kind="density"``) on ``C^dim``."""
    if kind not in ("vector", "density"):
        raise ValueError(f"random_state kind must be 'vector' or 'density', got {kind!r}")
    if kind == "vector":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return State.from_vector(v / np.linalg.norm(v))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ adjoint(g)
    return State.from_density(rho / np.trace(rho).real)
