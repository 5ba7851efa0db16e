import numpy as np
import pytest

from freedilation.dilation import (
    BudgetError,
    DilationResult,
    NotDoublyCommutingError,
    double_commutation_residual,
    doubly_commuting_dilation,
    finite_unitary_dilation,
    verify_power_dilation,
)
from freedilation.operator_core import (
    ContractionError,
    Embedding,
    adjoint,
    compress,
    operator_norm,
    random_contraction,
    random_unitary,
)

SQ75 = 0.8660254037844386  # sqrt(1 - 0.25)


def test_degree_one_block_structure():
    res = finite_unitary_dilation(np.array([[0.5]]), 1)
    expected = np.array([[0.5, SQ75], [SQ75, -0.5]])
    np.testing.assert_allclose(res.unitaries[0], expected, atol=1e-12)


def test_block_layout_degree_three():
    rng = np.random.default_rng(1)
    t = random_contraction(rng, 2)
    res = finite_unitary_dilation(t, 3)
    u = res.unitaries[0]
    assert u.shape == (8, 8)
    d = 2
    np.testing.assert_allclose(u[:d, :d], t)
    np.testing.assert_allclose(u[d : 2 * d, 3 * d :], -adjoint(t))
    # interior shift blocks are identities, everything else in those columns zero
    np.testing.assert_allclose(u[2 * d : 3 * d, d : 2 * d], np.eye(d))
    np.testing.assert_allclose(u[3 * d :, 2 * d : 3 * d], np.eye(d))
    assert np.all(u[:d, d : 3 * d] == 0.0)


def test_unitarity_and_power_exactness_random():
    rng = np.random.default_rng(2026)
    for trial in range(40):
        dim = int(rng.integers(1, 5))
        degree = int(rng.integers(1, 5))
        t = random_contraction(rng, dim)
        res = finite_unitary_dilation(t, degree)
        assert res.unitarity_residual() < 1e-12
        u = res.unitaries[0]
        for k in range(degree + 1):
            c = compress(np.linalg.matrix_power(u, k), res.embedding)
            assert operator_norm(c - np.linalg.matrix_power(t, k)) < 1e-12
            ca = compress(np.linalg.matrix_power(adjoint(u), k), res.embedding)
            assert operator_norm(ca - np.linalg.matrix_power(adjoint(t), k)) < 1e-12


def test_power_beyond_degree_wraps():
    # t = 0.5, N = 3: U^4 compressed picks up the defect cycle,
    # 0.5^4 + (1 - 0.25) = 0.8125 instead of 0.0625
    res = finite_unitary_dilation(np.array([[0.5]]), 3)
    c = compress(np.linalg.matrix_power(res.unitaries[0], 4), res.embedding)
    assert c[0, 0].real == pytest.approx(0.8125, abs=1e-12)


def test_rejects_expansive_input():
    with pytest.raises(ContractionError):
        finite_unitary_dilation(np.array([[1.2]]), 2)


def test_rejects_bad_degree():
    with pytest.raises(ValueError):
        finite_unitary_dilation(np.array([[0.5]]), 0)


def _commuting_normal_pair(rng, dim):
    q = random_unitary(rng, dim)
    a = q @ np.diag(rng.uniform(0.1, 0.9, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))) @ adjoint(q)
    b = q @ np.diag(rng.uniform(0.1, 0.9, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))) @ adjoint(q)
    return a, b


def test_doubly_commuting_dilation_pair():
    rng = np.random.default_rng(5)
    a, b = _commuting_normal_pair(rng, 3)
    res = doubly_commuting_dilation([a, b], 2)
    assert res.ambient_dim == 27
    assert res.unitarity_residual() < 1e-12
    assert double_commutation_residual(res.unitaries) < 1e-12
    for ka in range(-2, 3):
        for kb in range(-2, 3):
            r = verify_power_dilation(res, [a, b], [(1, ka), (2, kb)])
            assert r.residual < 1e-10, (ka, kb, r.residual)


def test_doubly_commuting_rejects_noncommuting():
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(NotDoublyCommutingError):
        doubly_commuting_dilation([a, b], 2)


def test_doubly_commuting_rejects_star_violation():
    # a normal-free pair that commutes but fails the starred relation
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    with pytest.raises(NotDoublyCommutingError) as exc:
        doubly_commuting_dilation([a, a], 2)
    assert exc.value.pair == (1, 2)


def test_verify_rejects_out_of_budget_words():
    t = np.array([[0.5]])
    res = finite_unitary_dilation(t, 2)
    with pytest.raises(BudgetError):
        verify_power_dilation(res, [t], [(1, 3)])
    with pytest.raises(BudgetError):
        verify_power_dilation(res, [t], [(1, 10**12)])
    a = np.diag([0.5, 0.3])
    b = np.diag([0.2, 0.7])
    res2 = doubly_commuting_dilation([a, b], 2)
    with pytest.raises(BudgetError):
        verify_power_dilation(res2, [a, b], [(2, 1), (1, 1)])
    with pytest.raises(BudgetError):
        verify_power_dilation(res2, [a, b], [(1, 1), (3, 1)])



# ---------------------------------------------------------------------------
# the panel-based identity against a dense reference


def _dense_power(a, k):
    """``a^k`` for ``k >= 0``, ``(a*)^{-k}`` for ``k < 0``, as a dense matrix."""
    a = np.asarray(a, dtype=complex)
    return np.linalg.matrix_power(a if k >= 0 else adjoint(a), abs(k))


def _dense_residual(res, ts, runs):
    big = np.eye(res.ambient_dim, dtype=complex)
    small = np.eye(res.embedding.small_dim, dtype=complex)
    for f, k in runs:
        big = big @ _dense_power(res.unitaries[f - 1], k)
        small = small @ _dense_power(ts[f - 1], k)
    return operator_norm(compress(big, res.embedding) - small)


def _assert_matches_dense(res, ts, words):
    for runs in words:
        got = verify_power_dilation(res, ts, runs, tol=np.inf).residual
        want = _dense_residual(res, ts, runs)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13), (runs, got, want)


def test_power_identity_matches_dense_reference_single():
    rng = np.random.default_rng(31)
    t = random_contraction(rng, 3)
    res = finite_unitary_dilation(t, 3)
    words = [[(1, k)] for k in range(-3, 4)]
    _assert_matches_dense(res, [t], words)
    # a rotated copy: the word acts on J's columns, which are no longer coordinates
    q = random_unitary(rng, res.ambient_dim)
    rotated = DilationResult(
        unitaries=(q @ res.unitaries[0] @ adjoint(q),),
        embedding=Embedding(q @ res.embedding.isometry),
        degree=3,
    )
    _assert_matches_dense(rotated, [t], words)
    assert max(verify_power_dilation(rotated, [t], w).residual for w in words) < 1e-12
    # a unitary that is no dilation of t gives O(1) residuals, which must agree too
    wrong = DilationResult(
        unitaries=(random_unitary(rng, res.ambient_dim),),
        embedding=res.embedding,
        degree=3,
    )
    _assert_matches_dense(wrong, [t], words)
    assert max(verify_power_dilation(wrong, [t], w).residual for w in words) > 0.1


def test_power_identity_matches_dense_reference_doubly():
    rng = np.random.default_rng(32)
    a, b = _commuting_normal_pair(rng, 2)
    res = doubly_commuting_dilation([a, b], 2)
    words = [
        [(1, ka), (2, kb)] for ka in range(-2, 3) for kb in range(-2, 3) if ka and kb
    ]
    _assert_matches_dense(res, [a, b], words)
    swapped = DilationResult(
        unitaries=res.unitaries[::-1], embedding=res.embedding, degree=2
    )
    _assert_matches_dense(swapped, [a, b], words)
    assert max(verify_power_dilation(swapped, [a, b], w).residual for w in words) > 0.1
