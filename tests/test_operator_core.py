import json
import re
from pathlib import Path

import numpy as np
import pytest

import freedilation.operator_core as operator_core
from freedilation.cli import main
from freedilation.dilation import finite_unitary_dilation, unitarity_residual
from freedilation.ncprob import GenSet, parse_word, word_moments
from freedilation.operator_core import (
    DEFAULT_DIM_CAP,
    ContractionError,
    State,
    StateError,
    adjoint,
    as_matrix,
    check_dim_cap,
    defect_pair,
    operator_norm,
    purify,
    random_contraction,
    random_state,
    random_unitary,
)


def test_tolerance_literals_live_in_the_policy():
    # the numerical policy is operator_core's constants: no other line of the
    # package spells a number in exponent form
    literal = re.compile(r"\d+e-\d+", re.IGNORECASE)
    policy = re.compile(r"(DEFAULT_TOL|RANK_RTOL|DENSITY_EIGEN_CUT) = \d+e-\d+")
    found = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(Path(operator_core.__file__).parent.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if literal.search(line) and not (path.name == "operator_core.py" and policy.fullmatch(line))
    ]
    assert found == []


def test_dim_cap_is_inclusive():
    check_dim_cap(DEFAULT_DIM_CAP, "test")
    with pytest.raises(ValueError, match="test dimension 5001 exceeds cap 5000"):
        check_dim_cap(DEFAULT_DIM_CAP + 1, "test")


def test_operator_norm_frozen_values():
    assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)
    assert operator_norm(np.diag([0.3, -0.9])) == pytest.approx(0.9)
    assert operator_norm(np.zeros((3, 3))) == 0.0


@pytest.mark.filterwarnings("error")
def test_operator_norm_of_entries_near_the_float_range(tmp_path, capsys):
    # a* a of an entry near the float range overflows unless a is scaled
    # first; the power-of-two scaling is exact, so scaled matrices keep
    # their digits, only a norm past the float range reads inf, and the
    # command line's refusal names the true norm, all without a
    # RuntimeWarning
    assert operator_norm(np.array([[1e308 + 1e308j]])) == pytest.approx(2**0.5 * 1e308, rel=1e-15)
    assert operator_norm(np.diag([1.7e308, -1.7e308j])) == 1.7e308
    assert operator_norm(np.array([[1.7e308, -1.7e308j]])) == np.inf  # sqrt(2) * 1.7e308
    m = random_contraction(np.random.default_rng(4), 5)
    for k in (-900, -3, 0, 5, 900):
        assert operator_norm(m * 2.0**k) == operator_norm(m) * 2.0**k
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"factors": [{"matrix": {"rows": 1, "cols": 1, "data": [[[1e308, 1e308]]]}}]}))
    assert main(["dilate-doubly", "--input", str(path)]) == 1
    entry = json.loads(capsys.readouterr().out)["checks"][0]
    assert "operator norm 1.414214e+308" in entry["witness"]["error"]


def test_adjoint_and_hermitian():
    m = np.array([[1.0, 2.0 + 1.0j], [0.0, 3.0]])
    np.testing.assert_allclose(adjoint(m), m.conj().T)
    h = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]])
    assert np.array_equal(adjoint(h), h)
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert operator_norm(n - adjoint(n)) == pytest.approx(1.0)


def test_defect_pair_frozen_value():
    d_t, d_ts = defect_pair(np.array([[0.5]]))
    assert d_t[0, 0] == pytest.approx(0.8660254037844386)
    assert d_ts[0, 0] == pytest.approx(0.8660254037844386)


def test_defect_pair_intertwining_identity():
    rng = np.random.default_rng(42)
    for _ in range(25):
        t = random_contraction(rng, int(rng.integers(1, 5)))
        d_t, d_ts = defect_pair(t)
        np.testing.assert_allclose(t @ d_t, d_ts @ t, atol=1e-10)
        eye = np.eye(t.shape[0])
        np.testing.assert_allclose(d_t @ d_t + adjoint(t) @ t, eye, atol=1e-10)
        np.testing.assert_allclose(d_ts @ d_ts + t @ adjoint(t), eye, atol=1e-10)


def test_defect_of_unitary_is_exactly_zero():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 3)
    d_t, d_ts = defect_pair(u)
    assert np.all(d_t == 0.0)
    assert np.all(d_ts == 0.0)


def test_defect_exact_near_unit_singular_value():
    # a singular value 2e-10 below 1 is a genuine (tiny) defect, not a zero:
    # the block dilation stays unitary to machine precision
    res = finite_unitary_dilation(np.diag([1.0 - 2e-10, 0.3]), 3)
    assert unitarity_residual(res.gens, 1) <= 1e-14
    # the edges: a norm inside 1 + tol is clipped to 1, a zero has full defects
    d_t, d_ts = defect_pair(np.array([[1.0 + 1e-12]]))
    assert d_t[0, 0] == 0.0 and d_ts[0, 0] == 0.0
    d_t, d_ts = defect_pair(np.zeros((2, 2)))
    assert np.array_equal(d_t, np.eye(2)) and np.array_equal(d_ts, np.eye(2))


def test_defect_rejects_expansion():
    with pytest.raises(ContractionError):
        defect_pair(np.array([[1.5]]))


def test_state_validation():
    with pytest.raises(StateError):
        State.from_vector(np.array([1.0, 1.0]))
    with pytest.raises(StateError):
        State.from_density(np.array([[0.5, 0.0], [0.0, 0.4]]))
    with pytest.raises(StateError):
        State.from_density(np.array([[1.1, 0.0], [0.0, -0.1]]))


def test_state_evaluation_vector_vs_density():
    v = np.array([0.6, 0.8])
    s_vec = State.from_vector(v)
    s_den = State.from_density(np.outer(v, v))
    gens = GenSet({1: np.array([[1.0, 2.0], [3.0, 4.0]])})
    w = parse_word("1^1")
    assert word_moments(s_vec, gens, [w]) == pytest.approx(word_moments(s_den, gens, [w]))


def test_maximally_mixed_is_normalized_trace():
    s = State.from_density(np.eye(3) / 3)
    a = np.diag([1.0, 2.0, 3.0])
    assert np.trace(s.density @ a) == pytest.approx(2.0)
    assert word_moments(s, GenSet({1: a}), [parse_word("1^1")])[0] == pytest.approx(2.0)


def test_purify_reproduces_density_moments():
    rng = np.random.default_rng(7)
    rho_state = random_state(rng, 3, kind="density")
    pure, lift = purify(rho_state)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert pure.dim == 9
    assert np.vdot(pure.vector, lift(a) @ pure.vector) == pytest.approx(
        np.trace(rho_state.density @ a), abs=1e-12
    )


def test_a_state_of_one_column_is_its_own_purification():
    v = np.array([0.6, 0.8j])
    a = np.array([[1.0, 2.0], [3.0, 4.0j]])
    for state in (State.from_vector(v), State.from_density(np.outer(v, np.conj(v)))):
        pure, lift = purify(state)
        assert pure.dim == 2
        np.testing.assert_array_equal(lift(a), a)
        assert abs(abs(np.vdot(pure.vector, v)) - 1.0) < 1e-15
    # a vector state keeps its vector, bit for bit
    np.testing.assert_array_equal(purify(State.from_vector(v))[0].vector, v)


def test_state_columns_and_weights():
    v = np.array([0.6, 0.8j])
    s = State.from_vector(v)
    assert s.columns.shape == (2, 1) and np.shares_memory(s.columns, s.vector)
    np.testing.assert_array_equal(s.weights, [1.0])
    # a density keeps one column per eigenvalue above the cut: exact zeros go
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 4)
    for p in ([0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]):
        rho = (u * np.asarray(p)) @ adjoint(u)
        s = State.from_density(rho)
        assert s.columns.shape == (4, np.count_nonzero(p)) and s.dim == 4
        np.testing.assert_allclose(np.sort(s.weights), np.sort(np.asarray(p)[np.nonzero(p)]), atol=1e-14)
        np.testing.assert_allclose((s.columns * s.weights) @ adjoint(s.columns), rho, atol=1e-14)
        np.testing.assert_array_equal(s.density, rho)
    diag = State.from_density(np.diag([0.0, 0.25, 0.0, 0.75]).astype(complex))
    assert diag.columns.shape == (4, 2)


def test_state_from_columns_validates():
    q = random_unitary(np.random.default_rng(6), 3)[:, :2]
    s = State.from_columns(q, [0.25, 0.75])
    assert s.kind == "columns" and s.dim == 3 and s.vector is None and s.density is None
    for weights in ([0.25, 0.5], [1.0], [1.25, -0.25], [np.nan, 1.0]):
        with pytest.raises(StateError, match="2 positive weights summing to 1"):
            State.from_columns(q, weights)
    with pytest.raises(StateError, match="orthonormal"):
        State.from_columns(q * 1.1, [0.25, 0.75])


def test_random_state_refuses_an_unknown_kind():
    rng = np.random.default_rng(3)
    assert random_state(rng, 2, "vector").kind == "vector"
    assert random_state(rng, 2, "density").kind == "density"
    with pytest.raises(ValueError, match="'mixed'"):
        random_state(rng, 2, "mixed")


def test_random_contraction_norm_bound():
    rng = np.random.default_rng(11)
    for _ in range(30):
        t = random_contraction(rng, int(rng.integers(1, 5)))
        assert operator_norm(t) <= 1.0 + 1e-12


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(13)
    u = random_unitary(rng, 4)
    np.testing.assert_allclose(adjoint(u) @ u, np.eye(4), atol=1e-12)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan]]))


@pytest.mark.parametrize(
    "entry",
    [complex(np.nan, 0.0), complex(-np.inf, 0.0), complex(0.0, np.nan), complex(0.0, np.inf)],
)
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_as_matrix_rejects_nonfinite_real_or_imaginary_part(entry, layout):
    m = np.zeros((3, 4), dtype=complex, order="F" if layout == "F" else "C")
    m[1, 2] = entry
    if layout == "strided":
        m = m[:, ::2]
    with pytest.raises(ValueError, match="NaN or Inf"):
        as_matrix(m)
    m[1, ...] = 0.5 - 0.25j
    np.testing.assert_array_equal(as_matrix(m), m)
