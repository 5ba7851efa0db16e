"""Axis actions against the ``np.kron`` oracle, the exact column reductions of
the unitarity and commutation checks, and the stacked dilation identities."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import freedilation.ncprob as ncprob
from freedilation.dilation import (
    dilation_residuals,
    doubly_commuting_dilation,
    finite_unitary_dilation,
    unitarity_residual,
    verify_power_dilation,
)
from freedilation._gram import make_tensor_independent
from freedilation.ncprob import (
    GenSet,
    _codes,
    parse_word,
    worst_commutator,
)
from freedilation.operator_core import (
    AxisAction,
    State,
    adjoint,
    operator_norm,
    random_contraction,
    random_unitary,
)

from kron_oracle import kron_ampliations, kron_axis, kron_doubly_dilation
from word_list_oracles import ordered_words

EPS = np.finfo(float).eps


def _apply_dense(m, panel, star):
    return adjoint(m) @ panel if star else m @ panel


def _panel(rng, dim, cols):
    shape = (dim,) if cols is None else (dim, cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def _doubly_tuples(draw):
    """Commuting normal contractions ``Q diag(r e^{i theta}) Q*``, with moduli
    exactly 0 or 1 among generic ones, ``Q`` the identity or a random unitary,
    and ``N`` from 1 to 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n, degree = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = np.eye(d) if draw(st.booleans()) else random_unitary(rng, d)
    ts = []
    for _ in range(n):
        radii = [draw(st.sampled_from([0.0, 1.0, None])) for _ in range(d)]
        radii = [rng.uniform(0.0, 0.95) if r is None else r for r in radii]
        phases = np.exp(2j * np.pi * rng.uniform(size=d))
        ts.append((q * (np.array(radii) * phases)) @ adjoint(q))
    # the dense oracle takes the defects of ``I_m (x) T``, whose SVD rounds a
    # singular value to 1 within ``8 m d`` ulps, the axis action within ``8 d``:
    # a singular value between the two is outside the comparison
    for t in ts:
        gap = 1.0 - np.linalg.svd(t, compute_uv=False)
        assume(not np.any((gap > 8 * d * EPS) & (gap <= 8 * (degree + 1) ** n * d * EPS)))
    return ts, degree, draw(st.sampled_from([None, 1, 3])), rng


@settings(max_examples=60, deadline=None)
@given(_doubly_tuples())
def test_doubly_axis_letters_match_kron_oracle(case):
    ts, degree, cols, rng = case
    res = doubly_commuting_dilation(ts, degree)
    dense = kron_doubly_dilation(ts, degree)
    assert res.gens.nbytes == len(ts) * 2 * 16 * ((degree + 1) * ts[0].shape[0]) ** 2
    for f, u in zip(res.gens.ids, dense):
        assert isinstance(res.gens[f], AxisAction) and res.gens[f].shape == u.shape
        panel = _panel(rng, u.shape[0], cols)
        for star in (False, True):
            got = res.gens.apply((f, star), panel)
            np.testing.assert_allclose(got, _apply_dense(u, panel, star), rtol=0, atol=1e-13)
            assert got.shape == panel.shape


@st.composite
def _tensor_factors(draw):
    """Two or three factors of different dimensions: generic, rank-deficient,
    or with singular values exactly 0 and 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for d in draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)):
        u, _, vh = np.linalg.svd(_panel(rng, d, d))
        sv = [draw(st.sampled_from([0.0, 1.0, 0.3, 0.9])) for _ in range(d)]
        mats.append((u * sv) @ vh)
    return mats, draw(st.sampled_from([None, 1, 4])), rng


@settings(max_examples=60, deadline=None)
@given(_tensor_factors())
def test_tensor_axis_letters_match_kron_oracle(case):
    mats, cols, rng = case
    states = [State.basis_vector(m.shape[0], 0) for m in mats]
    gens, joint = make_tensor_independent(list(zip(mats, states)))
    assert joint.dim == gens.dim == np.prod([m.shape[0] for m in mats])
    for f, u in zip(gens.ids, kron_ampliations(mats)):
        panel = _panel(rng, u.shape[0], cols)
        for star in (False, True):
            got = gens.apply((f, star), panel)
            np.testing.assert_allclose(got, _apply_dense(u, panel, star), rtol=0, atol=1e-13)


@pytest.mark.parametrize("axes", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
def test_axis_action_on_any_legs_matches_kron_axis(axes):
    rng = np.random.default_rng(sum(axes) + len(axes))
    legs = (2, 3, 2)
    size = int(np.prod([legs[a] for a in axes]))
    core = _panel(rng, size, size)
    act = AxisAction(legs, axes, core)
    dense = kron_axis(legs, axes, core)
    panel = _panel(rng, 12, 5)
    for star in (False, True):
        np.testing.assert_allclose(
            act.apply(panel, star), _apply_dense(dense, panel, star), rtol=0, atol=1e-13
        )
    assert act.nbytes == 2 * 16 * size**2


def test_axis_action_refuses_bad_legs_and_operands():
    with pytest.raises(ValueError, match="increasing"):
        AxisAction((2, 2), (1, 0), np.eye(4))
    with pytest.raises(ValueError, match="increasing"):
        AxisAction((2, 2), (2,), np.eye(2))
    with pytest.raises(ValueError, match="does not act"):
        AxisAction((2, 3), (1,), np.eye(2))
    with pytest.raises(ValueError, match="does not match dim 6"):
        AxisAction((2, 3), (1,), np.eye(3)).apply(np.ones(4, dtype=complex), False)


# ---------------------------------------------------------------------------
# the reduced checks still detect a failure


def test_reduced_unitarity_equals_dense_value_on_a_nonunitary_core():
    # a contraction of norm 0.5 as the core on a factor leg and the C^d leg,
    # with another factor's leg between them
    rng = np.random.default_rng(41)
    legs = (3, 2, 3, 2)
    for axes in ((1, 3), (0, 3), (2,)):
        size = int(np.prod([legs[a] for a in axes]))
        core = random_contraction(rng, size, 0.5)
        gens = GenSet({1: AxisAction(legs, axes, core)})
        u = kron_axis(legs, axes, core)
        want = operator_norm(adjoint(u) @ u - np.eye(u.shape[0]))
        assert want > 0.5
        assert len(gens.support((1,))) == size
        assert unitarity_residual(gens, 1) == pytest.approx(want, rel=1e-12)


def _doubly_layout(ts, degree):
    """The axis generators ``doubly_commuting_dilation`` builds, without its
    refusal of inputs that do not doubly commute."""
    n, d = len(ts), ts[0].shape[0]
    legs = (degree + 1,) * n + (d,)
    return GenSet(
        {
            j: AxisAction(legs, (n - j, n), finite_unitary_dilation(t, degree).gens[1])
            for j, t in enumerate(ts, start=1)
        }
    )


@pytest.mark.parametrize("seed", range(4))
def test_reduced_commutators_equal_dense_values_on_a_noncommuting_pair(seed):
    # random contractions do not commute: every pair of letters shares the
    # C^d leg, and the commutators there are O(1)
    rng = np.random.default_rng(seed)
    n, d, degree = 2 + seed % 2, 2, 1 + seed // 2
    ts = [random_contraction(rng, d, 0.8) for _ in range(n)]
    gens = _doubly_layout(ts, degree)
    dense = GenSet(dict(enumerate(kron_doubly_dilation(ts, degree), start=1)))
    assert len(gens.support((1, 2))) == (degree + 1) ** 2 * d
    want = worst_commutator(dense)[0]
    assert want > 1e-2
    assert worst_commutator(gens)[0] == pytest.approx(want, rel=1e-12)
    for f in gens.ids:
        assert unitarity_residual(gens, f) <= 1e-14


def test_support_of_mixed_generators_is_every_column():
    act = AxisAction((2, 2), (1,), np.eye(2))
    assert list(GenSet({1: act, 2: np.eye(4)}).support((1, 2))) == [0, 1, 2, 3]
    assert list(GenSet({1: act}).support((1,))) == [0, 1]
    other = AxisAction((4,), (0,), np.eye(4))
    assert list(GenSet({1: act, 2: other}).support((1, 2))) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# the dilation identities on one sweep


def _doubly_model(seed, n, d, degree):
    """The dilation of ``n`` commuting normal ``d x d`` contractions."""
    rng = np.random.default_rng(seed)
    q = random_unitary(rng, d)
    eigs = 0.9 * rng.uniform(size=(n, d)) * np.exp(2j * np.pi * rng.uniform(size=(n, d)))
    return doubly_commuting_dilation([(q * e) @ adjoint(q) for e in eigs], degree)


def test_dilation_residuals_are_the_one_word_verifier_per_word():
    res = _doubly_model(51, 2, 2, 2)
    words = ordered_words(2, 2)
    coords = np.arange(res.contractions.dim)
    residuals, letters = dilation_residuals(res.gens, res.contractions, coords, _codes(words))
    assert residuals.shape == (len(words),)
    # the letters of each word meet the panels in the same order
    np.testing.assert_allclose(
        residuals, [verify_power_dilation(res, w) for w in words], rtol=0, atol=1e-15
    )
    assert letters == 2 * len({w.letters[k:] for w in words for k in range(len(w))})
    assert letters < 2 * sum(map(len, words))
    # a permuted record gives O(1) residuals on the words that use it
    swapped = GenSet({1: res.gens[2], 2: res.gens[1]})
    wrong, _ = dilation_residuals(swapped, res.contractions, coords, _codes(words))
    per_word = [verify_power_dilation(replace(res, gens=swapped), w) for w in words]
    np.testing.assert_allclose(wrong, per_word, rtol=0, atol=1e-15)
    assert wrong.max() > 0.1


@pytest.mark.parametrize("per_stack", [1, 3])
def test_dilation_stacks_give_the_one_stack_result(per_stack):
    res = _doubly_model(52, 3, 2, 1)
    args = (res.gens, res.contractions, np.arange(res.contractions.dim), ncprob._ordered_words(3, 1))
    one, letters = dilation_residuals(*args)
    with mock.patch.object(ncprob, "SAMPLE_PANEL_BYTES", per_stack * 16 * 2 * 2):
        many, many_letters = dilation_residuals(*args)
    np.testing.assert_array_equal(many, one)
    assert many_letters == letters


def test_five_factor_doubly_dilation_runs_in_axis_letters():
    # 5 commuting 2x2 contractions at N = 3: ambient dim 4^5 * 2 = 2,048,
    # where five dense generators would take 335 MB
    res = _doubly_model(53, 5, 2, 3)
    assert res.ambient_dim == 2048
    assert res.gens.nbytes < 64 * 2**10
    assert max(unitarity_residual(res.gens, f) for f in res.gens.ids) <= 1e-12
    assert worst_commutator(res.gens)[0] <= 1e-12
    for text in ("", "1^3", "1^-3 5^3", "2^1 3^-2 4^3", "1^3 2^-3 3^3 4^-3 5^3"):
        assert verify_power_dilation(res, parse_word(text)) <= 1e-12, text
