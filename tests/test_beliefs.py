import numpy as np
import pytest

from spbe import (
    Belief,
    Prescription,
    belief_entropy,
    condition_on_type,
    initial_belief,
    instances,
    update,
)

import oracles


def _belief(weights, counts):
    return Belief(np.asarray(weights, dtype=float), tuple(counts))


def _rows(*mats):
    return Prescription(tuple(np.asarray(m, dtype=float) for m in mats))


CORRELATED = _belief([0.4, 0.1, 0.1, 0.4], (2, 2))


def test_initial_belief_uniform_prior():
    pi = initial_belief(instances.zero_reward_instance())
    np.testing.assert_array_equal(pi.weights, [0.25, 0.25, 0.25, 0.25])


def test_separating_observation_hand_values():
    # player 0 plays its type, player 1 pools; observing a = (0, 0)
    # keeps only the x0 = 0 slice: 0.4/0.5 and 0.1/0.5
    gamma = _rows([[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]])
    post = update(CORRELATED, gamma, (0, 0))
    np.testing.assert_array_equal(post.weights, [0.8, 0.2, 0.0, 0.0])


def test_conditional_hand_values():
    cond = condition_on_type(CORRELATED, 0, 0)
    np.testing.assert_array_equal(cond.weights, [0.8, 0.2])
    assert not cond.degenerate


def test_conditional_degenerate_fallback():
    pi = _belief([0.0, 0.0, 0.7, 0.3], (2, 2))
    cond = condition_on_type(pi, 0, 0)
    np.testing.assert_array_equal(cond.weights, [0.5, 0.5])
    assert cond.degenerate


def test_pooling_returns_same_object():
    gamma = _rows([[0.3, 0.7], [0.3, 0.7]], [[0.6, 0.4], [0.6, 0.4]])
    for a in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert update(CORRELATED, gamma, a) is CORRELATED


def test_zero_denominator_returns_same_object():
    gamma = _rows([[1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]])
    assert update(CORRELATED, gamma, (1, 0)) is CORRELATED


def test_update_rejects_shape_mismatch():
    gamma = _rows([[1.0]])
    with pytest.raises(ValueError):
        update(CORRELATED, gamma, (0,))
    # a joint action needs one component per player, no fewer and no more
    gamma = _rows([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
    for a in ((0,), (0, 0, 1)):
        with pytest.raises(ValueError):
            update(CORRELATED, gamma, a)


def test_pooling_on_support_only():
    # likelihood differs only at a zero-mass type: still no information
    pi = _belief([0.5, 0.5, 0.0, 0.0], (2, 2))
    gamma = _rows([[0.4, 0.6], [0.9, 0.1]], [[0.5, 0.5], [0.5, 0.5]])
    assert update(pi, gamma, (0, 1)) is pi


def test_update_matches_brute_force_bayes():
    rng = np.random.default_rng(4)
    for _ in range(200):
        counts = (2, 2)
        w = rng.dirichlet(np.ones(4))
        rows = tuple(rng.dirichlet(np.ones(2), size=2) for _ in range(2))
        a = tuple(rng.integers(0, 2, size=2))
        mine = update(_belief(w, counts), Prescription(rows), a)
        ref = oracles.bayes_update_brute(w, rows, a, counts)
        np.testing.assert_allclose(mine.weights, ref, atol=1e-12)


def test_support_never_grows():
    rng = np.random.default_rng(5)
    for _ in range(200):
        w = rng.dirichlet(np.ones(4))
        w[rng.integers(0, 4)] = 0.0
        w = w / w.sum()
        pi = _belief(w, (2, 2))
        rows = tuple(rng.dirichlet(np.ones(2), size=2) for _ in range(2))
        a = tuple(rng.integers(0, 2, size=2))
        post = update(pi, Prescription(rows), a)
        assert set(post.support) <= set(pi.support)


def test_update_is_pure_function():
    rng = np.random.default_rng(6)
    w = rng.dirichlet(np.ones(4))
    pi = _belief(w, (2, 2))
    rows = tuple(rng.dirichlet(np.ones(2), size=2) for _ in range(2))
    first = update(pi, Prescription(rows), (1, 0))
    second = update(pi, Prescription(rows), (1, 0))
    np.testing.assert_array_equal(first.weights, second.weights)


def test_belief_entropy_values():
    assert belief_entropy(_belief([0.25] * 4, (2, 2))) == pytest.approx(np.log(4))
    assert belief_entropy(_belief([1.0, 0.0, 0.0, 0.0], (2, 2))) == 0.0


def test_belief_weights_read_only():
    with pytest.raises(ValueError):
        CORRELATED.weights[0] = 0.9


def test_prescription_rejects_non_stochastic():
    with pytest.raises(ValueError):
        _rows([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError):
        _rows([[np.nan, np.nan], [0.5, 0.5]])


def test_prescription_uniform_shape():
    gamma = Prescription.uniform((2, 3), (2, 4))
    assert gamma.rows[0].shape == (2, 2)
    assert gamma.rows[1].shape == (3, 4)
    np.testing.assert_array_equal(gamma.rows[1], np.full((3, 4), 0.25))


def test_type_marginal():
    np.testing.assert_allclose(CORRELATED.type_marginal(0), [0.5, 0.5])
    skewed = _belief([0.8, 0.2, 0.0, 0.0], (2, 2))
    np.testing.assert_allclose(skewed.type_marginal(0), [1.0, 0.0])
    np.testing.assert_allclose(skewed.type_marginal(1), [0.8, 0.2])
