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


def _edge_stacks(seed: int, points: int, shapes) -> list[np.ndarray]:
    """Seeded Dirichlet stacks of shape (points, n_x, n_a), one per player,
    with about a third of the rows replaced by rows at the edges of the row
    rule: NaN, +-inf, an entry at -1e-12 or one ulp either side, and sums
    at 1 +- 1e-9, each also moved one ulp up and down."""
    rng = np.random.default_rng(seed)
    edge = -1e-12
    negatives = [edge, np.nextafter(edge, -1.0), np.nextafter(edge, 1.0)]
    stacks = []
    for nx, na in shapes:
        stack = rng.dirichlet(np.ones(na), size=(points, nx))
        for row in stack.reshape(-1, na):
            kind = rng.integers(9)
            col = rng.integers(na)
            if kind == 0:
                row[col] = [np.nan, np.inf, -np.inf][rng.integers(3)]
            elif kind == 1:
                row[col] = negatives[rng.integers(3)]
                row[col - 1] = 1.0 - row[col] - (row.sum() - row[col] - row[col - 1])
            elif kind == 2:
                row[col] += (1e-9 if rng.integers(2) else -1e-9) - (row.sum() - 1.0)
                row[col] = np.nextafter(row[col], [-1.0, 2.0, row[col]][rng.integers(3)])
        stacks.append(stack)
    return stacks


@pytest.mark.parametrize("shapes", [[(2, 2), (2, 2)], [(2, 3), (3, 2), (1, 4)]],
                         ids=["equal_shapes", "per_player_shapes"])
def test_prescription_batch_matches_single_points(shapes):
    """The batch constructor and ``Prescription(...)`` apply the same row
    rule (``oracles.rows_stochastic``): a batch of one accepts and rejects
    a point as ``Prescription(...)`` does, with its message, and a window
    of points fails if and only if some point in it does, naming the
    lowest player with a bad row at any of its points."""
    stacks = _edge_stacks(7, 300, shapes)
    n = len(stacks)
    verdicts = [oracles.rows_stochastic([s[b] for s in stacks])
                for b in range(300)]
    ok = np.array([good for good, _ in verdicts])
    bad = np.array([[not oracles.rows_stochastic([s[b]])[0] for s in stacks]
                    for b in range(300)])
    assert 0.2 < ok.mean() < 0.8
    np.testing.assert_array_equal(ok, ~bad.any(axis=1))
    for b, (good, why) in enumerate(verdicts):
        rows = tuple(s[b] for s in stacks)
        if good:
            np.testing.assert_array_equal(Prescription(rows).rows[0], rows[0])
            assert len(Prescription.batch([s[b:b + 1] for s in stacks])) == 1
            continue
        with pytest.raises(ValueError) as single:
            Prescription(rows)
        with pytest.raises(ValueError) as batched:
            Prescription.batch([s[b:b + 1] for s in stacks])
        assert str(single.value) == str(batched.value) == why
    # windows over the points where every player below j is sound, so
    # that each player is the lowest bad one in some window
    named, passed = set(), 0
    for j in range(n + 1):
        pool = np.flatnonzero(~bad[:, :j].any(axis=1))
        for start in range(0, pool.size, 7):
            points = pool[start:start + 1 + start % 40]
            window = [s[points] for s in stacks]
            culprits = np.flatnonzero(bad[points].any(axis=0))
            if not culprits.size:
                assert len(Prescription.batch(window)) == len(points)
                passed += 1
                continue
            with pytest.raises(ValueError) as batched:
                Prescription.batch(window)
            assert str(batched.value) == \
                f"prescription rows[{culprits[0]}] is not row-stochastic"
            named.add(int(culprits[0]))
    assert named == set(range(n)) and passed
    # every accepted point at once: views of read-only stacks, equal rows
    good = [s[ok] for s in stacks]
    for gamma, rows in zip(Prescription.batch(good), zip(*good)):
        for got, want in zip(gamma.rows, rows):
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0, 0] = 0.5


def test_prescription_batch_needs_stacks():
    """Stacks are checked in player order: the first player whose stack is
    not 3-d or holds a bad row is named."""
    with pytest.raises(ValueError, match=r"rows\[1\] must be 2-d"):
        Prescription.batch([np.full((3, 2, 2), 0.5), np.full((2, 2), 0.5)])
    with pytest.raises(ValueError, match=r"rows\[0\] is not row-stochastic"):
        Prescription.batch([np.full((3, 2, 2), 0.6), np.full((2, 2), 0.5)])
    with pytest.raises(ValueError, match=r"rows\[0\] must be 2-d"):
        Prescription((np.array([0.5, 0.5]),))
    assert Prescription.batch([np.empty((0, 2, 2)), np.empty((0, 1, 3))]) == []


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
