import numpy as np
import pytest

import spbe.stage as stage
from spbe import (
    Belief,
    SolverConfig,
    action_value,
    best_response_set,
    initial_belief,
    instances,
    solve_stage_fixed_point,
    terminal_values,
)

import oracles


def _solve(spec, t=1, pi=None, v_next=terminal_values, **kw):
    pi = pi if pi is not None else initial_belief(spec)
    cfg = SolverConfig(**kw) if kw else None
    return solve_stage_fixed_point(spec, t, pi, v_next, cfg)


def _zero(*args):
    return 0.0


def test_matching_pennies_uniform_fixed_point():
    spec = instances.matching_pennies_instance()
    sol = _solve(spec)
    assert sol.status == "converged"
    assert sol.residual <= 1e-8
    for i in range(2):
        np.testing.assert_array_equal(sol.prescription.rows[i], [[0.5, 0.5]])
        assert sol.values[i][0] == pytest.approx(0.0, abs=1e-12)


def test_best_response_set_ties_on_pennies():
    spec = instances.matching_pennies_instance()
    sol = _solve(spec)
    pi = initial_belief(spec)
    for i in range(2):
        assert best_response_set(spec, 1, pi, sol.prescription, i, 0,
                                 terminal_values) == [0, 1]


def test_action_value_single_player_point_mass():
    spec = instances.single_player_instance()
    pi = Belief(np.array([1.0, 0.0]), (2,))
    sol = _solve(spec, pi=pi)
    gamma = sol.prescription
    for a in range(2):
        assert action_value(spec, 1, pi, gamma, 0, 0, a, terminal_values) == \
            pytest.approx(spec.reward(1, 0, 0, a), abs=1e-12)
    lifted = action_value(spec, 1, pi, gamma, 0, 0, 0,
                          lambda b, i, xi: 0.375)
    assert lifted == pytest.approx(spec.reward(1, 0, 0, 0) + 0.375, abs=1e-12)


def test_zero_rewards_mix_and_purify():
    spec = instances.zero_reward_instance()
    mixed = _solve(spec)
    for i in range(2):
        np.testing.assert_array_equal(mixed.prescription.rows[i],
                                      np.full((2, 2), 0.5))
        np.testing.assert_array_equal(mixed.values[i], [0.0, 0.0])
    pure = _solve(spec, mix_ties=False)
    for i in range(2):
        np.testing.assert_array_equal(pure.prescription.rows[i],
                                      [[1.0, 0.0], [1.0, 0.0]])


def test_single_player_tie_rule():
    spec = instances.single_player_tied_instance()
    mixed = _solve(spec)
    np.testing.assert_array_equal(mixed.prescription.rows[0][0], [0.5, 0.5])
    pure = _solve(spec, mix_ties=False)
    np.testing.assert_array_equal(pure.prescription.rows[0][0], [1.0, 0.0])
    # type 1 strictly prefers action 1 either way
    np.testing.assert_array_equal(mixed.prescription.rows[0][1], [0.0, 1.0])


def test_separating_solution_is_exactly_pure():
    spec = instances.bayesian_coordination_instance()
    sol = _solve(spec)
    assert sol.status == "converged"
    assert sol.residual == 0.0
    for i in range(2):
        np.testing.assert_array_equal(sol.prescription.rows[i], np.eye(2))
        np.testing.assert_allclose(sol.values[i], [1.0, 1.0], atol=1e-12)


def test_residual_and_values_match_oracle():
    for make in (instances.bayesian_coordination_instance,
                  instances.matching_pennies_instance,
                  instances.three_player_instance):
        spec = make()
        sol = _solve(spec)
        rows = [np.asarray(r) for r in sol.prescription.rows]
        w = spec.prior
        res = oracles.residual_brute(spec, 1, w, rows, _zero)
        assert res <= 1e-8
        vals = oracles.values_brute(spec, 1, w, rows, _zero)
        for (i, xi), v in vals.items():
            assert v == pytest.approx(float(sol.values[i][xi]), abs=1e-12)


def test_three_player_uniform_equilibrium():
    spec = instances.three_player_instance()
    sol = _solve(spec)
    assert sol.status == "converged"
    for i in range(3):
        np.testing.assert_array_equal(sol.prescription.rows[i], [[0.5, 0.5]])


def test_support_enumeration_on_cycling_game():
    spec = instances.asymmetric_pennies_instance()
    sol = _solve(spec)
    assert sol.status == "converged"
    assert sol.method == "support_enumeration"
    assert sol.support_profile is not None
    np.testing.assert_allclose(sol.prescription.rows[0], [[0.4, 0.6]],
                               atol=1e-9)
    np.testing.assert_allclose(sol.prescription.rows[1], [[0.4, 0.6]],
                               atol=1e-9)
    assert sol.residual <= 1e-8


def test_three_player_support_solve():
    # the frozen system of three or more players goes to a root finder,
    # whose trial points are not row-stochastic
    spec = instances.three_player_instance()
    ev = stage._single_point(spec, 1, initial_belief(spec), terminal_values)
    config = SolverConfig()
    full = stage._support_profiles(ev)[0]
    assert full == ((0, 1), (0, 1), (0, 1))
    gamma = stage._solve_support(ev, full, config)
    assert gamma is not None
    assert stage._check(ev, gamma) <= config.fp_tol
    for i in range(3):
        np.testing.assert_allclose(gamma.rows[i], [[0.5, 0.5]], atol=1e-9)


def test_typed_interior_point_hand_values():
    # pennies plus a 0.3 own-type bonus against a constant continuation:
    # indifference pins the opponent marginals, hand solve gives the rows
    spec = instances.signaling_pennies_instance()
    sol = solve_stage_fixed_point(spec, 1, initial_belief(spec),
                                  lambda b, i, xi: 0.25)
    assert sol.status == "converged"
    np.testing.assert_allclose(sol.prescription.rows[0],
                               [[0.625, 0.375], [0.375, 0.625]], atol=1e-8)
    np.testing.assert_allclose(sol.prescription.rows[1],
                               [[0.375, 0.625], [0.625, 0.375]], atol=1e-8)
    for i in range(2):
        np.testing.assert_allclose(sol.values[i], [0.4, 0.4], atol=1e-8)


def test_statuses_without_enumeration():
    spec = instances.asymmetric_pennies_instance()
    sol = _solve(spec, support_enumeration_limit=0)
    assert sol.status == "max_iterations"
    assert not sol.converged


def test_no_fixed_point_when_enumeration_exhausts(monkeypatch):
    spec = instances.asymmetric_pennies_instance()
    monkeypatch.setattr(stage, "_solve_support", lambda *a, **k: None)
    sol = _solve(spec)
    assert sol.status == "no_fixed_point"


def test_pure_scan_phase(monkeypatch):
    # with iteration disabled the zero-reward game falls to the pure scan,
    # whose first lexicographic profile is already a fixed point
    monkeypatch.setattr(stage, "_iterate",
                        lambda p, g, c: (g, np.inf, False))
    spec = instances.zero_reward_instance()
    sol = _solve(spec)
    assert sol.status == "converged"
    assert sol.method == "pure_scan"
    for i in range(2):
        np.testing.assert_array_equal(sol.prescription.rows[i],
                                      [[1.0, 0.0], [1.0, 0.0]])


def test_corner_types_get_best_response_rows():
    spec = instances.dominant_types_instance()
    pi = Belief(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    sol = solve_stage_fixed_point(spec, 2, pi, terminal_values)
    assert sol.status == "converged"
    assert set(sol.degenerate_types) == {(0, 1), (1, 1)}
    for i in range(2):
        np.testing.assert_array_equal(sol.prescription.rows[i],
                                      [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(sol.values[i], [1.2, 1.2], atol=1e-12)


def test_determinism_bit_identical():
    spec = instances.signaling_pennies_instance()
    a = solve_stage_fixed_point(spec, 1, initial_belief(spec),
                                lambda b, i, xi: 0.25)
    b = solve_stage_fixed_point(spec, 1, initial_belief(spec),
                                lambda b, i, xi: 0.25)
    assert a.status == b.status and a.method == b.method
    for i in range(2):
        np.testing.assert_array_equal(a.prescription.rows[i],
                                      b.prescription.rows[i])
        np.testing.assert_array_equal(a.values[i], b.values[i])
    assert a.residual == b.residual


def test_seed_changes_restart_draws_not_outcome():
    spec = instances.asymmetric_pennies_instance()
    a = _solve(spec, rng_seed=0)
    b = _solve(spec, rng_seed=99)
    np.testing.assert_allclose(a.prescription.rows[0],
                               b.prescription.rows[0], atol=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(damping=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=1.5)
    with pytest.raises(ValueError):
        SolverConfig(fp_tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(support_enumeration_limit=-1)


def test_stage_out_of_range():
    spec = instances.matching_pennies_instance()
    with pytest.raises(ValueError):
        solve_stage_fixed_point(spec, 2, initial_belief(spec), terminal_values)


def _sparse_rows(spec, rng, batch):
    """Random prescription rows per player, (batch, T_i, A_i), with some
    entries zeroed so that some joint actions are off path."""
    rows = []
    for nt, na in zip(spec.type_counts, spec.action_counts):
        r = rng.dirichlet(np.ones(na), size=(batch, nt))
        r[rng.random(r.shape) < 0.3] = 0.0
        r[r.sum(axis=-1) == 0.0, 0] = 1.0
        rows.append(r / r.sum(axis=-1, keepdims=True))
    return rows


def _evaluator_cases():
    """Seeded random games with batches of beliefs, one of them with a
    zero-marginal type for player 0."""
    rng = np.random.default_rng(11)
    for spec in (instances.random_instance(2, players=1, types=3, actions=3),
                 instances.random_instance(3),
                 instances.random_instance(4, types=3, actions=2),
                 instances.random_instance(5, players=3)):
        beliefs = [rng.dirichlet(np.ones(spec.num_joint_types)) for _ in range(3)]
        corner = beliefs[0].copy()
        corner[[spec.unflatten_types(x)[0] == 0
                for x in range(spec.num_joint_types)]] = 0.0
        beliefs.append(corner / corner.sum())
        yield spec, [Belief(w, spec.type_counts) for w in beliefs], rng


def test_evaluator_q_matches_brute_oracle():
    for spec, beliefs, rng in _evaluator_cases():
        coeffs = rng.uniform(-1.0, 1.0, size=(spec.num_players, 3,
                                              spec.num_joint_types))

        def value(weights, i, xi):
            return float(np.asarray(weights) @ coeffs[i, xi])

        ev = stage.StageEvaluator(spec, 1, beliefs)
        rows = _sparse_rows(spec, rng, len(beliefs))
        post, _ = ev.posteriors(rows)
        values = [np.array([[[value(post[b, a], i, xi) for xi in range(nt)]
                             for a in range(spec.num_joint_actions)]
                            for b in range(len(beliefs))])
                  for i, nt in enumerate(spec.type_counts)]
        q = ev.q(ev.agent_weights(rows), values)
        checked = 0
        for b, pi in enumerate(beliefs):
            own = [r[b] for r in rows]
            for i in range(spec.num_players):
                for xi in range(spec.type_counts[i]):
                    want = oracles.q_vector_brute(spec, 1, pi.weights, own, i, xi, value)
                    assert (want is None) == (not ev.active[i][b, xi])
                    if want is not None:
                        np.testing.assert_allclose(q[i][b, xi], want, rtol=0, atol=1e-12)
                        checked += 1
        assert checked > 0


def test_evaluator_posteriors_equal_update():
    """Batched posteriors are bit-identical to ``update`` for every joint
    action, and stay put exactly where ``update`` returns the prior: on
    off-path actions and under pooling rows."""
    from spbe import Prescription, update
    for spec, beliefs, rng in _evaluator_cases():
        ev = stage.StageEvaluator(spec, 1, beliefs)
        sparse = _sparse_rows(spec, rng, len(beliefs))
        pooling = [np.full((len(beliefs), nt, na), 1.0 / na)
                   for nt, na in zip(spec.type_counts, spec.action_counts)]
        # player 0 never plays action 0: those joint actions are off path
        off_path = [r.copy() for r in _sparse_rows(spec, rng, len(beliefs))]
        off_path[0][..., 0] = 0.0
        off_path[0][..., 1] += 1.0 - off_path[0].sum(axis=-1)
        first = np.array([spec.unflatten_actions(a)[0]
                          for a in range(spec.num_joint_actions)])
        for rows in (sparse, pooling, off_path):
            post, moved = ev.posteriors(rows)
            for b, pi in enumerate(beliefs):
                gamma = Prescription(tuple(r[b] for r in rows))
                for a in range(spec.num_joint_actions):
                    got = update(pi, gamma, spec.unflatten_actions(a))
                    np.testing.assert_array_equal(post[b, a], got.weights)
                    assert moved[b, a] == (got is not pi)
        assert ev.posteriors(sparse)[1].any()
        assert not ev.posteriors(pooling)[1].any()
        assert not ev.posteriors(off_path)[1][:, first == 0].any()
