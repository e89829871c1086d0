import numpy as np
import pytest

import spbe.stage as stage
from spbe import (
    Belief,
    SolverConfig,
    initial_belief,
    instances,
    solve_stage_fixed_point,
)

import oracles


def _solve(spec, t=1, pi=None, lookup=None, **kw):
    pi = pi if pi is not None else initial_belief(spec)
    cfg = SolverConfig(**kw) if kw else None
    return solve_stage_fixed_point(spec, t, pi, lookup, cfg)


def _zero(*args):
    return 0.0


def _constant_lookup(spec, value):
    """Stage-(t+1) values that are ``value`` at every posterior."""
    return lambda post: [np.full((len(post), c), value) for c in spec.type_counts]


def test_matching_pennies_uniform_fixed_point():
    spec = instances.matching_pennies_instance()
    sol = _solve(spec)
    assert sol.status == "converged"
    assert sol.residual <= 1e-8
    for i in range(2):
        np.testing.assert_array_equal(sol.prescription.rows[i], [[0.5, 0.5]])
        assert sol.values[i][0] == pytest.approx(0.0, abs=1e-12)


def test_zero_rewards_mix_and_purify():
    spec = instances.zero_reward_instance()
    mixed = _solve(spec)
    for i in range(2):
        np.testing.assert_array_equal(mixed.prescription.rows[i],
                                      np.full((2, 2), 0.5))
        np.testing.assert_array_equal(mixed.values[i], [0.0, 0.0])


def test_single_player_tie_rule():
    spec = instances.single_player_tied_instance()
    mixed = _solve(spec)
    np.testing.assert_array_equal(mixed.prescription.rows[0][0], [0.5, 0.5])
    # type 1 strictly prefers action 1
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
    ev = stage.StageEvaluator(spec, 1, [initial_belief(spec)])
    config = SolverConfig()
    full = stage._support_profiles(ev)[0]
    assert full == ((0, 1), (0, 1), (0, 1))
    gamma = stage._solve_support(ev, full, config)
    assert gamma is not None
    assert stage._check(ev, stage._batch_rows(gamma))[0] <= config.fp_tol
    for i in range(3):
        np.testing.assert_allclose(gamma.rows[i], [[0.5, 0.5]], atol=1e-9)


def test_three_player_support_solve_raises_faults(monkeypatch):
    # a fault inside the root finder's equations is an error, not a
    # support without a solution
    def broken(*args):
        raise RuntimeError("broken frozen action values")

    spec = instances.three_player_instance()
    ev = stage.StageEvaluator(spec, 1, [initial_belief(spec)])
    full = stage._support_profiles(ev)[0]
    monkeypatch.setattr(stage, "_frozen_q", broken)
    with pytest.raises(RuntimeError, match="broken frozen action values"):
        stage._solve_support(ev, full, SolverConfig())


def test_typed_interior_point_hand_values():
    # pennies plus a 0.3 own-type bonus against a constant continuation:
    # indifference pins the opponent marginals, hand solve gives the rows
    spec = instances.signaling_pennies_instance()
    sol = _solve(spec, lookup=_constant_lookup(spec, 0.25))
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


@pytest.mark.parametrize("lookup", [None, 0.25], ids=["last_stage", "lookup"])
def test_enumeration_closes_points_before_any_restart(monkeypatch, lookup):
    """Support enumeration runs before the restarts: a point it closes
    never seeds a restart generator, in a batch or alone, with or without
    a lookup. With enumeration off the same points do seed one each."""
    seeded = []
    point_rng = stage._point_rng
    monkeypatch.setattr(stage, "_point_rng",
                        lambda config, t, pi: seeded.append(pi.key)
                        or point_rng(config, t, pi))
    spec = instances.random_instance(23)
    rng = np.random.default_rng(23)
    points = [Belief(w, spec.type_counts)
              for w in rng.dirichlet(np.ones(spec.num_joint_types), size=12)]
    if lookup is not None:
        lookup = _constant_lookup(spec, lookup)
    batched = stage.solve_stage(spec, spec.horizon, points, lookup,
                                SolverConfig())
    enumerated = [pi.key for pi, sol in zip(points, batched)
                  if sol.method == "support_enumeration"]
    assert enumerated and all(sol.converged for sol in batched)
    pennies = instances.asymmetric_pennies_instance()
    alone = _solve(pennies, lookup=None if lookup is None
                   else _constant_lookup(pennies, 0.25))
    assert alone.method == "support_enumeration"
    assert seeded == []
    off = stage.solve_stage(spec, spec.horizon, points, lookup,
                            SolverConfig(support_enumeration_limit=0))
    assert seeded == enumerated
    assert all(sol.method != "support_enumeration" for sol in off)


def test_pure_scan_phase(monkeypatch):
    # with iteration disabled the zero-reward game falls to the pure scan,
    # whose first lexicographic profile is already a fixed point
    monkeypatch.setattr(stage, "_iterate_batch",
                        lambda ev, rows, c: (rows, np.full(ev.size, np.inf),
                                             np.zeros(ev.size, dtype=bool)))
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
    sol = _solve(spec, t=2, pi=pi)
    assert sol.status == "converged"
    assert set(sol.degenerate_types) == {(0, 1), (1, 1)}
    for i in range(2):
        np.testing.assert_array_equal(sol.prescription.rows[i],
                                      [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(sol.values[i], [1.2, 1.2], atol=1e-12)


def test_determinism_bit_identical():
    spec = instances.signaling_pennies_instance()
    a = _solve(spec, lookup=_constant_lookup(spec, 0.25))
    b = _solve(spec, lookup=_constant_lookup(spec, 0.25))
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
    for fp_tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(fp_tol=fp_tol)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(support_enumeration_limit=-1)


def test_stage_out_of_range():
    spec = instances.matching_pennies_instance()
    with pytest.raises(ValueError):
        _solve(spec, t=2)


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


def test_evaluator_agents_by_point():
    """Every point's active and zero-marginal agents, by player and then
    type, at grid points where types of both players have zero marginal."""
    from spbe.backward import grid_points
    spec = instances.coordination_instance()
    beliefs = [Belief(w, spec.type_counts)
               for w in grid_points(spec.num_joint_types, 3)]
    ev = stage.StageEvaluator(spec, 1, beliefs)
    active, corner = ev.agents(), ev.agents(corner=True)
    agents = [(i, xi) for i, c in enumerate(spec.type_counts) for xi in range(c)]
    for b, pi in enumerate(beliefs):
        assert active[b] == oracles.active_agents(spec, pi.weights)
        assert corner[b] == [a for a in agents if a not in active[b]]
    assert any(len({i for i, _ in c}) > 1 for c in corner)


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


@pytest.mark.parametrize("seed, beliefs, config", [
    (23, 12, SolverConfig()),
    (18, 20, SolverConfig(fp_tol=0.03, damping=0.2, support_enumeration_limit=0)),
], ids=["enumeration", "restarts"])
def test_batched_restarts_keep_the_serial_order(seed, beliefs, config):
    """With no lookup every restart of the open points runs as one batch,
    and each point keeps what a loop over its restarts in turn keeps.
    ``random_instance(23)``'s last stage: points that close in support
    enumeration before any restart, beside phase-1 points. Seed 18 with
    enumeration off, a loose tolerance and heavy damping: points that
    close at restarts 2, 6 and 7, and one that fails all of them."""
    spec = instances.random_instance(seed)
    rng = np.random.default_rng(seed)
    points = [Belief(w, spec.type_counts)
              for w in rng.dirichlet(np.ones(spec.num_joint_types), size=beliefs)]
    batched = stage.solve_stage(spec, spec.horizon, points, None, config)
    for pi, sol in zip(points, batched):
        status, method, restart, profile, rows, values, residual = \
            oracles.solve_stage_serial(spec, spec.horizon, pi, config)
        assert (sol.status, sol.method, sol.restart_index, sol.support_profile,
                sol.residual) == (status, method, restart, profile, residual)
        assert [r.tobytes() for r in sol.prescription.rows] == \
            [r.tobytes() for r in rows]
        assert [v.tobytes() for v in sol.values] == [v.tobytes() for v in values]
    outcomes = {(sol.method, sol.restart_index) for sol in batched}
    assert outcomes >= ({("iteration", 0), ("support_enumeration", None)}
                        if seed == 23 else
                        {("iteration", r) for r in (0, 2, 6, 7)} | {(None, None)})


def test_evaluator_take_repeats_points():
    """``take`` gives the points asked for in that order, repeats
    included, even when as many are asked for as the batch holds; only
    the batch's own order gives the evaluator itself."""
    spec = instances.random_instance(3)
    rng = np.random.default_rng(0)
    ev = stage.StageEvaluator(
        spec, 1, [Belief(w, spec.type_counts) for w in rng.dirichlet(np.ones(4), size=3)])
    assert ev.take([0, 1, 2]) is ev
    idx = [2, 2, 0]
    sub = ev.take(idx)
    assert sub.size == 3
    assert all(a is ev.beliefs[k] for a, k in zip(sub.beliefs, idx))
    np.testing.assert_array_equal(sub.weights, ev.weights[idx])
    for got, want in ((sub.cond, ev.cond), (sub.active, ev.active),
                      (sub.corner, ev.corner)):
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w[idx])


def test_restart_draws_depend_on_the_store_key_alone():
    """Beliefs that share a store key draw the same restarts, whichever
    of them is solved first: a weight that rounds to -0.0 seeds as 0.0."""
    config = SolverConfig()
    beliefs = [Belief(np.array(w), (2, 2)) for w in
               ([-0.0, 0.5, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0],
                [-1e-13, 0.5, 0.5, 1e-13])]
    assert len({pi.key for pi in beliefs}) == 1
    draws = {stage._point_rng(config, 2, pi).random(4).tobytes()
             for pi in beliefs}
    assert len(draws) == 1
