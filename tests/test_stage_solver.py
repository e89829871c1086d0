import numpy as np
import pytest

import spbe
import spbe.stage as stage
from spbe import (
    Belief,
    GridGenerator,
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
    monkeypatch.setattr(stage, "_contract", broken)
    with pytest.raises(RuntimeError, match="broken frozen action values"):
        stage._solve_support(ev, full, SolverConfig())


_LINEAR_GAMES = {
    **{name: spec for name, spec in instances.corpus().items()
       if spec.num_players <= 2},
    **{f"random_{s}": instances.random_instance(s) for s in range(10)},
}


@pytest.mark.parametrize("name", sorted(_LINEAR_GAMES))
def test_frozen_solve_matches_per_player_least_squares(name):
    """With one or two players the frozen system is linear, so the Newton
    solve stops at its first iterate: it accepts and rejects the same
    support profiles as the least-squares solve per player, with the same
    rows. Every profile of the prior at the last stage."""
    spec = _LINEAR_GAMES[name]
    ev = stage.StageEvaluator(spec, spec.horizon, [initial_belief(spec)])
    agents = ev.agents()[0]
    cache, payoffs = {}, {}
    for profile in stage._support_profiles(ev):
        profile_map = dict(zip(agents, profile))
        start = stage._placeholder_rows(ev)
        for (i, xi), support in profile_map.items():
            start[i][xi] = 0.0
            start[i][xi, list(support)] = 1.0 / len(support)
        frozen = stage._freeze_continuations(ev, start)
        got = stage._solve_frozen(ev, profile_map, frozen, start, cache)
        want = oracles.solve_frozen_two_player(ev, profile_map, frozen, payoffs)
        assert (got is None) == (want is None), profile
        if want is not None:
            for g, w in zip(got.rows, want.rows):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-9)


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
    the batch's own order gives the evaluator itself. A taken evaluator
    lists its own points' agents, not the ones its parent has cached."""
    spec = instances.random_instance(3)
    rng = np.random.default_rng(0)
    weights = rng.dirichlet(np.ones(4), size=3)
    weights[2, [0, 1]] = 0.0   # player 0's type 0 has zero marginal
    weights[2] /= weights[2].sum()
    ev = stage.StageEvaluator(spec, 1, [Belief(w, spec.type_counts) for w in weights])
    active, corner = ev.agents(), ev.agents(corner=True)
    assert active[2] != active[0] and corner[2] != corner[0]
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
    assert sub.agents() == [active[k] for k in idx]
    assert sub.agents(corner=True) == [corner[k] for k in idx]
    assert ev.agents() is active and ev.agents(corner=True) is corner


def test_evaluator_q_matches_its_index_order_loops():
    """``q`` sums each agent's terms from the first one and adds 0.0 once
    at the end; that gives the bits of per-k loops from +0.0 (the
    oracle), on every corpus shape and the evaluator cases (one to three
    players, zero-marginal types). So does ``q`` with no continuation
    values, which skips the masses and the continuation term: it equals
    Q with all-zero continuation arrays. Sparse rows make off-path terms
    -0.0 where a reward is negative, and the values hold zeros of both
    signs. The negated zero-reward game (a zero-sum game's zeros) makes
    every term -0.0, where only the final ``+ 0.0`` keeps Q at +0.0."""
    import dataclasses
    from spbe.instances import corpus
    rng = np.random.default_rng(12)
    zero = instances.zero_reward_instance()
    negated = dataclasses.replace(zero, rewards=tuple(-r for r in zero.rewards))
    cases = [(spec, [Belief(w, spec.type_counts) for w in
                     rng.dirichlet(np.ones(spec.num_joint_types), size=3)])
             for spec in [*corpus().values(), negated]]
    cases += [(spec, beliefs) for spec, beliefs, _ in _evaluator_cases()]
    off_path_negative_zeros = 0
    for spec, beliefs in cases:
        ev = stage.StageEvaluator(spec, 1, beliefs)
        rows = _sparse_rows(spec, rng, len(beliefs))
        shapes = [(len(beliefs), spec.num_joint_actions, c) for c in spec.type_counts]
        values = [rng.uniform(-1.0, 1.0, size=s) for s in shapes]
        for v in values:
            v[rng.random(v.shape) < 0.3] = -0.0
            v[rng.random(v.shape) < 0.2] = 0.0
        zeros = [np.zeros(s) for s in shapes]
        bare = ev.agent_weights(rows, mass=False)
        assert all(mass is None for _, mass in bare)
        for got, vals in ((ev.q(ev.agent_weights(rows), values), values),
                          (ev.q(ev.agent_weights(rows), zeros), zeros),
                          (ev.q(bare), zeros)):
            want = oracles.q_index_order(ev, rows, vals)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert all(g.flags.c_contiguous for g in got)
        for (w, _), r in zip(bare, ev._r):
            terms = w * r
            off_path_negative_zeros += int(np.sum((terms == 0.0) & np.signbit(terms)
                                                  & (r < 0.0)))
    assert off_path_negative_zeros > 0


@pytest.mark.parametrize("name", ["signaling_pennies", "random_23"])
def test_last_stage_without_lookup_equals_a_zero_lookup(name):
    """At the last stage, solving with no lookup (no continuation work, no
    support refresh, restarts batched) gives what a lookup returning
    zeros gives, byte for byte: rows, values, residual, status, method,
    restart index and support profile."""
    spec = (instances.signaling_pennies_instance() if name == "signaling_pennies"
            else instances.random_instance(23))
    rng = np.random.default_rng(23)
    weights = rng.dirichlet(np.ones(spec.num_joint_types), size=12)
    weights[0, [0, 1]] = 0.0   # a zero-marginal type of player 0
    weights[0] /= weights[0].sum()
    beliefs = [Belief(w, spec.type_counts) for w in weights]
    bare = stage.solve_stage(spec, spec.horizon, beliefs, None)
    zero = stage.solve_stage(spec, spec.horizon, beliefs, _constant_lookup(spec, 0.0))
    for a, b in zip(bare, zero):
        assert (a.status, a.method, a.restart_index, a.support_profile,
                a.degenerate_types) == (b.status, b.method, b.restart_index,
                                        b.support_profile, b.degenerate_types)
        assert np.float64(a.residual).tobytes() == np.float64(b.residual).tobytes()
        assert [r.tobytes() for r in a.prescription.rows] == \
            [r.tobytes() for r in b.prescription.rows]
        assert [v.tobytes() for v in a.values] == [v.tobytes() for v in b.values]
    assert any(sol.degenerate_types for sol in bare)
    if name == "random_23":
        assert {sol.method for sol in bare} >= {"iteration", "support_enumeration"}


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


def _point(sol):
    """The bytes and metadata of a stage solution."""
    return ([r.tobytes() for r in sol.prescription.rows],
            [v.tobytes() for v in sol.values], np.float64(sol.residual).tobytes(),
            (sol.status, sol.method, sol.restart_index, sol.support_profile,
             sol.degenerate_types))


def _row(table, k):
    """The bytes and metadata of a table's point k, read off its stacks."""
    return ([r[k].tobytes() for r in table.rows], [v[k].tobytes() for v in table.values],
            table.residuals[k].tobytes(), table.metas[k])


def test_solve_stage_builds_no_solution(monkeypatch):
    """``solve_stage`` returns its points as one stacked table and builds
    no ``StageSolution``, with and without a lookup, and so does a grid
    build. A table's points read back bit for bit as ``solution_at`` and
    ``cached_points()`` give them, and equal metadata is one tuple, in a
    reloaded grid's tables too."""
    spec = instances.random_instance(23)
    rng = np.random.default_rng(23)
    points = [Belief(w, spec.type_counts)
              for w in rng.dirichlet(np.ones(spec.num_joint_types), size=12)]
    gen = GridGenerator(instances.coordination_instance(), resolution=3)
    with monkeypatch.context() as patched:
        def refuse(*args, **kwargs):
            raise AssertionError("a stage solution was built")
        patched.setattr(stage, "StageSolution", refuse)
        tables = [stage.solve_stage(spec, spec.horizon, points, lookup)
                  for lookup in (None, _constant_lookup(spec, 0.25))]
        gen.build()
    tables += gen.tables.values()
    doc = spbe.policy_document(spbe.SolveResult(gen.spec, "grid", gen.config, gen,
                                                "ok", resolution=3))
    tables += spbe.load_policy(doc, gen.spec).tables.values()
    for table in tables:
        assert [_point(sol) for sol in table] == \
            [_point(table[k]) for k in range(len(table))] == \
            [_row(table, k) for k in range(len(table))]
        shared = {}
        assert all(shared.setdefault(meta, meta) is meta for meta in table.metas)
        assert len(shared) < len(table)
    cached = gen.cached_points()
    assert len(cached) == sum(map(len, gen.tables.values()))
    for t, pi, sol in cached:
        k = int(np.flatnonzero((gen.grid == pi.weights).all(axis=1))[0])
        assert _point(sol) == _row(gen.tables[t], k)
        if sol.converged:
            assert _point(gen.solution_at(t, pi)) == _point(sol)


def _iteration_outputs(run, spec, t, beliefs, lookup, starts):
    ev = stage.StageEvaluator(spec, t, beliefs, lookup)
    rows, res, ok = run(ev, starts(ev), SolverConfig())
    return [r.tobytes() for r in rows], res.tobytes(), ok.tobytes()


@pytest.mark.parametrize("name", ["coordination", "signaling_pennies", "random_0"])
def test_last_stage_iteration_equals_the_damped_loop(monkeypatch, name):
    """With no lookup (the last stage) a point never closes on a settled
    best-response profile: phase 1 and Dirichlet restarts give what the
    damped loop of :func:`oracles.iterate_batch_damped` gives, byte for
    byte, with as many stage evaluations (no profile is checked)."""
    spec = (instances.random_instance(0) if name == "random_0"
            else getattr(instances, f"{name}_instance")())
    beliefs = [Belief(w, spec.type_counts)
               for w in GridGenerator(spec, resolution=3).grid]
    rng = np.random.default_rng(7)
    draws = [rng.dirichlet(np.ones(na), size=(len(beliefs), nt))
             for nt, na in zip(spec.type_counts, spec.action_counts)]
    evaluations = []

    def counted(*args):
        evaluations[-1] += 1
        return evaluate(*args)

    evaluate = stage._evaluate
    monkeypatch.setattr(stage, "_evaluate", counted)
    for starts in (lambda ev: stage._placeholder_rows(ev, ev.size),
                   lambda ev: [d.copy() for d in draws]):
        outputs = []
        for run in (stage._iterate_batch, oracles.iterate_batch_damped):
            evaluations.append(0)
            outputs.append(_iteration_outputs(run, spec, spec.horizon, beliefs,
                                              None, starts))
        assert outputs[0] == outputs[1]
        assert evaluations[-2] == evaluations[-1]


@pytest.mark.parametrize("name", ["coordination", "dominant_types", "random_0"])
def test_settled_profiles_close_points_with_fewer_lookups(name):
    """Below the last stage a point closes on its best-response profile
    once that profile has held for ``SETTLED_ITERATES`` iterates. Under a
    lookup whose values move with the posterior, these games' phase-1
    points close on the rows the damped loop ends with, and the lookup
    is asked for fewer posteriors."""
    spec = (instances.random_instance(0) if name == "random_0"
            else getattr(instances, f"{name}_instance")())
    beliefs = [Belief(w, spec.type_counts)
               for w in GridGenerator(spec, resolution=3).grid]
    asked = []

    def counting(post):
        asked[-1] += len(post)
        return [0.25 + post[:, :c] for c in spec.type_counts]

    outputs = []
    for run in (stage._iterate_batch, oracles.iterate_batch_damped):
        asked.append(0)
        outputs.append(_iteration_outputs(
            run, spec, 1, beliefs, counting,
            lambda ev: stage._placeholder_rows(ev, ev.size)))
    (rows, _, ok), (want_rows, _, want_ok) = outputs
    assert (rows, ok) == (want_rows, want_ok)
    assert asked[0] < asked[1]


def test_settled_profiles_keep_every_root(monkeypatch):
    """Closing points on settled best-response profiles leaves the root
    prescription of every corpus game and of ``random_instance(0..9)`` bit
    for bit as the damped loop gives it, and solves no more points at any
    stage."""
    games = dict(instances.corpus())
    games.update({f"random_{s}": instances.random_instance(s) for s in range(10)})
    new = {name: spbe.solve(spec) for name, spec in games.items()}
    monkeypatch.setattr(stage, "_iterate_batch", oracles.iterate_batch_damped)
    fewer = 0
    for name, spec in games.items():
        old = spbe.solve(spec)
        assert new[name].status == old.status == "ok", name
        assert [r.tobytes() for r in new[name].root.prescription.rows] == \
            [r.tobytes() for r in old.root.prescription.rows], name
        counts, want = new[name].generator.solve_counts, old.generator.solve_counts
        assert counts.keys() == want.keys(), name
        assert all(counts[t] <= want[t] for t in want), name
        fewer += counts != want
    assert fewer
