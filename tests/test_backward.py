import contextlib
import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

import spbe.backward
from spbe import (
    Belief,
    EquilibriumPolicy,
    ExactGenerator,
    GridGenerator,
    NoFixedPointError,
    ResourceLimitError,
    SolveResult,
    SolverConfig,
    belief_key,
    build_solve_report,
    grid_points,
    initial_belief,
    instances,
    load_policy,
    nearest_grid_index,
    policy_document,
    render_report,
    run_certification,
    solve,
    solve_stage_fixed_point,
)
from spbe.backward import SNAP_SUM_TOL
from spbe.beliefs import KEY_DIGITS
from spbe.game import PRIOR_TOL, GameSpec

import oracles


def test_terminal_values_are_zero(reference_solved):
    spec, result = reference_solved
    gen = result.generator
    pi = initial_belief(spec)
    for i in range(2):
        for xi in range(2):
            assert gen.value(spec.horizon + 1, pi, i, xi) == 0.0


def test_value_table_range_check(reference_solved):
    spec, result = reference_solved
    with pytest.raises(ValueError):
        result.generator.value(0, initial_belief(spec), 0, 0)
    with pytest.raises(ValueError):
        result.generator.value(spec.horizon + 2, initial_belief(spec), 0, 0)


def test_reference_solve_summary(reference_solved):
    spec, result = reference_solved
    assert result.ok
    assert result.root.residual == 0.0
    for i in range(2):
        np.testing.assert_allclose(result.root.values[i], [0.24, 0.24],
                                   atol=1e-12)
    # stage-1 play pools, so the only stage-2 belief ever touched is the prior
    stage2_keys = {belief_key(pi.weights)
                   for t, pi, _ in result.generator.cached_points() if t == 2}
    assert stage2_keys == {belief_key(spec.prior)}


def test_belief_key_normalizes():
    key = belief_key(np.array([-0.0, 0.25000000049, 0.75]))
    assert key[0] == 0.0 and not np.signbit(key[0])
    assert key[1] == 0.25
    assert belief_key(np.array([0.1, 0.9])) == (0.1, 0.9)


def _generator_values(gen, t):
    """The oracles' continuation ``value_fn``: the generator's stage-t
    value of (i, xi) at posterior weights."""
    return lambda weights, i, xi: gen.value(
        t, Belief(np.array(weights), gen.spec.type_counts), i, xi)


def test_bellman_consistency(corpus_solves):
    for name in ("reference", "dominant_types", "single_player", "random_a"):
        spec, result = corpus_solves[name]
        gen = result.generator
        for t, pi, sol in gen.cached_points():
            if not sol.converged:
                continue
            rows = sol.prescription.rows
            v_next = _generator_values(gen, t + 1)
            for i in range(spec.num_players):
                for xi in range(spec.type_counts[i]):
                    if (i, xi) in sol.degenerate_types:
                        continue
                    q = oracles.q_vector_brute(spec, t, pi.weights, rows, i, xi, v_next)
                    redo = sum(rows[i][xi][a] * q[a]
                               for a in range(spec.action_counts[i]))
                    assert abs(redo - float(sol.values[i][xi])) <= 1e-10


def test_value_bounds(corpus_solves):
    for name, (spec, result) in corpus_solves.items():
        if result.status != "ok":
            continue
        caps = [np.abs(spec.reward_tensor(t)).max()
                for t in range(1, spec.horizon + 1)]
        for t, _pi, sol in result.generator.cached_points():
            bound = sum(caps[t - 1:]) + 1e-9
            for arr in sol.values:
                assert np.all(np.abs(arr) <= bound)


def _point_keys(gen):
    return [(t, belief_key(pi.weights)) for t, pi, _ in gen.cached_points()]


def test_monotone_cache_and_reproducible_key_set():
    spec = instances.dominant_types_instance()
    first = solve(spec)
    keys_a = _point_keys(first.generator)
    # querying more beliefs only grows the cache
    first.generator.value(2, Belief(np.array([0.7, 0.1, 0.1, 0.1]),
                                    (2, 2)), 0, 0)
    keys_grown = _point_keys(first.generator)
    assert set(keys_a) <= set(keys_grown)
    second = solve(spec)
    keys_b = _point_keys(second.generator)
    assert keys_a == keys_b


def test_exact_solve_counts():
    # the stage-(t+1) beliefs an exact solve asks for, counted per stage:
    # the root closes in support enumeration, whose freeze refreshes ask
    # for fewer posteriors than the seven failed restarts did before it
    assert solve(instances.signaling_pennies_instance()).generator.solve_counts == \
        {1: 1, 2: 165}
    assert solve(instances.dominant_types_instance()).generator.solve_counts == \
        {1: 1, 2: 109}


SOLVE_CASES = {
    "exact_ok": (lambda: solve(instances.reference_instance()), "ok", True,
                 None),
    "exact_failed": (
        lambda: solve(instances.asymmetric_pennies_instance(),
                      config=SolverConfig(support_enumeration_limit=0,
                                          max_iterations=300)),
        "failed", True,
        {"kind": "no_fixed_point", "stage": 1, "belief": [1.0],
         "solver_status": "max_iterations"}),
    "exact_refused": (
        lambda: solve(instances.dominant_types_instance(), cache_budget=2),
        "refused", True,
        {"kind": "resource_limit", "limit": 2,
         "message": "stage-point cache exceeded 2 entries; raise cache_budget "
                    "or use grid mode"}),
    "grid_ok": (
        lambda: solve(instances.coordination_instance(), mode="grid",
                      resolution=3),
        "ok", True, None),
    "grid_partial": (
        lambda: solve(instances.asymmetric_pennies_instance(), mode="grid",
                      resolution=2,
                      config=SolverConfig(support_enumeration_limit=0)),
        "partial", True,
        {"kind": "no_fixed_point", "stage": 1, "belief": [1.0],
         "solver_status": "max_iterations", "failed_points": 1}),
    "grid_refused": (
        lambda: solve(instances.coordination_instance(), mode="grid",
                      resolution=30, cache_budget=10),
        "refused", False,
        {"kind": "resource_limit", "limit": 10,
         "message": "grid tables would hold 16368 stage points, over the "
                    "budget of 10; raise cache_budget or lower the resolution"}),
}


@pytest.mark.parametrize("case", list(SOLVE_CASES))
def test_solve_statuses_in_both_modes(case):
    """Each (mode, status) pair of a solve: the report's ``failure``
    document, read off the one error the solve keeps, and whether the
    result has a generator and a root."""
    run, status, has_generator, failure = SOLVE_CASES[case]
    result = run()
    assert result.status == status
    assert result.failure == failure
    assert (result.generator is not None) == has_generator
    assert (result.root is not None) == (status == "ok")
    assert (result.error is None) == (status == "ok")
    report = build_solve_report(result)
    assert report["status"] == status
    assert report.get("failure") == failure


def test_no_fixed_point_routing():
    spec = instances.asymmetric_pennies_instance()
    cfg = SolverConfig(support_enumeration_limit=0, max_iterations=300)
    result = solve(spec, config=cfg)
    assert result.status == "failed"
    assert result.failure["kind"] == "no_fixed_point"
    assert result.failure["solver_status"] == "max_iterations"
    gen = ExactGenerator(spec, cfg)
    with pytest.raises(NoFixedPointError):
        gen.solution_at(1, initial_belief(spec))
    # a cached failure re-raises instead of re-solving
    with pytest.raises(NoFixedPointError):
        gen.solution_at(1, initial_belief(spec))
    assert gen.failed_points


def test_cache_budget_refusal():
    spec = instances.dominant_types_instance()
    result = solve(spec, cache_budget=2)
    assert result.status == "refused"
    assert result.failure["kind"] == "resource_limit"
    gen = ExactGenerator(spec, cache_budget=2)
    with pytest.raises(ResourceLimitError):
        gen.solution_at(1, initial_belief(spec))


def _store_bytes(gen):
    return [_point_bytes(t, pi.weights.tobytes(), sol)
            for t, pi, sol in gen.cached_points()]


# the stage-2 belief at which solve(random_instance(6, horizon=3)) stops,
# with support enumeration off; it fails with two restarts too
BELOW_LAST_FAILURE = [0.008398825426560242, 0.0028657480756146855,
                      0.46134635991854783, 0.5273890665792773]
WALKS = [("A A S B", "S", False, None, "ok"),
         ("A S A F B", "S", False, NoFixedPointError, "fresh_failure"),
         ("A F B", "F", False, NoFixedPointError, "stored_failure"),
         ("A S N B", "S", False, ValueError, "non_finite"),
         ("A A S B C", "S", True, ResourceLimitError, "budget")]


@pytest.mark.parametrize("last, stack, stored, budget, error", [
    pytest.param(last, *walk, id=name if last else f"{name}_below_last")
    for last in (True, False) for *walk, name in WALKS])
def test_last_stage_lookup_is_the_row_walk(last, stack, stored, budget, error):
    """``lookup(t)`` leaves the store, ``solve_counts`` and ``completions``
    a walk of ``solution_at`` row by row leaves, and raises the walk's
    error: at a fresh or a stored failed point (A, B, C converge; F fails
    with enumeration off), a non-finite row (N), or a store that fills up
    at the last row, with the points before it stored and none after. At
    the last stage (of ``random_instance(5)``) a lookup solves the stack's
    missing beliefs as one batch; below it (stage 2 of
    ``random_instance(6, horizon=3)``) one at a time, each with its own
    lookups of stage 3."""
    config = SolverConfig(support_enumeration_limit=0)
    if last:
        spec = instances.random_instance(5)
        failed = solve(spec, config=config).generator
        (bad,) = [pi.weights for t, pi, sol in failed.cached_points()
                  if not sol.converged]
        t = spec.horizon
    else:   # two restarts keep F's thousand stage-3 points to a few hundred
        spec, bad, t = (instances.random_instance(6, horizon=3),
                        np.array(BELOW_LAST_FAILURE), 2)
        config = dataclasses.replace(config, restarts=2)
    good = np.random.default_rng(5).dirichlet(np.ones(4), size=4)
    rows = {"A": good[0], "B": good[1], "C": good[2], "S": good[3], "F": bad,
            "N": np.array([np.nan, 0.5, 0.25, 0.25])}
    weights = np.array([rows[name] for name in stack.split()])
    weights.setflags(write=False)
    walk, batch = (ExactGenerator(spec, config) for _ in range(2))
    for gen in (walk, batch):
        with pytest.raises(NoFixedPointError) if stored == "F" else \
                contextlib.nullcontext():
            gen.solution_at(t, Belief(rows[stored], spec.type_counts))
        gen.completions = 0
    walked, want = [], None
    try:
        for k, row in enumerate(weights):
            if budget and k == len(weights) - 1:
                walk.cache_budget = batch.cache_budget = sum(
                    walk.solve_counts.values())
            walked.append(walk.solution_at(t, Belief(row, spec.type_counts)))
    except Exception as err:    # the walk's error, compared below
        want = err
    assert type(want) is (error or type(None))
    if error is None:
        got = batch.lookup(t)(weights)
        for i in range(spec.num_players):
            assert got[i].tobytes() == np.array(
                [sol.values[i] for sol in walked]).tobytes()
    else:
        with pytest.raises(error) as caught:
            batch.lookup(t)(weights)
        assert str(caught.value) == str(want)
    assert _store_bytes(batch) == _store_bytes(walk)
    assert batch.solve_counts == walk.solve_counts
    assert batch.completions == walk.completions > 0


def test_grid_points_shape_and_order():
    pts = grid_points(4, 10)
    assert pts.shape == (286, 4)
    np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
    as_tuples = [tuple(p) for p in pts]
    assert as_tuples == sorted(as_tuples)
    scaled = pts * 10
    np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)


def test_nearest_grid_index():
    pts = grid_points(2, 4)
    exact = np.array([0.25, 0.75])
    assert np.array_equal(pts[nearest_grid_index(pts, exact)], exact)
    off = np.array([0.26, 0.74])
    np.testing.assert_allclose(pts[nearest_grid_index(pts, off)],
                               [0.25, 0.75])
    # equidistant between (0.25, 0.75) and (0.5, 0.5): first minimal wins
    mid = np.array([0.375, 0.625])
    np.testing.assert_allclose(pts[nearest_grid_index(pts, mid)],
                               [0.25, 0.75])


def _build_grid(spec, resolution=3, config=None):
    gen = GridGenerator(spec, config or SolverConfig(), resolution=resolution)
    gen.build()
    return gen


def test_grid_build_coordination():
    spec = instances.coordination_instance()
    gen = _build_grid(spec)
    assert not gen.failed_points
    assert gen.solve_counts == {1: 20, 2: 20, 3: 20}
    # off-grid queries snap to the nearest point
    off = Belief(np.array([0.34, 0.16, 0.16, 0.34]), (2, 2))
    sol = gen.solution_at(2, off)
    assert sol.converged
    assert gen.snap_stats["queries"] > 0


def test_grid_batched_matches_per_point():
    """Every point of the batched grid build equals a per-point solve at
    that belief against the same stage-(t+1) table, and the build's snap
    bound is the one the per-point solves see. The games cover a pure-scan
    point (coordination), one player, three players with a failed point,
    ``random_instance(13)``, whose points close before any restart, and
    points that converge on a restart: ``random_instance(18)``'s after
    support enumeration left it open, and ``random_instance(13)``'s with
    enumeration off, beside a failed point; and types != actions with
    support enumeration."""
    no_enumeration = SolverConfig(support_enumeration_limit=0)
    games = [
        (instances.coordination_instance(), 3, SolverConfig()),
        (instances.single_player_instance(), 4, SolverConfig()),
        (instances.random_instance(1, players=3), 1, SolverConfig()),
        (instances.random_instance(13), 2, SolverConfig()),
        (instances.random_instance(18), 2, SolverConfig()),
        (instances.random_instance(13), 2, no_enumeration),
        (instances.random_instance(1, types=3, actions=2), 1, SolverConfig()),
    ]
    restarted = []
    for spec, resolution, config in games:
        gen = _build_grid(spec, resolution, config)
        restarted += [sol for table in gen.tables.values() for sol in table
                      if sol.method == "iteration" and sol.restart_index > 0]
        max_snap = 0.0
        for t in range(spec.horizon, 0, -1):
            def snap_lookup(post, table=gen.tables.get(t + 1)):
                # each row snapped on its own, apart from the build's batched snap
                nonlocal max_snap
                idx = [nearest_grid_index(gen.grid, w) for w in post]
                for k, w in zip(idx, post):
                    max_snap = max(max_snap, float(np.abs(gen.grid[k] - w).sum()))
                return [np.array([table[k].values[i] for k in idx])
                        for i in range(spec.num_players)]

            lookup = snap_lookup if t < spec.horizon else None
            for idx, batched in enumerate(gen.tables[t]):
                pi = Belief(gen.grid[idx], spec.type_counts)
                alone = solve_stage_fixed_point(spec, t, pi, lookup, config)
                assert (alone.method, alone.restart_index, alone.status) == \
                    (batched.method, batched.restart_index, batched.status)
                for i in range(spec.num_players):
                    np.testing.assert_array_equal(alone.prescription.rows[i],
                                                  batched.prescription.rows[i])
                    np.testing.assert_allclose(alone.values[i], batched.values[i],
                                               rtol=0, atol=1e-12)
        assert gen.snap_stats == {"queries": 0, "max_snap_l1": max_snap}
    assert {(sol.restart_index, sol.status) for sol in restarted} == \
        {(6, "converged"), (1, "converged")}
    methods = {sol.method for sol in gen.tables[1]}
    assert "support_enumeration" in methods


def test_exact_lookup_reproduces_cached_points(corpus_solves):
    """Re-solving any cached exact-mode point against its generator's own
    stage-(t+1) lookup gives the cached solution bit for bit; past the
    horizon the lookup is ``None``."""
    for name in ("reference", "dominant_types", "asymmetric_pennies"):
        spec, result = corpus_solves[name]
        gen = result.generator
        assert result.ok
        assert gen.lookup(spec.horizon + 1) is None
        for t, pi, cached in gen.cached_points():
            again = solve_stage_fixed_point(spec, t, pi, gen.lookup(t + 1))
            assert (again.method, again.restart_index) == \
                (cached.method, cached.restart_index)
            for i in range(spec.num_players):
                np.testing.assert_array_equal(again.prescription.rows[i],
                                              cached.prescription.rows[i])
                np.testing.assert_array_equal(again.values[i], cached.values[i])


def test_nearest_grid_index_rows_match_single_queries():
    rng = np.random.default_rng(3)
    for weights, resolution in ((4, 5), (8, 2)):
        pts = grid_points(weights, resolution)
        queries = np.vstack([rng.dirichlet(np.ones(weights), size=70), pts[:5]])
        batched = nearest_grid_index(pts, queries)
        assert batched.shape == (75,)
        direct = [int(np.argmin(np.abs(pts - q).sum(axis=1))) for q in queries]
        assert batched.tolist() == direct
        assert [nearest_grid_index(pts, q) for q in queries] == direct


SNAP_GRIDS = ((1, 3), (2, 4), (3, 1), (4, 5), (4, 20), (8, 2), (8, 10))


def _assert_snaps_like_brute_force(grid, rows, singles=None):
    """Batched and one-row snaps of ``rows`` give the scan's indices; the
    one-row check runs on the first ``singles`` rows (all by default)."""
    batched = nearest_grid_index(grid, rows)
    assert batched.dtype == np.intp and batched.shape == (len(rows),)
    assert batched.tolist() == oracles.nearest_grid_brute(grid, rows).tolist()
    for row in rows[:singles]:
        got = nearest_grid_index(grid, row)
        assert type(got) is int
        assert got == oracles.nearest_grid_brute(grid, row)


def _tie_rows(grid, rng, limit=120):
    """Grid points, midpoints and 2:1 mixes of pairs of grid points (a
    seeded sample of them on large grids), each also moved one ulp up and
    one ulp down; a zero weight is not moved down."""
    points = grid if len(grid) <= limit else grid[rng.choice(len(grid), limit)]
    a = grid[rng.choice(len(grid), limit)]
    b = grid[rng.choice(len(grid), limit)]
    rows = np.vstack([points, (a + b) / 2, (2 * a + b) / 3, (a + 2 * b) / 3])
    down = np.where(rows > 0.0, np.nextafter(rows, -np.inf), rows)
    return np.vstack([rows, np.nextafter(rows, np.inf), down])


@pytest.mark.parametrize("num_weights, resolution", SNAP_GRIDS)
def test_nearest_grid_index_matches_brute_force(num_weights, resolution):
    """Rounding to the grid gives the scan's index, ties included: the
    lowest index among float-equal L1 distances."""
    rng = np.random.default_rng(num_weights * 100 + resolution)
    grid = grid_points(num_weights, resolution)
    # the scan is slow on the 19,448 points of (8, 10)
    limit = 120 if len(grid) < 2000 else 25
    dirichlet = rng.dirichlet(np.ones(num_weights), size=limit)
    _assert_snaps_like_brute_force(grid, dirichlet)
    _assert_snaps_like_brute_force(grid, _tie_rows(grid, rng, limit),
                                   singles=limit)
    empty = nearest_grid_index(grid, np.empty((0, num_weights)))
    assert empty.dtype == np.intp and empty.shape == (0,)


@pytest.mark.parametrize("spec, resolution", [
    (instances.coordination_instance(), 3),
    (instances.signaling_pennies_instance(), 2),
], ids=["coordination", "signaling_pennies"])
def test_grid_snaps_of_build_and_certification_match_brute_force(
        spec, resolution, monkeypatch):
    """Every snap of a grid build and of its certification gives the
    scan's index."""
    calls = []

    def recording(grid, weights):
        got = nearest_grid_index(grid, weights)
        calls.append((grid, np.array(weights), got))
        return got

    monkeypatch.setattr(spbe.backward, "nearest_grid_index", recording)
    result = solve(spec, mode="grid", resolution=resolution)
    built = len(calls)
    run_certification(spec, EquilibriumPolicy(spec, result.generator))
    assert len(calls) > built > 0
    for grid, weights, got in calls:
        want = oracles.nearest_grid_brute(grid, weights)
        assert np.array_equal(got, want)


def test_grid_queries_snap_each_belief_once(monkeypatch):
    """A grid policy reloaded from its document snaps each belief it is
    asked for once, at whatever stage: certifying coordination at
    resolution 10 asks 37 times, at 9 (stage, belief) pairs, and snaps at
    most once per distinct belief. ``snap_stats`` still counts every
    query."""
    spec = instances.coordination_instance()
    result = solve(spec, mode="grid", resolution=10)
    assert result.generator.snap_stats == {"queries": 1, "max_snap_l1": 0.2}
    generator = load_policy(json.loads(render_report(policy_document(result))),
                            spec)
    queried, snapped = [], []
    real_query = generator.solution_at

    def query(t, pi):
        queried.append((t, pi.weights.tobytes()))
        return real_query(t, pi)

    def recording(grid, weights):
        snapped.append(np.asarray(weights).tobytes())
        return nearest_grid_index(grid, weights)

    generator.solution_at = query
    monkeypatch.setattr(spbe.backward, "nearest_grid_index", recording)
    assert run_certification(spec, EquilibriumPolicy(spec, generator))["all_checks_ok"]
    assert len(queried) == 37 and len(set(queried)) == 9
    assert snapped == list(dict.fromkeys(weights for _t, weights in queried))
    assert len(snapped) <= 9
    assert generator.snap_stats == {"queries": 37, "max_snap_l1": 0.2}


def test_nearest_grid_index_rejects_rows_outside_its_rule():
    grid = grid_points(4, 5)
    bad = [
        ([np.nan, 0.5, 0.25, 0.25], "has a non-finite weight"),
        ([np.inf, 0.5, 0.25, 0.25], "has a non-finite weight"),
        ([-0.1, 0.6, 0.25, 0.25], "has a negative weight"),
        ([0.3, 0.3, 0.3, 0.3], "sums to 1.2"),
    ]
    for row, why in bad:
        with pytest.raises(ValueError, match=f"row 0 of the weights {why}"):
            nearest_grid_index(grid, row)
        batch = np.vstack([grid[:2], [row], grid[:1]])
        with pytest.raises(ValueError, match="row 2 of the weights"):
            nearest_grid_index(grid, batch)
    for weights in ([0.5, 0.25, 0.25], np.full((3, 5), 0.2),
                    np.full((1, 1, 4), 0.25)):
        with pytest.raises(ValueError, match="not rows of 4 weights"):
            nearest_grid_index(grid, weights)
    # a prior is normalized to PRIOR_TOL only, and still snaps
    for off in (PRIOR_TOL, -PRIOR_TOL):
        row = np.array([0.2 + off, 0.3, 0.25, 0.25])
        assert nearest_grid_index(grid, row) == \
            oracles.nearest_grid_brute(grid, row)


def test_nearest_grid_index_needs_a_simplex_grid():
    for grid in (grid_points(3, 4)[::-1].copy(), np.full((5, 3), 1 / 3)):
        with pytest.raises(ValueError, match="grid_points"):
            nearest_grid_index(grid, [0.2, 0.3, 0.5])
    # a grid equal to grid_points but not the same array still snaps
    copy = grid_points(3, 4).copy()
    assert nearest_grid_index(copy, [0.2, 0.3, 0.5]) == \
        oracles.nearest_grid_brute(copy, [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="too fine"):
        spbe.backward._grid_ranks(2, 10**8)


def test_grid_solve_report():
    spec = instances.coordination_instance()
    result = solve(spec, mode="grid", resolution=3)
    assert result.status == "ok"
    report = build_solve_report(result)
    assert report["grid"]["points"] == 20
    assert report["grid"]["resolution"] == 3
    assert set(report["solve_counts"]) == {"1", "2", "3"}


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        solve(instances.matching_pennies_instance(), mode="magic")


def per_player_shapes_game():
    """Player 0 has 2 types and 3 actions, player 1 has 3 types and 2, so
    a policy file's stacks differ in shape per player."""
    rng = np.random.default_rng(1)
    return GameSpec(num_players=2, horizon=2,
                    type_labels=(("a", "b"), ("c", "d", "e")),
                    action_labels=(("x", "y", "z"), ("u", "v")),
                    prior=rng.dirichlet(np.ones(6)),
                    rewards=tuple(rng.uniform(-1.0, 1.0, size=(2, 6, 6))
                                  for _ in range(2)),
                    stationary=False, discount=1.0)


ROUND_TRIPS = {
    "reference": lambda corpus: corpus["reference"][1],
    "signaling_pennies": lambda corpus: corpus["signaling_pennies"][1],
    "coordination_grid": lambda corpus: solve(
        instances.coordination_instance(), mode="grid", resolution=3),
    "three_players": lambda corpus: solve(
        instances.random_instance(0, players=3, horizon=1)),
    "per_player_shapes": lambda corpus: solve(per_player_shapes_game()),
}


def _point_bytes(t, key, sol):
    return (t, key, [r.tobytes() for r in sol.prescription.rows],
            [v.tobytes() for v in sol.values], sol.status, sol.method,
            sol.restart_index, sol.residual)


@pytest.mark.parametrize("game", sorted(ROUND_TRIPS))
def test_policy_document_round_trip(corpus_solves, game):
    """A policy file reloads to the solved store's converged points, raw
    bytes included, and writes back the same text."""
    result = ROUND_TRIPS[game](corpus_solves)
    spec = result.spec
    doc = policy_document(result)
    assert doc["format"] == "repeated-game-policy"
    text = render_report(doc)
    table = load_policy(json.loads(text), spec)
    solved = [_point_bytes(t, belief_key(pi.weights), sol)
              for t, pi, sol in result.generator.cached_points() if sol.converged]
    loaded = [_point_bytes(t, belief_key(pi.weights), sol)
              for t, pi, sol in table.cached_points() if sol.converged]
    assert loaded == solved
    for t, pi, sol in result.generator.cached_points():
        if sol.converged:
            got = table.solution_at(t, Belief(np.array(belief_key(pi.weights)),
                                              spec.type_counts))
            assert _point_bytes(t, 0, got) == _point_bytes(t, 0, sol)
    again = SolveResult(spec, result.mode, result.config, table, result.status,
                        resolution=result.resolution)
    assert render_report(policy_document(again)) == text
    for _t, _pi, sol in table.cached_points():
        with pytest.raises(ValueError):
            sol.prescription.rows[-1][0, 0] = 0.5
        with pytest.raises(ValueError):
            sol.values[-1][0] = 0.5


FAULTS = {
    "negative_entry": lambda e: e["rows"][0].__setitem__(0, [1.0 + 1e-6, -1e-6]),
    "sum_off": lambda e: e["rows"][1].__setitem__(-1, [0.5, 0.5 + 1e-6]),
    "inf_value": lambda e: e["values"][0].__setitem__(0, float("inf")),
    "not_converged": lambda e: e.update(status="max_iterations"),
    "rows_not_a_list": lambda e: e.update(rows=None),
    "missing_player": lambda e: e["rows"].pop(),
    "ragged_row": lambda e: e["rows"][0].__setitem__(0, [1.0]),
    "infinite_stage": lambda e: e.update(t=math.inf),
}


@pytest.fixture(scope="module")
def signaling_policy_text(corpus_solves):
    spec, result = corpus_solves["signaling_pennies"]
    return spec, render_report(policy_document(result))


def _load_error(spec, doc) -> str:
    with pytest.raises(ValueError) as err:
        load_policy(doc, spec)
    return str(err.value)


@pytest.mark.parametrize("where", ["first", "middle", "two"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_policy_load_names_the_lowest_bad_entry(signaling_policy_text, fault,
                                                where):
    """A fault at entry 0, at a middle entry, or at the middle and the last
    entry at once is named at the lowest faulty index, with the message an
    entry-by-entry reader gives (``oracles.policy_entries_fault``)."""
    spec, text = signaling_policy_text
    doc = json.loads(text)
    last = len(doc["entries"]) - 1
    at = {"first": [0], "middle": [last // 2], "two": [last // 2, last]}[where]
    for k in at:
        FAULTS[fault](doc["entries"][k])
    message = _load_error(spec, doc)
    assert message.startswith(f"policy entry {at[0]}")
    assert message == oracles.policy_entries_fault(doc["entries"], spec)


def test_policy_load_messages(signaling_policy_text):
    """The wording of each fault's message, and the order of the checks
    within one entry: values, then status, then rows, then residual."""
    spec, text = signaling_policy_text

    def error(*edits):
        doc = json.loads(text)
        for k, edit in edits:
            edit(doc["entries"][k])
        return _load_error(spec, doc)

    assert error((3, FAULTS["negative_entry"])) == \
        "policy entry 3: prescription rows[0] is not row-stochastic"
    assert error((3, FAULTS["sum_off"])) == \
        "policy entry 3: prescription rows[1] is not row-stochastic"
    assert error((3, FAULTS["inf_value"])) == \
        "policy entry 3: values are not all finite"
    assert error((3, FAULTS["not_converged"])) == \
        "policy entry 3: status 'max_iterations' is not a solved point"
    assert error((3, FAULTS["rows_not_a_list"])) == \
        "policy entry 3: 'NoneType' object is not iterable"
    assert error((3, FAULTS["missing_player"])) == (
        "policy entry 3: rows and values have shapes ([(2, 2)], [(2,), (2,)]), "
        "the game needs ([(2, 2), (2, 2)], [(2,), (2,)])")
    assert error((3, FAULTS["ragged_row"])).startswith(
        "policy entry 3: setting an array element with a sequence.")
    assert error((3, lambda e: e.pop("residual"))) == \
        "policy entry 3 has no field 'residual'"
    assert error((3, FAULTS["infinite_stage"])) == \
        "policy entry 3: cannot convert float infinity to integer"
    assert error((3, FAULTS["not_converged"]), (3, FAULTS["inf_value"])) == \
        "policy entry 3: values are not all finite"
    assert error((3, FAULTS["sum_off"]), (3, FAULTS["not_converged"])) == \
        "policy entry 3: status 'max_iterations' is not a solved point"
    assert error((3, lambda e: e.pop("residual")), (3, FAULTS["sum_off"])) == \
        "policy entry 3: prescription rows[1] is not row-stochastic"
    assert error((5, FAULTS["not_converged"]), (4, FAULTS["negative_entry"])) \
        .startswith("policy entry 4:")
    assert error((5, FAULTS["ragged_row"]), (4, FAULTS["inf_value"])) \
        .startswith("policy entry 4:")


SHUFFLED_FAULTS = {
    **FAULTS,
    "no_t": lambda e: e.pop("t"),
    "no_status": lambda e: e.pop("status"),
    "no_residual": lambda e: e.pop("residual"),
    "no_values": lambda e: e.pop("values"),
    "residual_none": lambda e: e.update(residual=None),
    "stage_past_horizon": lambda e: e.update(t=9),
    "short_belief": lambda e: e.update(belief=e["belief"][:-1]),
    "string_entry": lambda e: e["rows"][1].__setitem__(0, ["0.5", "x"]),
    "nested_deeper": lambda e: e.update(rows=[[[[v] for v in r] for r in p]
                                              for p in e["rows"]]),
    "nan_row": lambda e: e["rows"][0].__setitem__(1, [float("nan")] * 2),
    "short_values": lambda e: e["values"][1].pop(),
    "extra_type_row": lambda e: e["rows"][0].append([0.5, 0.5]),
}


@pytest.mark.parametrize("mode", ["exact", "grid"])
def test_policy_load_faults_match_entry_by_entry_reader(corpus_solves, mode):
    """Seeded documents with one to three faults, each at a random entry
    and some on the same entry, fail with the entry-by-entry reader's
    message; a document without faults loads."""
    if mode == "exact":
        spec, result = corpus_solves["signaling_pennies"]
    else:
        result = ROUND_TRIPS["coordination_grid"](corpus_solves)
        spec = result.spec
    text = render_report(policy_document(result))
    rng = np.random.default_rng(11)
    names = sorted(SHUFFLED_FAULTS)
    for _ in range(60):
        doc = json.loads(text)
        size = len(doc["entries"])
        spots = rng.integers(size, size=rng.integers(1, 4))
        if rng.integers(2):
            spots = np.minimum(spots, 3)
        for k in spots:
            try:
                SHUFFLED_FAULTS[names[rng.integers(len(names))]](doc["entries"][k])
            except (KeyError, TypeError, IndexError, AttributeError):
                pass    # an earlier fault removed what this one edits
        assert _load_error(spec, doc) == \
            oracles.policy_entries_fault(doc["entries"], spec)
    assert oracles.policy_entries_fault(json.loads(text)["entries"], spec) is None


ANY_GAME_FAULTS = {
    "not_converged": FAULTS["not_converged"],
    "inf_value": FAULTS["inf_value"],
    "sum_off": lambda e: e["rows"][0][0].__setitem__(0, e["rows"][0][0][0] + 1e-6),
}


@pytest.mark.parametrize("fault", sorted(ANY_GAME_FAULTS))
def test_policy_load_checks_entries_alone_only_up_to_a_fault(corpus_solves,
                                                             monkeypatch, fault):
    """A sound document loads with one call of the entry checker; a
    document with one bad entry among E takes at most ceil(log2 E) + 2:
    the full pass, the bisection on prefixes, and the bad entry alone."""
    calls = []
    check = spbe.backward._check_entries

    def counted(raw, spec):
        calls.append(len(raw))
        return check(raw, spec)
    monkeypatch.setattr(spbe.backward, "_check_entries", counted)
    results = [result for _spec, result in corpus_solves.values()]
    results.append(ROUND_TRIPS["coordination_grid"](corpus_solves))
    for result in results:
        text = render_report(policy_document(result))
        load_policy(json.loads(text), result.spec)
        assert calls == [len(json.loads(text)["entries"])]
        calls.clear()
        doc = json.loads(text)
        size = len(doc["entries"])
        k = size // 2
        ANY_GAME_FAULTS[fault](doc["entries"][k])
        assert _load_error(result.spec, doc).startswith(f"policy entry {k}: ")
        assert calls[0] == size and calls[-1] == 1
        assert len(calls) <= math.ceil(math.log2(size)) + 2
        calls.clear()


def test_policy_load_refuses_entries_that_only_pass_alone(signaling_policy_text):
    """Rows given as an iterator have no ``len()``: an entry-by-entry
    reader that iterates them would pass every entry, but the rows could
    not be read a second time; the load refuses the entry before anything
    iterates its rows."""
    spec, text = signaling_policy_text
    doc = json.loads(text)
    rows = doc["entries"][3]["rows"]
    doc["entries"][3]["rows"] = (player for player in rows)
    assert _load_error(spec, doc) == \
        "policy entry 3: object of type 'generator' has no len()"
    assert oracles.policy_entries_fault(doc["entries"], spec) is None


@pytest.mark.parametrize("mode", ["exact", "grid"])
def test_policy_load_refuses_repeated_points_and_fractional_stages(
        corpus_solves, mode):
    """A second entry at an earlier entry's stage and belief, with other
    rows or the same ones, and a stage that is not integer-valued fail the
    load, naming the lowest such entry as an entry-by-entry reader does; a
    stage written as an integral float loads."""
    spec, result = corpus_solves["reference"]
    if mode == "grid":
        result = solve(spec, mode="grid", resolution=3)
    text = render_report(policy_document(result))
    first = json.loads(text)["entries"][0]
    assert first["t"] == 1
    other = {**first, "rows": [[row[::-1] for row in player]
                               for player in first["rows"]]}

    def error(edit):
        doc = json.loads(text)
        edit(doc["entries"])
        message = _load_error(spec, doc)
        assert message == oracles.policy_entries_fault(doc["entries"], spec)
        return message

    size = len(json.loads(text)["entries"])
    repeat = f"stage 1 and belief {first['belief']} repeat policy entry 0"
    assert error(lambda e: e.append(other)) == f"policy entry {size}: {repeat}"
    assert error(lambda e: e.append(dict(first))) == \
        f"policy entry {size}: {repeat}"
    assert error(lambda e: e[0].update(t=1.7)) == \
        "policy entry 0: stage 1.7 is not an integer"
    assert error(lambda e: e[-1].update(t="1")) == \
        f"policy entry {size - 1}: stage '1' is not an integer"

    def both(entries):   # the repeat comes first
        entries.insert(1, dict(first))
        entries[-1]["t"] += 0.5
    assert error(both) == f"policy entry 1: {repeat}"

    doc = json.loads(text)
    for entry in doc["entries"]:
        entry["t"] = float(entry["t"])
    loaded = load_policy(doc, spec).cached_points()
    want = load_policy(json.loads(text), spec).cached_points()
    assert [_point_bytes(t, pi.key, sol) for t, pi, sol in loaded] == \
        [_point_bytes(t, pi.key, sol) for t, pi, sol in want]


NOT_BELIEFS = {
    "nan": ([float("nan")] * 4, "has a non-finite weight"),
    "negative": ([2.0, -1.0, 0.0, 0.0], "has a negative weight"),
    "sum_two": ([0.5] * 4, "sums to 2.0"),
    "sum_off": ([0.25, 0.25, 0.25, 0.25 + 2 ** -25], "sums to 1.0000000298023224"),
}


@pytest.mark.parametrize("fault", sorted(NOT_BELIEFS))
def test_policy_load_refuses_beliefs_that_are_no_belief(reference_solved, fault):
    """An exact-mode entry whose belief is not finite, non-negative and
    summing to 1 fails the load, naming the lowest such entry as the
    entry-by-entry reader does."""
    spec, result = reference_solved
    text = render_report(policy_document(result))
    belief, why = NOT_BELIEFS[fault]
    doc = json.loads(text)
    last = len(doc["entries"]) - 1
    for k in (last, 0):
        doc["entries"][k]["belief"] = list(belief)
        message = _load_error(spec, doc)
        assert message == f"policy entry {k}: belief {belief} {why}"
        assert message == oracles.policy_entries_fault(doc["entries"], spec)


def test_policy_keys_allow_for_their_rounding():
    """A key whose weights were each rounded up by half a unit of the
    last digit still passes, where the snap's own rule refuses it; a key
    off by more fails."""
    size = 40
    rounded = np.full((1, size), 1 / size + 0.5 * 10.0 ** -KEY_DIGITS)
    assert abs(rounded.sum() - 1.0) > SNAP_SUM_TOL
    assert spbe.backward._bad_row(rounded) is not None
    assert spbe.backward._bad_key(rounded) is None
    worse = rounded + 2e-8 / size
    assert spbe.backward._bad_key(worse)[1].startswith("sums to 1.00000004")


@pytest.mark.parametrize("mode", ["exact", "grid"])
def test_policy_load_refuses_bool_stages(reference_solved, mode):
    """A JSON ``true`` is no stage, although ``int(True) == 1``: the load
    names the lowest such entry, as an entry-by-entry reader does."""
    spec, result = reference_solved
    if mode == "grid":
        result = solve(spec, mode="grid", resolution=3)
    text = render_report(policy_document(result))
    for k in (0, -1):
        doc = json.loads(text)
        doc["entries"][k]["t"] = True
        message = _load_error(spec, doc)
        assert message == oracles.policy_entries_fault(doc["entries"], spec)
        assert message == \
            f"policy entry {k % len(doc['entries'])}: stage True is not an integer"


@pytest.mark.parametrize("resolution", ["junk", 3, None])
def test_exact_policy_refuses_a_resolution(reference_solved, resolution):
    """An exact-mode document has no resolution, so a load refuses one
    rather than ignore it."""
    spec, result = reference_solved
    doc = policy_document(result)
    assert "resolution" not in doc
    doc["resolution"] = resolution
    assert _load_error(spec, doc) == (
        f"exact-mode policy document has a resolution ({resolution!r}); "
        "only grid-mode documents have one")


@pytest.mark.parametrize("header, message", [
    (lambda d: d.pop("resolution"),
     "grid-mode policy document resolution None is not an integer >= 1"),
    (lambda d: d.update(resolution=3.7),
     "grid-mode policy document resolution 3.7 is not an integer >= 1"),
    (lambda d: d.update(resolution="3"),
     "grid-mode policy document resolution '3' is not an integer >= 1"),
    (lambda d: d.update(resolution=0),
     "grid-mode policy document resolution 0 is not an integer >= 1"),
    (lambda d: d.update(mode="banana"),
     "policy document mode 'banana' is not 'exact' or 'grid'"),
    (lambda d: d.pop("mode"),
     "policy document mode None is not 'exact' or 'grid'"),
], ids=["no_resolution", "fractional", "string", "zero", "banana", "no_mode"])
def test_policy_load_refuses_malformed_headers(reference_solved, header,
                                               message):
    """A grid-mode document needs an integer resolution of at least 1, and
    the mode must be exact or grid; the sound document loads as its grid."""
    spec, _ = reference_solved
    text = render_report(policy_document(solve(spec, mode="grid",
                                               resolution=3)))
    doc = json.loads(text)
    header(doc)
    assert _load_error(spec, doc) == message
    loaded = load_policy(json.loads(text), spec)
    assert isinstance(loaded, GridGenerator) and loaded.resolution == 3


def test_policy_rejects_wrong_game(reference_solved):
    _, result = reference_solved
    doc = policy_document(result)
    with pytest.raises(ValueError, match="different game"):
        load_policy(doc, instances.dominant_types_instance())
    with pytest.raises(ValueError, match="policy document"):
        load_policy({"format": "other"}, result.spec)


@pytest.mark.parametrize("mode", ["exact", "grid"])
def test_policy_rejects_unsolved_entries(mode):
    spec = instances.reference_instance()
    doc = policy_document(solve(spec, mode=mode, resolution=2))
    doc["entries"][0]["status"] = "max_iterations"
    with pytest.raises(ValueError, match="policy entry 0"):
        load_policy(doc, spec)


def horizon_3_reference():
    """The reference game lengthened to horizon 3: two matching-pennies
    stages, then its nudged coordination stage."""
    ref = instances.reference_instance()
    return dataclasses.replace(ref, horizon=3,
                               rewards=ref.rewards[:1] * 2 + ref.rewards[1:])


@pytest.mark.parametrize("dropped, completions", [((1,), 1), ((1, 2), 2)],
                         ids=["stage_1", "stages_1_2"])
def test_loaded_store_completes_on_its_own_entries(dropped, completions,
                                                   monkeypatch):
    """A loaded exact file solves the beliefs it lacks in the same store,
    reading the entries it kept as they were loaded: none is solved again
    or replaced. ``completions`` counts every point solved after loading,
    recursive ones included."""
    spec = horizon_3_reference()
    result = solve(spec)
    assert result.generator.solve_counts == {1: 1, 2: 1, 3: 1}
    doc = policy_document(result)
    doc["entries"] = [e for e in doc["entries"] if e["t"] not in dropped]
    gen = load_policy(doc, spec)
    loaded = {t: _point_bytes(t, pi.weights.tobytes(), sol)
              for t, pi, sol in gen.cached_points()}
    assert gen.completions == 0
    solved = []
    for name in ("solve_stage", "solve_stage_fixed_point"):
        def counted(spec, t, beliefs, *args, real=getattr(spbe.backward, name)):
            solved.extend([t] * (len(beliefs) if isinstance(beliefs, list) else 1))
            return real(spec, t, beliefs, *args)
        monkeypatch.setattr(spbe.backward, name, counted)
    pi = initial_belief(spec)
    assert gen.value(1, pi, 0, 0) == pytest.approx(0.24, abs=1e-12)
    gen.value(1, pi, 1, 1)
    assert gen.completions == completions
    assert sorted(solved) == list(dropped)
    assert gen.solve_counts == result.generator.solve_counts
    for (t, pi, got), (_, _, want) in zip(gen.cached_points(),
                                          result.generator.cached_points()):
        if t in loaded:
            assert _point_bytes(t, pi.weights.tobytes(), got) == loaded[t]
        for i in range(spec.num_players):
            np.testing.assert_array_equal(got.prescription.rows[i],
                                          want.prescription.rows[i])
            np.testing.assert_array_equal(got.values[i], want.values[i])


def test_exact_report_counts_records(corpus_solves, monkeypatch):
    """A report of a solved exact store counts its records per stage, and
    builds no point's solution to do so."""
    result = corpus_solves["signaling_pennies"][1]
    want = Counter(t for t, _pi, _sol in result.generator.cached_points())
    _refuse_solutions(monkeypatch)
    report = build_solve_report(result)
    assert report["solve_counts"] == {str(t): n for t, n in sorted(want.items())}


def test_report_bytes_deterministic():
    spec = instances.signaling_pennies_instance()
    blobs = []
    for _ in range(2):
        report = build_solve_report(solve(spec))
        del report["timing"]
        blobs.append(render_report(report).encode())
    assert blobs[0] == blobs[1]


def _assert_one_store(result):
    """``cached_points`` is sorted by (stage, belief key), the counts and
    failures agree with it, and the policy document lists its converged
    points in the same order."""
    gen = result.generator
    points = [(t, belief_key(pi.weights), sol) for t, pi, sol in gen.cached_points()]
    keys = [(t, key) for t, key, _ in points]
    assert points and keys == sorted(set(keys))
    assert gen.solve_counts == Counter(t for t, _ in keys)
    assert gen.failed_points == [(t, key, sol.status) for t, key, sol in points
                                 if not sol.converged]
    converged = [(t, key, sol) for t, key, sol in points if sol.converged]
    entries = policy_document(result)["entries"]
    assert len(entries) == len(converged)
    for entry, (t, key, sol) in zip(entries, converged):
        assert (entry["t"], tuple(entry["belief"]), entry["status"]) == \
            (t, key, sol.status)
        assert entry["values"] == [[float(v) for v in arr] for arr in sol.values]


def test_every_generator_reads_one_store():
    spec = instances.asymmetric_pennies_instance()
    failing = SolverConfig(support_enumeration_limit=0, max_iterations=300)
    exact = solve(spec, config=failing)
    assert exact.status == "failed" and exact.generator.failed_points
    _assert_one_store(exact)
    dominant = solve(instances.dominant_types_instance())
    _assert_one_store(dominant)
    reloaded = load_policy(policy_document(dominant), dominant.spec)
    again = SolveResult(dominant.spec, "exact", dominant.config, reloaded, "ok")
    _assert_one_store(again)
    assert reloaded.solve_counts == dominant.generator.solve_counts
    assert render_report(policy_document(again)) == \
        render_report(policy_document(dominant))
    grid = solve(instances.coordination_instance(), mode="grid", resolution=3)
    _assert_one_store(grid)
    reloaded = load_policy(policy_document(grid), grid.spec)
    _assert_one_store(SolveResult(grid.spec, "grid", grid.config, reloaded, "ok",
                                  resolution=3))
    assert reloaded.solve_counts == grid.generator.solve_counts


def test_partial_grid_policy_round_trip():
    """Points a partial grid solve could not solve come back from its
    policy file as failed placeholders, and querying one raises."""
    spec = instances.asymmetric_pennies_instance()
    result = solve(spec, mode="grid", resolution=2,
                   config=SolverConfig(support_enumeration_limit=0))
    assert result.status == "partial"
    failed = result.generator.failed_points
    assert failed
    _assert_one_store(result)
    reloaded = load_policy(json.loads(render_report(policy_document(result))), spec)
    assert [(t, key) for t, key, _ in reloaded.failed_points] == \
        [(t, key) for t, key, _ in failed]
    assert {status for _, _, status in reloaded.failed_points} == {"not_in_policy"}
    _assert_one_store(SolveResult(spec, "grid", result.config, reloaded, "partial",
                                  resolution=2))
    t, key, _ = failed[0]
    with pytest.raises(NoFixedPointError):
        reloaded.solution_at(t, Belief(np.array(key), spec.type_counts))


def test_loaded_exact_entries_answer_to_their_rounded_key():
    """An exact policy entry is stored under its belief's key, rounded as a
    query's is, so the reference game's stage-1 entry moved by 1e-12 on
    two weights still answers the prior: nothing is solved after loading.
    A second entry whose belief rounds to the same key repeats the first."""
    spec = instances.reference_instance()
    result = solve(spec)
    doc = policy_document(result)
    assert [e["t"] for e in doc["entries"]] == [1, 2]
    moved = json.loads(render_report(doc))
    moved["entries"][0]["belief"][0] += 1e-12
    moved["entries"][0]["belief"][1] -= 1e-12
    assert moved["entries"][0]["belief"] != doc["entries"][0]["belief"]
    gen = load_policy(moved, spec)
    policy = EquilibriumPolicy(spec, gen)
    assert run_certification(spec, policy)["all_checks_ok"]
    assert gen.completions == 0
    assert gen.solve_counts == {1: 1, 2: 1}

    twice = json.loads(render_report(doc))
    twice["entries"].append(moved["entries"][0])
    belief = moved["entries"][0]["belief"]
    assert _load_error(spec, twice) == oracles.policy_entries_fault(
        twice["entries"], spec) == (
        f"policy entry 2: stage 1 and belief {belief} repeat policy entry 0")


def test_loaded_grid_entries_answer_to_their_rounded_key():
    """A grid policy entry belongs to the grid point its belief rounds to,
    as an exact entry does: the reference game's resolution-3 entry at
    (1/3, 1/3, 1/3, 0) moved by 1e-12 on two weights loads as that point,
    and a belief that rounds to no grid point is still refused."""
    spec = instances.reference_instance()
    doc = policy_document(solve(spec, mode="grid", resolution=3))
    k = next(k for k, e in enumerate(doc["entries"])
             if e["t"] == 1 and e["belief"] == [0.333333333] * 3 + [0.0])
    moved = json.loads(render_report(doc))
    moved["entries"][k]["belief"][0] += 1e-12
    moved["entries"][k]["belief"][1] -= 1e-12
    assert moved["entries"][k]["belief"] != doc["entries"][k]["belief"]
    assert policy_document(SolveResult(spec, "grid", SolverConfig(),
                                       load_policy(moved, spec), "ok",
                                       resolution=3)) == doc

    off = json.loads(render_report(doc))
    off["entries"][k]["belief"] = belief = [0.334, 0.333, 0.333, 0.0]
    assert _load_error(spec, off) == (
        f"policy entry at stage 1, belief {belief} is not a point of the "
        "resolution-3 grid")


def _refuse_solutions(monkeypatch):
    """Make building any stored point's solution fail the test."""
    def refuse(*args):
        raise AssertionError("a stage solution was built")
    monkeypatch.setattr(spbe.backward.StageTable, "__iter__", refuse)


@pytest.mark.parametrize("mode", ["exact", "grid"])
def test_failed_points_read_the_metadata(mode, monkeypatch):
    """``failed_points`` and ``solve_counts`` list what ``cached_points``
    does, in its order, building no stage solution to do so: an exact
    solve that fails inside a last-stage batch and a partial grid."""
    config = SolverConfig(support_enumeration_limit=0)
    if mode == "exact":
        result = solve(instances.random_instance(5), config=config)
    else:
        result = solve(instances.asymmetric_pennies_instance(), mode="grid",
                       resolution=2, config=config)
    assert result.status == ("failed" if mode == "exact" else "partial")
    gen = result.generator
    points = gen.cached_points()
    want = [(t, pi.key, sol.status) for t, pi, sol in points if not sol.converged]
    counts = Counter(t for t, _pi, _sol in points)
    assert want
    _refuse_solutions(monkeypatch)
    assert gen.failed_points == want
    assert gen.solve_counts == counts
    assert list(gen.solve_counts) == sorted(counts)


def test_grid_tables_are_stacked_and_read_only(monkeypatch):
    """A grid's stage table holds one read-only stack per player and field
    and one metadata tuple per point, and reads a point back as the
    solution a query of its grid row gets; lookups read the value stacks
    and build no solution."""
    spec = instances.coordination_instance()
    gen = _build_grid(spec, resolution=3)
    table = gen.tables[1]
    assert len(table) == gen.grid.shape[0]
    for i, (nt, na) in enumerate(zip(spec.type_counts, spec.action_counts)):
        assert table.rows[i].shape == (len(table), nt, na)
        assert table.values[i].shape == (len(table), nt)
    for arr in (*table.rows, *table.values, table.residuals):
        assert not arr.flags.writeable
    assert type(table.metas) is tuple and len(table.metas) == len(table)
    k = len(table) - 2
    got = gen.solution_at(1, Belief(gen.grid[k], spec.type_counts))
    assert _point_bytes(1, 0, table[k]) == _point_bytes(1, 0, table[-2]) == \
        _point_bytes(1, 0, got) == _point_bytes(1, 0, list(table)[k])
    with pytest.raises(IndexError):
        table[len(table)]
    _refuse_solutions(monkeypatch)
    values = gen.lookup(2)(gen.grid[[k, 0]])
    for i in range(spec.num_players):
        assert values[i].tobytes() == gen.tables[2].values[i][[k, 0]].tobytes()
