import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from spbe import (
    Belief,
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
    solve,
    solve_stage_fixed_point,
)

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
    # the stage-(t+1) beliefs an exact solve asks for, counted per stage
    assert solve(instances.signaling_pennies_instance()).generator.solve_counts == \
        {1: 1, 2: 891}
    assert solve(instances.dominant_types_instance()).generator.solve_counts == \
        {1: 1, 2: 109}


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


def _build_grid(spec, resolution=3):
    gen = GridGenerator(spec, SolverConfig(), resolution=resolution)
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
    a point that converges on a restart (``random_instance(13)``), and
    types != actions with support enumeration."""
    games = [
        (instances.coordination_instance(), 3),
        (instances.single_player_instance(), 4),
        (instances.random_instance(1, players=3), 1),
        (instances.random_instance(13), 2),
        (instances.random_instance(1, types=3, actions=2), 1),
    ]
    restarted = []
    for spec, resolution in games:
        gen = _build_grid(spec, resolution=resolution)
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
                alone = solve_stage_fixed_point(spec, t, pi, lookup, SolverConfig())
                assert (alone.method, alone.restart_index, alone.status) == \
                    (batched.method, batched.restart_index, batched.status)
                for i in range(spec.num_players):
                    np.testing.assert_array_equal(alone.prescription.rows[i],
                                                  batched.prescription.rows[i])
                    np.testing.assert_allclose(alone.values[i], batched.values[i],
                                               rtol=0, atol=1e-12)
        assert gen.snap_stats == {"queries": 0, "max_snap_l1": max_snap}
    assert restarted
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


def test_policy_document_round_trip(reference_solved):
    spec, result = reference_solved
    doc = policy_document(result)
    assert doc["format"] == "repeated-game-policy"
    text = render_report(doc)
    table = load_policy(json.loads(text), spec)
    for t, pi, sol in result.generator.cached_points():
        if not sol.converged:
            continue
        got = table.solution_at(t, Belief(np.array(belief_key(pi.weights)),
                                          spec.type_counts))
        for i in range(spec.num_players):
            np.testing.assert_array_equal(got.prescription.rows[i],
                                          sol.prescription.rows[i])
            np.testing.assert_array_equal(got.values[i], sol.values[i])
        assert (got.status, got.method, got.restart_index, got.residual) == (
            sol.status, sol.method, sol.restart_index, sol.residual)


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
def test_loaded_store_completes_on_its_own_entries(dropped, completions):
    """A loaded exact file solves the beliefs it lacks in the same store,
    reading the entries it kept as they were loaded; ``completions``
    counts every point solved after loading, recursive ones included."""
    spec = horizon_3_reference()
    result = solve(spec)
    assert result.generator.solve_counts == {1: 1, 2: 1, 3: 1}
    doc = policy_document(result)
    doc["entries"] = [e for e in doc["entries"] if e["t"] not in dropped]
    gen = load_policy(doc, spec)
    loaded = {t: sol for t, _pi, sol in gen.cached_points()}
    assert gen.completions == 0
    pi = initial_belief(spec)
    assert gen.value(1, pi, 0, 0) == pytest.approx(0.24, abs=1e-12)
    gen.value(1, pi, 1, 1)
    assert gen.completions == completions
    assert gen.solve_counts == result.generator.solve_counts
    for (t, _, got), (_, _, want) in zip(gen.cached_points(),
                                         result.generator.cached_points()):
        if t in loaded:
            assert got is loaded[t]
        for i in range(spec.num_players):
            np.testing.assert_array_equal(got.prescription.rows[i],
                                          want.prescription.rows[i])
            np.testing.assert_array_equal(got.values[i], want.values[i])


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
