"""Acceptance suite: one test per shipped guarantee.

Each test is self-describing and checks one end-to-end property of the
solver, the verifier, or the CLI at its stated tolerance and time budget,
so a verbose run reads as a pass/fail line per guarantee.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from spbe import (
    Belief,
    EquilibriumPolicy,
    Prescription,
    build_solve_report,
    check_strategy_independence,
    expected_payoffs_exact,
    grid_points,
    initial_belief,
    instances,
    save_game_spec,
    solve,
    update,
    verify_pbe,
)
from spbe.cli import main as cli_main

import oracles


# -- 1: belief-update suite --------------------------------------------------

def _random_type_dims(rng):
    n = int(rng.integers(1, 4))
    while True:
        dims = tuple(int(rng.integers(1, 5)) for _ in range(n))
        if int(np.prod(dims)) <= 16:
            return dims


def test_criterion_01_belief_update_suite():
    """1000 seeded random updates: normalized, pooling and impossible
    observations return the input belief itself, support never grows,
    and the whole batch runs in under 5 seconds."""
    rng = np.random.default_rng(20240611)
    start = time.perf_counter()
    kinds = {"generic": 0, "pooling": 0, "zero_denominator": 0}
    for trial in range(1000):
        type_dims = _random_type_dims(rng)
        n = len(type_dims)
        act_dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
        nx = int(np.prod(type_dims))
        weights = rng.dirichlet(np.ones(nx))
        if nx > 1 and rng.random() < 0.5:
            keep = rng.random(nx) < 0.6
            if not keep.any():
                keep[int(rng.integers(nx))] = True
            weights = np.where(keep, weights, 0.0)
            weights = weights / weights.sum()
        action = tuple(int(rng.integers(na)) for na in act_dims)
        if trial % 5 == 3:
            kind = "pooling"
            rows = tuple(
                np.tile(rng.dirichlet(np.ones(act_dims[i])), (type_dims[i], 1))
                for i in range(n)
            )
        elif trial % 5 == 4:
            kind = "zero_denominator"
            mats = [rng.dirichlet(np.ones(act_dims[i]), size=type_dims[i])
                    for i in range(n)]
            mats[0][:, action[0]] = 0.0
            mats[0] /= mats[0].sum(axis=1, keepdims=True)
            rows = tuple(mats)
        else:
            kind = "generic"
            rows = tuple(rng.dirichlet(np.ones(act_dims[i]), size=type_dims[i])
                         for i in range(n))
        kinds[kind] += 1

        pi = Belief(weights, type_dims)
        out = update(pi, Prescription(rows), action)

        assert abs(float(np.sum(out.weights)) - 1.0) <= 1e-12
        assert set(np.flatnonzero(out.weights)) <= set(np.flatnonzero(weights))
        if kind in ("pooling", "zero_denominator"):
            assert out is pi
        else:
            brute = oracles.bayes_update_brute(
                [float(w) for w in weights],
                [m.tolist() for m in rows], action, type_dims)
            np.testing.assert_allclose(out.weights, brute, atol=1e-12)
    assert kinds["pooling"] == 200 and kinds["zero_denominator"] == 200
    assert time.perf_counter() - start < 5.0


# -- 2: fixed-point soundness ------------------------------------------------

def test_criterion_02_fixed_point_soundness(corpus_solves):
    """Every converged stage point in the corpus passes an independent
    best-response residual check at 1e-8, and re-evaluating the value
    recursion from stored continuations reproduces the stored values to
    1e-12. The corpus supplies at least 200 points from 10+ instances."""
    total_points = 0
    instances_covered = 0
    for name in sorted(corpus_solves):
        spec, result = corpus_solves[name]
        gen = result.generator
        before = total_points
        for t, pi, solution in gen.cached_points():
            if not solution.converged:
                continue
            rows = [np.asarray(r, dtype=float).tolist()
                    for r in solution.prescription.rows]
            weights = [float(w) for w in pi.weights]
            if t == spec.horizon:
                value_fn = lambda *a: 0.0
            else:
                def value_fn(post, i, xi, _t=t):
                    belief = Belief(np.asarray(post), spec.type_counts)
                    return float(gen.value(_t + 1, belief, i, xi))
            residual = oracles.residual_brute(spec, t, weights, rows, value_fn)
            assert residual <= 1e-8, (name, t, residual)
            recomputed = oracles.values_brute(spec, t, weights, rows, value_fn)
            for (i, xi), value in recomputed.items():
                stored = float(solution.values[i][xi])
                assert abs(value - stored) <= 1e-12, (name, t, i, xi)
            total_points += 1
        if total_points > before:
            instances_covered += 1
    assert total_points >= 200
    assert instances_covered >= 10


# -- 3: static reduction vs grid Nash search ---------------------------------

def test_criterion_03_static_fixed_point_vs_grid_search():
    """On a one-shot 2-player, 2-type, 2-action game the solved stage
    fixed point leaves at most 0.01 payoff on the table for every
    (player, type) agent against a 0.01-step grid of deviation mixtures,
    in under 30 seconds."""
    start = time.perf_counter()
    spec = instances.bayesian_coordination_instance()
    assert (spec.horizon, spec.num_players) == (1, 2)
    assert spec.type_counts == (2, 2) and spec.action_counts == (2, 2)
    result = solve(spec)
    assert result.status == "ok"
    rows = [np.asarray(r).tolist() for r in result.root.prescription.rows]
    weights = [float(w) for w in initial_belief(spec).weights]
    gaps = oracles.nash_grid_gap(spec, weights, rows, step=0.01)
    assert len(gaps) == 4
    for agent, gap in gaps.items():
        assert gap <= 0.01, (agent, gap)
    assert time.perf_counter() - start < 30.0


# -- 4: full certification of the reference instance -------------------------

def test_criterion_04_reference_instance_certified():
    """Solving the correlated-prior reference game and walking every
    public history for every (player, type) finds no deviation worth more
    than 1e-6, in under 60 seconds."""
    start = time.perf_counter()
    spec = instances.reference_instance()
    np.testing.assert_allclose(initial_belief(spec).weights,
                               [0.4, 0.1, 0.1, 0.4])
    result = solve(spec)
    assert result.status == "ok"
    report = verify_pbe(spec, EquilibriumPolicy(spec, result.generator),
                        tol=1e-6)
    assert report.ok
    assert report.max_gain <= 1e-6
    assert report.agents_checked == 4
    assert time.perf_counter() - start < 60.0


# -- 5: exact forward payoffs match solved values -----------------------------

def test_criterion_05_value_consistency(corpus_solves):
    """For every solvable corpus instance, enumerating the constructed
    profile's payoffs path by path reproduces the stage-1 solved value of
    every (player, type) to 1e-9."""
    checked = 0
    for name in sorted(corpus_solves):
        spec, result = corpus_solves[name]
        if result.status != "ok":
            continue
        policy = EquilibriumPolicy(spec, result.generator)
        payoffs = expected_payoffs_exact(spec, policy)
        for i in range(spec.num_players):
            for xi in range(spec.type_counts[i]):
                solved = float(result.root.values[i][xi])
                exact = float(payoffs.per_type[i][xi])
                assert abs(exact - solved) <= 1e-9, (name, i, xi)
        checked += 1
    assert checked >= 10


# -- 6: single-player optimal control ----------------------------------------

def _deterministic_policy_optimum(spec):
    """Exhaustive maximum over history-dependent deterministic policies:
    a first-stage action plus any map from the observed first action to a
    second-stage action."""
    assert spec.num_players == 1 and spec.horizon == 2
    na = spec.action_counts[0]
    best = []
    for x in range(spec.type_counts[0]):
        top = -math.inf
        for a1 in range(na):
            for plan in itertools.product(range(na), repeat=na):
                total = spec.reward(1, 0, x, a1) \
                    + spec.discount * spec.reward(2, 0, x, plan[a1])
                top = max(top, total)
        best.append(top)
    return best


def test_criterion_06_single_player_oracle(corpus_solves):
    """With one player the solver is an optimal controller: its values
    match exhaustive deterministic-policy enumeration to 1e-9 and the
    deviation walk finds gain zero to 1e-10, including under stage ties."""
    for name in ("single_player", "single_player_tied"):
        spec, result = corpus_solves[name]
        enumerated = _deterministic_policy_optimum(spec)
        assert enumerated == pytest.approx(
            oracles.single_player_optimum(spec), abs=1e-12)
        for xi, value in enumerate(enumerated):
            assert abs(float(result.root.values[0][xi]) - value) <= 1e-9
        report = verify_pbe(spec, EquilibriumPolicy(spec, result.generator))
        assert abs(report.max_gain) <= 1e-10


# -- 7: two derivations of the continuation expectation agree ----------------

def test_criterion_07_belief_identity_both_paths(reference_solved):
    """50 random deviation-strategy samples on the reference instance:
    the pre-stage belief reweighted by prescribed action probabilities
    and the post-stage updated belief give the same continuation
    expectation to 1e-12 in every single sample."""
    spec, result = reference_solved
    policy = EquilibriumPolicy(spec, result.generator)
    out = check_strategy_independence(spec, policy, samples=50, seed=0,
                                      tol=1e-12)
    assert out["ok"]
    assert out["max_diff"] <= 1e-12
    assert len(out["samples"]) == 50
    assert all(s["max_diff"] <= 1e-12 for s in out["samples"])


# -- 8: negative control ------------------------------------------------------

class _EpsilonRowPolicy(EquilibriumPolicy):
    """Equilibrium play, except one stage-1 row trembles by eps toward
    its least-prescribed action."""

    def __init__(self, spec, generator, eps):
        super().__init__(spec, generator)
        self.eps = eps

    def prescription_at(self, t, pi):
        gamma = super().prescription_at(t, pi)
        if t != 1:
            return gamma
        rows = [np.array(r) for r in gamma.rows]
        row = rows[0][0]
        basis = np.zeros_like(row)
        basis[int(np.argmin(row))] = 1.0
        rows[0][0] = (1 - self.eps) * row + self.eps * basis
        return Prescription(tuple(rows))


def test_criterion_08_perturbation_flagged(corpus_solves):
    """On a game with strict incentives (solver-measured best-response
    gap at least 0.1), shifting 0.05 mass off one prescribed row is
    caught by the deviation walk with gain above 1e-3."""
    spec, result = corpus_solves["dominant_types"]
    gen = result.generator
    pi = initial_belief(spec)
    v_next = lambda w, i, xi: gen.value(2, Belief(np.array(w), spec.type_counts),
                                        i, xi)
    q = oracles.q_vector_brute(spec, 1, pi.weights, result.root.prescription.rows,
                               0, 0, v_next)
    q = sorted(q, reverse=True)
    assert q[0] - q[1] >= 0.1
    tampered = _EpsilonRowPolicy(spec, gen, eps=0.05)
    report = verify_pbe(spec, tampered, tol=1e-6)
    assert not report.ok
    assert report.max_gain > 1e-3


# -- 9: deterministic reports --------------------------------------------------

def test_criterion_09_solve_reports_byte_identical(tmp_path):
    """Two solve runs with the same seed produce byte-identical reports
    once the wall-clock timing field is dropped."""
    game = tmp_path / "game.json"
    save_game_spec(instances.reference_instance(), str(game))
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli_main(["solve", str(game), "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        del doc["timing"]
        blobs.append(json.dumps(doc, indent=2, sort_keys=True).encode())
    assert blobs[0] == blobs[1]


# -- 10: grid mode scales linearly in the horizon ------------------------------

def test_criterion_10_grid_scale_and_linear_stage_counts():
    """A 4-joint-type, horizon-3 game on the resolution-10 belief grid
    solves in under 5 minutes and performs exactly one solve per grid
    point per stage, so total work is linear in the horizon."""
    start = time.perf_counter()
    spec = instances.coordination_instance()
    assert spec.horizon == 3 and spec.num_joint_types == 4
    result = solve(spec, mode="grid", resolution=10)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert result.status == "ok"
    report = build_solve_report(result)
    per_stage = len(grid_points(spec.num_joint_types, 10))
    assert per_stage == 286
    assert report["solve_counts"] == {"1": per_stage, "2": per_stage,
                                      "3": per_stage}
    assert report["grid"]["points"] == per_stage
