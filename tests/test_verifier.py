import dataclasses
import itertools
import zlib

import numpy as np
import pytest

import spbe.beliefs
import spbe.forward
import spbe.verify
from spbe import (
    Belief,
    EquilibriumPolicy,
    NoFixedPointError,
    Prescription,
    ResourceLimitError,
    best_deviation_value,
    check_strategy_independence,
    equilibrium_continuation_value,
    instances,
    load_policy,
    one_shot_gaps,
    policy_document,
    run_certification,
    solve,
    verify_one_shot,
    verify_pbe,
)

from spbe.game import embedding_map

import oracles
from test_forward import RandomRowsPolicy


class RowPerturbedPolicy(EquilibriumPolicy):
    """Equilibrium play with one stage-1 row mixed toward the other action.

    The perturbation flows through the belief process too, exactly as a
    real unilateral commonly-known tremble would.
    """

    def __init__(self, spec, generator, player=0, xi=0, eps=0.05):
        super().__init__(spec, generator)
        self.player, self.xi, self.eps = player, xi, eps

    def prescription_at(self, t, pi):
        gamma = super().prescription_at(t, pi)
        if t != 1:
            return gamma
        rows = [np.array(r) for r in gamma.rows]
        row = rows[self.player][self.xi]
        # shift mass toward the row's least-played action so the tremble
        # is never a no-op (uniform rows are invariant under reversal)
        basis = np.zeros_like(row)
        basis[int(np.argmin(row))] = 1.0
        rows[self.player][self.xi] = (1 - self.eps) * row + self.eps * basis
        return Prescription(tuple(rows))


@pytest.fixture(scope="module")
def reference_policy(reference_solved):
    spec, result = reference_solved
    return spec, EquilibriumPolicy(spec, result.generator)


def test_reference_certifies(reference_policy):
    spec, policy = reference_policy
    report = verify_pbe(spec, policy, tol=1e-6)
    assert report.ok
    assert report.max_gain <= 1e-6
    assert report.agents_checked == 4
    assert report.violations == ()
    doc = report.to_document()
    assert doc["ok"] is True
    assert "off_path_rule" in doc


def test_zero_reward_gains_exactly_zero():
    spec = instances.zero_reward_instance()
    result = solve(spec)
    report = verify_pbe(spec, EquilibriumPolicy(spec, result.generator))
    assert report.max_gain == 0.0


def test_single_player_is_optimal_control(corpus_solves):
    for name in ("single_player", "single_player_tied"):
        spec, result = corpus_solves[name]
        policy = EquilibriumPolicy(spec, result.generator)
        report = verify_pbe(spec, policy)
        assert report.max_gain <= 1e-10
        best = best_deviation_value(spec, policy, 0, 0)
        assert best == pytest.approx(float(result.root.values[0][0]),
                                     abs=1e-10)


def test_gain_nonnegativity(corpus_solves):
    for name in ("reference", "dominant_types", "signaling_pennies"):
        spec, result = corpus_solves[name]
        policy = EquilibriumPolicy(spec, result.generator)
        histories = [()] + [((a0, a1),) for a0 in range(2) for a1 in range(2)]
        for h in histories:
            for i in range(spec.num_players):
                for xi in range(spec.type_counts[i]):
                    dev = best_deviation_value(spec, policy, i, xi, h)
                    eq = equilibrium_continuation_value(spec, policy, i, xi, h)
                    assert dev >= eq - 1e-10


def test_perturbation_is_flagged(reference_solved):
    spec, result = reference_solved
    tampered = RowPerturbedPolicy(spec, result.generator, eps=0.05)
    report = verify_pbe(spec, tampered, tol=1e-6)
    assert not report.ok
    assert report.max_gain > 1e-3
    assert report.worst is not None
    assert report.worst.gain == pytest.approx(report.max_gain)
    # monotone tolerance: the same gains pass a loose enough bar
    loose = verify_pbe(spec, tampered, tol=10.0)
    assert loose.ok
    assert set(loose.violations) <= set(report.violations)


def test_one_shot_reference(reference_policy):
    spec, policy = reference_policy
    result = verify_one_shot(spec, policy)
    assert result["ok"]
    assert result["histories_checked"] == 5
    assert result["max_gap"] <= 1e-8


def test_one_shot_static_equals_stage_check():
    zero = lambda *a: 0.0
    for spec in (instances.bayesian_coordination_instance(),
                 instances.random_instance(0, players=3, horizon=1),
                 instances.random_instance(2, types=3, horizon=1)):
        result = solve(spec)
        assert result.ok
        policy = EquilibriumPolicy(spec, result.generator)
        report = one_shot_gaps(spec, policy)
        assert report["stage"] == 1 and report["gaps"]
        rows = [np.asarray(r) for r in result.root.prescription.rows]
        for (i, xi), gap in report["gaps"].items():
            q = oracles.q_vector_brute(spec, 1, spec.prior, rows, i, xi, zero)
            eq = sum(rows[i][xi][a] * q[a] for a in range(len(q)))
            assert gap == pytest.approx(max(q) - eq, abs=1e-12)
            # at horizon 1 the deviation walk makes the same comparison
            assert best_deviation_value(spec, policy, i, xi) == \
                pytest.approx(max(q), abs=1e-12)
            assert equilibrium_continuation_value(spec, policy, i, xi) == \
                pytest.approx(eq, abs=1e-12)
        static = verify_one_shot(spec, policy)
        assert static["ok"] and static["histories_checked"] == 1


def test_one_shot_catches_perturbation(reference_solved):
    spec, result = reference_solved
    tampered = RowPerturbedPolicy(spec, result.generator, eps=0.05)
    out = verify_one_shot(spec, tampered)
    assert not out["ok"]
    assert out["max_gap"] > 1e-3


def test_strategy_independence_reference(reference_policy):
    spec, policy = reference_policy
    out = check_strategy_independence(spec, policy, samples=10, seed=4)
    assert out["ok"]
    assert out["skipped"] == 0
    assert out["checked"] == 10 * 4 * 2
    assert out["max_diff"] <= 1e-12


def test_strategy_independence_skips_unreachable(corpus_solves):
    spec, result = corpus_solves["dominant_types"]
    policy = EquilibriumPolicy(spec, result.generator)
    out = check_strategy_independence(spec, policy, samples=10, seed=4)
    assert out["ok"]
    assert out["skipped"] > 0       # pure rows make half the actions off-path
    assert out["checked"] > 0


def test_strategy_independence_fixed_player_stage(reference_policy):
    spec, policy = reference_policy
    out = check_strategy_independence(spec, policy, i=1, t=1, samples=5,
                                      seed=0)
    assert out["ok"] and out["checked"] == 5 * 4 * 2


def deep_reference():
    """The reference game lengthened to horizon 5 (four matching-pennies
    stages, then its coordination stage), where every belief pair of the
    two-path check is bit-identical."""
    ref = instances.reference_instance()
    return dataclasses.replace(ref, horizon=5,
                               rewards=ref.rewards[:1] * 4 + ref.rewards[1:])


@pytest.fixture(scope="module")
def deep_solved():
    spec = deep_reference()
    return spec, solve(spec)


class RuledOutPolicy(EquilibriumPolicy):
    """Equilibrium play whose beliefs after the first stage give player
    0's type 0 no mass, so the two-path check meets degenerate
    post-stage conditionals."""

    def common_belief(self, history):
        pi = super().common_belief(history)
        if not history:
            return pi
        w = np.array(pi.weights)
        w[embedding_map(pi.type_counts, 0, 0)] = 0.0
        return Belief(w / w.sum(), pi.type_counts)


@pytest.mark.parametrize("case, samples", [
    ("reference", 50), ("deep_reference", 12), ("signaling_pennies", 50),
    ("random_20", 50), ("dominant_types", 50), ("perturbed", 50),
    ("ruled_out", 50),
])
def test_strategy_independence_matches_brute_force(corpus_solves, deep_solved,
                                                   case, samples):
    if case == "deep_reference":
        spec, result = deep_solved
    elif case == "random_20":   # its belief pairs differ
        spec = instances.random_instance(20)
        result = solve(spec)
    else:
        spec, result = corpus_solves[
            "reference" if case in ("perturbed", "ruled_out") else case]
    if case == "perturbed":
        policy = RowPerturbedPolicy(spec, result.generator, eps=0.05)
    elif case == "ruled_out":
        policy = RuledOutPolicy(spec, result.generator)
    else:
        policy = EquilibriumPolicy(spec, result.generator)
    out = check_strategy_independence(spec, policy, samples=samples, seed=0)
    assert repr(out) == repr(oracles.two_path_brute(spec, policy,
                                                    samples=samples, seed=0))


class NaNBeliefPolicy(RuledOutPolicy):
    """``RuledOutPolicy`` on a game where player 0's type 0 can hold all
    the mass: its renormalized beliefs are then NaN."""

    def common_belief(self, history):
        with np.errstate(invalid="ignore"):
            return super().common_belief(history)


@pytest.mark.parametrize("game", ["dominant_types", "random_7"])
def test_non_finite_beliefs_are_refused_before_a_solve(corpus_solves, game):
    """The exact generator refuses a belief with non-finite weights on a
    store miss, naming its stage and weights, instead of solving it."""
    if game == "random_7":
        spec = instances.random_instance(7)
        result = solve(spec)
    else:
        spec, result = corpus_solves[game]
    with pytest.raises(ValueError, match=r"stage 2 belief has non-finite "
                                         r"weights \[nan"):
        run_certification(spec, NaNBeliefPolicy(spec, result.generator))
    generator = result.generator
    size = len(generator.cached_points())
    nan = Belief(np.full(spec.num_joint_types, np.nan), spec.type_counts)
    with pytest.raises(ValueError, match="stage 1 belief has non-finite"):
        generator.solution_at(1, nan)
    assert len(generator.cached_points()) == size


class NoUpdatePolicy(EquilibriumPolicy):
    """Plays the solved prescriptions but never updates the common belief."""

    def common_belief(self, history):
        return super().common_belief(())


def test_strategy_independence_catches_a_frozen_belief(corpus_solves):
    spec, result = corpus_solves["signaling_pennies"]
    out = check_strategy_independence(spec, NoUpdatePolicy(spec, result.generator))
    assert not out["ok"]
    assert out["max_diff"] > 1e-12
    cert = run_certification(spec, NoUpdatePolicy(spec, result.generator))
    assert not cert["belief_consistency"]["ok"]
    assert not cert["all_checks_ok"]


@pytest.mark.parametrize("case", ["random_1_three_players_grid",
                                  "signaling_pennies_no_update"])
def test_strategy_independence_batches_match_single_samples(corpus_solves, case):
    """Each sample's result is what its own payoff recursion and dot
    products give on the verifier's belief pairs, though the check runs
    one recursion for all the samples of a (player, stage). The
    three-player grid policy's differing pairs span four type profiles of
    the others."""
    if case == "signaling_pennies_no_update":
        spec, result = corpus_solves["signaling_pennies"]
        policy = NoUpdatePolicy(spec, result.generator)
    else:
        spec = instances.random_instance(1, players=3)
        policy = EquilibriumPolicy(spec, solve(spec, mode="grid",
                                               resolution=1).generator)
    out = check_strategy_independence(spec, policy)["samples"]
    assert any(sample["max_diff"] > 0.0 for sample in out)
    assert repr(out) == repr(oracles.two_path_per_sample(spec, policy))


@pytest.mark.parametrize("case, recursions, conditionings", [
    # the four (player, stage) pairs 50 samples draw on the horizon-5 game
    ("deep_reference", 0, [(0, 1), (0, 4), (1, 4), (1, 16),
                           (0, 16), (0, 64), (1, 64), (1, 256)]),
    ("signaling_pennies", 5, [(0, 1), (0, 4), (1, 1), (1, 4)]),
], ids=["deep_reference", "signaling_pennies"])
def test_strategy_independence_builds_pairs_once(corpus_solves, deep_solved,
                                                 monkeypatch, case, recursions,
                                                 conditionings):
    spec, result = (deep_solved if case == "deep_reference"
                    else corpus_solves[case])
    policy = EquilibriumPolicy(spec, result.generator)
    verify_pbe(spec, policy)
    recursion_calls, stacks = [0], []
    real_rewards = spbe.verify.expected_rewards
    real_condition = spbe.verify.conditional_weights

    def counting_rewards(*args):
        recursion_calls[0] += 1
        return real_rewards(*args)

    def counting_condition(weights, type_counts, i):
        stacks.append((i, len(weights)))
        return real_condition(weights, type_counts, i)

    monkeypatch.setattr(spbe.verify, "expected_rewards", counting_rewards)
    monkeypatch.setattr(spbe.verify, "conditional_weights", counting_condition)
    check_strategy_independence(spec, policy)
    # the recursion runs only where a belief pair differs, once per such
    # history for all the samples of its (player, stage), and each pair
    # conditions two stacks once, not per sample or per history: the
    # stage-(t-1) histories' beliefs and the stage-t ones'
    assert recursion_calls == [recursions]
    assert stacks == conditionings


def test_cold_certificate_reads_each_history_once(monkeypatch):
    """A certificate on a fresh policy of the horizon-5 reference makes
    beliefs a sibling group at a time, through ``expand``, asks the generator at most twice
    per history (for its prescription and for its claimed values) and
    rounds each belief's key at most once."""
    spec = deep_reference()
    generator = solve(spec).generator
    updates, batches, solved_at, rounded = [], [], [], []

    def counting(calls, real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(spbe.forward, "update", counting(updates, spbe.forward.update))
    monkeypatch.setattr(spbe.forward, "posteriors",
                        counting(batches, spbe.forward.posteriors))
    monkeypatch.setattr(type(generator), "solution_at",
                        counting(solved_at, type(generator).solution_at))
    key = counting(rounded, spbe.beliefs.belief_key)
    monkeypatch.setattr(spbe.beliefs, "belief_key", key)
    assert run_certification(spec, EquilibriumPolicy(spec, generator))["all_checks_ok"]
    histories = sum(spec.num_joint_actions ** k for k in range(spec.horizon))
    parents = histories - spec.num_joint_actions ** (spec.horizon - 1)
    assert (len(updates), len(batches)) == (0, parents)
    # one prescription per history, claimed values once per child read
    assert len(solved_at) == histories + histories - 1
    assert len(solved_at) <= 2 * histories
    # the calls hold every rounded array, so their ids stay distinct
    assert len({id(weights) for (weights,) in rounded}) == len(rounded)
    assert len(rounded) <= len({id(pi) for _self, _t, pi in solved_at})


def test_tree_budget_guard():
    spec = instances.random_instance(2, horizon=11)
    with pytest.raises(ResourceLimitError):
        verify_pbe(spec, None)
    with pytest.raises(ResourceLimitError):
        verify_one_shot(spec, None)
    with pytest.raises(ResourceLimitError):
        check_strategy_independence(spec, None)


class FailingPointPolicy(EquilibriumPolicy):
    """Equilibrium play, except that the stage point after one history
    failed to solve."""

    def prescription_for_history(self, history):
        if history == ((1, 1),):
            raise NoFixedPointError(2, (), "no_fixed_point")
        return super().prescription_for_history(history)


def test_failed_stage_point_raises_from_the_checks(reference_solved):
    spec, result = reference_solved
    policy = FailingPointPolicy(spec, result.generator)
    for check in (verify_pbe, verify_one_shot, run_certification):
        with pytest.raises(NoFixedPointError):
            check(spec, policy)
    with pytest.raises(NoFixedPointError):
        best_deviation_value(spec, policy, 0, 0)
    # a subtree that avoids the failed point still checks
    assert one_shot_gaps(spec, policy, ((0, 0),))["stage"] == 2


def test_certificate_document(reference_solved):
    spec, result = reference_solved
    doc = policy_document(result)
    cert = run_certification(spec, EquilibriumPolicy(spec, load_policy(doc, spec)),
                             consistency_samples=10)
    assert cert["all_checks_ok"]
    assert cert["game"] == spec.digest()
    assert cert["one_shot"]["ok"]
    assert cert["belief_consistency"]["ok"]
    assert cert["table_completions"] == 0
    assert "tolerance" in cert and "max_gain" in cert


class NanClaimsPolicy(EquilibriumPolicy):
    """Equilibrium play whose claimed continuation values are all NaN."""

    def continuation_value(self, history, i, xi):
        return float("nan")


def test_nan_claimed_values_fail_one_shot(reference_solved):
    spec, result = reference_solved
    policy = NanClaimsPolicy(spec, result.generator)
    out = verify_one_shot(spec, policy)
    assert not out["ok"]
    assert np.isnan(out["max_gap"])
    assert out["worst"]["history"] == ()
    cert = run_certification(spec, policy, consistency_samples=0)
    assert not cert["one_shot"]["ok"]
    assert not cert["all_checks_ok"]


class NaNNodePolicy(EquilibriumPolicy):
    """The solved policy's prescriptions and claimed values, but an all-NaN
    common belief after the joint action (1, 1)."""

    def __init__(self, spec, generator):
        super().__init__(spec, generator)
        self.solved = EquilibriumPolicy(spec, generator)

    def common_belief(self, history):
        if spbe.forward._normalize_history(history) == ((1, 1),):
            return Belief(np.full(self.spec.num_joint_types, np.nan),
                          self.spec.type_counts)
        return self.solved.common_belief(history)

    def prescription_for_history(self, history):
        return self.solved.prescription_for_history(history)

    def continuation_value(self, history, i, xi):
        return self.solved.continuation_value(history, i, xi)


def test_nan_gains_fail_the_deviation_check(reference_solved):
    """Gains are NaN after (1, 1) and at the root, for every agent. The
    worst finding is the first NaN one, agent (0, 0) after (1, 1) in
    post-order; the check fails with a NaN ``max_gain``, as the node walk
    says, and so does the one-shot check."""
    spec, result = reference_solved
    report = verify_pbe(spec, NaNNodePolicy(spec, result.generator))
    assert not report.ok
    assert np.isnan(report.max_gain)
    assert (report.worst.player, report.worst.type_index,
            report.worst.history) == (0, 0, ((1, 1),))
    assert report.violations == ()
    brute = oracles.walk_brute(spec, NaNNodePolicy(spec, result.generator))
    assert repr(report.to_document()) == repr(brute.to_document())
    assert repr(report.one_shot) == repr(brute.one_shot)
    one_shot = verify_one_shot(spec, NaNNodePolicy(spec, result.generator))
    assert not one_shot["ok"]
    assert np.isnan(one_shot["max_gap"])
    assert one_shot["worst"]["history"] == ((1, 1),)
    assert np.isnan(one_shot["worst"]["max_gap"])
    cert = run_certification(spec, NaNNodePolicy(spec, result.generator),
                             consistency_samples=0)
    assert not cert["ok"] and not cert["one_shot"]["ok"]
    assert np.isnan(cert["max_gain"])
    assert cert["worst"]["history"] == [[1, 1]]
    assert not cert["all_checks_ok"]


def test_certificate_conditions_each_node_once(reference_solved, monkeypatch):
    spec, result = reference_solved
    calls = []
    real = spbe.verify.conditional_weights

    def counting(weights, type_counts, i):
        calls.append((i, len(weights)))
        return real(weights, type_counts, i)

    monkeypatch.setattr(spbe.verify, "conditional_weights", counting)
    run_certification(spec, EquilibriumPolicy(spec, result.generator),
                      consistency_samples=0)
    # one stack per (depth, player), deepest first: the root's 4 children,
    # then the root; every history is in exactly one stack
    assert calls == [(0, 4), (1, 4), (0, 1), (1, 1)]


@pytest.fixture(scope="module")
def reference_grid():
    spec = instances.reference_instance()
    result = solve(spec, mode="grid", resolution=3)
    assert result.ok
    return result.generator


@pytest.mark.parametrize("kind", ["reference", "perturbed", "grid"])
def test_certificate_agrees_with_the_separate_checks(reference_solved,
                                                     reference_grid, kind):
    spec, result = reference_solved

    def policy():
        if kind == "perturbed":
            return RowPerturbedPolicy(spec, result.generator, eps=0.05)
        if kind == "grid":
            return EquilibriumPolicy(spec, reference_grid)
        return EquilibriumPolicy(spec, result.generator)

    cert = run_certification(spec, policy(), consistency_samples=0)
    walk = verify_pbe(spec, policy()).to_document()
    assert {key: cert[key] for key in walk} == walk
    one_shot = verify_one_shot(spec, policy(), tol=1e-8)
    assert cert["one_shot"] == {key: one_shot[key] for key in
                                ("ok", "max_gap", "histories_checked")}
    assert cert["all_checks_ok"] == (kind != "perturbed")
    worst = one_shot["worst"]
    assert worst == one_shot_gaps(spec, policy(), worst["history"])


class RandomClaimsPolicy(RandomRowsPolicy):
    """Random rows, and claimed values seeded by (history, player, type),
    so that they do not depend on the order they are asked in."""

    def continuation_value(self, history, i, xi):
        seed = zlib.crc32(repr((history, i, xi)).encode())
        return float(np.random.default_rng(seed).normal())


@pytest.fixture(scope="module")
def random_solves():
    return {seed: solve(instances.random_instance(seed)) for seed in range(10)}


LEVEL_PASS_CASES = (
    [f"corpus_{name}" for name in instances.corpus()]
    + [f"random_{seed}" for seed in range(10)]
    + ["deep_reference", "reference_grid", "perturbed", "nan_claims",
       "no_update", "random_rows_reference", "random_rows_discounted",
       "random_rows_three_players"])


@pytest.mark.parametrize("case", LEVEL_PASS_CASES)
def test_level_pass_matches_the_node_walk(corpus_solves, random_solves,
                                          deep_solved, reference_grid, case):
    """The level pass gives the per-node walk's report, one-shot gaps in
    pre-order, and values at every history of depth <= 2, to the bit."""
    reference, solved = corpus_solves["reference"]
    kinds = {"perturbed": RowPerturbedPolicy, "nan_claims": NanClaimsPolicy,
             "no_update": NoUpdatePolicy}
    random_rows = {"random_rows_reference": instances.reference_instance(),
                   "random_rows_discounted": instances.random_instance(3, discount=0.9),
                   "random_rows_three_players":
                       instances.random_instance(0, players=3, horizon=2)}
    if case in random_rows:
        spec = random_rows[case]
        shared = RandomClaimsPolicy(spec, seed=5)
        for depth in range(spec.horizon):   # draw every history's rows once
            for history in itertools.product(
                    itertools.product(*map(range, spec.action_counts)), repeat=depth):
                shared.prescription_for_history(history)
        policy = lambda: shared
    else:
        if case.startswith("corpus_"):
            spec, result = corpus_solves[case[len("corpus_"):]]
        elif case.startswith("random_"):
            seed = int(case[len("random_"):])
            spec, result = instances.random_instance(seed), random_solves[seed]
        elif case == "deep_reference":
            spec, result = deep_solved
        else:
            spec, result = reference, solved
        generator = reference_grid if case == "reference_grid" else result.generator
        kind = kinds.get(case, EquilibriumPolicy)
        policy = lambda: kind(spec, generator)

    asked = {"level": [], "node": []}

    def logged(check, log):
        # runs check, logging the (child, player, type) claims it reads
        p = policy()
        real = p.continuation_value
        p.continuation_value = lambda *args: log.append(args) or real(*args)
        try:
            return check(spec, p)
        finally:
            del p.continuation_value

    report = logged(verify_pbe, asked["level"])
    brute = logged(oracles.walk_brute, asked["node"])
    assert repr(report.to_document()) == repr(brute.to_document())
    assert repr(report.one_shot) == repr(brute.one_shot)
    assert sorted(asked["level"]) == sorted(asked["node"])
    joint = list(itertools.product(*map(range, spec.action_counts)))
    for depth in range(min(2, spec.horizon) + 1):
        for history in itertools.product(joint, repeat=depth):
            for i, types in enumerate(spec.type_counts):
                for xi in range(types):
                    got = (equilibrium_continuation_value(spec, policy(), i, xi, history),
                           best_deviation_value(spec, policy(), i, xi, history))
                    want = oracles.walk_values_brute(spec, policy(), i, xi, history)
                    assert repr(got) == repr(want), (history, i, xi)
