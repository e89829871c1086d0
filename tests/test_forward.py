import numpy as np
import pytest

from spbe import (
    Belief,
    EquilibriumPolicy,
    Prescription,
    ResourceLimitError,
    belief_key,
    expected_payoffs_exact,
    initial_belief,
    instances,
    load_policy,
    run_certification,
    simulate,
    solve,
    traces_to_delimited,
    update,
)
from spbe.forward import expected_rewards

import oracles


@pytest.fixture(scope="module")
def reference_policy(reference_solved):
    spec, result = reference_solved
    return spec, EquilibriumPolicy(spec, result.generator)


def test_pooling_keeps_prior(reference_policy):
    spec, policy = reference_policy
    prior = policy.common_belief(())
    np.testing.assert_array_equal(prior.weights, spec.prior)
    for a in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert policy.common_belief((a,)) is prior


def test_strategy_query_depends_only_on_belief(reference_policy):
    spec, policy = reference_policy
    histories = [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]
    base = policy.strategy_query(histories[0], 0, 1)
    for h in histories[1:]:
        np.testing.assert_array_equal(policy.strategy_query(h, 0, 1), base)


def test_strategy_query_differs_when_beliefs_do():
    spec = instances.dominant_types_instance()
    result = solve(spec)
    policy = EquilibriumPolicy(spec, result.generator)
    after_00 = policy.common_belief(((0, 0),))
    after_11 = policy.common_belief(((1, 1),))
    assert not np.array_equal(after_00.weights, after_11.weights)


def test_belief_query_separating_and_pooling():
    # hand-built stage prescription: player 0 reveals its type, player 1
    # pools; the separator's own conditional keeps the prior pattern while
    # the observer pins the separator's type
    spec = instances.reference_instance()
    entry = {"t": 1, "belief": list(belief_key(spec.prior)),
             "rows": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]],
             "values": [[0.0, 0.0], [0.0, 0.0]],
             "residual": 0.0, "status": "converged"}
    doc = {"format": "repeated-game-policy", "game": spec.digest(),
           "mode": "exact", "entries": [entry]}
    policy = EquilibriumPolicy(spec, load_policy(doc, spec))
    own = policy.belief_query(((0, 0),), 0, 0)
    np.testing.assert_array_equal(own.weights, [0.8, 0.2])
    observer = policy.belief_query(((0, 0),), 1, 0)
    np.testing.assert_array_equal(observer.weights, [1.0, 0.0])


def test_continuation_value(reference_policy):
    spec, policy = reference_policy
    for i in range(2):
        for xi in range(2):
            assert policy.continuation_value((), i, xi) == \
                pytest.approx(0.24, abs=1e-12)


def test_strategy_query_returns_copy(reference_policy):
    spec, policy = reference_policy
    row = policy.strategy_query((), 0, 0)
    row[0] = 99.0
    np.testing.assert_array_equal(policy.strategy_query((), 0, 0), [0.5, 0.5])


def test_simulation_reproducible(reference_policy):
    spec, policy = reference_policy
    a = simulate(spec, policy, episodes=40, seed=11)
    b = simulate(spec, policy, episodes=40, seed=11)
    np.testing.assert_array_equal(a.summary.per_player_mean,
                                  b.summary.per_player_mean)
    for ta, tb in zip(a.traces, tb_ := b.traces):
        assert ta.joint_type == tb.joint_type
        assert ta.actions == tb.actions
    c = simulate(spec, policy, episodes=40, seed=12)
    assert any(ta.actions != tc.actions for ta, tc in zip(a.traces, c.traces))


def test_trace_beliefs_recomputable(reference_policy):
    spec, policy = reference_policy
    sim = simulate(spec, policy, episodes=10, seed=3)
    for trace in sim.traces:
        pi = initial_belief(spec)
        for s, a in enumerate(trace.actions):
            np.testing.assert_array_equal(trace.beliefs[s].weights, pi.weights)
            gamma = policy.prescription_at(s + 1, pi)
            pi = update(pi, gamma, a)


def test_trace_rewards_and_totals(reference_policy):
    spec, policy = reference_policy
    sim = simulate(spec, policy, episodes=10, seed=3)
    for trace in sim.traces:
        xf = spec.flatten_types(trace.joint_type)
        for s, a in enumerate(trace.actions):
            af = spec.flatten_actions(a)
            for i in range(2):
                assert trace.stage_rewards[s][i] == spec.reward(s + 1, i, xf, af)
        discounts = spec.discount ** np.arange(spec.horizon)
        np.testing.assert_allclose(trace.totals,
                                   discounts @ trace.stage_rewards, atol=1e-12)


def test_trace_limit_and_counts(reference_policy):
    spec, policy = reference_policy
    sim = simulate(spec, policy, episodes=50, seed=5, trace_limit=10)
    assert len(sim.traces) == 10
    assert sim.summary.episodes == 50
    for counts in sim.summary.per_type_count:
        assert counts.sum() == 50
    assert sim.summary.entropy_trajectory.shape == (spec.horizon,)


def test_traces_delimited_format(reference_policy):
    spec, policy = reference_policy
    sim = simulate(spec, policy, episodes=4, seed=1)
    text = traces_to_delimited(sim.traces)
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == ["episode", "stage", "joint_type",
                                    "belief", "actions", "rewards"]
    assert len(lines) == 1 + 4 * spec.horizon


def test_summary_document_round_trips(reference_policy):
    spec, policy = reference_policy
    doc = simulate(spec, policy, episodes=8, seed=2).summary.to_document()
    assert doc["episodes"] == 8
    assert len(doc["per_player_mean"]) == 2
    assert len(doc["entropy_trajectory"]) == spec.horizon


def test_exact_payoffs_zero_game():
    spec = instances.zero_reward_instance()
    result = solve(spec)
    ep = expected_payoffs_exact(spec, EquilibriumPolicy(spec, result.generator))
    np.testing.assert_array_equal(ep.per_player, [0.0, 0.0])
    np.testing.assert_array_equal(ep.per_joint_type, np.zeros((2, 4)))


def test_exact_payoffs_single_player_matches_enumeration():
    spec = instances.single_player_instance()
    result = solve(spec)
    ep = expected_payoffs_exact(spec, EquilibriumPolicy(spec, result.generator))
    np.testing.assert_allclose(ep.per_type[0],
                               oracles.single_player_optimum(spec), atol=1e-9)


def test_exact_payoffs_one_shot_is_stage_reward():
    spec = instances.bayesian_coordination_instance()
    result = solve(spec)
    ep = expected_payoffs_exact(spec, EquilibriumPolicy(spec, result.generator))
    np.testing.assert_allclose(ep.per_player, [1.0, 1.0], atol=1e-12)


def test_exact_payoffs_budget_guard():
    spec = instances.random_instance(1, horizon=13)
    with pytest.raises(ResourceLimitError):
        expected_payoffs_exact(spec, None)


def test_monte_carlo_agrees_with_exact(reference_policy):
    spec, policy = reference_policy
    sim = simulate(spec, policy, episodes=4000, seed=9)
    ep = expected_payoffs_exact(spec, policy)
    for i in range(2):
        half_width = 4 * float(sim.summary.per_player_stderr[i]) + 1e-6
        assert abs(float(sim.summary.per_player_mean[i]) -
                   float(ep.per_player[i])) <= half_width


class RandomRowsPolicy(EquilibriumPolicy):
    """Seeded random rows at every history, about a third of them pure, so
    zero-probability actions and unreached joint types occur."""

    def __init__(self, spec, seed):
        super().__init__(spec, generator=None)
        self.rng = np.random.default_rng(seed)

    def random_rows(self, types, actions):
        rows = self.rng.dirichlet(np.ones(actions), size=types)
        pure = self.rng.random(types) < 0.3
        rows[pure] = np.eye(actions)[self.rng.integers(actions, size=int(pure.sum()))]
        return rows

    def prescription_at(self, t, pi):
        return Prescription(tuple(
            self.random_rows(c, a)
            for c, a in zip(self.spec.type_counts, self.spec.action_counts)))


@pytest.mark.parametrize("spec", [
    instances.reference_instance(),
    instances.random_instance(3, discount=0.9),
    instances.random_instance(0, players=3, horizon=2),
], ids=["reference", "random_3_discounted", "random_0_three_players"])
def test_expected_rewards_match_path_enumeration(spec):
    policy = RandomRowsPolicy(spec, seed=5)
    rows_at = lambda h: policy.prescription_for_history(h).rows
    last = spec.num_players - 1
    deviation = (last, {t: policy.random_rows(spec.type_counts[last],
                                              spec.action_counts[last])
                        for t in range(1, spec.horizon + 1)})
    reach = policy.rng.random(spec.num_joint_types) < 0.5
    later = ((1,) * spec.num_players,)
    for history in [(), later]:
        want = np.array(oracles.path_payoffs_brute(spec, rows_at, history))
        np.testing.assert_allclose(expected_rewards(spec, policy, history), want,
                                   rtol=0, atol=1e-12)
        want = np.array(oracles.path_payoffs_brute(spec, rows_at, history, deviation))
        np.testing.assert_allclose(expected_rewards(spec, policy, history, deviation),
                                   want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            expected_rewards(spec, policy, history, deviation, reach),
            np.where(reach, want, 0.0), rtol=0, atol=1e-12)


def test_prescription_asked_once_per_history(reference_solved):
    spec, result = reference_solved

    class CountingPolicy(EquilibriumPolicy):
        calls = 0

        def prescription_at(self, t, pi):
            CountingPolicy.calls += 1
            return super().prescription_at(t, pi)

    policy = CountingPolicy(spec, result.generator)
    assert run_certification(spec, policy)["all_checks_ok"]
    simulate(spec, policy, episodes=200, seed=1)
    histories = sum(spec.num_joint_actions ** k for k in range(spec.horizon))
    assert CountingPolicy.calls == histories


def test_history_spellings_share_one_cache_entry():
    """A history written as lists or with NumPy ints reaches the same cached
    belief and prescription as its tuple form, whichever is asked first."""
    spec = instances.dominant_types_instance()
    policy = EquilibriumPolicy(spec, solve(spec).generator)
    as_lists = [[1, 0]]
    as_tuples = ((1, 0),)
    as_numpy = (tuple(np.array([1, 0], dtype=np.int64)),)
    belief = policy.common_belief(as_lists)
    prescription = policy.prescription_for_history(as_lists)
    for history in (as_tuples, as_numpy, as_lists):
        assert policy.common_belief(history) is belief
        assert policy.prescription_for_history(history) is prescription
    assert policy.common_belief(()) is not belief
    with pytest.raises(ValueError, match="longer than the horizon"):
        policy.common_belief([[0, 0]] * (spec.horizon + 1))
